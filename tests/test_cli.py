import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import vaknh
from vaknh.cli import run
from vaknh.comparison import REPORT_SCHEMA
from vaknh.integrate import read_trajectory_csv

from conftest import get_model


def test_catalog_lists_models(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("constrained_particle", "rolling_penny", "martinet",
                 "paramecium", "von_neumann2", "holonomic_demo"):
        assert name in out


def test_check_particle_passes(capsys):
    assert run(["check", "constrained_particle", "--q", "1,1,1"]) == 0
    out = capsys.readouterr().out
    assert "det = 2.0" in out
    assert "admissibility: PASS" in out


def test_check_reports_admissibility_failure(tmp_path, capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text("""\
name bad
coords x y z
dependent z
linear true
lagrangian 0.5*(dx^2 + dy^2 + dz^2)
psi z = dz
""")
    assert run(["check", str(bad)]) == 2
    assert "admissibility: FAIL" in capsys.readouterr().out


def test_check_nonlinear_skips_compatibility(capsys):
    assert run(["check", "von_neumann2"]) == 0
    out = capsys.readouterr().out
    assert "compatibility: skipped" in out


def test_check_reports_false_linearity_declaration(tmp_path, capsys):
    lying = tmp_path / "lying.sys"
    lying.write_text("""\
name lying
coords x y
dependent x
linear true
lagrangian 0.5*(dx^2 + dy^2)
psi x = dy^2
""")
    assert run(["check", str(lying)]) == 2
    assert capsys.readouterr().out == (
        "linearity: FAIL (system 'lying' is declared linear but fails verification at "
        "state (array([ 0.27392337, -0.46042657]), array([-0.91805295])))\n")


HALF_LINEAR = """\
name odd
coords x y z
dependent z
linear {linear}
lagrangian 0.5*(dx^2 + dy^2 + dz^2)
psi z = y*dx + dx^2*(sqrt((x - {edge})^2) - (x - {edge}))
"""


@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_check_skips_compatibility_of_a_nonlinear_system_whose_samples_pass(
        seed, tmp_path, capsys):
    # psi is linear where x >= 0 only.  The one sample of these seeds has
    # x >= 0, but the system is not linear: the compatibility test is skipped.
    path = tmp_path / "odd.sys"
    path.write_text(HALF_LINEAR.format(linear="false", edge=0))
    assert run(["check", str(path), "--samples", "1", "--seed", str(seed)]) == 2
    out = capsys.readouterr().out
    assert "linearity: declared false, verified true: FAIL\n" in out
    assert out.endswith("compatibility: skipped (nonlinear constraints)\n")


def test_check_tests_compatibility_of_a_linear_system_whose_samples_fail(tmp_path, capsys):
    # psi is linear where x >= -0.95, as at every state the load samples; the
    # one sample of seed 34 has x < -0.95.
    path = tmp_path / "odd.sys"
    path.write_text(HALF_LINEAR.format(linear="true", edge=-0.95))
    assert run(["check", str(path), "--samples", "1", "--seed", "34"]) == 2
    out = capsys.readouterr().out
    assert "linearity: declared true, verified false: FAIL\n" in out
    assert out.endswith("compatibility at probe q: det = 2.0, invertible: PASS\n")


def _python_m(*argv):
    """``python -m vaknh.cli argv`` in a new process."""
    env = {**os.environ, "PYTHONPATH": str(Path(vaknh.__file__).resolve().parent.parent)}
    return subprocess.run([sys.executable, "-m", "vaknh.cli", *argv], capture_output=True,
                          text=True, env=env)


def test_python_m_vaknh_cli_runs_the_command():
    done = _python_m("catalog")
    assert done.returncode == 0
    assert "martinet" in done.stdout and "von_neumann2" in done.stdout
    done = _python_m("compare", "martinet")
    assert done.returncode == 1
    assert done.stderr == "error: the following arguments are required: --p\n"


def test_check_reports_a_format_error_that_quotes_the_linearity_text(tmp_path, capsys):
    # The psi target spells the text of a failed linearity declaration.
    odd = tmp_path / "odd.sys"
    odd.write_text("""\
name odd
coords x y
dependent y
linear true
lagrangian dx^2/2 + dy^2/2
psi declared linear but fails verification = x*dx
""")
    expected = ("error: psi lines ['declared linear but fails verification'] "
                "do not match dependent coords ['y']\n")
    for argv in (["check", str(odd)],
                 ["integrate", str(odd), "--dynamics", "vak", "--t-end", "1"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == expected


def test_integrate_martinet_constant_multiplier(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(["integrate", "martinet", "--dynamics", "vak",
                "--q", "0,1,0", "--v", "1,0", "--p", "1",
                "--t-end", "10", "--out", str(out)])
    assert code == 0
    traj = read_trajectory_csv(get_model("martinet"), out)
    pz = np.array([s.p_dep[0] for s in traj.states])
    assert np.max(np.abs(pz - 1.0)) <= 1e-9
    assert traj.times[-1] == 10.0


def test_integrate_csv_round_trips_full_precision(tmp_path):
    out = tmp_path / "penny.csv"
    assert run(["integrate", "rolling_penny", "--dynamics", "nh",
                "--q", "0,0,0.2,0.3", "--v", "0.7,0.4",
                "--t-end", "2", "--out", str(out)]) == 0
    sysdef = get_model("rolling_penny")
    traj = read_trajectory_csv(sysdef, out)
    from vaknh.integrate import integrate
    from vaknh.system import NhState
    direct = integrate(sysdef, "nh", NhState([0, 0, 0.2, 0.3], [0.7, 0.4]),
                       t_end=2.0)
    assert np.array_equal(traj.times, direct.times)
    for a, b in zip(traj.states, direct.states):
        assert np.array_equal(a.q, b.q) and np.array_equal(a.v, b.v)


def test_compare_particle_json(capsys):
    assert run(["compare", "constrained_particle",
                "--q", "0,1,0", "--v", "1,1", "--p", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["g"] == [1.0, -1.0]
    assert payload["deltaY"] == [0.5, -1.0]


def test_compare_with_candidates(tmp_path, capsys):
    cands = tmp_path / "cands.txt"
    cands.write_text("C1 = p_z - y*dx\n")
    assert run(["compare", "constrained_particle", "--q", "0,1,0",
                "--v", "1,0", "--p", "1", "--candidates", str(cands)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["tangency"]["C1"]) <= 1e-15


@pytest.mark.parametrize("dynamics", ["vak", "nh"])
def test_integrate_rejects_a_non_state_candidate_as_compare_does(dynamics, tmp_path, capsys):
    cands = tmp_path / "cands.txt"
    cands.write_text("C1 = w + x\n")
    state = ["martinet", "--q", "0,1,0", "--v", "0.8,-0.4", "--p", "1.2",
             "--candidates", str(cands)]
    message = "numeric error: candidate 'C1' uses non-state variable(s) ['w']\n"
    assert run(["compare", *state]) == 3
    assert capsys.readouterr() == ("", message)
    assert run(["integrate", *state, "--dynamics", dynamics, "--t-end", "1"]) == 3
    assert capsys.readouterr() == ("", message)


def test_integrate_nh_rejects_a_multiplier_candidate(tmp_path, capsys):
    # p_z is a state variable of the vakonomic dynamics only.
    cands = tmp_path / "cands.txt"
    cands.write_text("C1 = p_z - y*dx\n")
    args = ["integrate", "martinet", "--q", "0,1,0", "--v", "0.8,-0.4", "--p", "1.2",
            "--candidates", str(cands), "--t-end", "0.1"]
    assert run([*args, "--dynamics", "vak"]) == 0
    capsys.readouterr()
    assert run([*args, "--dynamics", "nh"]) == 3
    assert capsys.readouterr() == (
        "", "numeric error: candidate 'C1' uses non-state variable(s) ['p_z']\n")


_STATE = ["martinet", "--q", "0,1,0", "--v", "0.8,-0.4", "--p", "1.2"]
_UNDEFINED = "division by zero in '1.0 / 0.0'"


def _candidates_file(tmp_path, text):
    cands = tmp_path / "cands.txt"
    cands.write_text(text)
    return ["--candidates", str(cands)]


def test_integrate_fails_on_a_candidate_undefined_everywhere(tmp_path, capsys):
    argv = ["integrate", *_STATE, "--dynamics", "vak", "--t-end", "0.1",
            *_candidates_file(tmp_path, "K = 1/0\n")]
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"q=[0.0, 1.0, 0.0]: {_UNDEFINED}\n")


def test_compare_fails_on_a_candidate_undefined_everywhere(tmp_path, capsys):
    assert run(["compare", *_STATE, *_candidates_file(tmp_path, "K = 1/0\n")]) == 3
    assert capsys.readouterr() == ("", f"numeric error: {_UNDEFINED}\n")


def test_scan_skips_every_sample_on_a_candidate_undefined_everywhere(tmp_path, capsys):
    assert run(["scan", "martinet", "--samples", "3",
                *_candidates_file(tmp_path, "C = 1.5\nK = 1/0\n")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["skipped"] == 3
    assert {r["skipped"] for r in report["records"]} == {_UNDEFINED}


def test_a_constant_candidate_has_its_value_and_no_tangency(tmp_path, capsys):
    cands = _candidates_file(tmp_path, "C = 1.5\n")
    assert run(["compare", *_STATE, *cands]) == 0
    assert json.loads(capsys.readouterr().out)["tangency"] == {"C": 0.0}
    out = tmp_path / "out.csv"
    assert run(["integrate", *_STATE, "--dynamics", "vak", "--t-end", "0.1", *cands,
                "--out", str(out)]) == 0
    traj = read_trajectory_csv(get_model("martinet"), out)
    assert traj.monitors["G_C"].tolist() == [1.5] * len(traj.times)


def test_scan_writes_schema_valid_deterministic_json(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["scan", "constrained_particle", "--samples", "20", "--seed", "7",
            "--p-mode", "legendre"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    text1, text2 = out1.read_text(), out2.read_text()
    assert text1 == text2
    payload = json.loads(text1)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["summary"]["fraction_deltay_below_tol"] == 1.0


def test_scan_by_path(tmp_path):
    from vaknh.models import builtin_source
    path = tmp_path / "particle.sys"
    path.write_text(builtin_source("constrained_particle"))
    out = tmp_path / "report.json"
    assert run(["scan", str(path), "--samples", "5", "--seed", "1",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["system"] == "constrained_particle"


def test_usage_errors_exit_1(capsys):
    assert run(["integrate", "martinet", "--dynamics", "vak",
                "--q", "0,1", "--v", "1,0", "--p", "1", "--t-end", "1"]) == 1
    assert "error" in capsys.readouterr().err
    assert run(["compare", "nosuchmodel", "--q", "0", "--v", "0", "--p", "0"]) == 1


def test_one_parser_serves_every_call(capsys):
    # The parser is built once per process: a usage error leaves it usable,
    # and no call's options leak into the next.
    compare = ["compare", "constrained_particle", "--q", "0,1,0", "--v", "1,1", "--p", "2"]
    assert run(["compare", "constrained_particle", "--q", "0,1,0"]) == 1
    assert "--p" in capsys.readouterr().err
    assert run([*compare, "--tol", "0.001"]) == 0
    assert json.loads(capsys.readouterr().out)["tol"] == 0.001
    assert run(["nosuchcommand"]) == 1
    capsys.readouterr()
    assert run(compare) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tol"] == 1e-10 and payload["deltaY"] == [0.5, -1.0]


def test_numeric_errors_exit_3(capsys):
    # degenerate multiplier makes the reduced matrix singular
    code = run(["compare", "von_neumann2", "--q", "1.5,1.2", "--v", "0.3",
                "--p", "0"])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.parametrize("state, message", [
    (["--q=1.5,1.2", "--v=0.3", "--p=0"],
     "vakonomic matrix is singular for system 'von_neumann2' (det=0.0)"),
    (["--q=0.01,0.01", "--v=0.99", "--p=1"],
     "sqrt of non-positive value -0.98 (derivative undefined) in "
     "'sqrt(K1^1 * K2^1 - dK2^2)'"),
], ids=["singular", "domain"])
def test_compare_von_neumann2_exits_3_with_the_first_error(state, message, capsys):
    assert run(["compare", "von_neumann2", *state]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"numeric error: {message}\n"


def test_domain_error_exit_3(capsys):
    code = run(["integrate", "von_neumann2", "--dynamics", "vak",
                "--q", "0.01,0.01", "--v", "0.99", "--p", "1",
                "--t-end", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric error" in err


OVERFLOW = """\
name ovf
coords x y
dependent y
linear true
lagrangian exp(1000*dx)*dx^2/2 + dy^2/2
psi y = x*dx
"""


@pytest.mark.parametrize("argv", [
    ["compare", "--q=0,0", "--v=1", "--p=1"],
    ["integrate", "--dynamics", "vak", "--q=0,0", "--v=1", "--p=1", "--t-end", "1"],
    ["check", "--v=1"],
], ids=["compare", "integrate", "check"])
def test_math_range_error_exits_3(argv, tmp_path, capsys):
    path = tmp_path / "ovf.sys"
    path.write_text(OVERFLOW)
    assert run([argv[0], str(path), *argv[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and "math range error in 'exp(1000.0 * dx)'" in err


def test_scan_skips_samples_out_of_math_range(tmp_path, capsys):
    path = tmp_path / "ovf.sys"
    path.write_text(OVERFLOW)
    assert run(["scan", str(path), "--samples", "50"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    # exp(1000*dx) leaves the range of a double where dx > ~0.71.
    out_of_range = [r for r in records if r["v"][0] > 0.71]
    assert out_of_range and {r["skipped"] for r in out_of_range} == {
        "math range error in 'exp(1000.0 * dx)'"}
    assert any(r["skipped"] is None for r in records)


def _particle_file(tmp_path, old, new):
    from vaknh.models import builtin_source
    path = tmp_path / "particle.sys"
    path.write_text(builtin_source("constrained_particle").replace(old, new))
    return str(path)


def test_compare_and_scan_agree_on_linearity(tmp_path, capsys):
    # Linear constraints saved as "linear false": both commands verify them.
    path = _particle_file(tmp_path, "linear true", "linear false")
    assert run(["compare", path, "--q", "0,1,0", "--v", "1,1", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["g"] == [1.0, -1.0]
    assert run(["scan", path, "--samples", "3", "--seed", "1"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert all(r["g"] is not None for r in records)


@pytest.mark.parametrize("argv, flag", [
    (["compare", "constrained_particle", "--q", "nan,1,0", "--v", "1,1", "--p", "2"], "--q"),
    (["integrate", "rolling_penny", "--dynamics", "nh", "--t-end", "1",
      "--q", "0,0,0,0", "--v", "inf,0"], "--v"),
], ids=["compare", "integrate"])
def test_non_finite_input_is_a_usage_error(argv, flag, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["compare", "scan"])
def test_non_finite_result_is_not_emitted(command, tmp_path, capsys):
    # Finite input whose results overflow to NaN and infinity.
    if command == "compare":
        argv = ["compare", "constrained_particle", "--q", "0,1,0",
                "--v", "1e300,1", "--p", "1e300"]
    else:
        argv = ["scan", _particle_file(tmp_path, "dz^2)", "dz^2) + 1e300*x^2*1e300"),
                "--samples", "3"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "not finite" in captured.err


def test_scan_of_unverifiable_constraints_reports_no_g(tmp_path, capsys):
    # psi has no real value anywhere, so linearity cannot be verified.
    path = tmp_path / "nowhere.sys"
    path.write_text("name nowhere\ncoords x y\ndependent y\nlinear false\n"
                    "lagrangian 0.5*(dx^2 + dy^2)\npsi y = sqrt(-1 - x^2)*dx\n")
    assert run(["scan", str(path), "--samples", "2"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["skipped"] == 2 and summary["fraction_g_below_tol"] is None


@pytest.mark.parametrize("psi", ["y*dx + 1e-13*dx^2", "y*dx + 4e-13*x"])
def test_check_fails_a_small_nonlinear_term_declared_linear(psi, tmp_path, capsys):
    # Both loaded as linear while the sampled rule had a tolerance of 1e-12.
    assert run(["check", _particle_file(tmp_path, "y*dx", psi)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("linearity: FAIL (system 'constrained_particle' is declared "
                          "linear but fails verification at state")
    assert out.count("\n") == 1


@pytest.mark.parametrize("old, new, message", [
    ("psi z = y*dx\n", "psi z = y*dx\npsi z = x*dx\n",
     "line 8: repeated 'psi z' line (first on line 7)"),
    ("name constrained_particle\n", "name a\nname b\n",
     "line 3: repeated 'name' line (first on line 2)"),
])
def test_check_rejects_a_repeated_key(old, new, message, tmp_path, capsys):
    # Each used to load the last line of the key, with exit 0.
    assert run(["check", _particle_file(tmp_path, old, new)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", [
    ["compare"], ["integrate", "--dynamics", "vak", "--t-end", "0.1"],
], ids=["compare", "integrate"])
def test_a_repeated_candidate_is_an_error(command, tmp_path, capsys):
    # Both commands used to take the last line, G = x.
    argv = [command[0], *_STATE, *command[1:], *_candidates_file(tmp_path, "G = z\nG = x\n")]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", "error: candidates line 2: repeated candidate 'G'\n")
