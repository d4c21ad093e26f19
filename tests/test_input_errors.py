"""Bad input and failed integrations end with the documented exit codes:
1 for usage errors, 3 for numeric ones, and never with a traceback or with
non-finite numbers in the output."""

import numpy as np
import pytest

from vaknh.cli import run
from vaknh.comparison import Sampler, compare_state, curvature, scan
from vaknh.errors import ExprSyntaxError, IntegrationError, SystemFormatError, VaknhError
from vaknh.expr import parse
from vaknh.integrate import integrate, trajectory_from_csv
from vaknh.maps import CovectorPoint, lambda_to_mu, legendre_shift, vg_residual
from vaknh.nonholonomic import nh_rhs
from vaknh.system import NhState, VakState, check_state, load_system
from vaknh.vakonomic import cbar, compatibility_matrix, hamiltonian, vak_rhs, w1_momenta

from conftest import get_model

# Overflow on purpose: numpy warns on the way to the error under test.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

MARTINET = ["integrate", "martinet", "--dynamics", "vak", "--q=0,1,0", "--v=1,0", "--p=1"]


def test_non_finite_rows_fail_with_exit_3(capsys):
    code = run(["integrate", "rolling_penny", "--dynamics", "nh", "--q=0,0,0,0",
                "--v=1e160,1e160", "--method", "rk4", "--t-end", "0.01"])
    captured = capsys.readouterr()
    assert code == 3
    assert "nan" not in captured.out
    assert "stopped at t=0.0: E_L = nan is not finite" in captured.err


def test_overflowing_state_fails_with_exit_3(capsys):
    code = run(["integrate", "martinet", "--dynamics", "vak", "--q=0,1,0",
                "--v=1e200,1e200", "--p=1", "--t-end", "1", "--max-steps", "2000"])
    assert code == 3
    assert "max_steps" not in capsys.readouterr().err


def test_non_finite_state_names_component_and_time():
    m = get_model("martinet")
    with pytest.raises(IntegrationError, match=r"at t=1e\+50: x = nan is not finite") as info:
        integrate(m, "vak", VakState([0, 1, 0], [1, 0.5], [1.0]), t_end=1e50,
                  method="rk4", dt=1e50)
    assert type(info.value.t) is float


def test_stalled_step_size_fails():
    # The initial step guess underflows to 0: the run must stop at once
    # instead of taking zero-length steps.
    m = get_model("martinet")
    with pytest.raises(IntegrationError, match=r"does not advance t=0\.0$") as info:
        integrate(m, "vak", VakState([0, 1, 0], [1e144, 1e144], [1.0]), t_end=1.0,
                  max_steps=2000)
    assert info.value.t == 0.0


def test_error_messages_print_plain_floats():
    m = get_model("martinet")
    with pytest.raises(IntegrationError, match="max_steps") as info:
        integrate(m, "vak", VakState([0, 1, 0], [1, 0], [1.0]), t_end=10.0,
                  max_steps=3)
    assert "np.float64" not in str(info.value)
    assert type(info.value.t) is float


@pytest.mark.parametrize("extra", [
    ["--t-end", "-1"],
    ["--t-end", "nan", "--max-steps", "50"],
    ["--t-end", "1", "--method", "rk4", "--dt", "0"],
], ids=["negative-t-end", "nan-t-end", "zero-dt"])
def test_library_argument_errors_are_usage_errors(extra, capsys):
    assert run(MARTINET + extra) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("extra, message", [
    (["--rtol", "-1"], "rtol must be non-negative and finite, got -1.0"),
    (["--rtol", "nan"], "rtol must be non-negative and finite, got nan"),
    (["--rtol", "inf"], "rtol must be non-negative and finite, got inf"),
    (["--rtol", "0", "--atol", "0"], "atol must be positive and finite, got 0.0"),
    (["--atol=-1e-9"], "atol must be positive and finite, got -1e-09"),
    (["--atol", "-1e-9"], "atol must be positive and finite, got -1e-09"),
    (["--atol", "nan"], "atol must be positive and finite, got nan"),
    (["--max-steps", "0"], "max_steps must be at least 1, got 0"),
    (["--max-steps", "-5"], "max_steps must be at least 1, got -5"),
    (["--method", "rk4", "--max-steps", "0"], "max_steps must be at least 1, got 0"),
    # A value that float() reads as -inf or -nan, as a separate argument.
    (["--atol", "-inf"], "atol must be positive and finite, got -inf"),
    (["--atol", "-NaN"], "atol must be positive and finite, got nan"),
    (["--rtol", "-Infinity"], "rtol must be non-negative and finite, got -inf"),
    (["--t-end", "-inf"], "t_end must be positive and finite, got -inf"),
    (["--method", "rk4", "--dt", "-INF"], "dt must be positive and finite, got -inf"),
    (["--q", "-inf,1,0"], "--q must be finite numbers"),
    (["--v", "-nan,0"], "--v must be finite numbers"),
], ids=["negative-rtol", "nan-rtol", "inf-rtol", "zero-tolerances", "negative-atol",
        "negative-atol-separate-argument", "nan-atol", "zero-max-steps", "negative-max-steps",
        "rk4-zero-max-steps", "minus-inf-atol", "minus-nan-atol", "minus-infinity-rtol",
        "minus-inf-t-end", "minus-inf-dt", "minus-inf-q", "minus-nan-v"])
def test_step_control_errors_are_usage_errors(extra, message, capsys):
    assert run(MARTINET + ["--t-end", "1", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_step_control_is_checked_before_the_first_evaluation(monkeypatch):
    from vaknh import integrate as integrate_module

    def no_evaluations(*_):
        raise AssertionError("the field was evaluated")

    monkeypatch.setattr(integrate_module, "_bind_stage", no_evaluations)
    m, s0 = get_model("martinet"), VakState([0, 1, 0], [1, 0], [1.0])
    for options in ({"rtol": -1.0}, {"rtol": float("nan")}, {"atol": 0.0},
                    {"atol": float("inf")}, {"max_steps": 0}):
        with pytest.raises(ValueError, match=next(iter(options))):
            integrate(m, "vak", s0, t_end=1.0, **options)


def test_pure_absolute_error_control_runs():
    traj = integrate(get_model("martinet"), "vak", VakState([0, 1, 0], [1, 0], [1.0]),
                     t_end=0.5, rtol=0.0, atol=1e-10)
    assert traj.times[-1] == 0.5


@pytest.mark.parametrize("count", [0, -3])
def test_scan_rejects_sample_counts_below_one(count, capsys):
    assert run(["scan", "martinet", "--samples", str(count)]) == 1
    assert capsys.readouterr().out == ""
    sampler = Sampler(count=count, seed=0, q_bounds=((-1, 1),) * 3,
                      v_bounds=((-1, 1),) * 2, p_bounds=((-1, 1),))
    with pytest.raises(ValueError, match="at least 1"):
        scan(get_model("martinet"), sampler)


@pytest.mark.parametrize("argv, message", [
    (["check", "martinet", "--samples", "0"], "--samples must be at least 1, got 0"),
    (["check", "martinet", "--samples", "-2"], "--samples must be at least 1, got -2"),
    (["check", "martinet", "--seed", "-1"], "--seed must be non-negative, got -1"),
    (["scan", "martinet", "--samples", "0"], "--samples must be at least 1, got 0"),
    (["scan", "martinet", "--seed", "-1"], "--seed must be non-negative, got -1"),
], ids=["check-samples-0", "check-samples-negative", "check-seed", "scan-samples", "scan-seed"])
def test_sampling_flags_are_checked_before_any_output(argv, message, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_SCAN = ["scan", "martinet", "--samples", "2"]
_COMPARE = ["compare", "martinet", "--q", "0,1,0", "--v", "1,0", "--p", "1"]


@pytest.mark.parametrize("argv, shown", [
    (_SCAN + ["--tol", "nan"], "nan"),
    (_SCAN + ["--tol", "inf"], "inf"),
    (_SCAN + ["--tol", "-1"], "-1.0"),
    (_SCAN + ["--tol", "-inf"], "-inf"),
    (_COMPARE + ["--tol", "-inf"], "-inf"),
    (_COMPARE + ["--tol", "nan"], "nan"),
    (_COMPARE + ["--tol", "-1e-3"], "-0.001"),
], ids=["scan-nan", "scan-inf", "scan-negative", "scan-minus-inf", "compare-minus-inf",
        "compare-nan", "compare-negative"])
def test_tol_that_is_negative_or_not_finite_is_a_usage_error(argv, shown, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must be non-negative and finite, got {shown}\n"


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_scan_rejects_a_tol_that_is_negative_or_not_finite(tol):
    sampler = Sampler(count=2, seed=0, q_bounds=((-1, 1),) * 3,
                      v_bounds=((-1, 1),) * 2, p_bounds=((-1, 1),))
    with pytest.raises(ValueError, match="^tol must be non-negative and finite, got "):
        scan(get_model("martinet"), sampler, tol=tol)


def test_negative_vectors_as_separate_arguments(capsys):
    spaced = ["integrate", "martinet", "--dynamics", "vak", "--q", "-0.3,1,0",
              "--v", "-1,0.5", "--p", "-1", "--t-end", "0.5"]
    assert run(spaced) == 0
    out_spaced = capsys.readouterr().out
    joined = ["integrate", "martinet", "--dynamics", "vak", "--q=-0.3,1,0",
              "--v=-1,0.5", "--p=-1", "--t-end", "0.5"]
    assert run(joined) == 0
    assert capsys.readouterr().out == out_spaced
    first = np.array(out_spaced.splitlines()[1].split(",")[1:4], dtype=float)
    assert first.tolist() == [-0.3, 1.0, 0.0]


def test_a_flag_is_not_taken_for_a_vector(capsys):
    assert run(["integrate", "martinet", "--dynamics", "vak", "--q", "--v", "-1,0.5",
                "--p", "-1", "--t-end", "0.5"]) == 1
    assert "--q" in capsys.readouterr().err


def test_rk4_that_cannot_reach_t_end_fails_before_the_first_step(capsys, monkeypatch):
    from vaknh import integrate as integrate_module

    def no_evaluations(*_):
        raise AssertionError("the field was evaluated")

    monkeypatch.setattr(integrate_module, "_bind_stage", no_evaluations)
    assert run(MARTINET + ["--t-end", "1", "--method", "rk4", "--dt", "1e-20"]) == 3
    assert capsys.readouterr().err == (
        "numeric error: rk4 needs 1e+20 steps of dt=1e-20 to reach t_end=1.0, "
        "more than max_steps=1000000\n")


_COLLIDING = """name rep
coords {coords}
dependent z
linear true
lagrangian 0.5*(dx^2 + dz^2)
psi z = x*dx
"""


@pytest.mark.parametrize("coords, dynamics, candidates, column", [
    ("t x z", "vak", "", "t"),
    ("E_L x z", "nh", "", "E_L"),
    ("x y dp_z z", "vak", "", "dp_z"),
    ("x G_a z", "vak", "a = x\n", "G_a"),
    ("H x z", "vak", "", "H"),
    ("x p_x z", "vak", "", "p_x"),
], ids=["time", "energy", "multiplier-rate", "candidate", "hamiltonian", "momentum"])
def test_a_repeated_csv_column_fails_before_any_stage(coords, dynamics, candidates, column,
                                                      tmp_path, capsys, monkeypatch):
    from vaknh import integrate as integrate_module

    stages = []
    monkeypatch.setattr(integrate_module, "_bind_stage", lambda *args: stages.append(args))
    path, cands = tmp_path / "rep.sys", tmp_path / "cands.txt"
    path.write_text(_COLLIDING.format(coords=coords))
    cands.write_text(candidates)
    n = len(coords.split())
    state = [f"--q={','.join(['0'] * n)}", f"--v={','.join(['1'] * (n - 1))}"]
    state += ["--p=1"] if dynamics == "vak" else []
    code = run(["integrate", str(path), "--dynamics", dynamics, *state, "--t-end", "0.01",
                "--method", "rk4", "--candidates", str(cands)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and stages == []
    assert captured.err == f"error: the trajectory CSV of 'rep' would repeat the column {column!r}\n"


def _rk4_steps(t_end, dt):
    """The steps _run_rk4 takes to reach t_end, by its own time update."""
    t, steps = 0.0, 0
    while t < t_end:
        h = min(dt, t_end - t)
        t = t_end if t + h >= t_end else t + h
        steps += 1
    return steps


def test_rk4_step_check_accepts_every_run_that_completes():
    from vaknh.integrate import _require_rk4_steps

    rng = np.random.default_rng(8)
    for dt in [0.01, 0.1, 1 / 3, 1e-3, 0.7, *rng.uniform(1e-3, 1.0, 200)]:
        for t_end in [10.0, 1.0, 2.5, *rng.uniform(0.01, 3.0, 5)]:
            steps = _rk4_steps(t_end, dt)
            _require_rk4_steps(t_end, dt, steps)   # does not raise
    assert _rk4_steps(10.0, 0.01) == 1001


def test_rk4_run_of_1001_steps_completes(capsys):
    assert run(MARTINET + ["--t-end", "10", "--method", "rk4", "--dt", "0.01",
                           "--max-steps", "1002"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 1002


def test_overflow_prints_only_the_error_message():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", "from vaknh.cli import main; main()", "integrate",
         "martinet", "--dynamics", "vak", "--q=0,1,0", "--v=1e144,1e144", "--p=1",
         "--t-end", "1"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "numeric error: step size 0.0 does not advance t=0.0\n"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("function, state, message", [
    (vak_rhs, VakState([0, NAN, 0], [1, 0], [1]), "y = nan"),
    (nh_rhs, NhState([0, 1, 0], [INF, NAN]), "dx = inf"),
    (hamiltonian, VakState([INF, 1, 0], [1, 0], [1]), "x = inf"),
    (w1_momenta, VakState([0, 1, 0], [1, 0], [NAN]), "p_z = nan"),
    (cbar, VakState([0, 1, 0], [1, -INF], [1]), "dy = -inf"),
    (compare_state, VakState([0, 1, NAN], [1, 0], [1]), "z = nan"),
], ids=["vak_rhs", "nh_rhs", "hamiltonian", "w1_momenta", "cbar", "compare_state"])
def test_non_finite_states_are_rejected(function, state, message):
    # The first component that is not finite is named; without the check
    # each of these returns nan.
    with pytest.raises(ValueError, match=f"^state component {message} is not finite$"):
        function(get_model("martinet"), state)


PARTICLE = """\
name particle
coords x y z
dependent z
linear true
lagrangian 0.5*(dx^2 + dy^2 + dz^2)
psi z = y*dx
"""


@pytest.mark.parametrize("old, new, message", [
    ("linear true", "linear true\nmass 1", "line 5: unknown key 'mass'"),
    ("linear true\n", "", "missing 'linear' line"),
    ("linear true", "linear yes", "line 4: linear must be true or false"),
    ("psi z = y*dx", "psi z y*dx", "line 6: psi line needs '<coord> = <expression>'"),
    ("coords x y z", "coords x 2y z", "bad coordinate name '2y'"),
    ("coords x y z", "coords x y z x", "duplicate coordinate names"),
    ("dependent z", "dependent w", "dependent coordinate 'w' not among coords"),
    ("dependent z", "dependent z z", "duplicate dependent coordinates"),
    ("coords x y z", "coords x dx z", "coordinate 'dx' is also the velocity of 'x'"),
    ("coords x y z", "coords x p_z z", "coordinate 'p_z' is also the multiplier of 'z'"),
], ids=["unknown-key", "missing-line", "linear-value", "psi-without-equals", "bad-name",
        "duplicate-coords", "dependent-not-a-coord", "duplicate-dependent",
        "coord-named-as-velocity", "coord-named-as-multiplier"])
def test_system_file_errors_exit_1(old, new, message, tmp_path, capsys):
    text = PARTICLE.replace(old, new)
    with pytest.raises(SystemFormatError) as info:
        load_system(text)
    assert str(info.value) == message
    path = tmp_path / "bad.sys"
    path.write_text(text, encoding="utf-8")
    for command in ("check", "scan"):
        assert run([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["integrate", "martinet", "--dynamics", "vak", "--v=1,0", "--p=1", "--t-end", "1"],
     "--q is required here"),
    (["compare", "martinet", "--q=0,a,0", "--v=1,0", "--p=1"],
     "--q must be comma-separated numbers"),
], ids=["missing-q", "q-not-numbers"])
def test_state_vector_errors_exit_1(argv, message, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("source, message", [
    ("x + \u00b2", "malformed number '\u00b2' (line 1, column 5, offset 4)"),
    ("x $ y", "unexpected character '$' (line 1, column 3, offset 2)"),
], ids=["superscript-digit", "dollar"])
def test_expression_syntax_errors_exit_1(source, message, tmp_path, capsys):
    with pytest.raises(ExprSyntaxError) as info:
        parse(source)
    assert str(info.value) == message
    path = tmp_path / "bad.cand"
    path.write_text(f"G = {source}\n", encoding="utf-8")
    assert run(["compare", "martinet", "--q=0,1,0", "--v=1,0", "--p=1",
                "--candidates", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_BOX = ((-1.0, 1.0),)
_AT = NhState([0, 1, 0], [1, 0])


@pytest.mark.parametrize("call, kind, message", [
    (lambda m: scan(m, Sampler(2, 0, _BOX * 2, _BOX * 2, _BOX)),
     ValueError, "sampler bounds do not match the system dimensions"),
    (lambda m: scan(m, Sampler(2, 0, _BOX * 3, _BOX * 2, ())),
     ValueError, "random p mode needs one bounds pair per dependent coordinate"),
    (lambda m: curvature(m, [0.0, 1.0]), ValueError, "expected 3 positions, got 2"),
    (lambda m: compatibility_matrix(m, [0.0] * 4), ValueError, "expected 3 positions, got 4"),
    (lambda m: legendre_shift(m, CovectorPoint([0, 1, 0], [1, 2], [1, 0]), "forward"),
     ValueError, "covector has 2 components, expected 3"),
    (lambda m: lambda_to_mu(m, _AT, [1.0, 2.0]), ValueError, "expected 1 multipliers, got 2"),
    (lambda m: vg_residual(m, [1.0, 2.0], _AT),
     ValueError, "expected 3 covector components, got 2"),
    (lambda m: trajectory_from_csv(m, "t,a,b\n0,1,2\n"),
     VaknhError, "CSV header does not match system 'martinet'"),
    (lambda m: check_state(m, VakState([0, 1, 0], [1, 0], [1.0, 2.0])),
     ValueError, "state has 2 multipliers, expected 1"),
], ids=["scan-q-v-bounds", "scan-p-bounds", "curvature", "compatibility_matrix",
        "legendre_shift", "lambda_to_mu", "vg_residual", "trajectory_from_csv",
        "check_state-multipliers"])
def test_wrong_sizes_are_rejected(call, kind, message):
    with pytest.raises(kind) as info:
        call(get_model("martinet"))
    assert type(info.value) is kind
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda m: vg_residual(m, [np.nan, 0.0, 0.0], _AT), "covector component x = nan"),
    (lambda m: vg_residual(m, [0.0, 0.0, -np.inf], _AT), "covector component z = -inf"),
    (lambda m: lambda_to_mu(m, _AT, [np.inf]), "multiplier z = inf"),
    (lambda m: lambda_to_mu(m, _AT, [np.nan]), "multiplier z = nan"),
    (lambda m: legendre_shift(m, CovectorPoint([0, 1, 0], [1.0, np.inf, 0.0], [1, 0]),
                              "forward"), "covector component y = inf"),
    (lambda m: legendre_shift(m, CovectorPoint([0, 1, 0], [np.nan, 0.0, 0.0], [1, 0]),
                              "inverse"), "covector component x = nan"),
], ids=["vg_residual-nan", "vg_residual-inf", "lambda_to_mu-inf", "lambda_to_mu-nan",
        "legendre_shift-inf", "legendre_shift-nan"])
def test_non_finite_covectors_and_multipliers_are_rejected(call, message):
    # As check_state does for states: the error names the first component
    # that is not finite, and no NaN is passed through.
    with pytest.raises(ValueError) as info:
        call(get_model("martinet"))
    assert type(info.value) is ValueError
    assert str(info.value) == f"{message} is not finite"
