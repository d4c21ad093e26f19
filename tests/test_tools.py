"""The claim script ``tools/pairs.py``, without running any benchmark."""

import runpy
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_pairs_needs_two_pairs_before_any_run(pairs, tmp_path, capsys):
    script = runpy.run_path(str(PAIRS))

    def run_once(*_):
        raise AssertionError("a benchmark run was started")

    script["main"].__globals__["run_once"] = run_once
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        script["main"]([str(tmp_path), str(tmp_path), "--workload", "scan-mixed",
                        "--pairs", pairs, "--seed", "1", "--out", str(out)])
    assert exit_.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not out.exists()


TRACE = Path(__file__).resolve().parents[1] / "tools" / "trace.py"


def test_trace_prints_the_layers_of_one_command(capsys):
    script = runpy.run_path(str(TRACE))
    assert script["main"](["scan", "martinet", "--samples", "10"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("vaknh scan martinet --samples 10: exit 0, ")
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:]}
    for name in ("cli.run", "comparison.scan", "comparison.to_json"):
        calls, total, self_ms = rows[name]
        assert int(calls) == 1 and float(total) >= float(self_ms) >= 0.0
    assert '"records"' not in out   # the report itself is discarded


def test_trace_counts_the_sweeps_of_one_command(capsys):
    # A one-sample random-p scan of a linear model: the curvature's
    # restricted sweep, one lift sweep (the Legendre lift) and one field
    # sweep per field, each run once, stacked; then the sweeps are unwrapped
    # again.
    from vaknh import _jets, comparison
    from vaknh._kernel import Sweep

    run, run_lanes = Sweep.run, _jets.run_lanes
    script = runpy.run_path(str(TRACE))
    assert script["main"](["scan", "rolling_penny", "--samples", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = lines[next(i for i, line in enumerate(lines) if line.startswith("sweep ")) + 1:]
    rows = {line.rsplit(None, 2)[0]: line.split()[-2:] for line in table}
    assert rows == {f"{kind} sweep of rolling_penny": ["0", count]
                    for kind, count in [("restricted", "1"), ("lift", "1"), ("field", "2")]}
    assert Sweep.run is run and comparison.run_lanes is run_lanes is _jets.run_lanes


def test_trace_times_the_stepper_of_an_integrate_command(capsys):
    # Each stage is one field evaluation with one scalar field sweep; the
    # run loop's own time is its total less the stages'.
    from vaknh import integrate as integrate_module
    from vaknh.system import VakState

    from conftest import get_model

    bind_stage, run_rk45 = integrate_module._bind_stage, integrate_module._run_rk45
    script = runpy.run_path(str(TRACE))
    assert script["main"](["integrate", "martinet", "--dynamics", "vak", "--q", "0,1,0",
                           "--v", "0.8,-0.4", "--p", "1.2", "--t-end", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.rsplit(None, 2)[0]: line.split()[-2:] for line in lines}
    stepper = lines.index(next(line for line in lines if line.startswith("stepper ")))
    stage, loop = (line.split() for line in lines[stepper + 1:stepper + 3])
    traj = integrate_module.integrate(get_model("martinet"), "vak",
                                      VakState([0, 1, 0], [0.8, -0.4], [1.2]), t_end=0.5)
    assert traj.stats.evaluations > 20
    assert stage[0] == "stage" and int(stage[1]) == traj.stats.evaluations
    assert rows["field sweep of martinet"] == [str(traj.stats.evaluations), "0"]
    assert loop[:3] == ["run", "loop", "1"]
    assert float(loop[3]) >= float(stage[2]) and float(loop[4]) >= 0.0
    assert integrate_module._bind_stage is bind_stage
    assert integrate_module._run_rk45 is run_rk45


def test_trace_counts_the_two_sweeps_of_an_nh_stage(capsys):
    # Each nh stage runs the lift kernel once, then the field kernel once,
    # both at one state.
    script = runpy.run_path(str(TRACE))
    assert script["main"](["integrate", "rolling_penny", "--dynamics", "nh",
                           "--q=0,0,0.2,0.3", "--v=0.7,0.4", "--t-end", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    sweeps = lines.index(next(line for line in lines if line.startswith("sweep ")))
    stepper = lines.index(next(line for line in lines if line.startswith("stepper ")))
    rows = {line.rsplit(None, 2)[0]: line.split()[-2:] for line in lines[sweeps + 1:stepper]}
    stage = lines[stepper + 1].split()
    assert stage[0] == "stage" and int(stage[1]) > 20
    assert rows == {f"{kind} sweep of rolling_penny": [stage[1], "0"]
                    for kind in ("lift", "field")}


def test_trace_counts_dets_and_verifications_of_an_integrate_command(capsys):
    # The command's load certifies martinet from its tree: no verification
    # runs.  A stage runs the det only where it cannot certify its reduced
    # matrix without it.
    from numpy.linalg import _umath_linalg

    det = _umath_linalg.det
    script = runpy.run_path(str(TRACE))
    assert script["main"](["integrate", "martinet", "--dynamics", "vak", "--q", "0,1,0",
                           "--v", "0.8,-0.4", "--p", "1.2", "--t-end", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    stepper = lines.index(next(line for line in lines if line.startswith("stepper ")))
    rows = {line.split()[0]: line.split()[1:] for line in lines[stepper + 1:]}
    assert list(rows) == ["stage", "run", "det", "verify_linearity"]
    assert rows["verify_linearity"] == ["0"]
    assert 0 <= int(rows["det"][0]) <= int(rows["stage"][0])
    assert _umath_linalg.det is det


def test_trace_counts_the_interpreters_evaluations_by_caller(tmp_path, capsys):
    # The command's load certifies the penny from its tree, so it verifies
    # nothing, and its energy and candidate rows come from kernels: the
    # interpreter runs nowhere else.  Then evaluate is unwrapped.
    from vaknh import expr

    evaluate = expr.evaluate
    cands = tmp_path / "penny.cand"
    cands.write_text("C = sqrt(x + 1)*dtheta\nK = 2\n")
    script = runpy.run_path(str(TRACE))
    assert script["main"](["integrate", "rolling_penny", "--dynamics", "nh", "--q=0,0,0.2,0.3",
                           "--v=0.7,0.4", "--t-end", "0.5", "--candidates", str(cands)]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index(next(line for line in lines if line.startswith("interpreter ")))
    rows = {line.split()[0]: line.split()[1:] for line in lines[at + 1:at + 3]}
    assert rows == {"verify_linearity": ["0"], "elsewhere": ["0"]}
    assert expr.evaluate is evaluate


def test_trace_counts_an_explained_kernel_failure(tmp_path, capsys):
    # The candidate's kernel fails, and its failure site puts the failure
    # into words: the interpreter evaluates nothing.
    cands = tmp_path / "penny.cand"
    cands.write_text("C = sqrt(0.3 - x)\n")
    script = runpy.run_path(str(TRACE))
    assert script["main"](["integrate", "rolling_penny", "--dynamics", "nh",
                           "--q=0,0,0.2,0.3", "--v=0.7,0.4", "--t-end", "5",
                           "--candidates", str(cands)]) == 3
    captured = capsys.readouterr()
    assert "sqrt of negative value" in captured.err
    lines = captured.out.splitlines()
    at = lines.index(next(line for line in lines if line.startswith("interpreter ")))
    rows = {line.split()[0]: int(line.split()[1]) for line in lines[at + 1:at + 3]}
    assert rows == {"verify_linearity": 0, "elsewhere": 0}
