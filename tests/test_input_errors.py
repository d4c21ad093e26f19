"""Bad input and failed integrations end with the documented exit codes:
1 for usage errors, 3 for numeric ones, and never with a traceback or with
non-finite numbers in the output."""

import numpy as np
import pytest

from vaknh.cli import run
from vaknh.comparison import Sampler, scan
from vaknh.errors import IntegrationError
from vaknh.integrate import integrate
from vaknh.system import VakState

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


@pytest.mark.parametrize("count", [0, -3])
def test_scan_rejects_sample_counts_below_one(count, capsys):
    assert run(["scan", "martinet", "--samples", str(count)]) == 1
    assert capsys.readouterr().out == ""
    sampler = Sampler(count=count, seed=0, q_bounds=((-1, 1),) * 3,
                      v_bounds=((-1, 1),) * 2, p_bounds=((-1, 1),))
    with pytest.raises(ValueError, match="at least 1"):
        scan(get_model("martinet"), sampler)


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

    monkeypatch.setattr(integrate_module, "vak_rhs", no_evaluations)
    assert run(MARTINET + ["--t-end", "1", "--method", "rk4", "--dt", "1e-20"]) == 3
    assert capsys.readouterr().err == (
        "numeric error: rk4 needs 1e+20 steps of dt=1e-20 to reach t_end=1.0, "
        "more than max_steps=1000000\n")


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
