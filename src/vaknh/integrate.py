"""Time integration of either dynamics with drift monitors.

Two steppers are provided: classic fixed-step RK4 and the adaptive
Dormand-Prince 5(4) embedded pair (the 5th-order solution is propagated,
the 4th-order companion supplies the local error estimate).  Error control
accepts a step when the RMS of the component errors scaled by
atol + rtol*|state| is at most one.

Dormand-Prince is "first same as last" (FSAL): the 5th-order weights are
the last row of the tableau, so the 7th stage is the field at the 5th-order
solution itself.  That stage input is taken as the accepted state, and its
evaluation is the next step's first stage.

Recorded monitors:

* vakonomic runs: the Hamiltonian ``H``, the eliminated base momenta
  ``p_<base>`` and the multiplier rates ``dp_<dep>``;
* nonholonomic runs: the mechanical energy ``E_L``;
* either: the value series of any supplied candidate expressions.

A stage is ``vakonomic._stage`` on the packed state itself, and builds no
state or derivative object: on y = (q, v, p_dep) it gives dy/dt and the
``field`` kernel's buffer; on y = (q, v) followed by the Leg_dep of the
Legendre lift at (q, v) (``nonholonomic._lift``), the (q, v) part of dy/dt
and the lift.  Each field evaluation happens once, and a monitor row reads
the evaluation of the field at its state: H, the eliminated momenta and
the multiplier rates from the stage's buffer, with the expressions of
``hamiltonian`` and ``w1_momenta``, or the energy from the stage's
Legendre lift.  With rk45 that is the 7th stage of the step that accepted
the state; with rk4 it is the first stage of the next step, so only the
last row costs an evaluation of its own.  The row at t = 0 reads the first
stage of the first step.  A row makes no jet sweep of its own.

``Trajectory.stats`` (:class:`StepStats`) counts what the stepper did:
field evaluations, accepted and rejected steps, and the smallest, largest
and last step size.

Integration stops with :class:`~vaknh.errors.IntegrationError` when an
accepted state or its monitor row is not finite, or when the step size no
longer advances the time.  Step control needs a finite rtol >= 0, a finite
atol > 0 and max_steps >= 1; other values raise ``ValueError`` before the
first evaluation.

Trajectories serialize to CSV with full double precision (17 significant
digits) and parse back bit-exactly.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .errors import EvalError, IntegrationError, SingularMatrixError, VaknhError
from .nonholonomic import _energy, _lift
from .system import NhState, SystemDef, VakState, check_state, state_env
from .vakonomic import _hamiltonian, _momenta, _rates, _stage

__all__ = ["Trajectory", "StepStats", "DriftReport", "integrate", "drift_report",
           "trajectory_to_csv", "trajectory_from_csv",
           "write_trajectory_csv", "read_trajectory_csv"]

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
DEFAULT_DT = 1e-3
_EPS = float(np.finfo(float).eps)

# Dormand-Prince 5(4) tableau.  The last row of A is b5 (FSAL).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_ERR = _DP_B5 - _DP_B4


@dataclass(frozen=True)
class StepStats:
    """How the stepper reached ``t_end``: its field evaluations, its
    accepted steps and rejected step attempts, and the smallest, largest
    and last accepted step size."""

    evaluations: int
    accepted: int
    rejected: int
    h_min: float
    h_max: float
    h_last: float


@dataclass
class Trajectory:
    """Integration output: strictly increasing times, one state per time and
    aligned monitor series.  ``stats`` describes the steps of an
    integration; a trajectory read from CSV has none."""

    dynamics: str                 # "vak" | "nh"
    times: np.ndarray
    states: list
    monitors: dict[str, np.ndarray]
    stats: StepStats | None = None


@dataclass
class DriftReport:
    series: dict[str, np.ndarray]
    maxima: dict[str, float]


def _pack(sys, dynamics, s):
    if dynamics == "vak":
        return np.concatenate([s.q, s.v, s.p_dep])
    return np.concatenate([s.q, s.v])


def _unpack(sys, dynamics, y):
    n, nb = sys.n, sys.n - sys.m
    if dynamics == "vak":
        return VakState(y[:n], y[n:n + nb], y[n + nb:])
    return NhState(y[:n], y[n:n + nb])


def _flat_rhs(sys, dynamics):
    """The field as f(y) -> (dy/dt, the evaluation a monitor row reads):
    the vakonomic stage's buffer, or the nonholonomic stage's Legendre
    lift."""
    if dynamics == "vak":
        def f(y):
            return _stage(sys, y.tolist(), "vakonomic matrix")
        return f

    n, k, dependent = sys.n, 2 * sys.n - sys.m, sys.dependent_positions

    def f(y):
        lift = _lift(sys, y[:n], y[n:])
        dy, _ = _stage(sys, y.tolist() + lift[dependent].tolist(), "nonholonomic matrix")
        return dy[:k], lift
    return f


def _state_names(sys, dynamics):
    """The names of the components of a packed state, as in the CSV."""
    names = sys.state_names if dynamics == "vak" else sys.state_names[:2 * sys.n - sys.m]
    return list(names)


def _monitor_names(sys, dynamics, candidates):
    if dynamics == "vak":
        names = ["H"] + [f"p_{c}" for c in sys.base] + [f"dp_{c}" for c in sys.dependent]
    else:
        names = ["E_L"]
    names += [f"G_{name}" for name in sorted(candidates)]
    return names


def _monitor_row(sys, dynamics, state, at_state, candidates):
    """Monitors at ``state``, read from ``at_state``, the field's evaluation
    there: hamiltonian, w1_momenta and energy on what the stepper computed."""
    if dynamics == "vak":
        row = [_hamiltonian(sys, at_state, state.v), *_momenta(sys, at_state),
               *_rates(sys, at_state)]
    else:
        row = [_energy(sys, state, at_state)]
    if candidates:
        env = state_env(sys, state)
        row += [float(_expr.evaluate(candidates[name], env)) for name in sorted(candidates)]
    return row


def _initial_step(f, y0, f0, t_end, rtol, atol):
    """Hairer-style cheap guess for the first adaptive step."""
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    y1 = y0 + h0 * f0
    f1, _ = f(y1)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end)


def integrate(sys: SystemDef, dynamics: str, s0, *, t_end: float,
              method: str = "rk45", dt: float = DEFAULT_DT,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
              max_steps: int = 1_000_000, candidates=None) -> Trajectory:
    """Integrate a state forward to ``t_end``, recording every accepted step.

    ``dynamics`` selects the vector field ("vak" needs a VakState, "nh" an
    NhState).  Failures -- singular reduced matrix, expression domain error,
    too many rejected steps -- raise :class:`IntegrationError` carrying the
    time at which integration stopped.
    """
    if dynamics not in ("vak", "nh"):
        raise ValueError(f"dynamics must be 'vak' or 'nh', got {dynamics!r}")
    if method not in ("rk4", "rk45"):
        raise ValueError(f"method must be 'rk4' or 'rk45', got {method!r}")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if method == "rk4" and not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not 0 <= rtol < math.inf:
        raise ValueError(f"rtol must be non-negative and finite, got {rtol!r}")
    if not 0 < atol < math.inf:
        raise ValueError(f"atol must be positive and finite, got {atol!r}")
    if not max_steps >= 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps!r}")
    if dynamics == "vak" and not isinstance(s0, VakState):
        raise TypeError("vak dynamics needs a VakState initial condition")
    if dynamics == "nh" and not isinstance(s0, NhState):
        raise TypeError("nh dynamics needs an NhState initial condition")
    check_state(sys, s0)
    candidates = candidates or {}

    if method == "rk4":
        _require_rk4_steps(t_end, dt, max_steps)

    f = _flat_rhs(sys, dynamics)
    y = _pack(sys, dynamics, s0)
    state_names = _state_names(sys, dynamics)
    names = _monitor_names(sys, dynamics, candidates)

    times = []
    states = []
    monitor_rows = []

    def accept(t, y):
        """Record the state y at time t, once per step."""
        _require_finite(sys, y, state_names, t)
        times.append(t)
        states.append(_unpack(sys, dynamics, y))

    def monitor(at_state):
        """Record the monitor row of the last state from the field's
        evaluation there."""
        row = _monitor_row(sys, dynamics, states[-1], at_state, candidates)
        _require_finite(sys, row, names, times[-1])
        monitor_rows.append(row)

    accept(0.0, y)
    try:
        if method == "rk4":
            stats = _run_rk4(f, y, t_end, dt, max_steps, accept, monitor)
        else:
            stats = _run_rk45(f, y, t_end, rtol, atol, max_steps, accept, monitor)
    except (SingularMatrixError, EvalError) as exc:
        raise IntegrationError(
            f"integration of {sys.name!r} halted at t={float(times[-1])!r}, "
            f"q={states[-1].q.tolist()!r}: {exc}", t=float(times[-1])) from exc

    columns = np.array(monitor_rows)
    monitors = {name: columns[:, i].copy() for i, name in enumerate(names)}
    return Trajectory(dynamics=dynamics, times=np.array(times),
                      states=states, monitors=monitors, stats=stats)


def _require_finite(sys, values, names, t):
    """Raise unless every entry of ``values`` (named by ``names``) is finite."""
    if not np.isfinite(values).all():
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        raise IntegrationError(
            f"integration of {sys.name!r} stopped at t={float(t)!r}: "
            f"{names[i]} = {float(values[i])!r} is not finite", t=float(t))


def _require_advance(t, h):
    """Raise unless a step of size h moves the time t forward."""
    if not h > 0 or t + h == t:
        raise IntegrationError(
            f"step size {float(h)!r} does not advance t={float(t)!r}", t=float(t))


def _require_rk4_steps(t_end, dt, max_steps):
    """Raise before the first step unless N = ``max_steps`` fixed steps of
    ``dt`` can reach ``t_end``; the loop stops at the step that reaches it,
    the N-th included.  A step advances t by at most dt, rounded up, so
    after N steps t <= N*dt*(1 + eps/2)^N.  With the roundings of this test,
    a ratio t_end/dt above N*(1 + 4*N*eps) can never complete while
    N*eps < 1/8; beyond that nothing is rejected."""
    if max_steps < 0.125 / _EPS and t_end / dt > max_steps * (1.0 + 4.0 * max_steps * _EPS):
        raise IntegrationError(
            f"rk4 needs {t_end / dt:.17g} steps of dt={float(dt)!r} to reach "
            f"t_end={float(t_end)!r}, more than max_steps={max_steps}", t=0.0)


def _run_rk4(f, y, t_end, dt, max_steps, accept, monitor):
    t = 0.0
    h_min, h_max = math.inf, 0.0
    k1, at_y = f(y)
    monitor(at_y)
    for steps in range(1, max_steps + 1):
        h = min(dt, t_end - t)
        _require_advance(t, h)
        k2, _ = f(y + 0.5 * h * k1)
        k3, _ = f(y + 0.5 * h * k2)
        k4, _ = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_end if t + h >= t_end else t + h
        accept(t, y)
        # The next step's first stage is the field at y; its evaluation
        # gives y's monitor row.
        k1, at_y = f(y)
        monitor(at_y)
        h_min, h_max = min(h_min, h), max(h_max, h)
        if t >= t_end:
            # The first k1, then k2, k3, k4 and the next k1 per step.
            return StepStats(1 + 4 * steps, steps, 0, float(h_min), float(h_max), float(h))
    raise IntegrationError(f"max_steps exceeded at t={float(t)!r}", t=float(t))


def _run_rk45(f, y, t_end, rtol, atol, max_steps, accept, monitor):
    t = 0.0
    k1, at_y = f(y)
    monitor(at_y)
    h = _initial_step(f, y, k1, t_end, rtol, atol)
    stages = np.empty((7, len(y)))
    h_min, h_max, rejected = math.inf, 0.0, 0
    for steps in range(1, max_steps + 1):
        h = min(h, t_end - t)
        rejections = 0
        while True:
            _require_advance(t, h)
            stages[0] = k1
            for i in range(1, 7):
                y_new = y + h * (stages[:i].T @ _DP_A[i])
                stages[i], at_y = f(y_new)
            # FSAL: the last stage input is the 5th-order solution, and
            # at_y is the field's evaluation there.
            err = h * (stages.T @ _DP_ERR)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            norm = np.sqrt(np.mean((err / scale) ** 2))
            if norm <= 1.0:
                break
            rejections += 1
            rejected += 1
            if rejections > 30:
                raise IntegrationError(
                    f"step size control failed at t={float(t)!r} (30 rejections)",
                    t=float(t))
            h *= max(0.2, 0.9 * norm ** -0.2)
        t = t_end if t + h >= t_end else t + h
        y = y_new
        # Copy the last stage out of the reused stage buffer, which the
        # next attempt overwrites.
        k1 = stages[6].copy()
        accept(t, y)
        monitor(at_y)
        h_min, h_max = min(h_min, h), max(h_max, h)
        if t >= t_end:
            # The first stage and the initial step's guess, then six
            # stages per attempt.
            return StepStats(2 + 6 * (steps + rejected), steps, rejected,
                             float(h_min), float(h_max), float(h))
        factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** -0.2))
        h *= factor
    raise IntegrationError(f"max_steps exceeded at t={float(t)!r}", t=float(t))


def drift_report(sys: SystemDef, traj: Trajectory) -> DriftReport:
    """Absolute drift series |m(t) - m(0)| of the conserved monitor
    (Hamiltonian or energy) plus every candidate series, with maxima."""
    base = "H" if traj.dynamics == "vak" else "E_L"
    series = {}
    maxima = {}
    for name, values in traj.monitors.items():
        if name == base or name.startswith("G_") or name.startswith("p_"):
            drift = np.abs(values - values[0])
            series[name + "_drift"] = drift
            maxima[name + "_drift"] = float(np.max(drift))
        else:
            series[name] = values
            maxima[name] = float(np.max(np.abs(values)))
    return DriftReport(series=series, maxima=maxima)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def trajectory_to_csv(sys: SystemDef, traj: Trajectory) -> str:
    """The header, then one row per time: t, the packed state and the
    monitors, each number in ``.17g`` form, which reads back bitwise."""
    names = _state_names(sys, traj.dynamics)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["t", *names, *traj.monitors])
    states = np.reshape([_pack(sys, traj.dynamics, s) for s in traj.states],
                        (len(traj.states), len(names)))
    rows = np.column_stack([traj.times, states, *traj.monitors.values()]).tolist()
    buf.writelines(",".join(map("{:.17g}".format, row)) + "\n" for row in rows)
    return buf.getvalue()


def trajectory_from_csv(sys: SystemDef, text: str) -> Trajectory:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    n, nb = sys.n, sys.n - sys.m
    expected_vak = ["t"] + _state_names(sys, "vak")
    expected_nh = ["t"] + _state_names(sys, "nh")
    if header[:len(expected_vak)] == expected_vak:
        dynamics, ncols = "vak", len(expected_vak)
    elif header[:len(expected_nh)] == expected_nh:
        dynamics, ncols = "nh", len(expected_nh)
    else:
        raise VaknhError(f"CSV header does not match system {sys.name!r}")
    monitor_names = header[ncols:]
    times, states, rows = [], [], []
    for row in reader:
        values = list(map(float, row))
        times.append(values[0])
        if dynamics == "vak":
            states.append(VakState(values[1:1 + n], values[1 + n:1 + n + nb],
                                   values[1 + n + nb:ncols]))
        else:
            states.append(NhState(values[1:1 + n], values[1 + n:ncols]))
        rows.append(values[ncols:])
    columns = np.array(rows) if rows else np.empty((0, len(monitor_names)))
    monitors = {name: columns[:, i].copy() for i, name in enumerate(monitor_names)}
    return Trajectory(dynamics=dynamics, times=np.array(times),
                      states=states, monitors=monitors)


def write_trajectory_csv(sys: SystemDef, traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trajectory_to_csv(sys, traj))


def read_trajectory_csv(sys: SystemDef, path) -> Trajectory:
    with open(path, "r", encoding="utf-8") as fh:
        return trajectory_from_csv(sys, fh.read())
