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

A stage is the stage of ``vakonomic._bind_stage``, bound once per run for
either dynamics, on the packed state itself, and builds no state or
derivative object: on y = (q, v, p_dep) it gives dy/dt and the ``field``
kernel's buffer, and on y = (q, v) it runs its ``lift`` kernel before the
``field`` kernel and gives dy/dt and the lift's outputs there, the
completed velocities, the momenta and L.  A stage takes y as the Python
floats that are the kernel's arguments, and writes dy/dt into the
stepper's row for that stage.  rk45 forms each stage
input y + h * (stages[:i].T @ a_i) in Python floats from the gemv's list:
a product and a sum per entry, each rounded once, as numpy rounds them.  The
run binds the buffer, its views and the views of the stage rows once, and
the stepper runs under one ``np.errstate`` that ignores floating-point
errors: the finiteness checks report what numpy would warn about.  Each
field evaluation happens once, and a monitor row reads the evaluation of
the field at its state: H, the eliminated momenta and the multiplier rates
from the stage's buffer, with the expressions of ``hamiltonian`` and
``w1_momenta`` and v read from the packed state, or the energy from the
stage's lift.  With rk45 that is the 7th stage of the step
that accepted the state; with rk4 it is the first stage of the next step,
so only the last row costs an evaluation of its own.  The row at t = 0
reads the first stage of the first step.  A row makes no jet sweep of its
own, and it reads the bound buffer before the next stage overwrites it.
Candidate values come from one run per row of the candidates' kernel
(``_jets.gradient_kernel``, nothing seeded), bound once per run.
Step control runs on Python floats where they give numpy's bits: the
error norm, the step size and the finiteness checks.

Each accepted state is recorded once, as the list of floats the stepper
already holds; the :class:`Trajectory` keeps the packed rows as its one
form of the states, and builds state objects only when ``states`` is
read.

``Trajectory.stats`` (:class:`StepStats`) counts what the stepper did:
field evaluations, accepted and rejected steps, and the smallest, largest
and last step size.

Integration stops with :class:`~vaknh.errors.IntegrationError` when an
accepted state or its monitor row is not finite, or when the step size no
longer advances the time.  Step control needs a finite rtol >= 0, a finite
atol > 0 and max_steps >= 1; other values raise ``ValueError`` before the
first evaluation.  So does a candidate that uses a variable other than the
names of the packed state: it raises the ``EvalError`` that ``compare``
and ``scan`` give it.  So do CSV columns (``t``, the packed state's and
the monitors' names) that are not distinct: a ``VaknhError`` names the
first repeated column.

Trajectories serialize to CSV with full double precision (17 significant
digits, one ``%.17g`` format per row) and parse back bit-exactly.  The
reader checks the structure only, with a ``VaknhError`` where it breaks
(``trajectory_from_csv``): a header with no row, or non-finite fields,
which no run writes, are read and written back as they stand.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EvalError, IntegrationError, SingularMatrixError, VaknhError
from ._jets import gradient_kernel
from .nonholonomic import _energy
from .system import NhState, SystemDef, VakState, _non_state, check_state
from .vakonomic import _bind_stage, _hamiltonian, _momenta, _rates

__all__ = ["Trajectory", "StepStats", "DriftReport", "integrate", "drift_report",
           "trajectory_to_csv", "trajectory_from_csv",
           "write_trajectory_csv", "read_trajectory_csv"]

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
DEFAULT_DT = 1e-3
_EPS = float(np.finfo(float).eps)

# Dormand-Prince 5(4) tableau.  The last row of A is b5 (FSAL).  The
# field is autonomous, so the nodes c are never read.
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
    """Integration output: strictly increasing times, one packed state per
    time and aligned monitor series.  ``stats`` describes the steps of an
    integration; a trajectory read from CSV has none.

    ``packed`` is the one stored form of the states: one row per time, the
    packed state (q, v, p_dep) of a system with ``n`` positions and ``m``
    constraints, or (q, v) for "nh".  ``states`` is built from it on first
    read: one :class:`VakState` or :class:`NhState` per row, whose arrays
    are views of that row."""

    dynamics: str                 # "vak" | "nh"
    times: np.ndarray
    packed: np.ndarray            # (len(times), width)
    n: int
    m: int
    monitors: dict[str, np.ndarray]
    stats: StepStats | None = None

    @cached_property
    def states(self) -> list:
        n, k = self.n, 2 * self.n - self.m
        if self.dynamics == "vak":
            return [VakState(y[:n], y[n:k], y[k:]) for y in self.packed]
        return [NhState(y[:n], y[n:k]) for y in self.packed]


@dataclass
class DriftReport:
    series: dict[str, np.ndarray]
    maxima: dict[str, float]


def _state_names(sys, dynamics):
    """The names of the components of a packed state, as in the CSV."""
    names = sys.state_names if dynamics == "vak" else sys.state_names[:2 * sys.n - sys.m]
    return list(names)


def _repeated(columns):
    """The first of the CSV ``columns`` that an earlier one repeats, or None."""
    return next((name for i, name in enumerate(columns) if name in columns[:i]), None)


def _monitor_names(sys, dynamics, candidates):
    if dynamics == "vak":
        names = ["H"] + [f"p_{c}" for c in sys.base] + [f"dp_{c}" for c in sys.dependent]
    else:
        names = ["E_L"]
    names += [f"G_{name}" for name in sorted(candidates)]
    return names


def _monitor_row(sys, dynamics, y, at_state, values):
    """Monitors at the packed state ``y``, read from ``at_state``, the
    field's evaluation there: hamiltonian, w1_momenta and energy on what
    the stepper computed; then one run of the candidates' kernel ``values``."""
    n, k = sys.n, 2 * sys.n - sys.m
    if dynamics == "vak":
        row = [_hamiltonian(sys, at_state, y[n:k]), *_momenta(sys, at_state).tolist(),
               *_rates(sys, at_state).tolist()]
    else:
        row = [_energy(sys, at_state)]
    if values is not None:
        row += np.frombuffer(values.run(*y.tolist())).tolist()
    return row


def _rms(e) -> float:
    """``np.sqrt(np.mean(e ** 2))`` of a float vector, bit for bit, as a
    Python float: ``np.mean`` is ``np.add.reduce`` divided by the count,
    and both square roots round correctly."""
    return math.sqrt(float(np.add.reduce(e * e)) / len(e))


def _initial_step(f, y0, f0, t_end, rtol, atol):
    """Hairer-style cheap guess for the first adaptive step."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    y1 = y0 + h0 * f0
    f1, _ = f(y1.tolist(), np.empty(len(y1)))
    # numpy's division, which gives inf or NaN where h0 underflowed to 0.
    d2 = float(_rms((f1 - f0) / scale) / np.float64(h0))
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
    state_names = _state_names(sys, dynamics)
    error = _non_state(state_names, candidates)
    if error is not None:
        raise error
    names = _monitor_names(sys, dynamics, candidates)
    repeated = _repeated(["t", *state_names, *names])   # the CSV columns
    if repeated is not None:
        raise VaknhError(f"the trajectory CSV of {sys.name!r} would repeat the "
                         f"column {repeated!r}")

    if method == "rk4":
        _require_rk4_steps(t_end, dt, max_steps)

    f = _bind_stage(sys, "vakonomic matrix" if dynamics == "vak" else "nonholonomic matrix")
    y = np.concatenate([s0.q, s0.v, s0.p_dep] if dynamics == "vak" else [s0.q, s0.v])
    values = gradient_kernel([candidates[name] for name in sorted(candidates)],
                             state_names, ()) if candidates else None

    times = []
    packed = []
    monitor_rows = []

    def accept(t, y):
        """Record the packed state y, a list of floats, at time t, once per
        step."""
        _require_finite(sys, y, state_names, t)
        times.append(t)
        packed.append(y)

    def monitor(y, at_state):
        """Record the monitor row of the last state, the array y, from the
        field's evaluation there."""
        row = _monitor_row(sys, dynamics, y, at_state, values)
        _require_finite(sys, row, names, times[-1])
        monitor_rows.append(row)

    accept(0.0, y.tolist())
    try:
        # One error state for the whole run: the finiteness checks of
        # accept and monitor report what numpy would warn about.
        with np.errstate(all="ignore"):
            if method == "rk4":
                stats = _run_rk4(f, y, t_end, dt, max_steps, accept, monitor)
            else:
                stats = _run_rk45(f, y, t_end, rtol, atol, max_steps, accept, monitor)
    except (SingularMatrixError, EvalError) as exc:
        raise IntegrationError(
            f"integration of {sys.name!r} halted at t={float(times[-1])!r}, "
            f"q={packed[-1][:sys.n]!r}: {exc}", t=float(times[-1])) from exc

    columns = np.array(monitor_rows)
    monitors = {name: columns[:, i].copy() for i, name in enumerate(names)}
    return Trajectory(dynamics=dynamics, times=np.array(times), packed=np.array(packed),
                      n=sys.n, m=sys.m, monitors=monitors, stats=stats)


def _require_finite(sys, values, names, t):
    """Raise unless every entry of the list ``values`` (named by ``names``)
    is finite."""
    if not all(map(math.isfinite, values)):
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
    k1, k2, k3, k4 = np.empty((4, len(y)))
    _, at_y = f(y.tolist(), k1)
    monitor(y, at_y)
    for steps in range(1, max_steps + 1):
        h = min(dt, t_end - t)
        _require_advance(t, h)
        f((y + 0.5 * h * k1).tolist(), k2)
        f((y + 0.5 * h * k2).tolist(), k3)
        f((y + h * k3).tolist(), k4)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_end if t + h >= t_end else t + h
        entries = y.tolist()
        accept(t, entries)
        # The next step's first stage is the field at y; its evaluation
        # gives y's monitor row.
        _, at_y = f(entries, k1)
        monitor(y, at_y)
        h_min, h_max = min(h_min, h), max(h_max, h)
        if t >= t_end:
            # The first k1, then k2, k3, k4 and the next k1 per step.
            return StepStats(1 + 4 * steps, steps, 0, float(h_min), float(h_max), float(h))
    raise IntegrationError(f"max_steps exceeded at t={float(t)!r}", t=float(t))


def _run_rk45(f, y, t_end, rtol, atol, max_steps, accept, monitor):
    """Dormand-Prince 5(4) from the array y.  Each stage writes its row of
    ``stages``; its input y + h * (stages[:i].T @ a_i) is formed in Python
    floats from the gemv's list, with numpy's bits (a product, then a sum,
    each rounded once), and passed to the stage as the kernel's arguments.
    The 7th stage's input is the 5th-order solution: its list is the
    accepted state, and its array is built once per attempt."""
    t = 0.0
    stages = np.empty((7, len(y)))
    columns = [stages[:i].T for i in range(7)]
    entries = y.tolist()
    _, at_y = f(entries, stages[0])
    monitor(y, at_y)
    h = _initial_step(f, y, stages[0], t_end, rtol, atol)
    h_min, h_max, rejected = math.inf, 0.0, 0
    for steps in range(1, max_steps + 1):
        h = min(h, t_end - t)
        rejections = 0
        while True:
            _require_advance(t, h)
            for i in range(1, 7):
                sums = (columns[i] @ _DP_A[i]).tolist()
                stage_in = [a + h * b for a, b in zip(entries, sums)]
                _, at_y = f(stage_in, stages[i])
            # FSAL: the last stage input is the 5th-order solution, and
            # at_y is the field's evaluation there.
            y_new = np.array(stage_in)
            err = h * (stages.T @ _DP_ERR)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            norm = _rms(err / scale)
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
        y, entries = y_new, stage_in
        # The last stage is the next step's first.
        stages[0] = stages[6]
        accept(t, entries)
        monitor(y, at_y)
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
    monitors, each number in ``%.17g`` form, which reads back bitwise."""
    names = _state_names(sys, traj.dynamics)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["t", *names, *traj.monitors])
    rows = np.column_stack([traj.times, traj.packed, *traj.monitors.values()]).tolist()
    line = ",".join(["%.17g"] * (1 + len(names) + len(traj.monitors))) + "\n"
    buf.writelines(line % tuple(row) for row in rows)
    return buf.getvalue()


def trajectory_from_csv(sys: SystemDef, text: str) -> Trajectory:
    """The trajectory that :func:`trajectory_to_csv` wrote as ``text``.
    ``VaknhError`` names the line where the text is not such a CSV: no
    header, a header that repeats a column (``_repeated``, the check of
    ``integrate``), a row whose length is not the header's, a field that is
    not a number, or a time that does not follow the row before."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise VaknhError("CSV line 1 has no header")
    expected_vak = ["t"] + _state_names(sys, "vak")
    expected_nh = ["t"] + _state_names(sys, "nh")
    if header[:len(expected_vak)] == expected_vak:
        dynamics, ncols = "vak", len(expected_vak)
    elif header[:len(expected_nh)] == expected_nh:
        dynamics, ncols = "nh", len(expected_nh)
    else:
        raise VaknhError(f"CSV header does not match system {sys.name!r}")
    repeated = _repeated(header)
    if repeated is not None:
        raise VaknhError(f"CSV header repeats the column {repeated!r}")
    monitor_names = header[ncols:]
    times, packed, rows = [], [], []
    for row in reader:
        line = f"CSV line {reader.line_num}"
        if len(row) != len(header):
            raise VaknhError(f"{line} has {len(row)} fields, the header {len(header)}")
        try:
            values = list(map(float, row))
        except ValueError as exc:
            raise VaknhError(f"{line}: {exc}") from None
        if times and not values[0] > times[-1]:
            raise VaknhError(f"{line} has t = {values[0]!r}, not after {times[-1]!r}")
        times.append(values[0])
        packed.append(values[1:ncols])
        rows.append(values[ncols:])
    columns = np.array(rows) if rows else np.empty((0, len(monitor_names)))
    monitors = {name: columns[:, i].copy() for i, name in enumerate(monitor_names)}
    return Trajectory(dynamics=dynamics, times=np.array(times),
                      packed=np.array(packed).reshape(len(packed), ncols - 1),
                      n=sys.n, m=sys.m, monitors=monitors)


def write_trajectory_csv(sys: SystemDef, traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trajectory_to_csv(sys, traj))


def read_trajectory_csv(sys: SystemDef, path) -> Trajectory:
    with open(path, "r", encoding="utf-8") as fh:
        return trajectory_from_csv(sys, fh.read())
