"""Vakonomic dynamics: the constrained variational equations of motion in
explicit first-order form.

State coordinates are (q, dq_base, p_dep): positions, independent
velocities v and the constraint multipliers.  Every quantity of the reduced
equations is a derivative of the multiplier-shifted restricted Lagrangian

    Lambda(q, v) = L~(q, v) - p_dep . psi(q, v)

The eliminated momenta p_a = dLambda/dv_a (``w1_momenta``) are always
derived from the state, never integrated, so the momentum constraint cannot
drift, and H = p_a v_a - Lambda (``hamiltonian``).  The reduced equations
read

    dq_dep/dt  = psi(q, v)
    dp_dep/dt  = dLambda/dq_dep
    Cbar dv/dt = r,   Cbar_ab = d2Lambda/dv_a dv_b,
    r_b = dLambda/dq_b - dq_A d2Lambda/dq_A dv_b + dp_dep . dpsi/dv_b

where r collects the remaining terms of the expanded total time derivative
of the eliminated momenta.  One generated function, the ``field`` kernel
(:mod:`vaknh._kernel`), takes (q, v, mult) and returns the jet of Lambda,
the completed velocities, dp_dep and dpsi/dv as one buffer; Cbar and the
terms of r are views of it.  r and the solve stay in numpy, whose dot
products and solve round differently from plain floats; the determinant
and the solve are the LAPACK gufuncs that ``np.linalg.det`` and
``np.linalg.solve`` call, called directly.  The determinant guard is
``det_threshold``, for one matrix and for a stack alike; its threshold has
one home, ``_threshold``, DET_RTOL times max|entry| multiplied by itself
order times, which a Python float and a float64 array round alike.  The
stage reads a 2 x 2 Cbar's entries as Python floats and skips the guard
where ``_certainly_regular`` certifies it: a plain-float estimate of the
det above four thresholds, with the largest entry between 1e-100 and
1e100, proves numpy's det above the threshold (the argument is in its
docstring).  Any other Cbar runs ``det_threshold``.  The nonholonomic
field is the same system with the Legendre momenta Leg_dep of the
dependent velocities in place of p_dep (:mod:`vaknh.nonholonomic`).

The stage that ``_bind_stage`` binds is the one implementation of these
equations, from the kernels' flat arguments to the derivative of the
packed state: (q, v, p) for the vakonomic field, and (q, v) for the
nonholonomic one, whose stage runs the ``lift`` kernel and appends Leg_dep
to the field's arguments.  Binding allocates the buffers and their views
once; each call overwrites them, and the solve enters no ``np.errstate``:
the caller ignores floating-point errors.  ``_stage`` binds and calls
once, in an errstate of its own; ``vak_rhs`` and ``nh_rhs`` evaluate
through it.  :func:`vaknh.integrate.integrate` binds each run's stage once
and calls it on the packed state itself, under one errstate for the run;
the comparison phases run its stacked twin ``_stage_lanes``.  ``cbar``,
``hamiltonian``, ``w1_momenta`` and ``ctilde`` read the kernel's buffer
with the readers the stage's callers use.

Invertibility of Cbar is exactly the condition for the dynamics to be
well-posed (and for the phase space to carry a symplectic structure),
which ``symplectic_check`` probes pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from numpy.linalg import _umath_linalg

from ._jets import _flat, _kernel, ambient_table, field_sweep, restricted_table
from .errors import SingularMatrixError
from .system import (NhState, SystemDef, VakState, check_state, complete_velocities,
                     require_linear)

__all__ = [
    "VakDerivative",
    "SymplecticReport",
    "cbar",
    "symplectic_check",
    "compatibility_matrix",
    "det_threshold",
    "w1_momenta",
    "hamiltonian",
    "vak_rhs",
]

# Relative determinant threshold below which the reduced matrix counts as
# singular: |det| <= DET_RTOL * max|entry|^(n-m).
DET_RTOL = 1e-12


@dataclass(frozen=True)
class VakDerivative:
    dq: np.ndarray      # n completed velocities (dependent entries = psi)
    dv: np.ndarray      # n-m base accelerations
    dp_dep: np.ndarray  # m multiplier rates


@dataclass(frozen=True)
class SymplecticReport:
    det: float
    invertible: bool


def det_threshold(c, order):
    """det(c) and the threshold DET_RTOL * max|entry|^order at or below
    which |det| counts as singular, for a square matrix of that order, as
    Python floats; for a stack of matrices, the array of the dets and the
    threshold of each, bit for bit the values of each matrix on its own.
    A NaN entry makes the threshold NaN.  The determinant is that of
    ``np.linalg.det``, from the LAPACK gufunc it calls, called directly,
    and only it can warn: the threshold is ``_threshold``'s, of a Python
    float or, for a stack, of an array with overflow and underflow ignored,
    as Python floats ignore them."""
    det = _umath_linalg.det(c, signature="d->d")
    largest = np.abs(c).max(axis=(-2, -1))
    if c.ndim == 2:
        return float(det), _threshold(float(largest), order)
    with np.errstate(over="ignore", under="ignore"):
        return det, _threshold(largest, order)


def _threshold(largest, order):
    """DET_RTOL times ``largest`` multiplied by itself left to right,
    ``order`` factors (1.0 for order 0): the threshold of the determinant
    guard for a matrix of that order whose largest absolute entry is
    ``largest``, its one home.  Each product rounds once, so a Python float
    and each element of a float64 array give the same bits; a product that
    overflows gives inf, and a NaN ``largest`` a NaN threshold (DET_RTOL
    for order 0, whatever ``largest``)."""
    power = 1.0
    for _ in range(order):
        power = power * largest
    return DET_RTOL * power


def _certainly_regular(c00, c01, c10, c11):
    """Whether the 2 x 2 matrix [[c00, c01], [c10, c11]] of Python floats
    certainly passes the determinant guard: whether the det that
    ``np.linalg.det`` gives is above ``threshold`` = ``_threshold(largest,
    2)``, with ``largest`` its largest absolute entry, decided without
    computing that det.  A NaN entry makes the estimate e below NaN, and
    so the answer False, whatever Python's ``max`` makes of it.

    It answers True only when 1e-100 < largest < 1e100 and the plain-float
    estimate e = c00*c11 - c01*c10 has |e| > 4*threshold.  Let u = 2**-53
    and M = largest**2; the threshold, DET_RTOL * (largest*largest) with
    three roundings (DET_RTOL's own and two products), is within a factor
    (1 +- u)**3 of 1e-12*M.  In that range no product overflows, and one
    that underflows errs by less than 1e-300, far below u*M.  The estimate
    is off the exact det D by at most 6u*M (u*M per product, 2u*M (1 + u)
    for their difference), so |D| > 3.9e-12*M.  numpy's det is
    sign*exp(log|u_11| + log|u_22|) of dgetrf's LU with partial pivoting.
    With p the pivot row and o the other, u_11 = c_p0 is an entry, and
    u_22 = c_o1 - (c_o0/c_p0)*c_p1, with |c_o0/c_p0| <= 1, is computed with
    an absolute error of at most 5u*largest, so u_11*u_22 is off D by at
    most 5u*M.  With |D| > 3.9e-12*M and |u_22| <= 2*largest (1 + 3u),
    both |u_11| and |u_22| lie in (1e-113, 1e101): each log is below 261
    in size, and the logs, their sum and exp add a relative error below
    1e-12.  So numpy's |det| >= (|D| - 5u*M)(1 - 1e-12) > 3.8e-12*M >
    threshold: the guard passes.  Where this answers False, the stage runs
    ``det_threshold`` and the guard as written."""
    largest = max(abs(c00), abs(c01), abs(c10), abs(c11))
    return (1e-100 < largest < 1e100
            and abs(c00 * c11 - c01 * c10) > 4.0 * _threshold(largest, 2))


def _solve_ignoring(c, r):
    """``np.linalg.solve(c, r)`` for a square matrix and a vector, bit for
    bit, for a caller that ignores floating-point errors, as
    ``np.linalg.solve`` ignores them: the LAPACK gufunc that
    ``np.linalg.solve`` calls, called directly.  Where the result is not
    all finite, ``np.linalg.solve`` runs itself, so that a matrix LAPACK
    finds singular raises its ``LinAlgError``."""
    x = _umath_linalg.solve1(c, r, signature="dd->d")
    if not all(map(math.isfinite, x.tolist())):
        x = np.linalg.solve(c, r)
    return x


def _views(sys, buf):
    """The views of a ``field`` buffer that the reduced equations read,
    for one state or for a stack of them (any leading axes): the gradient
    and the Hessian of Lambda, the known part of the packed derivative
    (dq, zeros in place of dv, dp) and dpsi/dv, an m x (n-m) matrix."""
    n, m = sys.n, sys.m
    k = 2 * n - m
    size = 1 + k + k * k
    lead = buf.shape[:-1]
    return (buf[..., 1:1 + k], buf[..., 1 + k:size].reshape(lead + (k, k)),
            buf[..., size:size + 2 * n], buf[..., size + 2 * n:].reshape(lead + (m, k - n)))


def _singular(sys, what, det, args) -> SingularMatrixError:
    """The error of the reduced matrix ``what``, the "vakonomic matrix" or
    the "nonholonomic matrix", that fails the determinant guard with the
    det ``det`` at the flat state ``args`` (q, v, mult).  It carries the
    state: a :class:`VakState`, or the :class:`NhState` of its (q, v)."""
    n, k = sys.n, 2 * sys.n - sys.m
    state = (VakState(args[:n], args[n:k], args[k:]) if what == "vakonomic matrix"
             else NhState(args[:n], args[n:k]))
    return SingularMatrixError(f"{what} is singular for system {sys.name!r} (det={det!r})",
                               det, state)


def _bound(sys, kind):
    """The ``kind`` kernel of ``sys`` bound to a buffer of its own: its
    run, and the buffer as a memoryview, as Python floats and as an array."""
    sweep = _kernel(sys, kind)
    store = bytearray(8 * sweep.outputs)
    out = memoryview(store)
    return sweep.run, out, out.cast("d"), np.frombuffer(store)


def _bind_stage(sys, what):
    """The reduced equations of ``sys`` as a function of the flat state
    ``args``: the one implementation of both fields.  The vakonomic stage
    runs the ``field`` kernel on (q, v, p).  The nonholonomic stage takes
    (q, v): it runs the ``lift`` kernel there, then the ``field`` kernel on
    (q, v, Leg_dep), the lift's momenta of the dependent velocities (the
    two right-hand sides coincide under that substitution).

    The kernels' buffers (``_bound``) and the views of the field's
    (``_views``) are bound here, once.  A call ``stage(args, dy)`` writes
    the derivative of the packed state -- the completed velocities dq (n),
    the base accelerations dv (n-m) and, for the vakonomic field, the
    multiplier rates dp (m) -- into ``dy``, a row of the caller's, or else
    into an array of its own.  It returns ``dy``
    and the vakonomic ``field`` buffer, which ``_momenta``, ``_hamiltonian``
    and ``_rates`` read, or the nonholonomic ``lift`` array, which
    ``nonholonomic._energy`` reads, until the next call overwrites it.
    The solve runs without an ``np.errstate`` of its own: the caller
    ignores floating-point errors.

    A 2 x 2 Cbar that ``_certainly_regular`` certifies from its entries,
    read as Python floats, passes without its det; any other runs
    ``det_threshold``.  A reduced matrix that fails the guard raises
    ``_singular``'s error.  Where a kernel fails, ``Sweep.run`` raises the
    documented error.
    """
    n, k = sys.n, 2 * sys.n - sys.m
    run, out, entries, buf = _bound(sys, "field")
    grad, hess, known, psi_v = _views(sys, buf)
    c, cross = hess[n:, n:], hess[:n, n:]
    dq, dp = known[:n], known[k:]
    evaluation = buf   # what the stage returns beside dy
    lifted = what == "nonholonomic matrix"
    if lifted:
        known = known[:k]   # its packed state is (q, v)
        lift, lift_out, lift_entries, evaluation = _bound(sys, "lift")
        momenta = (n + sys.dependent_positions).tolist()   # Leg_dep in the lift
    base, order = sys.base_positions, k - n
    # Cbar's entries in the buffer, row by row.
    cells = [1 + k + i * k + j for i in range(n, k) for j in range(n, k)]
    cbar_entries = itemgetter(*cells)
    certified = _certainly_regular

    def stage(args, dy=None):
        if lifted:
            lift_out[:] = lift(*args)
            args = args + [lift_entries[i] for i in momenta]
        out[:] = run(*args)
        if order != 2 or not certified(*cbar_entries(entries)):
            d, threshold = det_threshold(c, order)
            if abs(d) <= threshold:
                raise _singular(sys, what, d, args)
        r = grad[base] - dq @ cross + dp @ psi_v
        if dy is None:
            dy = known.copy()
        else:
            dy[:] = known
        dy[n:k] = _solve_ignoring(c, r)
        return dy, evaluation
    return stage


def _stage(sys, args, what):
    """``_bind_stage``'s stage at the flat state ``args``, (q, v, p) or the
    nonholonomic (q, v), with buffers of its own and floating-point errors
    ignored."""
    with np.errstate(all="ignore"):
        return _bind_stage(sys, what)(args)


# The buffer of the ``field`` kernel, as the stage reads it.  ``cbar``,
# ``hamiltonian`` and ``w1_momenta`` (and ``ctilde``) read the kernel's
# buffer without the guard and the solve, which a singular matrix fails.


def _momenta(sys, buf) -> np.ndarray:
    """Eliminated momenta p_a = dLambda/dv_a from a stage's buffer."""
    return buf[1 + sys.n:1 + 2 * sys.n - sys.m]


def _hamiltonian(sys, buf, v) -> float:
    """H = p_a v_a - Lambda from a stage's buffer at base velocities v."""
    return float(_momenta(sys, buf) @ v - float(buf[0]))


def _rates(sys, buf) -> np.ndarray:
    """The multiplier rates dp = dLambda/dq_dep from a stage's buffer."""
    k = 2 * sys.n - sys.m
    start = 1 + k + k * k + k
    return buf[start:start + sys.m]


def _stage_lanes(sys, buf, skip):
    """``_stage`` over the stacked ``field`` buffer ``buf`` of N states, with
    one solve over the lanes neither in ``skip`` nor singular.  Returns the
    stacked derivatives (dv NaN where not solved), the determinants and the
    singular mask; each solved lane equals ``_stage``'s bit for bit."""
    n, k = sys.n, 2 * sys.n - sys.m
    grad, hess, known, psi_v = _views(sys, buf)
    c = hess[:, n:, n:]
    det, threshold = det_threshold(c, k - n)
    singular = np.abs(det) <= threshold
    dq, dp = known[:, :n], known[:, k:]
    r = (grad[:, sys.base_positions] - (dq[:, None] @ hess[:, :n, n:])[:, 0]
         + (dp[:, None] @ psi_v)[:, 0])
    solved = ~(skip | singular)
    dy = known.copy()
    dy[:, n:k] = np.nan
    dy[solved, n:k] = np.linalg.solve(c[solved], r[solved][..., None])[..., 0]
    return dy, det, singular


def cbar(sys: SystemDef, s: VakState) -> np.ndarray:
    """Reduced velocity-Hessian matrix at a vakonomic state (symmetric)."""
    check_state(sys, s)
    return _views(sys, field_sweep(sys, _flat(s.q, s.v, s.p_dep)))[1][sys.n:, sys.n:]


def symplectic_check(sys: SystemDef, s: VakState) -> SymplecticReport:
    """Determinant test of the reduced matrix; invertibility is equivalent
    to a well-posed (unique) vakonomic flow through the state."""
    det, threshold = det_threshold(cbar(sys, s), sys.n - sys.m)
    return SymplecticReport(det=det, invertible=bool(abs(det) > threshold))


def compatibility_matrix(sys: SystemDef, q) -> np.ndarray:
    """m x m compatibility matrix for linear constraints and regular L:

        C = W_dd - W_db Psi^T - Psi W_bd + Psi W_bb Psi^T

    where W is the inverse ambient velocity Hessian, split into dependent
    (d) and base (b) blocks, and Psi[k, a] = dpsi_k/dv_a.  W is evaluated
    at zero base velocity (for velocity-quadratic Lagrangians the Hessian
    does not depend on the velocity; a non-quadratic L triggers a warning).
    Its nonsingularity is equivalent to the pointwise symplectic test.
    """
    require_linear(sys, "compatibility_matrix")
    q = np.asarray(q, dtype=float)
    if len(q) != sys.n:
        raise ValueError(f"expected {sys.n} positions, got {len(q)}")
    n, base, dep = sys.n, sys.base_positions, sys.dependent_positions
    zeros = np.zeros(n - sys.m)
    vfull = complete_velocities(sys, NhState(q, zeros))
    w = ambient_table(sys, q, vfull).hess[n:, n:]

    _warn_if_velocity_dependent_hessian(sys, q, w)

    det, threshold = det_threshold(w, n)
    if abs(det) <= threshold:
        raise SingularMatrixError(
            f"ambient velocity Hessian of {sys.name!r} is singular (det={det!r})",
            det)
    winv = np.linalg.inv(w)
    psi_v = restricted_table(sys, q, zeros).grads[:, n:]
    return (winv[np.ix_(dep, dep)] - winv[np.ix_(dep, base)] @ psi_v.T
            - psi_v @ winv[np.ix_(base, dep)] + psi_v @ winv[np.ix_(base, base)] @ psi_v.T)


def _warn_if_velocity_dependent_hessian(sys, q, w0):
    import warnings

    probe = np.full(sys.n - sys.m, 0.37)
    vfull = complete_velocities(sys, NhState(q, probe))
    w1 = ambient_table(sys, q, vfull).hess[sys.n:, sys.n:]
    if np.max(np.abs(w1 - w0)) > 1e-9 * (1.0 + np.max(np.abs(w0))):
        warnings.warn(
            f"ambient Lagrangian of {sys.name!r} is not velocity-quadratic; "
            "compatibility_matrix uses the Hessian at zero base velocity",
            stacklevel=3)


def w1_momenta(sys: SystemDef, s: VakState) -> np.ndarray:
    """Eliminated momenta conjugate to the base coordinates:
    p_a = dL~/dv_a - p_dep . dpsi/dv_a.  Along a trajectory the same values
    are read from the buffer of the stage at the state."""
    check_state(sys, s)
    return _momenta(sys, field_sweep(sys, _flat(s.q, s.v, s.p_dep)))


def hamiltonian(sys: SystemDef, s: VakState) -> float:
    """H = p_a v_a + p_dep . psi - L~, with the eliminated momenta derived
    from the state.  Conserved along the vakonomic flow (autonomous system).
    Along a trajectory the same value is read from the buffer of the stage
    at the state."""
    check_state(sys, s)
    return _hamiltonian(sys, field_sweep(sys, _flat(s.q, s.v, s.p_dep)), s.v)


def vak_rhs(sys: SystemDef, s: VakState) -> VakDerivative:
    """Explicit vakonomic vector field at a state.

    Raises :class:`SingularMatrixError` when the reduced matrix fails the
    determinant guard (the flow is not uniquely defined there).
    """
    check_state(sys, s)
    dy, _ = _stage(sys, _flat(s.q, s.v, s.p_dep), "vakonomic matrix")
    n, nb = sys.n, sys.n - sys.m
    return VakDerivative(dq=dy[:n], dv=dy[n:n + nb], dp_dep=dy[n + nb:])
