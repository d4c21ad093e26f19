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
``np.linalg.solve`` call, called directly.  The determinant guard's
threshold has one home, ``_threshold``, which forms DET_RTOL *
max|entry|**order in Python floats with numpy's bits.  The stage reads
Cbar's entries as Python floats and skips the det of a 2 x 2 Cbar that
``_certainly_regular`` certifies: a plain-float estimate of the det above
four thresholds, with the largest entry between 1e-100 and 1e100, proves
numpy's det above the threshold (the argument is in its docstring).  Any
other Cbar runs the det and the guard.  The
nonholonomic field is the same system with the Legendre momenta Leg_dep of
the dependent velocities in place of p_dep (:mod:`vaknh.nonholonomic`).

The stage that ``_bind_stage`` binds is the one implementation of these
equations: from the kernel's flat arguments to the derivative of the
packed state and the buffer.  Binding allocates the buffer and its views
once; each call writes the kernel's outputs into the buffer, so a reader
of the buffer reads it before the next call.  The solve in a call enters
no ``np.errstate``: the caller ignores floating-point errors.  ``_stage``
binds and calls once, in an errstate of its own, so its buffer is its
own; ``vak_rhs`` and the nonholonomic ``nh_rhs`` evaluate through it.
:func:`vaknh.integrate.integrate` binds each run's stage once and calls it
on the packed state itself, with no state or derivative object built
around it (the nonholonomic one with the Legendre momenta appended), under
one errstate for the run; the comparison phases run its stacked twin
``_stage_lanes``.  ``cbar``, ``hamiltonian``, ``w1_momenta`` and
``ctilde`` read the kernel's buffer with the readers the stage's callers
use.

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

from ._jets import Jet, _kernel, _row_jet, ambient_table, field_sweep, restricted_table
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
    which |det| counts as singular, for a square matrix of that order.  A
    NaN entry makes the threshold NaN.  For a stack of matrices, the arrays
    of both, bit for bit the values of each matrix on its own.  The
    determinant is that of ``np.linalg.det``, from the LAPACK gufunc it
    calls, called directly; the threshold is ``_threshold``'s."""
    if c.ndim > 2:
        largest = np.abs(c).max(axis=(-2, -1)).tolist()
        return (_umath_linalg.det(c, signature="d->d"),
                np.array([_threshold(x, order) for x in largest]))
    return (float(_umath_linalg.det(c, signature="d->d")),
            _threshold(_largest([abs(x) for row in c.tolist() for x in row]), order))


def _largest(sizes):
    """The largest of the Python floats ``sizes``, or NaN if one is NaN."""
    return math.nan if math.isnan(sum(sizes)) else max(sizes)


def _threshold(largest, order):
    """DET_RTOL * largest ** order in Python floats, for a matrix of that
    order whose largest absolute entry is ``largest``: the one home of the
    determinant threshold.  Python's power calls libm ``pow``, as numpy's
    scalar power does, so the bits are numpy's; where it overflows, numpy
    gives inf and Python raises ``OverflowError``, mapped here to inf.  A
    NaN ``largest`` gives a NaN threshold."""
    try:
        return DET_RTOL * largest ** order
    except OverflowError:
        return math.inf


def _certainly_regular(c00, c01, c10, c11, largest, threshold):
    """Whether the 2 x 2 matrix [[c00, c01], [c10, c11]], whose largest
    absolute entry is ``largest``, certainly passes the determinant guard:
    whether the det that ``np.linalg.det`` gives is above ``threshold`` =
    ``_threshold(largest, 2)``, decided without computing that det.

    It answers True only when 1e-100 < largest < 1e100 and the plain-float
    estimate e = c00*c11 - c01*c10 has |e| > 4*threshold.  Let u = 2**-53
    and M = largest**2; the threshold is within a factor 1 +- 3u of
    1e-12*M.  In that range no product overflows, and one that underflows
    errs by less than 1e-300, far below u*M.  The estimate is off the
    exact det D by at most 6u*M (u*M per product, 2u*M (1 + u) for their
    difference), so |D| > 3.9e-12*M.  numpy's det is
    sign*exp(log|u_11| + log|u_22|) of dgetrf's LU with partial pivoting.
    With p the pivot row and o the other, u_11 = c_p0 is an entry, and
    u_22 = c_o1 - (c_o0/c_p0)*c_p1, with |c_o0/c_p0| <= 1, is computed with
    an absolute error of at most 5u*largest, so u_11*u_22 is off D by at
    most 5u*M.  With |D| > 3.9e-12*M and |u_22| <= 2*largest (1 + 3u),
    both |u_11| and |u_22| lie in (1e-113, 1e101): each log is below 261
    in size, and the logs, their sum and exp add a relative error below
    1e-12.  So numpy's |det| >= (|D| - 5u*M)(1 - 1e-12) > 3.8e-12*M >
    threshold: the guard passes.  Where this answers False, the stage runs
    the det and the guard as written."""
    return 1e-100 < largest < 1e100 and abs(c00 * c11 - c01 * c10) > 4.0 * threshold


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


def _singular_message(sys, what, det) -> str:
    return f"{what} is singular for system {sys.name!r} (det={det!r})"


def _bind_stage(sys, what):
    """The reduced equations of ``sys`` as a function of the flat state
    ``args``, the ``field`` kernel's arguments (q, v, mult): the one
    implementation of both fields.  With ``mult`` = p_dep it is the
    vakonomic field; with ``mult`` = the Legendre momenta Leg_dep of the
    dependent velocities it is the nonholonomic one (the two right-hand
    sides coincide under that substitution).

    The kernel's buffer and its views -- Cbar, the mixed block of the
    Hessian, the gradient, dq, dp and dpsi/dv -- and the det gufunc are
    bound here, once; each call writes the kernel's outputs into that
    buffer and reads them through the views.  A call ``stage(args, dy)``
    writes the derivative of the packed state -- the completed velocities
    dq (n), the base accelerations dv (n-m) and, for the vakonomic field,
    the multiplier rates dp (m), in this order -- into ``dy``, a row of the
    caller's, or else into an array of its own, and returns it with the
    buffer, which ``_jet``, ``_momenta``, ``_hamiltonian`` and ``_rates``
    read until the next call overwrites it.  The solve runs without an
    ``np.errstate`` of its own: the caller ignores floating-point errors.

    The determinant guard reads Cbar's entries as Python floats and forms
    the threshold with ``_threshold``.  A 2 x 2 Cbar that
    ``_certainly_regular`` certifies passes without its det; any other
    runs the det gufunc and the guard.  A reduced matrix that fails the
    guard raises :class:`SingularMatrixError` naming ``what``, the
    "vakonomic matrix" or the "nonholonomic matrix", with the det; it
    carries the state whose entries ``args`` are, a :class:`VakState` or
    the :class:`NhState` of its (q, v), built only then.  Where the kernel
    fails, ``Sweep.run`` raises the documented error.
    """
    n, m = sys.n, sys.m
    k = 2 * n - m
    size = 1 + k + k * k
    sweep = _kernel(sys, "field")
    run = sweep.run
    store = bytearray(8 * sweep.outputs)
    out = memoryview(store)
    entries = out.cast("d")
    buf = np.frombuffer(store)
    grad = buf[1:1 + k]
    hess = buf[1 + k:size].reshape(k, k)
    c, cross = hess[n:, n:], hess[:n, n:]
    known = buf[size:size + 2 * n]
    dq, dp = known[:n], known[k:]
    if what == "nonholonomic matrix":
        known = known[:k]   # its packed state is (q, v)
    psi_v = buf[size + 2 * n:].reshape(m, k - n)
    base, order = sys.base_positions, k - n
    # Cbar's entries in the buffer, row by row.
    cells = [1 + k + i * k + j for i in range(n, k) for j in range(n, k)]
    cbar_entries = itemgetter(*cells)
    det, certified = _umath_linalg.det, _certainly_regular

    def stage(args, dy=None):
        out[:] = run(*args)
        if order == 2:
            c00, c01, c10, c11 = cbar_entries(entries)
            largest = _largest((abs(c00), abs(c01), abs(c10), abs(c11)))
            threshold = _threshold(largest, 2)
            checked = not certified(c00, c01, c10, c11, largest, threshold)
        else:
            threshold = _threshold(_largest([abs(entries[i]) for i in cells]), order)
            checked = True
        if checked:
            d = float(det(c, signature="d->d"))
            if abs(d) <= threshold:
                state = (VakState(args[:n], args[n:k], args[k:]) if what == "vakonomic matrix"
                         else NhState(args[:n], args[n:k]))
                raise SingularMatrixError(_singular_message(sys, what, d), d, state)
        r = grad[base] - dq @ cross + dp @ psi_v
        if dy is None:
            dy = known.copy()
        else:
            dy[:] = known
        dy[n:k] = _solve_ignoring(c, r)
        return dy, buf
    return stage


def _stage(sys, args, what):
    """``_bind_stage``'s stage at the flat state ``args``, with a buffer of
    its own and floating-point errors ignored."""
    with np.errstate(all="ignore"):
        return _bind_stage(sys, what)(args)


# The buffer of the ``field`` kernel, as the stage reads it.  ``cbar``,
# ``hamiltonian`` and ``w1_momenta`` (and ``ctilde``) read the kernel's
# buffer without the guard and the solve, which a singular matrix fails.


def _jet(sys, buf) -> Jet:
    """The jet of Lambda in a stage's buffer."""
    k = 2 * sys.n - sys.m
    return _row_jet(buf[:1 + k + k * k], k)


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
    n, m = sys.n, sys.m
    k = 2 * n - m
    size = 1 + k + k * k
    hess = buf[:, 1 + k:size].reshape(len(buf), k, k)
    c = hess[:, n:, n:]
    det, threshold = det_threshold(c, k - n)
    singular = np.abs(det) <= threshold
    known = buf[:, size:size + 2 * n]
    dq, dp = known[:, :n], known[:, k:]
    r = (buf[:, 1:1 + k][:, sys.base_positions] - (dq[:, None] @ hess[:, :n, n:])[:, 0]
         + (dp[:, None] @ buf[:, size + 2 * n:].reshape(len(buf), m, k - n))[:, 0])
    solved = ~(skip | singular)
    dy = known.copy()
    dy[:, n:k] = np.nan
    dy[solved, n:k] = np.linalg.solve(c[solved], r[solved][..., None])[..., 0]
    return dy, det, singular


def _args(s, mult):
    """The ``field`` kernel's arguments at the (q, v) of the state ``s``
    with the multiplier vector ``mult``."""
    return s.q.tolist() + s.v.tolist() + mult.tolist()


def cbar(sys: SystemDef, s: VakState) -> np.ndarray:
    """Reduced velocity-Hessian matrix at a vakonomic state (symmetric)."""
    check_state(sys, s)
    return _jet(sys, field_sweep(sys, _args(s, s.p_dep))).hess[sys.n:, sys.n:]


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
    w = ambient_table(sys, q, vfull).lag.hess[n:, n:]

    _warn_if_velocity_dependent_hessian(sys, q, w)

    det, threshold = det_threshold(w, n)
    if abs(det) <= threshold:
        raise SingularMatrixError(
            f"ambient velocity Hessian of {sys.name!r} is singular (det={det!r})",
            det)
    winv = np.linalg.inv(w)
    psi_v = restricted_table(sys, q, zeros).psi_grad[:, n:]
    return (winv[np.ix_(dep, dep)] - winv[np.ix_(dep, base)] @ psi_v.T
            - psi_v @ winv[np.ix_(base, dep)] + psi_v @ winv[np.ix_(base, base)] @ psi_v.T)


def _warn_if_velocity_dependent_hessian(sys, q, w0):
    import warnings

    probe = np.full(sys.n - sys.m, 0.37)
    vfull = complete_velocities(sys, NhState(q, probe))
    w1 = ambient_table(sys, q, vfull).lag.hess[sys.n:, sys.n:]
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
    return _momenta(sys, field_sweep(sys, _args(s, s.p_dep)))


def hamiltonian(sys: SystemDef, s: VakState) -> float:
    """H = p_a v_a + p_dep . psi - L~, with the eliminated momenta derived
    from the state.  Conserved along the vakonomic flow (autonomous system).
    Along a trajectory the same value is read from the buffer of the stage
    at the state."""
    check_state(sys, s)
    return _hamiltonian(sys, field_sweep(sys, _args(s, s.p_dep)), s.v)


def vak_rhs(sys: SystemDef, s: VakState) -> VakDerivative:
    """Explicit vakonomic vector field at a state.

    Raises :class:`SingularMatrixError` when the reduced matrix fails the
    determinant guard (the flow is not uniquely defined there).
    """
    check_state(sys, s)
    dy, _ = _stage(sys, _args(s, s.p_dep), "vakonomic matrix")
    n, nb = sys.n, sys.n - sys.m
    return VakDerivative(dq=dy[:n], dv=dy[n:n + nb], dp_dep=dy[n + nb:])
