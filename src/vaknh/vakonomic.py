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
terms of r are views of it.  r, the determinant guard and the solve stay
in numpy, whose dot products and solve round differently from plain
floats; the determinant and the solve are the LAPACK gufuncs that
``np.linalg.det`` and ``np.linalg.solve`` call, called directly.  The
nonholonomic field is the same system with the Legendre momenta Leg_dep of
the dependent velocities in place of p_dep (:mod:`vaknh.nonholonomic`).

``_stage`` is the one implementation of these equations: from the
kernel's flat arguments to the derivative of the packed state and the
buffer.  ``vak_rhs`` and the nonholonomic ``nh_rhs`` evaluate through it,
and both stages of :func:`vaknh.integrate.integrate` are ``_stage`` on the
packed state itself, with no state or derivative object built around it
(the nonholonomic one with the Legendre momenta appended); the comparison
phases run its stacked twin ``_stage_lanes``.
``cbar``, ``hamiltonian``, ``w1_momenta`` and ``ctilde`` read the kernel's
buffer with the readers ``_stage``'s callers use.

Invertibility of Cbar is exactly the condition for the dynamics to be
well-posed (and for the phase space to carry a symplectic structure),
which ``symplectic_check`` probes pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from ._jets import Jet, _row_jet, ambient_table, field_sweep, restricted_table
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
    calls, called directly."""
    if c.ndim > 2:
        # numpy's array power rounds differently from its scalar power.
        largest = np.abs(c).max(axis=(-2, -1)).tolist()
        return (_umath_linalg.det(c, signature="d->d"),
                DET_RTOL * np.array([np.float64(x) ** order for x in largest]))
    sizes = [abs(x) for row in c.tolist() for x in row]
    largest = math.nan if any(map(math.isnan, sizes)) else max(sizes)
    return (float(_umath_linalg.det(c, signature="d->d")),
            DET_RTOL * np.float64(largest) ** order)


def _solve(c, r):
    """``np.linalg.solve(c, r)`` for a square matrix and a vector, bit for
    bit: the LAPACK gufunc it calls, called directly, with floating-point
    errors ignored as that function ignores them.  Where the result is not
    all finite, ``np.linalg.solve`` runs itself, so that a matrix LAPACK
    finds singular raises its ``LinAlgError``."""
    with np.errstate(all="ignore"):
        x = _umath_linalg.solve1(c, r, signature="dd->d")
    if not all(map(math.isfinite, x.tolist())):
        x = np.linalg.solve(c, r)
    return x


def _singular_message(sys, what, det) -> str:
    return f"{what} is singular for system {sys.name!r} (det={det!r})"


def _stage(sys, args, what):
    """The reduced equations at the flat state ``args``, the ``field``
    kernel's arguments (q, v, mult): the one implementation of both fields.
    With ``mult`` = p_dep it is the vakonomic field; with ``mult`` = the
    Legendre momenta Leg_dep of the dependent velocities it is the
    nonholonomic one (the two right-hand sides coincide under that
    substitution).

    Returns the derivative of the packed state (q, v, mult) -- the
    completed velocities dq (n), the base accelerations dv (n-m) and the
    multiplier rates dp (m), in this order -- and the kernel's buffer, which
    ``_jet``, ``_momenta``, ``_hamiltonian`` and ``_rates`` read.  A
    reduced matrix that fails the determinant guard raises
    :class:`SingularMatrixError` naming ``what``, the "vakonomic matrix" or
    the "nonholonomic matrix"; it carries the state whose entries ``args``
    are, a :class:`VakState` or the :class:`NhState` of its (q, v), built
    only then.  Where the kernel fails, ``field_sweep`` raises the
    documented error.
    """
    n, m = sys.n, sys.m
    k = 2 * n - m
    size = 1 + k + k * k
    buf = field_sweep(sys, args)
    hess = buf[1 + k:size].reshape(k, k)
    c = hess[n:, n:]
    det, threshold = det_threshold(c, k - n)
    if abs(det) <= threshold:
        state = (VakState(args[:n], args[n:k], args[k:]) if what == "vakonomic matrix"
                 else NhState(args[:n], args[n:k]))
        raise SingularMatrixError(_singular_message(sys, what, det), det, state)
    known = buf[size:size + 2 * n]
    dq, dp = known[:n], known[k:]
    r = (buf[1:1 + k][sys.base_positions] - dq @ hess[:n, n:]
         + dp @ buf[size + 2 * n:].reshape(m, k - n))
    dy = known.copy()
    dy[n:k] = _solve(c, r)
    return dy, buf


# The buffer of the ``field`` kernel, as ``_stage`` reads it.  ``cbar``,
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
