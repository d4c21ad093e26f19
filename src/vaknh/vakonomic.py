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
floats.  The nonholonomic field is the same system with the Legendre
momenta Leg_dep of the dependent velocities in place of p_dep
(:mod:`vaknh.nonholonomic`).  Invertibility of Cbar is exactly the
condition for the dynamics to be well-posed (and for the phase space to
carry a symplectic structure), which ``symplectic_check`` probes pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    # The jet of Lambda at the state; a trajectory's monitor row reads H
    # and the eliminated momenta from it.
    lam: Jet | None = field(default=None, compare=False, repr=False)
    # The derivative of the packed state (q, v, p_dep): dq, dv and dp_dep
    # are views of it.
    dy: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SymplecticReport:
    det: float
    invertible: bool


def _shifted(tab, mult) -> Jet:
    """Jet of the shifted Lagrangian Lambda = L~ - mult . psi over the
    variables of the restricted table ``tab``: the one place where the
    multipliers enter the reduced equations.  For stacked tables ``mult``
    holds one multiplier vector per lane, and the jets are stacked too."""
    rows = tab.rows
    row = rows[..., tab.m, :]
    for j in range(tab.m):
        row = row - mult[..., j, None] * rows[..., j, :]
    return tab.jet(row)


def _field(sys, s, mult):
    """The jet of Lambda = L~ - mult . psi at the (q, v) of ``s``; the
    derivative of the packed state (q, v, mult) with zeros in place of the
    base accelerations (the completed velocities dq, then n-m zeros, then
    dp = dLambda/dq_dep); and the m x (n-m) gradients of psi in the base
    velocities.  They are views of one buffer of the ``field`` kernel,
    equal bit for bit to the shifted restricted table.  Where the kernel
    fails, ``field_sweep`` raises the documented error (``Sweep.run``)."""
    n, m = sys.n, sys.m
    k = 2 * n - m
    buf = field_sweep(sys, s.q, s.v, mult)
    size = 1 + k + k * k
    return (_row_jet(buf[:size], k), buf[size:size + 2 * n],
            buf[size + 2 * n:].reshape(m, n - m))


def _momenta(lam, n) -> np.ndarray:
    """Eliminated momenta p_a = dLambda/dv_a from the jet of Lambda."""
    return lam.grad[n:]


def _hamiltonian(lam, n, v) -> float:
    """H = p_a v_a - Lambda from the jet of Lambda at base velocities v."""
    return float(_momenta(lam, n) @ v - lam.value)


def det_threshold(c, order):
    """det(c) and the threshold DET_RTOL * max|entry|^order at or below
    which |det| counts as singular, for a square matrix of that order.  A
    NaN entry makes the threshold NaN.  For a stack of matrices, the arrays
    of both, bit for bit the values of each matrix on its own."""
    if c.ndim > 2:
        # numpy's array power rounds differently from its scalar power.
        largest = np.abs(c).max(axis=(-2, -1)).tolist()
        return np.linalg.det(c), DET_RTOL * np.array([np.float64(x) ** order
                                                      for x in largest])
    sizes = list(map(abs, c.ravel().tolist()))
    largest = math.nan if any(map(math.isnan, sizes)) else max(sizes)
    return float(np.linalg.det(c)), DET_RTOL * np.float64(largest) ** order


def _singular_message(sys, what, det) -> str:
    return f"{what} is singular for system {sys.name!r} (det={det!r})"


def _det_guard(c, nb, sys, s, what):
    det, threshold = det_threshold(c, nb)
    if abs(det) <= threshold:
        raise SingularMatrixError(_singular_message(sys, what, det), det, s)
    return det


def _reduced_dynamics(sys, s, mult, what):
    """The reduced equations with multiplier vector ``mult``: one array of
    the completed velocities dq (n), the base accelerations dv (n-m) and the
    multiplier rates dp (m), in this order, and the jet of Lambda.

    With ``mult`` = p_dep this is the vakonomic field; with ``mult`` = the
    Legendre momenta of the dependent velocities it is the nonholonomic one
    (the two right-hand sides coincide under that substitution).
    """
    n, k = sys.n, 2 * sys.n - sys.m
    lam, known, psi_v = _field(sys, s, mult)
    c = lam.hess[n:, n:]
    _det_guard(c, k - n, sys, s, what)
    dq, dp = known[:n], known[k:]
    r = lam.grad[sys.base_positions] - dq @ lam.hess[:n, n:] + dp @ psi_v
    dy = known.copy()
    dy[n:k] = np.linalg.solve(c, r)
    return dy, lam


def _reduced_lanes(sys, tab, v, mult, skip):
    """``_reduced_dynamics`` over stacked states, from their stacked
    restricted table ``tab``: the shift, the determinant guard, and one
    solve over the lanes that are neither in ``skip`` nor singular.  Returns
    the stacked dq, dv (NaN where not solved) and dp, the determinants and
    the mask of singular lanes; every solved lane equals the state's own
    evaluation bit for bit."""
    n, m, base, dep = sys.n, sys.m, sys.base_positions, sys.dependent_positions
    lam = _shifted(tab, mult)
    c = lam.hess[:, n:, n:]
    det, threshold = det_threshold(c, n - m)
    singular = np.abs(det) <= threshold
    dq = np.empty((len(v), n))
    dq[:, base] = v
    dq[:, dep] = tab.values[:, :m]
    dp = lam.grad[:, dep]
    r = (lam.grad[:, base] - (dq[:, None] @ lam.hess[:, :n, n:])[:, 0]
         + (dp[:, None] @ tab.grads[:, :m, n:])[:, 0])
    solved = ~(skip | singular)
    dv = np.full((len(v), n - m), np.nan)
    dv[solved] = np.linalg.solve(c[solved], r[solved][..., None])[..., 0]
    return dq, dv, dp, det, singular


def cbar(sys: SystemDef, s: VakState) -> np.ndarray:
    """Reduced velocity-Hessian matrix at a vakonomic state (symmetric)."""
    check_state(sys, s)
    return _field(sys, s, s.p_dep)[0].hess[sys.n:, sys.n:]


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
    are read from the field's evaluation (``VakDerivative.lam``)."""
    check_state(sys, s)
    return _momenta(_field(sys, s, s.p_dep)[0], sys.n)


def hamiltonian(sys: SystemDef, s: VakState) -> float:
    """H = p_a v_a + p_dep . psi - L~, with the eliminated momenta derived
    from the state.  Conserved along the vakonomic flow (autonomous system).
    Along a trajectory the same value is read from the field's evaluation
    (``VakDerivative.lam``)."""
    check_state(sys, s)
    return _hamiltonian(_field(sys, s, s.p_dep)[0], sys.n, s.v)


def vak_rhs(sys: SystemDef, s: VakState) -> VakDerivative:
    """Explicit vakonomic vector field at a state.

    Raises :class:`SingularMatrixError` when the reduced matrix fails the
    determinant guard (the flow is not uniquely defined there).  The
    result keeps the jet of Lambda it was computed from.
    """
    check_state(sys, s)
    dy, lam = _reduced_dynamics(sys, s, s.p_dep, "vakonomic matrix")
    n, nb = sys.n, sys.n - sys.m
    return VakDerivative(dq=dy[:n], dv=dy[n:n + nb], dp_dep=dy[n + nb:], lam=lam, dy=dy)
