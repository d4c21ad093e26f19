"""Vakonomic dynamics: the constrained variational equations of motion in
explicit first-order form.

State coordinates are (q, dq_base, p_dep): positions, independent
velocities and the constraint multipliers.  The eliminated momenta

    p_a = dL~/dv_a - p_dep . dpsi/dv_a                       (w1_momenta)

are always derived from the state, never integrated, so the momentum
constraint cannot drift.  The reduced equations read

    dq_dep/dt  = psi(q, v)
    dp_dep/dt  = dL~/dq_dep - p_dep . dpsi/dq_dep
    Cbar dv/dt = r(q, v, p_dep)

where Cbar_ab = d2L~/dv_a dv_b - p_dep . d2psi/dv_a dv_b and r collects the
remaining terms of the expanded total time derivative of the eliminated
momenta.  Invertibility of Cbar is exactly the condition for the dynamics
to be well-posed (and for the phase space to carry a symplectic structure),
which ``symplectic_check`` probes pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jets import ambient_table, restricted_table
from .errors import SingularMatrixError
from .system import SystemDef, VakState, check_state, complete_velocities, require_linear

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


def _cmatrix(tab, mult):
    """(n-m)x(n-m) reduced matrix for a given multiplier vector."""
    nb = tab.n - tab.m
    vs = slice(tab.vi(0), tab.vi(nb))
    c = tab.lag.hess[vs, vs].copy()
    for k in range(tab.m):
        c -= mult[k] * tab.psi[k].hess[vs, vs]
    return c


def det_threshold(c, order):
    """det(c) and the threshold DET_RTOL * max|entry|^order at or below
    which |det| counts as singular, for a square matrix of that order."""
    return float(np.linalg.det(c)), DET_RTOL * max(np.max(np.abs(c)), 0.0) ** order


def _det_guard(c, nb, sys, s, what):
    det, threshold = det_threshold(c, nb)
    if abs(det) <= threshold:
        raise SingularMatrixError(
            f"{what} is singular for system {sys.name!r} (det={det!r})", det, s)
    return det


def _full_velocity(sys, tab, v):
    dq = np.empty(sys.n)
    for a, pos in enumerate(sys.base_positions):
        dq[pos] = v[a]
    for k, pos in enumerate(sys.dependent_positions):
        dq[pos] = tab.psi[k].value
    return dq


def _reduced_dynamics(sys, q, v, mult, s, what, tab=None):
    """Completed velocities, base accelerations and multiplier rates for the
    reduced equations with multiplier vector ``mult``.

    With ``mult`` = p_dep this is the vakonomic field; with ``mult`` = the
    Legendre momenta of the dependent velocities it is the nonholonomic one
    (the two right-hand sides coincide under that substitution).  ``tab``
    is the restricted table at (q, v), computed here when not given.
    """
    if tab is None:
        tab = restricted_table(sys, q, v)
    nb = sys.n - sys.m
    dq = _full_velocity(sys, tab, v)

    dp = np.empty(sys.m)
    for k, pos in enumerate(sys.dependent_positions):
        qk = tab.qi(pos)
        dp[k] = tab.lag.grad[qk] - sum(
            mult[j] * tab.psi[j].grad[qk] for j in range(sys.m))

    c = _cmatrix(tab, mult)
    _det_guard(c, nb, sys, s, what)

    r = np.empty(nb)
    for b, pos in enumerate(sys.base_positions):
        qb = tab.qi(pos)
        vb = tab.vi(b)
        total = tab.lag.grad[qb]
        for j in range(sys.m):
            total -= mult[j] * tab.psi[j].grad[qb]
        for big_a in range(sys.n):
            qa = tab.qi(big_a)
            mixed = tab.lag.hess[qa, vb]
            for j in range(sys.m):
                mixed -= mult[j] * tab.psi[j].hess[qa, vb]
            total -= dq[big_a] * mixed
        for j in range(sys.m):
            total += dp[j] * tab.psi[j].grad[vb]
        r[b] = total

    dv = np.linalg.solve(c, r)
    return dq, dv, dp


def cbar(sys: SystemDef, s: VakState) -> np.ndarray:
    """Reduced velocity-Hessian matrix at a vakonomic state (symmetric)."""
    check_state(sys, s)
    tab = restricted_table(sys, s.q, s.v)
    return _cmatrix(tab, s.p_dep)


def symplectic_check(sys: SystemDef, s: VakState) -> SymplecticReport:
    """Determinant test of the reduced matrix; invertibility is equivalent
    to a well-posed (unique) vakonomic flow through the state."""
    det, threshold = det_threshold(cbar(sys, s), sys.n - sys.m)
    return SymplecticReport(det=det, invertible=bool(abs(det) > threshold))


def compatibility_matrix(sys: SystemDef, q) -> np.ndarray:
    """m x m compatibility matrix for linear constraints and regular L:

        C[ab_dep] = Winv[base,base] psi_a psi_b - cross terms + Winv[dep,dep]

    where Winv is the inverse ambient velocity Hessian, evaluated at zero
    base velocity (for velocity-quadratic Lagrangians the Hessian does not
    depend on the velocity; a non-quadratic L triggers a warning).
    Its nonsingularity is equivalent to the pointwise symplectic test.
    """
    require_linear(sys, "compatibility_matrix")
    q = np.asarray(q, dtype=float)
    if len(q) != sys.n:
        raise ValueError(f"expected {sys.n} positions, got {len(q)}")
    nb = sys.n - sys.m
    zeros = np.zeros(nb)
    vfull = complete_velocities(sys, _ZeroState(q, zeros))
    tab = ambient_table(sys, q, vfull)
    w = tab.lag.hess[sys.n:, sys.n:]

    _warn_if_velocity_dependent_hessian(sys, q, w)

    det, threshold = det_threshold(w, sys.n)
    if abs(det) <= threshold:
        raise SingularMatrixError(
            f"ambient velocity Hessian of {sys.name!r} is singular (det={det!r})",
            det)
    winv = np.linalg.inv(w)

    rt = restricted_table(sys, q, zeros)
    psi_v = np.array([[rt.psi[k].grad[rt.vi(a)] for a in range(nb)]
                      for k in range(sys.m)])

    dep = list(sys.dependent_positions)
    base = list(sys.base_positions)
    c = np.empty((sys.m, sys.m))
    for i in range(sys.m):
        for j in range(sys.m):
            total = winv[dep[i], dep[j]]
            for a in range(nb):
                for b in range(nb):
                    total += winv[base[a], base[b]] * psi_v[i, a] * psi_v[j, b]
            for b in range(nb):
                total -= winv[dep[i], base[b]] * psi_v[j, b]
            for a in range(nb):
                total -= winv[base[a], dep[j]] * psi_v[i, a]
            c[i, j] = total
    return c


class _ZeroState:
    """Minimal stand-in accepted by complete_velocities."""

    def __init__(self, q, v):
        self.q = q
        self.v = v


def _warn_if_velocity_dependent_hessian(sys, q, w0):
    import warnings

    probe = np.full(sys.n - sys.m, 0.37)
    vfull = complete_velocities(sys, _ZeroState(q, probe))
    w1 = ambient_table(sys, q, vfull).lag.hess[sys.n:, sys.n:]
    if np.max(np.abs(w1 - w0)) > 1e-9 * (1.0 + np.max(np.abs(w0))):
        warnings.warn(
            f"ambient Lagrangian of {sys.name!r} is not velocity-quadratic; "
            "compatibility_matrix uses the Hessian at zero base velocity",
            stacklevel=3)


def w1_momenta(sys: SystemDef, s: VakState, tab=None) -> np.ndarray:
    """Eliminated momenta conjugate to the base coordinates:
    p_a = dL~/dv_a - p_dep . dpsi/dv_a.  ``tab``: the restricted table at
    ``s``, if the caller has it."""
    check_state(sys, s)
    if tab is None:
        tab = restricted_table(sys, s.q, s.v)
    nb = sys.n - sys.m
    p = np.empty(nb)
    for a in range(nb):
        va = tab.vi(a)
        p[a] = tab.lag.grad[va] - sum(
            s.p_dep[k] * tab.psi[k].grad[va] for k in range(sys.m))
    return p


def hamiltonian(sys: SystemDef, s: VakState, tab=None) -> float:
    """H = p_a v_a + p_dep . psi - L~, with the eliminated momenta derived
    from the state.  Conserved along the vakonomic flow (autonomous system).
    ``tab``: the restricted table at ``s``, if the caller has it."""
    check_state(sys, s)
    if tab is None:
        tab = restricted_table(sys, s.q, s.v)
    nb = sys.n - sys.m
    h = -tab.lag.value
    for a in range(nb):
        va = tab.vi(a)
        p_a = tab.lag.grad[va] - sum(
            s.p_dep[k] * tab.psi[k].grad[va] for k in range(sys.m))
        h += p_a * s.v[a]
    for k in range(sys.m):
        h += s.p_dep[k] * tab.psi[k].value
    return float(h)


def vak_rhs(sys: SystemDef, s: VakState, tab=None) -> VakDerivative:
    """Explicit vakonomic vector field at a state.

    Raises :class:`SingularMatrixError` when the reduced matrix fails the
    determinant guard (the flow is not uniquely defined there).  ``tab``:
    the restricted table at ``s``, if the caller has it.
    """
    check_state(sys, s)
    dq, dv, dp = _reduced_dynamics(sys, s.q, s.v, s.p_dep, s, "vakonomic matrix", tab)
    return VakDerivative(dq=dq, dv=dv, dp_dep=dp)
