"""Structural maps between the vakonomic and nonholonomic phase spaces.

* ``legendre_shift``: the fibred shift (p, v) -> (p -/+ Leg(v), v) on full
  covectors, its own inverse up to the sign choice.
* ``upsilon``: the projection from vakonomic states to nonholonomic ones
  (drop the multipliers).
* ``mu_to_lambda`` / ``lambda_to_mu``: conversion between the constraint
  multipliers carried by the state and the multipliers of the extended
  ambient formulation, lambda = Leg_dep - p_dep (an affine involution at
  fixed (q, v)).
* ``vg_residual``: membership test of a covector in the mixed bundle cut
  out by lambda_base + lambda_dep . dpsi/dv = 0 (linear constraints only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jets import restricted_table
from .nonholonomic import legendre_lift
from .system import NhState, SystemDef, VakState, check_state, require_finite, require_linear

__all__ = [
    "CovectorPoint",
    "legendre_shift",
    "upsilon",
    "mu_to_lambda",
    "lambda_to_mu",
    "vg_residual",
]


@dataclass(frozen=True)
class CovectorPoint:
    """A full covector over a constrained velocity: (q, p, v_base)."""

    q: np.ndarray
    p: np.ndarray  # n components
    v: np.ndarray  # n-m base velocities

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


def legendre_shift(sys: SystemDef, pt: CovectorPoint, direction: str) -> CovectorPoint:
    """Shift the covector by the Legendre map at completed velocities, the
    momenta of ``legendre_lift``: ``forward`` subtracts, ``inverse`` adds.
    forward o inverse is the identity bitwise (the same computed momenta
    are added and subtracted)."""
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    if len(pt.p) != sys.n:
        raise ValueError(f"covector has {len(pt.p)} components, expected {sys.n}")
    require_finite("covector component", pt.p, sys.coords)
    leg = legendre_lift(sys, NhState(pt.q, pt.v))
    p = pt.p - leg if direction == "forward" else pt.p + leg
    return CovectorPoint(q=pt.q, p=p, v=pt.v)


def upsilon(sys: SystemDef, s: VakState) -> NhState:
    """Project a vakonomic state to the nonholonomic phase space by
    forgetting the multipliers."""
    check_state(sys, s)
    return NhState(q=s.q, v=s.v)


def mu_to_lambda(sys: SystemDef, s: VakState) -> np.ndarray:
    """Extended-formulation multipliers lambda_dep = Leg_dep - p_dep."""
    return legendre_lift(sys, s)[sys.dependent_positions] - s.p_dep   # checks s


def lambda_to_mu(sys: SystemDef, s: NhState, lam) -> np.ndarray:
    """Inverse conversion: p_dep = Leg_dep - lambda_dep at (q, v)."""
    check_state(sys, s)
    lam = np.asarray(lam, dtype=float)
    if len(lam) != sys.m:
        raise ValueError(f"expected {sys.m} multipliers, got {len(lam)}")
    require_finite("multiplier", lam, sys.dependent)
    return legendre_lift(sys, s)[sys.dependent_positions] - lam


def vg_residual(sys: SystemDef, lambda_full, s: NhState) -> np.ndarray:
    """Component a = lambda_a + lambda_dep . dpsi/dv_a; zero exactly when
    the covector lies in the annihilator-plus-distribution mixed bundle."""
    require_linear(sys, "vg_residual")
    check_state(sys, s)
    lambda_full = np.asarray(lambda_full, dtype=float)
    if len(lambda_full) != sys.n:
        raise ValueError(f"expected {sys.n} covector components, got {len(lambda_full)}")
    require_finite("covector component", lambda_full, sys.coords)
    psi_v = restricted_table(sys, s.q, s.v).grads[:, sys.n:]
    return (lambda_full[sys.base_positions]
            + lambda_full[sys.dependent_positions] @ psi_v)
