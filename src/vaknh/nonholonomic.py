"""Nonholonomic (d'Alembert/Chetaev) dynamics in reduced form.

The phase space is parametrized by (q, dq_base); the constraint forces are
eliminated, leaving

    dq_dep/dt   = psi(q, v)
    Ctilde dv/dt = r(q, v)

with Ctilde_ab = d2L~/dv_a dv_b - Leg_dep . d2psi/dv_a dv_b, where Leg_dep
is the ambient velocity gradient of L in the dependent slots evaluated at
completed velocities.  The right-hand side r has the same shape as the
vakonomic one with the multipliers replaced by Leg_dep, which is how the
one stage of the reduced equations in :mod:`vaknh.vakonomic` serves both:
the nonholonomic stage at (q, v) runs the Legendre lift there, one run of
the generated ``lift`` kernel (the completed velocities, then the momenta
dL/d(velocities) there, then L there), and the ``field`` kernel at (q, v,
Leg_dep), Leg_dep read from that lift.  Along a trajectory the energy
reads the stage's lift.  ``ctilde`` and :mod:`vaknh.maps` take Leg_dep from
``legendre_lift``.

The Chetaev multipliers themselves are not part of the state; they are
recovered along a trajectory from the dependent components of the ambient
Euler-Lagrange residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jets import _flat, ambient_table, ambient_velocity_gradient, field_sweep, restricted_table
from .system import NhState, SystemDef, check_state
from .vakonomic import _stage, _views

__all__ = [
    "NhDerivative",
    "ctilde",
    "nh_rhs",
    "nh_multipliers",
    "legendre_lift",
    "energy",
    "euler_lagrange_residual",
]


@dataclass(frozen=True)
class NhDerivative:
    dq: np.ndarray  # n completed velocities
    dv: np.ndarray  # n-m base accelerations


def legendre_lift(sys: SystemDef, s: NhState) -> np.ndarray:
    """Full momentum covector p_A = dL/d(velocity_A) at completed velocities
    (the embedding of the constraint submanifold into phase space)."""
    check_state(sys, s)
    return ambient_velocity_gradient(sys, s.q, s.v)[sys.n:2 * sys.n]


def ctilde(sys: SystemDef, s: NhState) -> np.ndarray:
    """Reduced regularity matrix (symmetric); for linear constraints it
    coincides with the vakonomic matrix at any multiplier value."""
    mult = legendre_lift(sys, s)[sys.dependent_positions]   # Leg_dep
    buf = field_sweep(sys, _flat(s.q, s.v, mult))
    return _views(sys, buf)[1][sys.n:, sys.n:]


def nh_rhs(sys: SystemDef, s: NhState) -> NhDerivative:
    """Nonholonomic vector field at a state: the nonholonomic ``_stage`` at
    (q, v), which appends Leg_dep from its own lift.  Raises
    :class:`~vaknh.errors.SingularMatrixError` when regularity fails."""
    check_state(sys, s)
    dy, _ = _stage(sys, _flat(s.q, s.v), "nonholonomic matrix")
    return NhDerivative(dq=dy[:sys.n], dv=dy[sys.n:2 * sys.n - sys.m])


def euler_lagrange_residual(sys: SystemDef, s: NhState, accel: NhDerivative) -> np.ndarray:
    """Ambient Euler-Lagrange residual d/dt(dL/dv_A) - dL/dq_A along the
    completed flow through ``s``.  ``accel`` is the nonholonomic field at
    ``s`` (:func:`nh_rhs`): its completed velocities dq and its base
    accelerations; the dependent accelerations follow by differentiating
    psi along the flow.

    Identically zero exactly for free (unconstrained) solutions.
    """
    check_state(sys, s)
    n, dq = sys.n, accel.dq
    ddq = np.empty(n)
    ddq[sys.base_positions] = accel.dv
    ddq[sys.dependent_positions] = (
        restricted_table(sys, s.q, s.v).grads @ np.concatenate([dq, accel.dv]))
    lag = ambient_table(sys, s.q, dq)
    return dq @ lag.hess[:n, n:] + ddq @ lag.hess[n:, n:] - lag.grad[:n]


def nh_multipliers(sys: SystemDef, s: NhState, accel: NhDerivative) -> np.ndarray:
    """Chetaev constraint multipliers along the trajectory through ``s``:
    the dependent components of the Euler-Lagrange residual, with the sign
    fixed by the solved constraint form (d(constraint)/d(dep velocity) = -1)."""
    return -euler_lagrange_residual(sys, s, accel)[sys.dependent_positions]


def energy(sys: SystemDef, s: NhState) -> float:
    """Mechanical energy v . dL/dv - L at completed velocities; conserved by
    the nonholonomic flow for linear homogeneous constraints.  Along a
    trajectory the lift is read from the stage's evaluation at the state."""
    check_state(sys, s)
    return _energy(sys, ambient_velocity_gradient(sys, s.q, s.v))


def _energy(sys, lift) -> float:
    """Mechanical energy from the ``lift`` kernel's outputs at a state: the
    completed velocities, their momenta and L."""
    n = sys.n
    return float(np.dot(lift[:n], lift[n:2 * n]) - lift[2 * n])
