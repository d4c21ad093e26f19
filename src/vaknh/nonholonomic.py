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
the nonholonomic field at (q, v) is ``_stage`` at (q, v, Leg_dep).  Leg_dep
comes from the Legendre lift ``_lift``, two generated kernels on a flat
state: the completion of the velocities, then the velocity gradient of L
at the completed velocities.

The Chetaev multipliers themselves are not part of the state; they are
recovered along a trajectory from the dependent components of the ambient
Euler-Lagrange residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from ._jets import (ambient_table, ambient_velocity_gradient, completion, field_sweep,
                    restricted_table)
from .system import NhState, SystemDef, _full_velocities, check_state, completed_env
from .vakonomic import _args, _jet, _stage

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
    return _lift(sys, s.q, s.v)


def _lift(sys, q, v) -> np.ndarray:
    """``legendre_lift`` at the positions ``q`` and base velocities ``v``,
    which it does not check: the completion kernel, then the velocity
    gradient kernel at the completed velocities."""
    return ambient_velocity_gradient(sys, q, _full_velocities(sys, v, completion(sys, q, v)))


def _dependent_momenta(sys: SystemDef, s) -> np.ndarray:
    """Leg_dep: the Legendre momenta of the dependent velocities at the
    (q, v) of ``s``, which it does not check."""
    return _lift(sys, s.q, s.v)[sys.dependent_positions]


def ctilde(sys: SystemDef, s: NhState) -> np.ndarray:
    """Reduced regularity matrix (symmetric); for linear constraints it
    coincides with the vakonomic matrix at any multiplier value."""
    check_state(sys, s)
    buf = field_sweep(sys, _args(s, _dependent_momenta(sys, s)))
    return _jet(sys, buf).hess[sys.n:, sys.n:]


def nh_rhs(sys: SystemDef, s: NhState) -> NhDerivative:
    """Nonholonomic vector field at a state: ``_stage`` at (q, v, Leg_dep).
    Raises :class:`~vaknh.errors.SingularMatrixError` when regularity
    fails."""
    check_state(sys, s)
    dy, _ = _stage(sys, _args(s, _dependent_momenta(sys, s)), "nonholonomic matrix")
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
        restricted_table(sys, s.q, s.v).psi_grad @ np.concatenate([dq, accel.dv]))
    lag = ambient_table(sys, s.q, dq).lag
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
    return _energy(sys, s, legendre_lift(sys, s))


def _energy(sys, s, lift) -> float:
    """Mechanical energy at ``s`` from its Legendre lift; the completed
    velocities (the completion kernel) and L are evaluated on plain
    floats."""
    env = completed_env(sys, s.q, s.v)
    vfull = np.array([env[sys.velocity_of(c)] for c in sys.coords])
    return float(np.dot(vfull, lift) - _expr.evaluate(sys.lagrangian, env))
