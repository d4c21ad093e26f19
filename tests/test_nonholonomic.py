import numpy as np
import pytest

from vaknh.integrate import integrate
from vaknh.nonholonomic import (ctilde, energy, legendre_lift, nh_multipliers,
                                nh_rhs)
from vaknh.system import NhState
from vaknh.vakonomic import cbar

from conftest import LINEAR_MODELS, get_model, random_states


def test_ctilde_particle():
    p = get_model("constrained_particle")
    assert np.array_equal(ctilde(p, NhState([0, 1, 0], [1, 1])),
                          [[2.0, 0.0], [0.0, 1.0]])


def test_ctilde_martinet_identity():
    m = get_model("martinet")
    assert np.allclose(ctilde(m, NhState([0.4, -0.8, 0.3], [0.2, 0.9])),
                       np.eye(2), atol=1e-15)


@pytest.mark.parametrize("name", LINEAR_MODELS)
def test_ctilde_equals_cbar_for_linear(name):
    sysdef = get_model(name)
    for s in random_states(name, 100, seed=10):
        diff = ctilde(sysdef, NhState(s.q, s.v)) - cbar(sysdef, s)
        assert np.max(np.abs(diff)) <= 1e-14


def test_nh_rhs_particle():
    p = get_model("constrained_particle")
    d = nh_rhs(p, NhState([0, 1, 0], [1, 1]))
    assert np.allclose(d.dv, [-0.5, 0.0], atol=1e-15)
    assert np.array_equal(d.dq, [1.0, 1.0, 1.0])


def test_nh_rhs_penny_free_rotation():
    pen = get_model("rolling_penny")
    rng = np.random.default_rng(12)
    for _ in range(10):
        q = rng.uniform(-1, 1, 4)
        v = rng.uniform(-1, 1, 2)
        d = nh_rhs(pen, NhState(q, v))
        # rolling angle and heading accelerations vanish identically
        assert np.allclose(d.dv, [0.0, 0.0], atol=1e-15)
        # induced contact-point velocities follow the constraint
        theta_dot, phi = v[0], q[3]
        assert np.allclose(d.dq[:2], [theta_dot * np.cos(phi),
                                      theta_dot * np.sin(phi)], atol=1e-15)


def test_nh_rhs_particle_straight_line():
    p = get_model("constrained_particle")
    d = nh_rhs(p, NhState([0.3, 1.7, -0.2], [1, 0]))
    assert np.allclose(d.dv, [0.0, 0.0], atol=1e-15)


def test_nh_multipliers_particle():
    p = get_model("constrained_particle")
    s = NhState([0, 1, 0], [1, 1])
    lam = nh_multipliers(p, s, nh_rhs(p, s))
    assert np.allclose(lam, [-0.5], atol=1e-15)


def test_nh_multipliers_zero_on_free_solutions():
    p = get_model("constrained_particle")
    s = NhState([0.5, 0.8, 0.1], [1.3, 0.0])  # straight line satisfying dz=y*dx
    lam = nh_multipliers(p, s, nh_rhs(p, s))
    assert np.max(np.abs(lam)) <= 1e-15


def test_nh_multipliers_penny_straight_line():
    pen = get_model("rolling_penny")
    s = NhState([0.2, 0.4, 1.1, 0.6], [0.9, 0.0])  # phi_dot = 0
    lam = nh_multipliers(pen, s, nh_rhs(pen, s))
    assert np.max(np.abs(lam)) <= 1e-15


def test_nh_multipliers_zero_along_free_flow():
    # A trajectory that satisfies the free Euler-Lagrange equations keeps
    # lambda = 0 to integration accuracy the whole way.
    p = get_model("constrained_particle")
    traj = integrate(p, "nh", NhState([0, 0.7, 0], [1.2, 0.0]), t_end=5.0)
    for s in traj.states:
        lam = nh_multipliers(p, s, nh_rhs(p, s))
        assert np.max(np.abs(lam)) <= 1e-9


def test_legendre_lift_examples():
    p = get_model("constrained_particle")
    assert np.array_equal(legendre_lift(p, NhState([0, 1, 0], [1, 1])),
                          [1.0, 1.0, 1.0])
    assert np.array_equal(legendre_lift(p, NhState([0.4, 2.0, 1.0], [0, 0])),
                          [0.0, 0.0, 0.0])
    # adapted-frame ambient Lagrangian: the dependent momentum vanishes on
    # the constraint submanifold
    m = get_model("martinet")
    assert np.allclose(legendre_lift(m, NhState([0, 1, 0], [1, 0])),
                       [1.0, 0.0, 0.0], atol=1e-15)


def test_energy_is_restricted_lagrangian_for_kinetic_models():
    from vaknh.system import restricted_lagrangian
    pen = get_model("rolling_penny")
    s = NhState([0.1, 0.2, 0.3, 0.4], [0.5, 0.6])
    assert abs(energy(pen, s) - restricted_lagrangian(pen, s.q, s.v)) <= 1e-15
