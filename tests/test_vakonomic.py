import numpy as np
import pytest

from vaknh.errors import NonlinearSystemError, SingularMatrixError
from vaknh.system import VakState
from vaknh.vakonomic import (cbar, compatibility_matrix, hamiltonian,
                             symplectic_check, vak_rhs, w1_momenta)

from conftest import LINEAR_MODELS, get_model, random_states


def test_cbar_particle():
    p = get_model("constrained_particle")
    c = cbar(p, VakState([0, 1, 0], [0.4, -0.7], [3.3]))
    assert np.array_equal(c, [[2.0, 0.0], [0.0, 1.0]])
    c0 = cbar(p, VakState([5, 0, 2], [1, 1], [-0.2]))
    assert np.array_equal(c0, np.eye(2))


def test_cbar_martinet_identity():
    m = get_model("martinet")
    c = cbar(m, VakState([0.3, -1.2, 0.8], [0.5, 0.1], [2.0]))
    assert np.allclose(c, np.eye(2), atol=1e-15)


def test_cbar_exactly_symmetric():
    vn = get_model("von_neumann2")
    for s in random_states("von_neumann2", 100, seed=5):
        c = cbar(vn, s)
        assert np.array_equal(c, c.T)


@pytest.mark.parametrize("name", LINEAR_MODELS)
def test_cbar_independent_of_multipliers_for_linear(name):
    sysdef = get_model(name)
    for s in random_states(name, 100, seed=6):
        zero_p = VakState(s.q, s.v, np.zeros(sysdef.m))
        assert np.max(np.abs(cbar(sysdef, s) - cbar(sysdef, zero_p))) <= 1e-14


def test_symplectic_particle_and_martinet():
    p = get_model("constrained_particle")
    rep = symplectic_check(p, VakState([0, 1, 0], [1, 1], [2]))
    assert rep.det == 2.0 and rep.invertible
    m = get_model("martinet")
    for s in random_states("martinet", 20, seed=7):
        rep = symplectic_check(m, s)
        assert rep.invertible and abs(rep.det - 1.0) < 1e-12


def test_symplectic_von_neumann_singular_along_p_ray():
    # det Cbar changes sign along a multiplier ray; bisect for the root and
    # confirm the check reports non-invertibility there.
    vn = get_model("von_neumann2")
    q, v = np.array([1.5, 1.2]), np.array([0.3])

    def det_at(p1):
        return symplectic_check(vn, VakState(q, v, [p1])).det

    lo, hi = -1.0, 1.0
    assert det_at(lo) * det_at(hi) < 0  # a singular state exists on the ray
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if det_at(lo) * det_at(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(det_at(root)) <= 1e-12 * abs(det_at(1.0))
    # the crossing is the degenerate multiplier itself
    assert abs(root) <= 1e-15
    assert not symplectic_check(vn, VakState(q, v, [0.0])).invertible
    with pytest.raises(SingularMatrixError):
        vak_rhs(vn, VakState(q, v, [0.0]))


def test_compatibility_particle():
    p = get_model("constrained_particle")
    assert np.allclose(compatibility_matrix(p, [0, 1, 0]), [[2.0]], atol=1e-14)
    assert np.allclose(compatibility_matrix(p, [0, 0, 0]), [[1.0]], atol=1e-14)


def test_compatibility_martinet_adapted_frame():
    # The ambient Lagrangian is Euclidean in the constraint-adapted frame,
    # so the compatibility matrix is identically 1.
    m = get_model("martinet")
    assert np.allclose(compatibility_matrix(m, [0, 2, 0]), [[1.0]], atol=1e-12)


def test_compatibility_requires_linear():
    with pytest.raises(NonlinearSystemError):
        compatibility_matrix(get_model("von_neumann2"), [1.0, 1.0])


def test_compatibility_warns_on_non_quadratic_lagrangian():
    from vaknh.system import load_system
    quartic = load_system("""\
name quartic
coords x y
dependent y
linear true
lagrangian 0.5*(dx^2 + dy^2) + 0.1*dx^4
psi y = dx
""")
    with pytest.warns(UserWarning, match="not velocity-quadratic"):
        compatibility_matrix(quartic, [0.0, 0.0])


def test_compatibility_rejects_singular_ambient_hessian():
    from vaknh.system import load_system
    degenerate = load_system("""\
name degenerate
coords x y z
dependent z
linear true
lagrangian 0.5*dx^2
psi z = dx
""")
    with pytest.raises(SingularMatrixError, match="Hessian"):
        compatibility_matrix(degenerate, [0.0, 0.0, 0.0])


def test_w1_momenta_examples():
    p = get_model("constrained_particle")
    assert np.allclose(w1_momenta(p, VakState([0, 1, 0], [1, 1], [2])),
                       [0.0, 1.0], atol=1e-15)
    m = get_model("martinet")
    assert np.allclose(w1_momenta(m, VakState([0, 1, 0], [1, 0], [1])),
                       [0.5, 0.0], atol=1e-15)
    # with zero multipliers the momenta reduce to the velocity gradient of
    # the restricted Lagrangian
    s = VakState([0, 1, 0], [1, 1], [0.0])
    assert np.allclose(w1_momenta(p, s), [2.0, 1.0], atol=1e-15)


def test_hamiltonian_examples():
    p = get_model("constrained_particle")
    assert hamiltonian(p, VakState([0, 1, 0], [1, 1], [2])) == 1.5
    for name in ("constrained_particle", "rolling_penny", "martinet"):
        sysdef = get_model(name)
        s = VakState(np.full(sysdef.n, 0.4), np.zeros(sysdef.n - sysdef.m),
                     np.full(sysdef.m, 1.7))
        assert abs(hamiltonian(sysdef, s)) <= 1e-15
    m = get_model("martinet")
    assert hamiltonian(m, VakState([0, 1, 0], [1, 0], [1])) == 0.5


def test_vak_rhs_particle():
    p = get_model("constrained_particle")
    d = vak_rhs(p, VakState([0, 1, 0], [1, 1], [2]))
    assert np.array_equal(d.dq, [1.0, 1.0, 1.0])
    assert np.allclose(d.dv, [0.0, -1.0], atol=1e-15)
    assert np.array_equal(d.dp_dep, [0.0])


def test_vak_rhs_martinet():
    m = get_model("martinet")
    d = vak_rhs(m, VakState([0, 1, 0], [1, 0], [1]))
    assert np.allclose(d.dq, [1.0, 0.0, 0.5], atol=1e-15)
    assert np.allclose(d.dv, [0.0, -1.0], atol=1e-15)
    assert d.dp_dep[0] == 0.0


def test_vak_rhs_paramecium():
    pa = get_model("paramecium")
    d = vak_rhs(pa, VakState([0.2, -0.4, 0.1], [0.5, 0.7], [8.0]))
    # with eps=1 and p=8 the shape accelerations are (v2, -v1)
    assert np.allclose(d.dv, [0.7, -0.5], atol=1e-14)
    assert d.dp_dep[0] == 0.0


def test_vak_rhs_dependent_dq_equals_psi_exactly():
    from vaknh.system import complete_velocities
    for name in ("rolling_penny", "von_neumann2"):
        sysdef = get_model(name)
        for s in random_states(name, 10, seed=8):
            d = vak_rhs(sysdef, s)
            assert np.array_equal(d.dq, complete_velocities(sysdef, s))


@pytest.mark.parametrize("name,cyclic", [("constrained_particle", 0),
                                         ("martinet", 0),
                                         ("paramecium", 0)])
def test_multiplier_rate_vanishes_for_cyclic_dependent_coord(name, cyclic):
    sysdef = get_model(name)
    for s in random_states(name, 30, seed=9):
        d = vak_rhs(sysdef, s)
        assert d.dp_dep[cyclic] == 0.0


def test_vak_rhs_matches_ambient_dae_on_nonlinear_model():
    # Pointwise cross-check of the reduced equations against the ambient
    # extended-multiplier formulation on the one genuinely nonlinear model.
    from oracles import vak_dae_rhs
    from vaknh._jets import ambient_velocity_gradient
    from vaknh.system import complete_velocities

    vn = get_model("von_neumann2")
    for s in random_states("von_neumann2", 25, seed=33):
        qdot = complete_velocities(vn, s)
        lift = ambient_velocity_gradient(vn, s.q, s.v)[vn.n:]
        lam = s.p_dep - np.array([lift[i] for i in vn.dependent_positions])
        qddot, _ = vak_dae_rhs(vn, s.q, qdot, lam)
        reduced = vak_rhs(vn, s)
        ambient_base = np.array([qddot[i] for i in vn.base_positions])
        assert np.max(np.abs(ambient_base - reduced.dv)) <= 1e-10


def test_vak_rhs_with_fractional_exponents():
    # alpha1 = 0.3 renders non-integral powers, driving the real-exponent
    # derivative rules through the whole dynamics stack
    from oracles import vak_dae_rhs
    from vaknh.models import builtin
    from vaknh._jets import ambient_velocity_gradient
    from vaknh.system import complete_velocities

    vn = builtin("von_neumann2", alpha1=0.3)
    s = VakState([1.5, 1.2], [0.3], [1.3])
    d = vak_rhs(vn, s)
    qdot = complete_velocities(vn, s)
    lift = ambient_velocity_gradient(vn, s.q, s.v)[vn.n:]
    lam = s.p_dep - np.array([lift[i] for i in vn.dependent_positions])
    qddot, _ = vak_dae_rhs(vn, s.q, qdot, lam)
    assert abs(d.dv[0] - qddot[vn.base_positions[0]]) <= 1e-12
