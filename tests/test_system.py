import numpy as np
import pytest

from vaknh.errors import AdmissibilityError, SystemFormatError
from vaknh.system import (NhState, VakState, complete_velocities, completed_env, load_system,
                          restricted_lagrangian, serialize_system, state_env,
                          verify_linearity)

from conftest import ALL_MODELS, get_model

PARTICLE = """\
name particle
coords x y z
dependent z
linear true
lagrangian 0.5*(dx^2 + dy^2 + dz^2)
psi z = y*dx
"""


def test_load_particle():
    sysdef = load_system(PARTICLE)
    assert sysdef.n == 3 and sysdef.m == 1
    assert sysdef.base == ("x", "y")
    assert sysdef.dependent == ("z",)
    assert sysdef.declared_linear


def test_dependent_velocity_in_psi_is_admissibility_error():
    bad = PARTICLE.replace("psi z = y*dx", "psi z = dz")
    with pytest.raises(AdmissibilityError, match="psi z .* dz"):
        load_system(bad)


def test_load_martinet_file():
    sysdef = get_model("martinet")
    assert sysdef.n == 3 and sysdef.m == 1
    assert sysdef.dependent == ("z",)


def test_unknown_variable_in_psi():
    bad = PARTICLE.replace("psi z = y*dx", "psi z = w*dx")
    with pytest.raises(SystemFormatError, match="unknown variable"):
        load_system(bad)


def test_unknown_variable_in_lagrangian():
    bad = PARTICLE.replace("0.5*(dx^2 + dy^2 + dz^2)", "0.5*dw^2")
    with pytest.raises(SystemFormatError, match="lagrangian"):
        load_system(bad)


def test_missing_psi_line():
    bad = PARTICLE.replace("psi z = y*dx\n", "")
    with pytest.raises(SystemFormatError, match="psi"):
        load_system(bad)


def test_partition_bounds():
    bad = PARTICLE.replace("dependent z", "dependent x y z")
    with pytest.raises(SystemFormatError):
        load_system(bad)


def test_comments_and_blank_lines_ignored():
    noisy = "# header\n\n" + PARTICLE.replace("name particle",
                                              "name particle  # with comment")
    sysdef = load_system(noisy)
    assert sysdef.name == "particle"


@pytest.mark.parametrize("name", ALL_MODELS)
def test_file_round_trip(name):
    sysdef = get_model(name)
    again = load_system(serialize_system(sysdef))
    assert again == sysdef


def test_complete_velocities_particle():
    sysdef = load_system(PARTICLE)
    full = complete_velocities(sysdef, NhState([0, 1, 0], [1, 1]))
    assert np.array_equal(full, [1.0, 1.0, 1.0])


def test_complete_velocities_martinet():
    full = complete_velocities(get_model("martinet"), NhState([0, 1, 0], [1, 0]))
    assert np.array_equal(full, [1.0, 0.0, 0.5])


def test_complete_velocities_domain_error():
    from vaknh.errors import EvalError
    vn = get_model("von_neumann2")
    # base velocity larger than the transformation frontier allows
    with pytest.raises(EvalError, match="sqrt"):
        complete_velocities(vn, NhState([0.1, 0.1], [5.0]))


@pytest.mark.parametrize("name", ["constrained_particle", "rolling_penny",
                                  "martinet", "paramecium", "holonomic_demo"])
def test_zero_velocity_completes_to_zero_for_linear(name):
    sysdef = get_model(name)
    full = complete_velocities(
        sysdef, NhState(np.full(sysdef.n, 0.3), np.zeros(sysdef.n - sysdef.m)))
    assert np.all(full == 0.0)


def test_verify_linearity_particle():
    report = verify_linearity(load_system(PARTICLE), samples=10, seed=4)
    assert report.linear and report.witness is None


def test_verify_linearity_von_neumann_nonlinear_with_witness():
    report = verify_linearity(get_model("von_neumann2"), samples=10, seed=4)
    assert not report.linear
    assert report.witness is not None
    q, v = report.witness
    assert len(q) == 2 and len(v) == 1


def test_verify_linearity_rejects_affine():
    affine = """\
name affine
coords x y
dependent x
linear false
lagrangian 0.5*(dx^2 + dy^2)
psi x = dy + 1
"""
    report = verify_linearity(load_system(affine), samples=5, seed=0)
    assert not report.linear  # psi(q, 0) != 0


def test_declared_linear_failing_verification_is_load_error():
    lying = """\
name lying
coords x y
dependent x
linear true
lagrangian 0.5*(dx^2 + dy^2)
psi x = dy^2
"""
    with pytest.raises(SystemFormatError, match="declared linear"):
        load_system(lying)


def test_restricted_lagrangian_particle_hand_value():
    # L restricted to the constraint submanifold at q=(0,1,0), v=(1,1)
    sysdef = load_system(PARTICLE)
    assert restricted_lagrangian(sysdef, [0, 1, 0], [1, 1]) == 1.5


@pytest.mark.parametrize("q, v, message", [
    ([0.1, 0.2, 0.3, 0.4], [0.5, 0.6], "state has 4 positions, system 'martinet' has 3"),
    ([0.1, 0.2, 0.3], [0.5, 0.6, 0.9], "state has 3 base velocities, expected 2"),
    ([0.1, 0.2], [0.5, 0.6], "state has 2 positions, system 'martinet' has 3"),
])
@pytest.mark.parametrize("function", [restricted_lagrangian, completed_env])
def test_wrong_length_states_raise_check_state_error(function, q, v, message):
    # Extra entries used to be ignored: both calls gave L~ at the 3 + 2 state.
    with pytest.raises(ValueError) as exc:
        function(get_model("martinet"), q, v)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ALL_MODELS)
def test_declared_linearity_matches_verification(name):
    sysdef = get_model(name)
    report = verify_linearity(sysdef, samples=15, seed=2)
    assert report.linear == sysdef.declared_linear


def test_state_names_follow_the_packed_state():
    # Dependent coordinates declared before a base one keep their place.
    sysdef = get_model("rolling_penny")
    assert sysdef.state_names == ("x", "y", "theta", "phi", "dtheta", "dphi", "p_x", "p_y")
    s = VakState((1.0, 2.0, 3.0, 4.0), (5.0, 6.0), (7.0, 8.0))
    assert state_env(sysdef, s) == dict(zip(sysdef.state_names, map(float, range(1, 9))))
    assert state_env(sysdef, NhState(s.q, s.v)) == dict(
        zip(sysdef.state_names[:6], map(float, range(1, 7))))
