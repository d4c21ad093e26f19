import re

import numpy as np
import pytest
from hypothesis import given, settings

from vaknh import expr as E
from vaknh.errors import AdmissibilityError, EvalError, LinearityError, SystemFormatError
from vaknh.system import (NhState, SystemDef, VakState, _degree, complete_velocities,
                          completed_env, load_system, restricted_lagrangian,
                          serialize_system, state_env, verify_linearity)

from conftest import ALL_MODELS, LINEAR_MODELS, get_model
from test_expr import _exprs

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


@pytest.mark.parametrize("coords, message", [
    ("x dx z", "coordinate 'dx' is also the velocity of 'x'"),
    ("dz x z", "coordinate 'dz' is also the velocity of 'z'"),
    ("x p_z z", "coordinate 'p_z' is also the multiplier of 'z'"),
    ("p_z z x", "coordinate 'p_z' is also the multiplier of 'z'"),
], ids=["base-velocity", "dependent-velocity", "multiplier", "multiplier-first"])
def test_coordinate_named_as_a_derived_name(coords, message):
    # The state and the Lagrangian name the velocity of c d<c> and the
    # multiplier of a dependent d p_<d>; a coordinate of either name would
    # be two variables under one name.
    with pytest.raises(SystemFormatError) as info:
        load_system(PARTICLE.replace("coords x y z", f"coords {coords}"))
    assert type(info.value) is SystemFormatError
    assert str(info.value) == message


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


def test_verify_linearity_needs_a_sample():
    with pytest.raises(ValueError, match="^samples must be >= 1$"):
        verify_linearity(get_model("martinet"), samples=0, seed=0)


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


# ``load_system`` verifies a declared-linear system that the tree walk
# leaves undecided on every load; ``SystemDef.linear`` of one not declared
# linear makes the same decision.


def _counted_verifications(monkeypatch):
    from vaknh import system

    calls = []
    verify = system.verify_linearity

    def counted(sys, samples, seed):
        calls.append((sys.name, samples, seed))
        return verify(sys, samples, seed)

    monkeypatch.setattr(system, "verify_linearity", counted)
    return calls


def test_a_failing_declared_linear_system_fails_every_load(monkeypatch):
    from vaknh.errors import LinearityError

    calls = _counted_verifications(monkeypatch)
    lying = PARTICLE.replace("name particle", "name memo_lying").replace("y*dx", "dx^2")
    for _ in range(3):
        with pytest.raises(LinearityError, match="declared linear but fails verification"):
            load_system(lying)
    assert calls == [("memo_lying", 20, 0)] * 3


def test_a_verification_that_raises_is_not_kept(monkeypatch):
    from vaknh.errors import EvalError

    calls = _counted_verifications(monkeypatch)
    failing = PARTICLE.replace("name particle", "name memo_raises").replace(
        "y*dx", "log(-1 - y^2)*dx")
    for _ in range(2):
        with pytest.raises(EvalError, match="log of non-positive value"):
            load_system(failing)
    assert len(calls) == 2
    undeclared = load_system(failing.replace("linear true", "linear false"))
    assert not undeclared.linear
    assert len(calls) == 3


# The structural certificate (``_degree``): psi homogeneous of degree 1 in
# the base velocities by construction, or undecided (None).


@pytest.mark.parametrize("text, degree", [
    ("y*dx", 1), ("-dx + x*dy", 1), ("dx - 2*dy", 1), ("x^2*dx", 1), ("x^0*dx", 1),
    ("dx^1", 1), ("(sin(x) + cos(y))*dx", 1), ("dx/2", 1), ("-(y^2/2)*dx", 1),
    ("x*y^3 - 1", 0),
    ("dx^2", None), ("dx*dy", None), ("sqrt(x^2 + 1)*dx", None), ("x^-1*dx", None),
    ("dx/x", None), ("dx/0", None), ("dx/-2", None), ("dx + 1", None), ("(dx + 1) - 1", None),
    ("sin(dx)", None), ("exp(x)*dx", None), ("tan(x)*dx", None), ("x^0.5*dx", None),
    ("x^100*dx", None), ("dx^2 - dx^2 + y*dx", None), ("sin(1e400*x)*dx", None),
])
def test_the_certificate_reads_the_tree(text, degree):
    assert _degree(E.parse(text), {"dx", "dy"}) == degree


@pytest.mark.parametrize("name", ALL_MODELS)
def test_the_certificate_decides_every_linear_catalog_model(name):
    sysdef = get_model(name)
    velocities = set(map(sysdef.velocity_of, sysdef.base))
    degrees = {_degree(sysdef.psi[c], velocities) for c in sysdef.dependent}
    assert degrees == ({1} if name in LINEAR_MODELS else {None})


@settings(max_examples=300, deadline=None)
@given(_exprs())
def test_a_certified_psi_passes_the_sampled_verification(tree):
    # The sampler, exact hyper-dual Hessians at random states, is an oracle
    # independent of the tree walk.  A tree times a velocity is certified
    # whenever the tree is free of velocities.
    velocities = {"dx", "dy", "dk1"}
    for psi in (tree, E.Binary("*", tree, E.Var("dy"))):
        if _degree(psi, velocities) != 1:
            continue
        sysdef = SystemDef(name="random", coords=("x", "y", "k1", "z"), dependent=("z",),
                           lagrangian=E.parse("dz^2/2"), psi={"z": psi},
                           declared_linear=False)
        try:
            report = verify_linearity(sysdef, 20, 0)
        except EvalError as exc:
            # A certified tree fails to evaluate only where sin or cos meet
            # a velocity-free value that overflowed.
            assert re.search(r"math domain error in '(sin|cos)\(", str(exc)), exc
            continue
        assert report.linear and report.witness is None


def test_a_certified_system_is_not_sampled(monkeypatch):
    calls = _counted_verifications(monkeypatch)
    undeclared = PARTICLE.replace("linear true", "linear false")
    assert load_system(PARTICLE).linear and load_system(undeclared).linear
    assert calls == []
    # An undecided tree is sampled, once per system.
    rooted = load_system(undeclared.replace("y*dx", "sqrt(x^2 + 1)*dx"))
    assert rooted.linear and rooted.linear
    assert calls == [("particle", 20, 0)]


@pytest.mark.parametrize("psi", ["y*dx + 1e-13*dx^2", "y*dx + 4e-13*x", "y*dx + 1e-7*dx^2"])
def test_a_small_nonlinear_term_fails_the_declaration(psi):
    # The sampled rule is exact zero: these loaded as linear under an
    # absolute tolerance of 1e-12, except the last.
    with pytest.raises(LinearityError, match="declared linear but fails verification"):
        load_system(PARTICLE.replace("y*dx", psi))
    assert not load_system(PARTICLE.replace("y*dx", psi).replace("linear true",
                                                                   "linear false")).linear


@pytest.mark.parametrize("psi", ["(dx + 1) - 1", "dx^2 - dx^2 + y*dx", "sqrt(x^2 + 1)*dx"])
def test_an_undecided_linear_psi_passes_the_sampled_verification(psi):
    assert load_system(PARTICLE.replace("y*dx", psi)).linear


@pytest.mark.parametrize("old, new, message", [
    ("psi z = y*dx\n", "psi z = y*dx\npsi z = x*dx\n",
     "line 7: repeated 'psi z' line (first on line 6)"),
    ("name particle\n", "name a\nname b\n", "line 2: repeated 'name' line (first on line 1)"),
    ("linear true\n", "linear true\nlinear false\n",
     "line 5: repeated 'linear' line (first on line 4)"),
])
def test_a_repeated_key_is_a_format_error(old, new, message):
    with pytest.raises(SystemFormatError) as exc:
        load_system(PARTICLE.replace(old, new))
    assert str(exc.value) == message
