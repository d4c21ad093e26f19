"""Properties of the reduced system shared by the vakonomic and the
nonholonomic field, over random states of every linear model."""

import numpy as np
from hypothesis import given, settings, strategies as st

from vaknh.nonholonomic import ctilde, nh_rhs
from vaknh.system import NhState
from vaknh.vakonomic import cbar, vak_rhs

from conftest import LINEAR_MODELS, get_model, random_states

_MODELS = st.sampled_from(LINEAR_MODELS)
_SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(_MODELS, _SEEDS)
def test_vak_field_is_nh_field_at_legendre_momenta(name, seed):
    sysdef = get_model(name)
    (s,) = random_states(name, 1, seed, legendre=True)
    assert np.array_equal(vak_rhs(sysdef, s).dv, nh_rhs(sysdef, NhState(s.q, s.v)).dv)


@settings(max_examples=60, deadline=None)
@given(_MODELS, _SEEDS)
def test_cbar_exactly_symmetric(name, seed):
    (s,) = random_states(name, 1, seed)
    c = cbar(get_model(name), s)
    assert np.array_equal(c, c.T)


@settings(max_examples=60, deadline=None)
@given(_MODELS, _SEEDS)
def test_ctilde_is_cbar_at_any_multiplier(name, seed):
    sysdef = get_model(name)
    (s,) = random_states(name, 1, seed)
    assert np.array_equal(ctilde(sysdef, NhState(s.q, s.v)), cbar(sysdef, s))
