"""The fused ``field`` kernel against the table of psi and L~ and its shift.

The reduced equations read the jet of Lambda, the completed velocities,
the psi gradients and the multiplier rates from one buffer of the
``field`` kernel: ``vak_rhs``, ``nh_rhs`` and the integrator through
``vakonomic._stage``, the comparison phases of ``scan`` and ``compare``
through its stacked twin ``_stage_lanes``.  The reference here builds them
from the tests' kernel of psi and the restricted Lagrangian L~
(``test_kernel.lagrangian_table``) and the oracle's multiplier shift
(``oracles._shifted``); every entry must agree bit for bit, and the
stacked stage must equal the stage at each lane.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vaknh import _jets
from vaknh.errors import EvalError, SingularMatrixError
from vaknh.nonholonomic import ctilde, legendre_lift, nh_rhs
from vaknh.system import NhState, VakState, load_system
from vaknh.vakonomic import (DET_RTOL, _bind_stage, _stage, _stage_lanes, cbar, hamiltonian,
                             vak_rhs, w1_momenta)

from conftest import ALL_MODELS, LINEAR_MODELS, get_model, random_states
from oracles import _shifted
from test_kernel import _DOMAIN, _same_bits, lagrangian_table

_SEEDS = st.integers(0, 2**32 - 1)


def _reference(sysdef, s, mult):
    """The jet of Lambda and (dq, dv, dp) from the shifted table of psi and
    L~; dv is None where the reduced matrix fails the determinant guard."""
    n, m, base, dep = sysdef.n, sysdef.m, sysdef.base_positions, sysdef.dependent_positions
    tab = lagrangian_table(sysdef, s.q, s.v)
    lam = _shifted(tab, mult)
    dq = np.empty(n)
    dq[base] = s.v
    dq[dep] = tab.values[:m]
    dp = lam.grad[dep]
    c = lam.hess[n:, n:]
    threshold = DET_RTOL * np.float64(np.abs(c).max()) ** (n - m)
    if abs(np.linalg.det(c)) <= threshold:
        return lam, dq, None, dp
    r = lam.grad[base] - dq @ lam.hess[:n, n:] + dp @ tab.grads[:m, n:]
    return lam, dq, np.linalg.solve(c, r), dp


def _run_stage(sysdef, s):
    """The vakonomic ``vakonomic._stage`` at ``s``: the derivative of the
    packed state and the jet of Lambda."""
    dy, buf = _stage(sysdef, _jets._flat(s.q, s.v, s.p_dep), "vakonomic matrix")
    k = 2 * sysdef.n - sysdef.m
    return dy, _jets._row_jet(buf[:1 + k + k * k], k)


def _run_nh_stage(sysdef, s):
    """The nonholonomic ``vakonomic._stage`` at the (q, v) of ``s``: the
    derivative of the packed state.  The lift it returns is the lift at
    (q, v), whose Leg_dep the reference takes from ``legendre_lift``."""
    dy, lift = _stage(sysdef, _jets._flat(s.q, s.v), "nonholonomic matrix")
    assert _same_bits(lift, _jets.ambient_velocity_gradient(sysdef, s.q, s.v))
    return dy


def _assert_same_jet(got, expected):
    assert _same_bits(got.value, expected.value)
    assert _same_bits(got.grad, expected.grad)
    assert _same_bits(got.hess, expected.hess)


@pytest.mark.parametrize("name", ALL_MODELS)
@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS)
def test_vak_field_equals_shifted_restricted_table(name, seed):
    sysdef = get_model(name)
    (s,) = random_states(name, 1, seed)
    _jets.field_sweep(sysdef, _jets._flat(s.q, s.v, s.p_dep))   # the kernel itself succeeds
    lam, dq, dv, dp = _reference(sysdef, s, s.p_dep)
    if dv is None:
        with pytest.raises(SingularMatrixError):
            vak_rhs(sysdef, s)
        return
    d = vak_rhs(sysdef, s)
    dy, jet = _run_stage(sysdef, s)
    _assert_same_jet(jet, lam)
    assert _same_bits(dy, np.concatenate([dq, dv, dp]))
    assert _same_bits(d.dq, dq) and _same_bits(d.dv, dv) and _same_bits(d.dp_dep, dp)
    assert _same_bits(cbar(sysdef, s), lam.hess[sysdef.n:, sysdef.n:])
    assert _same_bits(w1_momenta(sysdef, s), lam.grad[sysdef.n:])
    assert _same_bits(hamiltonian(sysdef, s), lam.grad[sysdef.n:] @ s.v - lam.value)


@pytest.mark.parametrize("name", LINEAR_MODELS)
@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS)
def test_nh_field_equals_shifted_restricted_table(name, seed):
    sysdef = get_model(name)
    (s,) = random_states(name, 1, seed)
    s = NhState(s.q, s.v)
    mult = legendre_lift(sysdef, s)[sysdef.dependent_positions]
    lam, dq, dv, _ = _reference(sysdef, s, mult)
    assert _same_bits(ctilde(sysdef, s), lam.hess[sysdef.n:, sysdef.n:])
    if dv is None:
        with pytest.raises(SingularMatrixError):
            nh_rhs(sysdef, s)
        return
    d = nh_rhs(sysdef, s)
    dy = _run_nh_stage(sysdef, s)
    assert _same_bits(dy[:len(dq) + len(dv)], np.concatenate([dq, dv]))
    assert _same_bits(d.dq, dq) and _same_bits(d.dv, dv)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_stacked_stage_equals_the_stage_at_each_lane(name):
    sysdef = get_model(name)
    states = random_states(name, 300, 23)
    q, v, p = (np.array([getattr(s, x) for s in states]) for x in ("q", "v", "p_dep"))
    if name == "von_neumann2":
        # dK2 up to 2 leaves the square root's domain at some states, and
        # p = 0 makes the reduced matrix singular.
        v *= 4.0
        p[::7] = 0.0
    buf, site, _ = _jets.run_lanes(_jets._kernel(sysdef, "field"), q, v, p)
    failed = site != 0
    with np.errstate(all="ignore"):   # as scan and compare run it
        dy, det, singular = _stage_lanes(sysdef, buf, failed)
    outcomes = []
    for i, args in enumerate(np.column_stack([q, v, p]).tolist()):
        try:
            expected, _ = _stage(sysdef, args, "vakonomic matrix")
        except EvalError:
            assert failed[i]
            outcomes.append("failed")
            continue
        except SingularMatrixError as exc:
            assert not failed[i] and singular[i]
            assert _same_bits(det[i], exc.det)
            outcomes.append("singular")
            continue
        assert not failed[i] and not singular[i]
        assert _same_bits(dy[i], expected)
        outcomes.append("solved")
    assert "solved" in outcomes
    if name == "von_neumann2":
        assert "failed" in outcomes and "singular" in outcomes


_CONSTANT = """name constant
coords x y
dependent y
linear {linear}
lagrangian dx^2/2 + dy^2/2 + x*dy - x^2/2
psi y = {psi}
"""


@pytest.mark.parametrize("psi, linear", [("0", "true"), ("sin(1)", "false")])
def test_constant_psi_runs_through_the_field_kernel(psi, linear):
    # A psi that depends on no state variable is a plain term of the kernel.
    sysdef = load_system(_CONSTANT.format(psi=psi, linear=linear))
    s = VakState((0.3, -0.2), (1.5,), (0.7,))
    lam, dq, dv, dp = _reference(sysdef, s, s.p_dep)
    d = vak_rhs(sysdef, s)
    dy, jet = _run_stage(sysdef, s)
    _assert_same_jet(jet, lam)
    assert _same_bits(dy, np.concatenate([dq, dv, dp]))
    assert _same_bits(np.concatenate([d.dq, d.dv, d.dp_dep]), dy)
    assert _same_bits(cbar(sysdef, s), lam.hess[sysdef.n:, sysdef.n:])
    assert _same_bits(w1_momenta(sysdef, s), lam.grad[sysdef.n:])
    assert _same_bits(hamiltonian(sysdef, s), lam.grad[sysdef.n:] @ s.v - lam.value)
    if linear == "true":
        s = NhState(s.q, s.v)
        mult = legendre_lift(sysdef, s)[sysdef.dependent_positions]
        lam, dq, dv, _ = _reference(sysdef, s, mult)
        assert _same_bits(ctilde(sysdef, s), lam.hess[sysdef.n:, sysdef.n:])
        d = nh_rhs(sysdef, s)
        dy = _run_nh_stage(sysdef, s)
        assert _same_bits(dy[:len(dq) + len(dv)], np.concatenate([dq, dv]))
        assert _same_bits(np.concatenate([d.dq, d.dv]), dy[:len(dq) + len(dv)])


def test_results_are_writable():
    sysdef = get_model("rolling_penny")
    (s,) = random_states("rolling_penny", 1, 5)
    results = [cbar(sysdef, s), w1_momenta(sysdef, s),
               _run_stage(sysdef, s)[1].hess,
               ctilde(sysdef, NhState(s.q, s.v))]
    for result in results:
        result[...] = 0.0
        assert not result.any()


@pytest.mark.parametrize("lagrangian, q, v, message", [
    ("sqrt(x)*dx^2", (0.0, 1.0), (1.0,), "sqrt of non-positive value 0.0"),
    ("dx^2/(x - 1)", (1.0, 0.0), (1.0,), "division by zero"),
], ids=["sqrt", "division"])
def test_domain_errors_raise_the_documented_error(lagrangian, q, v, message):
    sysdef = load_system(_DOMAIN.format(lagrangian=lagrangian))
    with pytest.raises((ValueError, ArithmeticError)):
        _jets._kernel(sysdef, "field").scalar(*q, *v, 0.5)
    s = VakState(q, v, (0.5,))
    with pytest.raises(EvalError, match=message):
        _jets.field_sweep(sysdef, _jets._flat(q, v, (0.5,)))
    for evaluate in (vak_rhs, cbar, hamiltonian, w1_momenta):
        with pytest.raises(EvalError, match=message):
            evaluate(sysdef, s)
    with pytest.raises(EvalError, match=message):
        ctilde(sysdef, NhState(q, v))


@pytest.mark.parametrize("what", ["vakonomic matrix", "nonholonomic matrix"])
def test_a_bound_stage_returns_dy_of_its_own(what):
    # The buffer of a binding (the field's, or the nonholonomic lift's) is
    # overwritten by its next call; dy is not part of it, and two bindings
    # of one system share no buffer.
    sysdef = get_model("rolling_penny")
    states = random_states("rolling_penny", 2, 11)
    first, second = _bind_stage(sysdef, what), _bind_stage(sysdef, what)
    args = [_jets._flat(s.q, s.v, s.p_dep) for s in states]
    if what == "nonholonomic matrix":
        args = [entries[:2 * sysdef.n - sysdef.m] for entries in args]   # (q, v)
    dy, buf = first(args[0])
    assert not np.shares_memory(dy, buf)
    kept = buf.copy()
    dy_other, buf_other = second(args[1])
    assert not np.shares_memory(buf, buf_other)
    assert _same_bits(buf, kept)
    # The same binding again: the same buffer, a fresh dy.
    dy_again, buf_again = first(args[1])
    assert buf_again is buf and not np.shares_memory(dy_again, dy)
    assert _same_bits(buf_again, buf_other) and _same_bits(dy_again, dy_other)
    expected, _ = _stage(sysdef, args[0], what)
    assert _same_bits(dy, expected)
