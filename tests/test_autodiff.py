import numpy as np
import pytest

from vaknh import expr as E
from vaknh.autodiff import HyperDual, gradient, partial, second_partial
from vaknh.errors import EvalError

from conftest import ALL_MODELS, get_model


def test_partial_examples():
    assert partial(E.parse("y*dx"), {"y": 3, "dx": 2}, "y") == 2
    assert partial(E.parse("x^2"), {"x": 3}, "x") == 6
    assert partial(E.parse("dz-(y^2/2)*dx"), {"y": 2, "dx": 1, "dz": 0}, "y") == -2


def test_second_partial_examples():
    assert second_partial(E.parse("x^2"), {"x": 5}, "x", "x") == 2
    assert second_partial(E.parse("y*dx"), {"y": 1, "dx": 1}, "y", "dx") == 1
    assert second_partial(E.parse("dx^2*dy"), {"dx": 2, "dy": 3}, "dx", "dx") == 6


def test_gradient_examples():
    e = E.parse("0.5*(dx^2+dy^2+dz^2)")
    env = {"dx": 1, "dy": 1, "dz": 1}
    assert gradient(e, env, ["dx", "dy", "dz"]) == [1, 1, 1]
    assert gradient(E.parse("y*dx"), {"y": 3, "dx": 2}, ["y", "dx"]) == [2, 3]
    assert gradient(E.parse("3.0"), {"x": 1}, ["x"]) == [0]


def test_gradient_equals_per_variable_calls_bitwise():
    e = E.parse("sin(x)*exp(y) + x^3/(y+2) - sqrt(x+4)")
    env = {"x": 0.73, "y": -0.31}
    g = gradient(e, env, ["x", "y"])
    assert g[0] == partial(e, env, "x")
    assert g[1] == partial(e, env, "y")


def test_constant_and_identity_derivatives_exact():
    assert partial(E.parse("2.5"), {"v": 0.3}, "v") == 0.0
    assert partial(E.parse("v"), {"v": 0.3}, "v") == 1.0


def test_mixed_partial_symmetry_exact():
    e = E.parse("sin(x*y)*exp(x) + y^3*log(x+2) - x/(y+3)")
    rng = np.random.default_rng(7)
    for _ in range(50):
        env = {"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 1)}
        assert second_partial(e, env, "x", "y") == second_partial(e, env, "y", "x")


def test_unbound_seed_variable():
    with pytest.raises(EvalError, match="unbound"):
        partial(E.parse("x"), {"x": 1.0}, "y")


def test_second_partial_of_an_unbound_variable():
    with pytest.raises(EvalError, match="unbound variable 'y'"):
        second_partial(E.parse("x*y"), {"x": 1.0}, "x", "x")


def test_domain_error_propagates():
    with pytest.raises(EvalError):
        partial(E.parse("sqrt(x)"), {"x": -1.0}, "x")
    # sqrt at exactly zero has no finite derivative
    with pytest.raises(EvalError):
        partial(E.parse("sqrt(x)"), {"x": 0.0}, "x")


def test_hyperdual_product_rule_cross_term():
    # (fg).d12 = f.v g.d12 + f.d1 g.d2 + f.d2 g.d1 + f.d12 g.v
    f = HyperDual(1.7, 0.3, -0.8, 0.25)
    g = HyperDual(-0.6, 1.1, 0.4, -0.9)
    fg = f * g
    assert fg.d12 == (f.value * g.d12 + f.d1 * g.d2 + f.d2 * g.d1 + f.d12 * g.value)
    assert fg.value == f.value * g.value


def test_hyperdual_seeding_gives_exact_partial():
    # d1=1 on v and evaluation of v^2 gives exactly 2v, no truncation
    e = E.parse("v^2")
    for v in (0.1, 1.0, 1e-8, 37.5):
        assert partial(e, {"v": v}, "v") == 2.0 * v


def _fd(e, env, v, h):
    up = dict(env)
    dn = dict(env)
    up[v] = env[v] + h
    dn[v] = env[v] - h
    return (E.evaluate(e, up) - E.evaluate(e, dn)) / (2 * h)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_partials_match_finite_differences_on_models(name):
    sysdef = get_model(name)
    exprs = [sysdef.lagrangian] + [sysdef.psi[c] for c in sysdef.dependent]
    from conftest import random_states
    from vaknh.system import completed_env
    for s in random_states(name, 25, seed=11):
        env = completed_env(sysdef, s.q, s.v)
        for e in exprs:
            for v in sorted(E.free_vars(e)):
                h = 1e-6 * (abs(env[v]) + 1.0)
                exact = partial(e, env, v)
                approx = _fd(e, env, v, h)
                assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact))
