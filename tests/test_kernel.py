"""Generated sweep kernels against the interpreted reference sweeps.

Values and gradients must agree bit for bit, the sign of a zero included.
Hessians must agree in every entry of the upper triangle under ``==``: a
structural zero is 0.0 in a kernel and may be -0.0 in the interpreter, and
every other entry, being equal and nonzero, agrees bit for bit.

The package's ``restricted`` kernel returns the jets of psi alone.  The
jet of the restricted Lagrangian L~, which the ``field`` kernel shifts by
the multipliers, comes here from a kernel of the tests' own
(``lagrangian_sweep``): the same generator, run on psi and then on L~,
checked against ``oracles.reference_restricted_table`` and shifted by
``oracles._shifted`` to give the field kernel's reference.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vaknh import _jets, _kernel, comparison, expr as E
from vaknh._jets import RestrictedTable
from vaknh.autodiff import partial
from vaknh.errors import EvalError
from vaknh.models import builtin
from vaknh.nonholonomic import legendre_lift, nh_rhs
from vaknh.system import (NhState, SystemDef, VakState, complete_velocities, completed_env,
                          load_system)
from vaknh.vakonomic import vak_rhs

import oracles
from oracles import _shifted
from conftest import ALL_MODELS, get_model, random_states
from test_expr import _exprs

# The tests' kernels of psi and L~, the oldest making room as in the package.
_LAGRANGIAN_SWEEPS: dict = {}


def lagrangian_sweep(sysdef) -> _kernel.Sweep:
    """The generated kernels of the jets of psi, then of the restricted
    Lagrangian L~, in (q, base v), m+1 rows: the ``restricted`` kernel's
    loop over psi, each dependent velocity substituted by its psi's jet,
    continued through L~ as the ``field`` kernel continues it."""
    def build():
        base = [*sysdef.coords, *map(sysdef.velocity_of, sysdef.base)]

        def evaluate(b, env):
            results = []
            for c in sysdef.dependent:
                results.append(b.evaluate(sysdef.psi[c], env))
                env[sysdef.velocity_of(c)] = results[-1]
            return b.outputs(results + [b.evaluate(sysdef.lagrangian, env)])

        return _kernel._generate(f"psi and L~ sweep of {sysdef.name}", base, base, True,
                                 evaluate)

    return _jets._kept(_LAGRANGIAN_SWEEPS, _jets._SWEEPS_KEPT, sysdef._key, build)


def lagrangian_table(sysdef, q, v) -> RestrictedTable:
    """The jets of psi, then of L~, at (q, v), from the scalar kernel of
    ``lagrangian_sweep``: a table of m+1 rows, as
    ``oracles.reference_restricted_table`` gives it."""
    n, m = sysdef.n, sysdef.m
    packed = lagrangian_sweep(sysdef).run(*_jets._flat(q, v))
    return RestrictedTable(_jets._rows(packed, m + 1, 2 * n - m), n, m)


def _generated(sysdef, kind):
    """The kernels of sweep ``kind``: the package's, or "psi and L~"."""
    return lagrangian_sweep(sysdef) if kind == "psi and L~" else _jets._kernel(sysdef, kind)


# (kernel-backed sweep, interpreted sweep, kernel name)
SWEEPS = (
    (_jets.restricted_table, oracles.reference_psi_table, "restricted"),
    (lagrangian_table, oracles.reference_restricted_table, "psi and L~"),
    (_jets.ambient_table, oracles.reference_ambient_table, "ambient"),
    (_jets.ambient_velocity_gradient, oracles.reference_lift, "lift"),
)


def _same_bits(a, b):
    """Bitwise equality; any NaN matches any NaN (payloads may differ)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def _jets_of(result):
    """The jets of a sweep's result: every row of a table (psi, then L~ in
    a table of psi and L~), or the ambient Lagrangian's jet itself."""
    if isinstance(result, RestrictedTable):
        return [result.jet(row) for row in result.rows]
    return [result]


def _assert_agree(got, expected):
    if isinstance(expected, np.ndarray):   # the lift
        assert _same_bits(got, expected)
        return
    jets = zip(_jets_of(got), _jets_of(expected), strict=True)
    for kj, rj in jets:
        assert _same_bits(kj.value, rj.value)
        assert _same_bits(kj.grad, rj.grad)
        assert np.array_equal(kj.hess, kj.hess.T, equal_nan=True)
        if np.all(np.isfinite(rj.hess)):
            upper = np.triu_indices(len(rj.grad))
            assert np.array_equal(kj.hess[upper], rj.hess[upper])


def _args(sysdef, kind, q, v, v_full):
    return (q, v_full) if kind == "ambient" else (q, v)


def _check_field(sysdef, q, v, mult):
    """The ``field`` kernel fails exactly where the interpreted sweep of psi
    and L~ does, and ``field_sweep`` then raises its error; otherwise it
    equals the shifted table of psi and L~ bit for bit: the jet of Lambda,
    the completed velocities, zeros, dLambda/dq_dep and the psi gradients
    in the base velocities."""
    n, m = sysdef.n, sysdef.m
    try:
        oracles.reference_restricted_table(sysdef, q, v)
    except EvalError as exc:
        with pytest.raises(EvalError) as got:
            _jets.field_sweep(sysdef, _jets._flat(q, v, mult))
        assert str(got.value) == str(exc)
        with pytest.raises((ArithmeticError, ValueError)):
            _jets._kernel(sysdef, "field").scalar(*_jets._flat(q, v, mult))
        return
    tab = lagrangian_table(sysdef, q, v)
    lam = _shifted(tab, np.asarray(mult, dtype=float))
    dq = np.empty(n)
    dq[sysdef.base_positions] = v
    dq[sysdef.dependent_positions] = tab.values[:m]
    expected = np.concatenate([[lam.value], lam.grad, lam.hess.ravel(), dq, np.zeros(n - m),
                               lam.grad[sysdef.dependent_positions],
                               tab.grads[:m, n:].ravel()])
    assert _same_bits(_jets.field_sweep(sysdef, _jets._flat(q, v, mult)), expected)


def _check_sweeps(sysdef, q, v, v_full, mult):
    """Every sweep at one state: equal results, or the same error from the
    public sweep, and a raw kernel that fails exactly when the interpreter
    does; and the ``field`` kernel at multipliers ``mult``."""
    _check_field(sysdef, q, v, mult)
    for sweep, reference, kind in SWEEPS:
        args = _args(sysdef, kind, q, v, v_full)
        raw = _generated(sysdef, kind).scalar
        try:
            expected = reference(sysdef, *args)
        except (EvalError, ArithmeticError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                sweep(sysdef, *args)
            assert str(got.value) == str(exc)
            with pytest.raises((ArithmeticError, ValueError)):
                raw(*_jets._flat(*args))
            continue
        raw(*_jets._flat(*args))   # no fallback needed
        _assert_agree(sweep(sysdef, *args), expected)


def _check_restricted_lines(sysdef):
    """The ``restricted`` kernel, in both forms, is the first lines of the
    ``field`` kernel, and the same for any Lagrangian: no line of L."""
    restricted, field = _jets._kernel(sysdef, "restricted"), _jets._kernel(sysdef, "field")
    other = SystemDef(name=sysdef.name, coords=sysdef.coords, dependent=sysdef.dependent,
                      lagrangian=E.parse("0"), psi=sysdef.psi, declared_linear=False)
    for form, end in (("scalar_source", "    return "), ("array_source", "    _o = ")):
        lines = getattr(restricted, form).splitlines()
        body = lines[1:next(i for i, line in enumerate(lines) if line.startswith(end))]
        assert getattr(field, form).splitlines()[1:1 + len(body)] == body
        assert getattr(_jets._kernel(other, "restricted"), form) == getattr(restricted, form)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_models_agree_with_interpreter(name):
    sysdef = get_model(name)
    _check_restricted_lines(sysdef)
    for s in random_states(name, 30, 41):
        _check_sweeps(sysdef, s.q, s.v, complete_velocities(sysdef, s), s.p_dep)


_VALUES = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy overflow in the interpreter
@settings(max_examples=200, deadline=None)
@given(_exprs(), _exprs(), st.lists(_VALUES, min_size=7, max_size=7))
# 0.0 + (-0.0) is +0.0: a gradient entry's sign of zero
@example(E.parse("x"), E.parse("x + cos(x)"), [0.0] * 7)
# the cross term adds g_i*h_j before g_j*h_i: the rounding of one Hessian entry
@example(E.parse("x"), E.parse("(x + dx)*(x*dx)"), [-1.1586439872730518, 0, 0, 3.0, 0, 0, 0.5])
# a psi that depends on no state variable is a plain term of the kernel
@example(E.parse("dx^2 + x*dk1"), E.parse("sin(1)"), [0.5, -1.0, 2.0, 1.5, 0.25, 0.0, -0.75])
def test_random_trees_agree_with_interpreter(lagrangian, psi, values):
    sysdef = SystemDef(name="random", coords=("x", "y", "k1"), dependent=("k1",),
                       lagrangian=lagrangian, psi={"k1": psi}, declared_linear=False)
    _check_restricted_lines(sysdef)
    _check_sweeps(sysdef, values[:3], values[3:5], values[3:6], values[6:])


# States some of whose entries leave a domain, underflow to a zero when
# squared, or overflow: the context-dependent texts of the interpreter.
_OUT_OF_DOMAIN = st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 800.0, -800.0, math.inf])
_CORPUS_STATES = st.lists(st.lists(st.one_of(_VALUES, _OUT_OF_DOMAIN), min_size=7, max_size=7),
                          min_size=1, max_size=4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy overflow in the interpreter
@settings(max_examples=150, deadline=None)
@given(_exprs(), _exprs(), _exprs(), _CORPUS_STATES)
@example(E.parse("log(x) + x^(-2) + 1/y + exp(dx) + sin(dy)"), E.parse("sqrt(x)*dx"),
         E.parse("log(y)*k1"), [[1e-200, 1.0, 0.5, 1.0, 1.0, 0.0, 1.0],
                                [0.5, 1e-200, 1.0, 1.0, 1.0, 0.0, 1.0],
                                [0.5, 1.0, 1.0, 800.0, 1.0, 0.0, 1.0],
                                [0.5, 1.0, 1.0, 1.0, math.inf, 0.0, 1.0]])
def test_every_error_text_is_the_interpreters(lagrangian, psi, candidate, states):
    # Each kernel of trees in L, psi and a candidate fails where the
    # reference interpreter does, with its error text: at each state
    # (``Sweep.run``), and over the stacked states (``comparison._Lanes``),
    # whose lanes share one error per distinct failure.
    sysdef = SystemDef(name="random", coords=("x", "y", "k1"), dependent=("k1",),
                       lagrangian=lagrangian, psi={"k1": psi}, declared_linear=False)
    values = np.array(states)
    q, v, v_full, mult = values[:, :3], values[:, 3:5], values[:, 3:6], values[:, 6:]
    names = list(sysdef.state_names)
    seeded = sorted(E.free_vars(candidate))
    envs = [dict(zip(names, lane)) for lane in np.column_stack([q, v, mult]).tolist()]

    def restricted(i):
        return oracles.reference_restricted_table(sysdef, q[i], v[i])

    def psi(i):
        return oracles.reference_psi_table(sysdef, q[i], v[i])

    def candidate_jet(i):
        if not seeded:
            return E.evaluate(candidate, envs[i])
        return [partial(candidate, envs[i], var) for var in seeded]

    for sweep, blocks, reference in [
            (_jets._kernel(sysdef, "restricted"), (q, v), psi),
            (lagrangian_sweep(sysdef), (q, v), restricted),
            (_jets._kernel(sysdef, "field"), (q, v, mult), restricted),
            (_jets._kernel(sysdef, "ambient"), (q, v_full),
             lambda i: oracles.reference_ambient_table(sysdef, q[i], v_full[i])),
            (_jets._kernel(sysdef, "lift"), (q, v),
             lambda i: oracles.reference_lift(sysdef, q[i], v[i])),
            (_jets._psi_values(sysdef), (q, v),
             lambda i: oracles.reference_complete_velocities(sysdef, NhState(q[i], v[i]))),
            (_jets.gradient_kernel([candidate], names, seeded), (q, v, mult), candidate_jet)]:
        lanes = comparison._Lanes(sysdef, q, v, mult)
        with np.errstate(all="ignore"):
            lanes.run(sweep, *blocks)
        _, site, operands = _jets.run_lanes(sweep, *blocks)
        failures = set() if operands is None else {
            (k, row.tobytes()) for k, row in zip(site.tolist(), operands) if k}
        assert len(lanes.errors) == len(failures)
        for i, args in enumerate(np.concatenate(blocks, axis=1).tolist()):
            try:
                reference(i)
            except EvalError as exc:
                with pytest.raises(EvalError) as got:
                    sweep.run(*args)
                assert str(got.value) == str(exc)
                assert lanes.code[i] and str(lanes.errors[lanes.code[i] - 1]) == str(exc)
                continue
            sweep.run(*args)
            assert not lanes.code[i]


_DOMAIN = """name domain
coords x y
dependent y
linear false
lagrangian {lagrangian}
psi y = x*dx
"""


@pytest.mark.parametrize("lagrangian, q, v, message", [
    ("sqrt(x)*dx^2", (0.0, 1.0), (1.0,), "sqrt of non-positive value 0.0"),
    ("log(x) + dx^2", (0.0, 1.0), (1.0,), "log of non-positive value 0.0"),
    ("dx^2/(x - 1)", (1.0, 0.0), (1.0,), "division by zero"),
    ("x^2.5 + dx^2", (0.0, 1.0), (1.0,), "non-integer power of non-positive base 0.0"),
    ("dx^2*y^(-2)", (1.0, 0.0), (1.0,), "zero base with negative exponent"),
    # The text depends on the context, here hyper-duals: where the
    # reciprocal's 1/v^2 divides by an underflowed zero, a log gives math's
    # text, a negative power its own and a division the interpreter's.
    ("log(x) + dx^2", (1e-200, 1.0), (1.0,), "^float division by zero in 'log"),
    ("x^(-2) + dx^2", (1e-200, 1.0), (1.0,), "^zero base with negative exponent in"),
    ("1/x + dx^2", (1e-200, 1.0), (1.0,), "^division by zero in '1.0 / x'"),
    ("exp(x) + dx^2", (800.0, 1.0), (1.0,), "^math range error in 'exp"),
    ("sin(x) + dx^2", (math.inf, 1.0), (1.0,), "^math domain error in 'sin"),
], ids=["sqrt", "log", "division", "real-power", "negative-power", "tiny-log",
        "tiny-negative-power", "tiny-division", "exp-overflow", "sin-inf"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy overflow in the interpreter
def test_domain_errors_match_interpreter(lagrangian, q, v, message):
    sysdef = load_system(_DOMAIN.format(lagrangian=lagrangian))
    with pytest.raises(EvalError, match=message):
        oracles.reference_restricted_table(sysdef, q, v)
    _check_sweeps(sysdef, q, v, (v[0], q[0] * v[0]), (0.5,))


def test_von_neumann2_outside_its_box_matches_interpreter():
    sysdef = get_model("von_neumann2")
    q, v = (1.0, 1.0), (2.0,)   # K1*K2 - dK2^2 < 0 under the square root
    with pytest.raises(EvalError, match="sqrt"):
        oracles.reference_restricted_table(sysdef, q, v)
    _check_sweeps(sysdef, q, v, (0.0, 2.0), (0.5,))


def test_unbound_variable_matches_interpreter():
    sysdef = SystemDef(name="unbound", coords=("x", "y"), dependent=("y",),
                       lagrangian=E.parse("dx^2 + w"), psi={"y": E.parse("x*dx")},
                       declared_linear=False)
    with pytest.raises(EvalError, match="unbound variable 'w'"):
        oracles.reference_restricted_table(sysdef, (1.0, 2.0), (3.0,))
    _check_sweeps(sysdef, (1.0, 2.0), (3.0,), (3.0, 3.0), (0.5,))


def test_a_zeroth_power_agrees_with_the_interpreter():
    # x^0 is 1.0 with no derivative channel, in the interpreter and in every
    # kernel, scalar and stacked, at zeros of either sign too.
    sysdef = SystemDef(name="zeroth", coords=("x", "y"), dependent=("y",),
                       lagrangian=E.parse("dx^2*x^0 + dy^2*(x*dy)^0 - y^0"),
                       psi={"y": E.parse("x^0*dx + (x - dx)^0 - 1")}, declared_linear=False)
    states = [((0.5, -1.0), (2.0,)), ((0.0, 0.0), (0.0,)), ((-0.0, 3.0), (-1.5,))]
    for q, v in states:
        v_full = oracles.reference_complete_velocities(sysdef, NhState(q, v))
        assert v_full[1] == v[0]
        _check_sweeps(sysdef, q, v, v_full, (0.7,))
    q, v = (np.array([state[i] for state in states]) for i in (0, 1))
    _check_lift(sysdef, q, v)
    mult = np.full((len(states), 1), 0.7)
    for sweep, blocks in ((_jets._psi_values(sysdef), (q, v)),
                          (_jets._kernel(sysdef, "restricted"), (q, v)),
                          (lagrangian_sweep(sysdef), (q, v)),
                          (_jets._kernel(sysdef, "field"), (q, v, mult))):
        out, site, _ = _jets.run_lanes(sweep, *blocks)
        assert not site.any()
        for i, args in enumerate(np.concatenate(blocks, axis=1).tolist()):
            assert _same_bits(out[i], np.frombuffer(sweep.scalar(*args)))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_hessians_exactly_symmetric(name):
    sysdef = get_model(name)
    k = 2 * sysdef.n - sysdef.m
    for s in random_states(name, 50, 43):
        tables = [_jets.restricted_table(sysdef, s.q, s.v), lagrangian_table(sysdef, s.q, s.v)]
        ambient = _jets.ambient_table(sysdef, s.q, complete_velocities(sysdef, s))
        field = _jets.field_sweep(sysdef, _jets._flat(s.q, s.v, s.p_dep))
        lam = _jets._row_jet(field[:1 + k + k * k], k)
        for jet in [*_jets_of(tables[0]), *_jets_of(tables[1]), ambient, lam]:
            assert np.array_equal(jet.hess, jet.hess.T)


def test_kernels_compile_on_first_sweep_and_stay_out_of_equality(monkeypatch):
    monkeypatch.setattr(_jets, "_SWEEPS", {})
    sysdef = builtin("martinet")
    assert _jets._SWEEPS == {}
    _jets.restricted_table(sysdef, np.zeros(3), np.ones(2))
    assert list(_jets._SWEEPS) == [("restricted", sysdef._key)]
    assert sysdef == builtin("martinet")


@pytest.mark.parametrize("name", ALL_MODELS)
def test_completion_kernel_equals_the_interpreter(name):
    sysdef = get_model(name)
    states = random_states(name, 30, 47)
    q = np.array([s.q for s in states])
    v = np.array([s.v for s in states])
    psi, site, _ = _jets.run_lanes(_jets._psi_values(sysdef), q, v)
    assert not site.any()
    for i, s in enumerate(states):
        expected = oracles.reference_complete_velocities(sysdef, s)[
            sysdef.dependent_positions]
        scalar = _jets._psi_values(sysdef).scalar(*q[i], *v[i])
        assert _same_bits(np.frombuffer(scalar), expected)
        assert _same_bits(psi[i], expected)


@pytest.mark.parametrize("name", ["martinet", "rolling_penny", "von_neumann2"])
def test_a_second_completion_builds_no_key_from_the_trees(name):
    # The psi values kernel is found by the system's key, not by a repr of
    # every psi tree on every call.
    sysdef = get_model(name)
    (s,) = random_states(name, 1, 3)
    s = NhState(s.q, s.v)
    first = complete_velocities(sysdef, s)
    reprs = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_name == "__repr__" \
                and isinstance(frame.f_locals.get("self"), E.Expression):
            reprs.append(frame.f_locals["self"])

    sys.setprofile(profile)
    try:
        again = complete_velocities(sysdef, s)
    finally:
        sys.setprofile(None)
    assert reprs == []
    assert _same_bits(again, first)


def test_completion_outside_the_domain_marks_the_lane():
    sysdef = get_model("von_neumann2")
    q = np.array([[1.0, 1.0], [1.0, 1.0]])
    v = np.array([[0.5], [2.0]])     # the second: sqrt of a negative
    psi, site, _ = _jets.run_lanes(_jets._psi_values(sysdef), q, v)
    assert (site != 0).tolist() == [False, True]
    with pytest.raises((ValueError, ArithmeticError)):
        _jets._psi_values(sysdef).scalar(1.0, 1.0, 2.0)
    with pytest.raises(EvalError, match="sqrt of negative value"):
        complete_velocities(sysdef, NhState((1.0, 1.0), (2.0,)))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_completed_velocities_equal_the_interpreter(name):
    # complete_velocities and completed_env complete the velocities with the
    # values kernel of psi, and the Legendre lift with the lift kernel, at one
    # state.
    sysdef = get_model(name)
    for s in random_states(name, 30, 48):
        s = NhState(s.q, s.v)
        expected = oracles.reference_complete_velocities(sysdef, s)
        assert _same_bits(complete_velocities(sysdef, s), expected)
        env = completed_env(sysdef, s.q, s.v)
        assert _same_bits(np.array([env[sysdef.velocity_of(c)] for c in sysdef.coords]),
                          expected)
        lift = oracles.reference_ambient_velocity_gradient(sysdef, s.q, expected)
        assert _same_bits(legendre_lift(sysdef, s), lift)


def _check_lift(sysdef, q, v):
    """The ``lift`` kernel over the stacked states (q, v) and at each one:
    the oracle's completed velocities and momenta bit for bit, or a failed
    lane where the oracle fails, whose error the kernel builds from the
    lane's site and operand values, and ``Sweep.run`` and
    ``ambient_velocity_gradient`` raise, with the oracle's text.  Where psi
    fails, that is psi's error, the one the values kernel of psi gives."""
    lift, completion = _jets._kernel(sysdef, "lift"), _jets._psi_values(sysdef)
    out, site, values = _jets.run_lanes(lift, q, v)
    _, unfinished, psi_values = _jets.run_lanes(completion, q, v)
    assert not ((unfinished != 0) & (site == 0)).any()
    for i, args in enumerate(np.concatenate([q, v], axis=1).tolist()):
        try:
            expected = oracles.reference_lift(sysdef, q[i], v[i])
        except EvalError as exc:
            assert site[i]
            assert str(lift.error(site[i], values[i].tolist())) == str(exc)
            with pytest.raises(EvalError) as got:
                lift.run(*args)
            assert str(got.value) == str(exc)
            with pytest.raises(EvalError) as got:
                _jets.ambient_velocity_gradient(sysdef, q[i], v[i])
            assert str(got.value) == str(exc)
            if unfinished[i]:
                assert str(completion.error(unfinished[i], psi_values[i].tolist())) == str(exc)
                with pytest.raises(EvalError) as got:
                    completion.run(*args)
                assert str(got.value) == str(exc)
            continue
        assert not site[i]
        assert _same_bits(out[i], expected)
        assert _same_bits(np.frombuffer(lift.scalar(*args)), expected)
        assert _same_bits(_jets.ambient_velocity_gradient(sysdef, q[i], v[i]), expected)


@pytest.mark.parametrize("name", ALL_MODELS + ("von_neumann2 alpha1=0.3",))
def test_lift_kernel_equals_the_oracles(name):
    sysdef = builtin("von_neumann2", alpha1=0.3) if " " in name else get_model(name)
    states = random_states(name.split()[0], 40, 49)
    _check_lift(sysdef, np.array([s.q for s in states]), np.array([s.v for s in states]))


def test_lift_fails_where_psi_leaves_its_domain_or_the_lagrangian_overflows():
    # log(x) fails for x <= 0, exp(dx) overflows for dx = 800, and exp(dy)
    # for x = 1e300, dx = 2, where dy = log(x)*dx is about 1381.
    sysdef = SystemDef(name="log_exp", coords=("x", "y"), dependent=("y",),
                       lagrangian=E.parse("exp(dx) + x*dy^2 + exp(dy)"),
                       psi={"y": E.parse("log(x)*dx")}, declared_linear=False)
    x, dx = np.meshgrid([-1.0, 0.0, 0.5, 2.0, 1e300], [0.3, -2.0, 2.0, 800.0])
    q = np.column_stack([x.ravel(), np.full(x.size, 0.5)])
    v = dx.reshape(-1, 1)
    _check_lift(sysdef, q, v)
    _, site, _ = _jets.run_lanes(_jets._kernel(sysdef, "lift"), q, v)
    failed = site != 0
    expected = (x <= 0.0) | (dx == 800.0) | ((x == 1e300) & (dx == 2.0))
    assert failed.tolist() == expected.ravel().tolist()
    messages = set()
    for i in np.flatnonzero(failed).tolist():
        with pytest.raises(EvalError) as got:
            _jets.ambient_velocity_gradient(sysdef, q[i], v[i])
        messages.add(str(got.value).split(" in ")[-1])
    assert messages == {"'log(x)'", "'exp(dx)'", "'exp(dy)'"}


_LANES = st.lists(st.lists(st.one_of(st.just(0.0), _VALUES), min_size=5, max_size=5),
                  min_size=1, max_size=4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy overflow in the interpreter
@settings(max_examples=200, deadline=None)
@given(_exprs(), _exprs(), _LANES)
# A hyper-dual divides by multiplying with the reciprocal: dy*(1/7) is not
# dy/7 here, and the lift's L is the plain quotient.
@example(E.parse("dy/7 + dx"), E.parse("x*dx"), [[1.0, 0.0, 0.0, 1.0, 0.1]])
# L fails on plain floats at x = dy = 0.1, where its hyper-dual denominator
# is nonzero, and on both at x = dy = 0.7.
@example(E.parse("1/(x/7 - dy/7)"), E.parse("dx"), [[0.1, 0.0, 0.0, 1.0, 0.1],
                                                   [0.7, 0.0, 0.0, 1.0, 0.7]])
def test_lift_gives_the_interpreters_lagrangian_on_random_systems(lagrangian, psi, lanes):
    # The lift's last output is L at the completed velocities as
    # expr.evaluate computes it, scalar and stacked, and a lane fails
    # exactly where the oracle (psi, the momenta, then L) fails.
    sysdef = SystemDef(name="random", coords=("x", "y", "k1"), dependent=("k1",),
                       lagrangian=lagrangian, psi={"k1": psi}, declared_linear=False)
    values = np.array(lanes)
    _check_lift(sysdef, values[:, :3], values[:, 3:])


def test_completion_errors_are_the_interpreters():
    sysdef = get_model("von_neumann2")
    s = NhState((1.0, 1.0), (2.0,))     # sqrt of a negative
    with pytest.raises(EvalError) as expected:
        oracles.reference_complete_velocities(sysdef, s)
    for fn in (complete_velocities, legendre_lift, nh_rhs,
               lambda sysdef, s: completed_env(sysdef, s.q, s.v)):
        with pytest.raises(EvalError) as error:
            fn(sysdef, s)
        assert str(error.value) == str(expected.value)


def test_equal_systems_share_their_kernels(monkeypatch):
    monkeypatch.setattr(_jets, "_SWEEPS", {})
    first, second = builtin("martinet"), builtin("martinet")
    sweep = _jets._kernel(first, "restricted")
    assert list(_jets._SWEEPS) == [("restricted", first._key)]
    assert _jets._kernel(second, "restricted") is sweep
    assert len(_jets._SWEEPS) == 1
    # Equal candidate functions share their gradient kernel, from the same table.
    names, seeded = ["x", "y", "dx"], ["dx", "x"]
    gradients = _jets.gradient_kernel([E.parse("x*dx"), E.parse("sin(dx) + x")], names, seeded)
    again = [E.parse("x*dx"), E.parse("sin(dx) + x")]
    assert _jets.gradient_kernel(again, list(names), list(seeded)) is gradients
    assert _jets.gradient_kernel(again, names, ["x", "dx"]) is not gradients
    assert _jets.gradient_kernel(again[::-1], names, seeded) is not gradients
    assert len(_jets._SWEEPS) <= _jets._SWEEPS_KEPT


def test_kernel_cache_tells_signed_zeros_apart():
    # Const(-0.0) == Const(0.0), but x*(-0.0) and x*0.0 differ in sign.
    def system(zero):
        return SystemDef(name="zero", coords=("x", "y"), dependent=("y",),
                         lagrangian=E.Binary("-", E.Binary("*", E.Var("x"), E.Const(zero)),
                                             E.Power(E.Var("dx"), 2.0)),
                         psi={"y": E.parse("x*dx")}, declared_linear=False)

    for zero in (0.0, -0.0, 0.0):
        sysdef = system(zero)
        got = lagrangian_table(sysdef, (1.0, 2.0), (3.0,))
        _assert_agree(got, oracles.reference_restricted_table(sysdef, (1.0, 2.0), (3.0,)))
        assert np.signbit(got.jet(got.rows[-1]).grad[0]) == np.signbit(zero)   # dL~/dx = zero
        ambient = _jets.ambient_table(sysdef, (1.0, 2.0), (3.0, 3.0))   # the package's store
        assert np.signbit(ambient.grad[0]) == np.signbit(zero)   # dL/dx = zero
        gradients = _jets.gradient_kernel([sysdef.lagrangian], ["x", "dx"], ["x"])
        jet, site, _ = _jets.run_lanes(gradients, np.array([[1.0, 3.0]]))
        assert not site[0] and np.signbit(jet[0, 1]) == np.signbit(zero)
        assert jet[0, 0] == zero - 9.0   # the value, then the gradient



def test_wrong_number_of_entries_raises_the_kernels_type_error():
    # One position too many: bound in order, the fourth would take dx's place.
    sysdef = builtin("martinet")
    q, v, v_full = (0.1, 0.2, 0.3, 0.4), (0.5, 0.6), (0.5, 0.6, 0.7)
    for sweep, args in ((_jets.restricted_table, (q, v)),
                        (_jets.ambient_table, (q, v_full)),
                        (_jets.ambient_velocity_gradient, (q, v)),
                        (_jets.field_sweep, (_jets._flat(q, v, (0.5,)),))):
        with pytest.raises(TypeError):
            sweep(sysdef, *args)
    with pytest.raises(TypeError):
        _jets.ambient_velocity_gradient(sysdef, q[:3], v[:1])


def test_kernel_that_fails_where_its_interpreter_does_not(monkeypatch):
    # A failure site whose node's operation does not fail at the operand
    # values, here cos where the kernel checks log's domain, is a fault of
    # the generator, in the scalar kernel and in the array kernel.
    sysdef = load_system(_DOMAIN.format(lagrangian="dx^2 + dy^2").replace("false", "true")
                         .replace("y = x*dx", "y = log(x)*dx"))
    s = VakState((0.0, 0.2), (0.5,), (0.7,))
    cos = E.parse("cos(x)")
    for kind in ("restricted", "field"):
        sweep = _jets._kernel(sysdef, kind)
        monkeypatch.setattr(sweep, "sites", {site: (cos, *operands) for site, (_, *operands)
                                             in sweep.sites.items()})
    with pytest.raises(RuntimeError, match="^restricted sweep of domain: the kernel "
                       "failed where its interpreter does not$"):
        _jets.restricted_table(sysdef, s.q, s.v)
    with pytest.raises(RuntimeError, match="^field sweep of domain: "):
        vak_rhs(sysdef, s)
    with pytest.raises(RuntimeError, match="^field sweep of domain: "):
        comparison.field_residual(sysdef, s)
    with pytest.raises(RuntimeError, match="^restricted sweep of domain: "):
        comparison.g_residuals(sysdef, s)
