"""Batched evaluation against the per-state oracle (``oracles.scan`` and
the per-state functions in ``tests/oracles.py``).

* The array form of every generated kernel equals the scalar form lane by
  lane, bit for bit, and fails a lane exactly where the scalar form raises,
  at the same failure site, whose operand values give the interpreter's
  error.
* ``scan`` writes the report that the oracle gives sample by sample, byte
  for byte, and the per-state functions of ``comparison`` return or raise
  what the oracle's do.
* ``ComparisonReport.to_json`` writes what ``json.dumps`` writes.
* ``compare`` at a scanned state reads that record's values, from the
  sweeps of a one-sample scan, and a batch evaluates each of its states
  once: one lift, one field sweep per field.
"""

import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vaknh import _jets, _kernel, comparison, expr as E, vakonomic
from vaknh._kernel import Sweep, compile_gradients
from vaknh.autodiff import HyperDual, partial
from vaknh.cli import run
from vaknh.comparison import (ComparisonRecord, ComparisonReport, Sampler,
                              parse_candidates, scan)
from vaknh.errors import EvalError, NonlinearSystemError, SingularMatrixError
from vaknh.models import CATALOG
from vaknh.system import SystemDef, VakState, complete_velocities, load_system

import oracles
from conftest import ALL_MODELS, LINEAR_MODELS, get_model, random_states
from test_expr import _exprs
from test_kernel import _same_bits

GOLDEN = Path(__file__).parent / "golden"
# The sweep kinds, and "psi": the values kernel of the psi trees.
KINDS = ("restricted", "ambient", "lift", "psi", "field")
FAILURES = (EvalError, ArithmeticError, ValueError)
CANDIDATES = """\
C1 = p_z - (y^2/2)*dx
C2 = dx^2 + dy^2
C3 = p_z*y - x*dy
C4 = 2.5
"""


def _sweep(sysdef, kind):
    return _jets._psi_values(sysdef) if kind == "psi" else _jets._kernel(sysdef, kind)


def _blocks(sysdef, kind, q, v, v_full, mult):
    if kind == "field":
        return q, v, mult
    return (q, v_full) if kind == "ambient" else (q, v)


def _scalar_site(sweep, args):
    """The failure site of the line where the scalar kernel raises at
    ``args``."""
    try:
        sweep.scalar(*args)
    except (ArithmeticError, ValueError) as exc:
        return _kernel._failed(exc, 1)[0]
    return 0


def _assert_lanes_match(sweep, blocks, reference):
    """Lane by lane: the array kernel's row equals ``reference(lane args)``
    bit for bit, or ``reference`` raises and the lane fails at the site
    where the scalar kernel raises; where ``reference`` is an interpreter,
    the error built from the lane's site and operand values is its error."""
    lanes = np.concatenate(blocks, axis=1).tolist()
    out, site, values = _jets.run_lanes(sweep, *blocks)
    for i, args in enumerate(lanes):
        try:
            expected = reference(args)
        except FAILURES as exc:
            assert site[i] and site[i] == _scalar_site(sweep, args)
            if isinstance(exc, EvalError):
                assert str(sweep.error(site[i], values[i].tolist())) == str(exc)
            continue
        assert not site[i]
        assert _same_bits(out[i], expected)


def _scalar(sweep):
    return lambda args: np.frombuffer(sweep.scalar(*args))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_array_kernels_equal_scalar_kernels_on_models(name):
    sysdef = get_model(name)
    states = random_states(name, 40, 17)
    q = np.array([s.q for s in states])
    v = np.array([s.v for s in states])
    v_full = np.array([complete_velocities(sysdef, s) for s in states])
    mult = np.array([s.p_dep for s in states])
    for kind in KINDS:
        _assert_lanes_match(_sweep(sysdef, kind),
                            _blocks(sysdef, kind, q, v, v_full, mult),
                            _scalar(_sweep(sysdef, kind)))


def test_array_kernel_marks_lanes_outside_the_domain():
    sysdef = get_model("von_neumann2")
    q = np.array([[1.0, 1.0], [1.0, 1.0], [0.5, 1.0]])
    v = np.array([[0.5], [2.0], [0.0]])     # the second: sqrt of a negative
    rows, site, _ = _jets.run_lanes(_jets._kernel(sysdef, "restricted"), q, v)
    assert (site != 0).tolist() == [False, True, False]
    for i in (0, 2):
        assert rows[i].tobytes() == _jets.restricted_table(sysdef, q[i], v[i]).rows.tobytes()
    with pytest.raises(EvalError, match="sqrt"):
        _jets.restricted_table(sysdef, q[1], v[1])


def test_math_functions_run_lane_by_lane_with_math():
    # numpy's exp, log and trigonometric functions round differently from
    # math's in a few per cent of arguments; the array kernel must not.
    sysdef = SystemDef(
        name="functions", coords=("x", "y", "z"), dependent=("z",),
        lagrangian=E.parse("exp(x)*dx^2 + log(y)*dy + sin(x*y) + cos(x + dy)"
                           " + tan(dx) + sqrt(y)*dz + x^1.5 + y^(-0.5)*dz^2"),
        psi={"z": E.parse("exp(dx*y) + log(x + 1)*dy")}, declared_linear=False)
    rng = np.random.default_rng(12)
    q = rng.uniform(0.1, 3.0, (4000, 3))
    v = rng.uniform(-3.0, 3.0, (4000, 2))
    v_full = np.column_stack([v, rng.uniform(-3.0, 3.0, 4000)])
    mult = rng.uniform(-3.0, 3.0, (4000, 1))
    for kind in KINDS:
        _assert_lanes_match(_sweep(sysdef, kind),
                            _blocks(sysdef, kind, q, v, v_full, mult),
                            _scalar(_sweep(sysdef, kind)))


_VALUES = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_LANES = st.lists(st.lists(st.one_of(st.just(0.0), _VALUES), min_size=6, max_size=6),
                  min_size=1, max_size=4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy overflow in the interpreter
@settings(max_examples=200, deadline=None)
@given(_exprs(), _exprs(), _LANES)
# a plain-float division by zero in one lane of the values kernel of psi
@example(E.parse("x"), E.parse("x/y"), [[1.0, 0.0, 0.0, 1.0, 1.0, 0.0],
                                        [1.0, 2.0, 0.0, 1.0, 1.0, 0.0]])
def test_array_kernels_equal_scalar_kernels_on_random_trees(lagrangian, psi, lanes):
    sysdef = SystemDef(name="random", coords=("x", "y", "k1"), dependent=("k1",),
                       lagrangian=lagrangian, psi={"k1": psi}, declared_linear=False)
    values = np.array(lanes)
    q, v, v_full, mult = values[:, :3], values[:, 3:5], values[:, 3:6], values[:, 5:]
    for kind in KINDS:
        _assert_lanes_match(_sweep(sysdef, kind),
                            _blocks(sysdef, kind, q, v, v_full, mult),
                            _scalar(_sweep(sysdef, kind)))
    # The kernel of tangency_residuals against the hyper-dual interpreter's
    # value and autodiff.partial, and with no variable seeded, the kernel of
    # integrate's candidate rows against expr.evaluate on plain floats.
    names = ["x", "y", "k1", "dx", "dy"]
    seeded = sorted(E.free_vars(lagrangian) & set(names))
    if not E.free_vars(lagrangian) - set(names):
        def jet(args):
            env = dict(zip(names, args))
            value = E.evaluate(lagrangian, {name: HyperDual(x) for name, x in env.items()})
            return [getattr(value, "value", value),
                    *(partial(lagrangian, env, var) for var in seeded)]

        _assert_lanes_match(compile_gradients([lagrangian], names, seeded), (q, v), jet)
        _assert_lanes_match(compile_gradients([lagrangian], names, ()), (q, v), lambda args: [
            E.evaluate(lagrangian, dict(zip(names, args)))])


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, nb", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)])
def test_g_contraction_of_a_stack_equals_each_state_alone(m, nb):
    # g_residuals contracts one state as a stack of one.
    rng = np.random.default_rng(m * 10 + nb)
    v = rng.normal(size=(3000, nb))
    delta = rng.normal(size=(3000, m))
    r = rng.normal(size=(3000, m, nb, nb))
    delta[::3] = 0.0           # legendre mode: signed zeros
    v[::5, 0] = -0.0
    got = comparison._contract_g(v, delta, r)
    for i in range(len(v)):
        alone = comparison._contract_g(v[i:i + 1], delta[i:i + 1], r[i:i + 1])[0]
        assert got[i].tobytes() == alone.tobytes()


def _sampler(name, count, seed, p_mode="random", box=None):
    box = box or CATALOG[name].sample_box
    return Sampler(count=count, seed=seed, q_bounds=tuple(box["q"]),
                   v_bounds=tuple(box["v"]), p_bounds=tuple(box["p"]), p_mode=p_mode)


def _candidates(sysdef):
    if sysdef.name == "martinet":
        return parse_candidates(CANDIDATES)
    return parse_candidates(f"G = {sysdef.coords[0]}*p_{sysdef.dependent[0]}"
                            f" + d{sysdef.base[-1]}^2\nC = 1.5\n")


def _count_per_state(monkeypatch):
    """The states at which a kernel runs on its own (``Sweep.run``) or the
    interpreter evaluates (``expr.evaluate``), in order."""
    calls = []
    run, evaluate = Sweep.run, E.evaluate

    def one_state(sweep, *args):
        calls.append(list(args))
        return run(sweep, *args)

    def evaluated(e, env):
        calls.append(env)
        return evaluate(e, env)

    monkeypatch.setattr(Sweep, "run", one_state)
    monkeypatch.setattr(E, "evaluate", evaluated)
    return calls


@pytest.mark.parametrize("p_mode", ["random", "legendre"])
@pytest.mark.parametrize("name", ALL_MODELS)
def test_scan_equals_per_state_loop(name, p_mode, monkeypatch):
    sysdef = get_model(name)
    candidates = parse_candidates(CANDIDATES) if name == "martinet" else {}
    sampler = _sampler(name, 150, 23, p_mode)
    expected = oracles.scan(sysdef, sampler, candidates).to_json(indent=2)
    per_state = _count_per_state(monkeypatch)
    assert scan(sysdef, sampler, candidates).to_json(indent=2) == expected
    assert per_state == []   # no sample re-run at its one state


def _count_errors(monkeypatch):
    """The sites of the errors that kernels build, in order."""
    built, error = [], Sweep.error

    def counted(sweep, site, values):
        built.append(site)
        return error(sweep, site, values)

    monkeypatch.setattr(Sweep, "error", counted)
    return built


def test_scan_reruns_only_samples_outside_the_domain(monkeypatch):
    # Not even those: the error of a sample outside the domain is built from
    # its failure site and operand values, once per distinct failure.
    sysdef = get_model("von_neumann2")
    # dK2 up to 2 leaves the square root's domain at most states of the box.
    box = {"q": [(0.8, 2.0)] * 2, "v": [(-2.0, 2.0)], "p": [(0.5, 2.0)]}
    sampler = _sampler("von_neumann2", 200, 5, box=box)
    expected = oracles.scan(sysdef, sampler)
    per_state, built = _count_per_state(monkeypatch), _count_errors(monkeypatch)
    report = scan(sysdef, sampler)
    assert report.to_json() == expected.to_json()
    domain = {r.skipped for r in report.records if "sqrt" in (r.skipped or "")}
    assert domain and per_state == []
    assert len(built) == len(domain)


@pytest.mark.parametrize("p_mode", ["random", "legendre"])
def test_a_candidate_that_fails_at_every_sample_builds_one_error(p_mode, monkeypatch):
    sysdef = get_model("martinet")
    candidates = parse_candidates(CANDIDATES + "K = 1/0\n")
    sampler = _sampler("martinet", 300, 7, p_mode)
    expected = oracles.scan(sysdef, sampler, candidates).to_json()
    per_state, built = _count_per_state(monkeypatch), _count_errors(monkeypatch)
    report = scan(sysdef, sampler, candidates)
    assert report.to_json() == expected
    assert {r.skipped for r in report.records} == {"division by zero in '1.0 / 0.0'"}
    assert per_state == [] and len(built) == 1


def test_scan_records_no_p_where_the_legendre_lift_fails():
    sysdef = get_model("von_neumann2")
    box = {"q": [(0.8, 2.0)] * 2, "v": [(-2.0, 2.0)], "p": [(0.5, 2.0)]}
    sampler = _sampler("von_neumann2", 60, 5, "legendre", box)
    report = scan(sysdef, sampler)
    assert report.to_json() == oracles.scan(sysdef, sampler).to_json()
    unlifted = [r for r in report.records if r.p_dep == []]
    assert unlifted and all("sqrt" in r.skipped for r in unlifted)


def test_scan_in_batches_equals_per_state_loop(monkeypatch):
    # Batches of 16 samples: the last one short, and some of them with
    # samples outside the square root's domain.
    sysdef = get_model("von_neumann2")
    box = {"q": [(0.8, 2.0)] * 2, "v": [(-2.0, 2.0)], "p": [(0.5, 2.0)]}
    sampler = _sampler("von_neumann2", 200, 5, box=box)
    expected = oracles.scan(sysdef, sampler)
    batch = comparison._scan_lanes
    qs = []

    def counted(sysdef, q, *rest):
        qs.append(q)
        return batch(sysdef, q, *rest)

    monkeypatch.setattr(comparison, "BATCH", 16)
    monkeypatch.setattr(comparison, "_scan_lanes", counted)
    per_state = _count_per_state(monkeypatch)
    report = scan(sysdef, sampler)
    assert report.to_json() == expected.to_json()
    # The batches are the drawn samples, in order, 16 at a time.
    assert [len(q) for q in qs] == [16] * 12 + [8]
    assert np.concatenate(qs).tobytes() == comparison._draw(sysdef, sampler)[0].tobytes()
    assert per_state == []


def test_scan_lets_other_errors_of_a_batch_escape(monkeypatch):
    # A failed kernel fails lanes, and a lane's error is its skip reason;
    # any other error is a fault of the batched code.
    def broken(*_):
        raise TypeError("broken batch")

    monkeypatch.setattr(comparison, "_scan_lanes", broken)
    with pytest.raises(TypeError, match="broken batch"):
        scan(get_model("martinet"), _sampler("martinet", 3, 1))


def test_scan_with_a_non_state_candidate_skips_every_record(monkeypatch):
    sysdef = get_model("martinet")
    candidates = parse_candidates("bad = x + w\n")
    sampler = _sampler("martinet", 30, 2)
    expected = oracles.scan(sysdef, sampler, candidates)
    report = scan(sysdef, sampler, candidates)
    assert report.to_json() == expected.to_json()
    assert {r.skipped for r in report.records} == {
        "candidate 'bad' uses non-state variable(s) ['w']"}


def _outcome(fn, *args):
    """The bytes of what ``fn(*args)`` returns, or the kind, text, det and
    state of the error it raises."""
    try:
        out = fn(*args)
    except (EvalError, SingularMatrixError, NonlinearSystemError) as exc:
        state = getattr(exc, "state", None)
        return (type(exc), str(exc), repr(getattr(exc, "det", None)), type(state),
                None if state is None else [x.tobytes() for x in vars(state).values()])
    return {k: repr(x) for k, x in out.items()} if isinstance(out, dict) else out.tobytes()


@pytest.mark.parametrize("name", ALL_MODELS)
def test_per_state_functions_equal_the_oracle(name):
    # The public per-state functions against the per-state oracle, bit for
    # bit, and error for error: kind, text, det and state; the last
    # candidate leaves its domain at about half the states.
    sysdef = get_model(name)
    q, v, p = comparison._draw(sysdef, _sampler(name, 40, 31))
    if name == "von_neumann2":   # domain errors, and a singular vakonomic matrix
        box = {"q": [(0.8, 2.0)] * 2, "v": [(-2.0, 2.0)], "p": [(0.5, 2.0)]}
        more = comparison._draw(sysdef, _sampler(name, 20, 5, box=box))
        q, v, p = (np.concatenate([a, b]) for a, b in zip((q, v, p), more))
        p[::7] = 0.0
    candidates = _candidates(sysdef)
    for qi, vi, pi in zip(q, v, p):
        s = VakState(qi, vi, pi)
        for got, expected, args in [
                (comparison.curvature, oracles.curvature, (sysdef, qi)),
                (comparison.g_residuals, oracles.g_residuals, (sysdef, s)),
                (comparison.field_residual, oracles.field_residual, (sysdef, s)),
                (comparison.tangency_residuals, oracles.tangency_residuals,
                 (sysdef, candidates, s)),
                (comparison.tangency_residuals, oracles.tangency_residuals,
                 (sysdef, {**candidates, "bad": E.parse("w")}, s)),
                (comparison.tangency_residuals, oracles.tangency_residuals,
                 (sysdef, {"log": E.parse(f"log(d{sysdef.base[0]})")}, s))]:
            assert _outcome(got, *args) == _outcome(expected, *args)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy overflow in the oracle
@settings(max_examples=150, deadline=None)
@given(_exprs(), _exprs(), _exprs(), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "legendre"]))
def test_random_systems_equal_the_oracle(lagrangian, psi, candidate, seed, p_mode):
    # The first error of each state, in the oracle's order, on systems whose
    # trees leave their domain, overflow or make a matrix singular anywhere.
    sysdef = SystemDef(name="random", coords=("x", "y", "k1"), dependent=("k1",),
                       lagrangian=lagrangian, psi={"k1": psi}, declared_linear=False)
    box = {"q": [(-2.0, 2.0)] * 3, "v": [(-2.0, 2.0)] * 2, "p": [(-2.0, 2.0)]}
    sampler = _sampler("random", 6, seed, p_mode, box)
    candidates = {"c": candidate, "k": E.parse("2.5")}

    def outcome(function, *args):   # any other error, such as a report that is not finite
        try:
            return function(*args)
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(lambda: scan(sysdef, sampler, candidates).to_json()) == outcome(
        lambda: oracles.scan(sysdef, sampler, candidates).to_json())
    for q, v, p in zip(*comparison._draw(sysdef, _sampler("random", 3, seed, "random", box))):
        s = VakState(q, v, p)
        for name in ("curvature", "g_residuals", "field_residual", "tangency_residuals"):
            args = {"curvature": (sysdef, q), "tangency_residuals": (sysdef, candidates, s)}.get(
                name, (sysdef, s))
            assert outcome(_outcome, getattr(comparison, name), *args) == outcome(
                _outcome, getattr(oracles, name), *args)


CONSTANT_OVERFLOW = """\
name constant
coords x y
dependent y
linear true
lagrangian 0.5*(dx^2 + dy^2) + exp(1000)
psi y = x*dx
"""


def test_kernel_that_fails_at_every_state_marks_every_lane(capsys, tmp_path):
    # exp(1000) reaches no input, so the array kernel raises outright.  The
    # restricted kernel differentiates psi alone, so it never reaches L.
    sysdef = load_system(CONSTANT_OVERFLOW)
    q, v, mult = np.zeros((3, 2)), np.ones((3, 1)), np.full((3, 1), 0.5)
    rows, site, values = _jets.run_lanes(_jets._kernel(sysdef, "restricted"), q, v)
    assert not site.any() and values is None and np.isfinite(rows).all()
    with pytest.raises(OverflowError):
        _jets._kernel(sysdef, "field").array(*np.concatenate([q, v, mult], axis=1).T)
    out, site, values = _jets.run_lanes(_jets._kernel(sysdef, "field"), q, v, mult)
    assert site.all() and np.isnan(out).all()
    assert values.tolist() == [[1000.0, 0.0]] * 3
    message = "math range error in 'exp(1000.0)'"
    box = {"q": [(-1.0, 1.0)] * 2, "v": [(-1.0, 1.0)], "p": [(-1.0, 1.0)]}
    report = scan(sysdef, _sampler("constant", 5, 1, box=box))
    assert report.to_json() == oracles.scan(sysdef, _sampler("constant", 5, 1, box=box)).to_json()
    assert {r.skipped for r in report.records} == {message}
    path = tmp_path / "constant.sys"
    path.write_text(CONSTANT_OVERFLOW)
    assert run(["compare", str(path), "--q=0,0", "--v=1", "--p=1"]) == 3
    assert capsys.readouterr().err == f"numeric error: {message}\n"


def test_scan_draws_the_per_coordinate_sequence():
    sampler = _sampler("rolling_penny", 5, 9)
    rng = np.random.default_rng(9)
    report = scan(get_model("rolling_penny"), sampler)
    for record in report.records:
        drawn = [rng.uniform(lo, hi) for lo, hi in
                 sampler.q_bounds + sampler.v_bounds + sampler.p_bounds]
        assert record.q + record.v + record.p_dep == drawn


# ---------------------------------------------------------------------------
# to_json
# ---------------------------------------------------------------------------


def _report(**record):
    records = [ComparisonRecord(index=0, q=[0.5, -0.0], v=[1e-300], p_dep=[],
                                skipped='det "quoted" é中\n\ttab'),
               ComparisonRecord(index=1, q=[1.0, 2.0], v=[3.0], p_dep=[4.5],
                                g=[0.1, -2.5e17], delta_y=[0.0, 1.0],
                                tangency={"Cé": 1.5, 'q"t': -0.25}, **record)]
    summary = {"samples": 2, "evaluated": 1, "skipped": 1, "tol": 1e-10, "seed": 0,
               "p_mode": "random", "fraction_g_below_tol": None,
               "fraction_deltay_below_tol": 0.5}
    return ComparisonReport(system="sys é", records=records, summary=summary)


@pytest.mark.parametrize("indent", [None, 2])
def test_to_json_equals_json_dumps(indent):
    report = _report()
    assert report.to_json(indent) == json.dumps(report.to_json_dict(), indent=indent,
                                                 allow_nan=False)


INDENTS = (None, 0, 2, "\t")
# Numbers whose shortest repr has an exponent, a sign or many digits.
EDGE_NUMBERS = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 1.7976931348623157e308,
                2**53 + 1, 10**22, -(2**64), 10**300)
_numbers = st.one_of(st.sampled_from(EDGE_NUMBERS), st.integers(-10**300, 10**300),
                     st.floats(allow_nan=False, allow_infinity=False))
_texts = st.one_of(st.sampled_from(['%s %d', "{}", "{0}", '"', "\\", "\0", "\x1f\x7f",
                                    "é中\U0001f600", "\u2028\n\t", ""]),
                   st.text(st.characters(max_codepoint=0x2030), max_size=6))
_floats = st.one_of(st.sampled_from([x for x in EDGE_NUMBERS if type(x) is float]),
                    st.floats(allow_nan=False, allow_infinity=False))
_lengths = st.integers(0, 3)


def _width(shape) -> int:
    """The numbers after the index of a record of ``shape``."""
    *lengths, names, _ = shape
    return sum(k or 0 for k in lengths) + len(names)


@st.composite
def _batches(draw):
    """The records of ``scan`` as columns: an evaluated record shape and
    skipped ones, with or without p, whose rows are interleaved."""
    q, v, p = draw(_lengths), draw(_lengths), draw(_lengths)
    g, dy = draw(st.one_of(st.none(), _lengths)), draw(st.one_of(st.none(), _lengths))
    names = tuple(draw(st.lists(_texts, max_size=3, unique=True)))
    shapes = ((q, v, p, g, dy, names, None),
              *((q, v, draw(st.sampled_from([0, p])), None, None, (), text)
                for text in draw(st.lists(_texts, max_size=3, unique=True))))
    code = draw(st.lists(st.integers(0, len(shapes) - 1), max_size=12))
    width = _width(shapes[0])
    rows = draw(st.lists(st.lists(_floats, min_size=width, max_size=width),
                         min_size=len(code), max_size=len(code)))
    return comparison._Batch(np.array(rows, dtype=float).reshape(len(code), width),
                             np.array(code, dtype=np.intp), shapes)


@st.composite
def _column_reports(draw):
    """The parts of a report that holds its columns (``_column_report``):
    the system's name, the columns and the summary."""
    batch = draw(_batches())
    summary = {"samples": len(batch.code), "tol": draw(_numbers), "p_mode": draw(_texts),
               "fraction_g_below_tol": None}
    return draw(_texts), batch, summary


def _column_report(parts) -> ComparisonReport:
    system, batch, summary = parts
    return ComparisonReport._of_batch(system, batch, dict(summary))


def _fast_path_only():
    """``to_json`` with its ``json.dumps`` fallback failing the test."""
    def fallback(*args, **kwargs):
        raise AssertionError("to_json left the report to json.dumps")
    return mock.patch.object(comparison.json, "dumps", fallback)


@settings(max_examples=150, deadline=None)
@given(_column_reports())
def test_to_json_equals_json_dumps_on_any_record_shapes(parts):
    # Written from its columns, then from the records built from them.
    report = _column_report(parts)
    with _fast_path_only():
        texts = [report.to_json(indent) for indent in INDENTS]
    assert texts == [json.dumps(report.to_json_dict(), indent=indent, allow_nan=False)
                     for indent in INDENTS]
    assert [report.to_json(indent) for indent in INDENTS] == texts


@settings(max_examples=60, deadline=None)
@given(_column_reports(), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_to_json_raises_json_dumps_error_at_any_position(parts, bad, data):
    # The numbers a row's shape reads; the columns past them are not written.
    batch = parts[1]
    slots = [(i, j) for i, code in enumerate(batch.code.tolist())
             for j in range(_width(batch.shapes[code]))]
    if not slots:
        parts[2]["tol"] = bad
    else:
        i, j = data.draw(st.sampled_from(slots))
        batch.columns[i, j] = bad
    for indent in INDENTS:
        with pytest.raises(ValueError) as expected:
            json.dumps(_column_report(parts).to_json_dict(), indent=indent, allow_nan=False)
        with pytest.raises(ValueError) as got:
            _column_report(parts).to_json(indent)
        assert str(got.value) == str(expected.value)


def _scanned():
    """A report of ``scan`` that still holds its columns."""
    return scan(get_model("martinet"), _sampler("martinet", 5, 2))


def test_to_json_leaves_a_summary_key_that_is_not_a_string_to_json_dumps():
    # json.dumps writes the int key 7 as "7".
    for indent in INDENTS:
        report = _scanned()
        report.summary[7] = 0.5
        text = report.to_json(indent)
        assert text == json.dumps(report.to_json_dict(), indent=indent, allow_nan=False)
        assert json.loads(text)["summary"]["7"] == 0.5


@pytest.mark.parametrize("value", [True, np.float64(0.25), 10**400],
                         ids=["bool", "np.float64", "int beyond the floats"])
@pytest.mark.parametrize("attr", ["q", "g", "tangency", "summary"])
def test_to_json_leaves_other_kinds_to_json_dumps(attr, value):
    # bool is an int and np.float64 a float to json, but not exactly; an int
    # beyond the float range is finite but math.isfinite cannot say so.  Only
    # the summary of a report that holds its columns can hold such a value.
    for indent in INDENTS:
        report = _scanned() if attr == "summary" else _report(skipped=None)
        if attr == "summary":
            report.summary["tol"] = value
        elif attr == "tangency":
            report.records[1].tangency["Cé"] = value
        else:
            getattr(report.records[1], attr)[0] = value
        with mock.patch.object(comparison.json, "dumps", wraps=json.dumps) as dumps:
            text = report.to_json(indent)
        assert dumps.call_count == 1
        assert text == json.dumps(report.to_json_dict(), indent=indent, allow_nan=False)


def test_a_report_of_columns_equals_one_of_the_same_records():
    report, built = _scanned(), _scanned()
    built = ComparisonReport(built.system, built.records, dict(built.summary))
    text = report.to_json(2)
    assert report._records is None   # it still holds its columns
    assert report == built and not report != built
    assert repr(report) == repr(built)
    assert repr(report).startswith(
        "ComparisonReport(system='martinet', records=[ComparisonRecord(index=0, q=[")
    assert report.__eq__(report.to_json_dict()) is NotImplemented
    assert report != report.to_json_dict()
    # The comparison read the records: the report is written from them.
    assert report.to_json(2) == text == json.dumps(report.to_json_dict(), indent=2,
                                                   allow_nan=False)
    built.records[0].q[0] += 1.0
    assert report != built


def test_to_json_with_the_template_mark_in_the_indent():
    report = _scanned()
    text = report.to_json("\0 ")
    assert text == json.dumps(report.to_json_dict(), indent="\0 ", allow_nan=False)


@pytest.mark.parametrize("p_mode", ["random", "legendre"])
@pytest.mark.parametrize("name", list(CATALOG))
def test_scan_reports_take_the_fast_path(name, p_mode):
    # A writer that silently left every report to json.dumps would still
    # write the right bytes; only the time would show it.
    report = scan(get_model(name), _sampler(name, 40, 3, p_mode))
    with _fast_path_only():
        assert report.to_json(2) and report.to_json()


def test_martinet_candidates_report_takes_the_fast_path():
    candidates = parse_candidates((GOLDEN / "martinet.cand").read_text(encoding="utf-8"))
    report = scan(get_model("martinet"), _sampler("martinet", 40, 3, "legendre"), candidates)
    with _fast_path_only():
        assert report.to_json(2) and report.to_json()
    assert all(r.tangency for r in report.records if r.skipped is None)


@pytest.mark.parametrize("with_candidates", [False, True], ids=["plain", "candidates"])
@pytest.mark.parametrize("p_mode", ["random", "legendre"])
@pytest.mark.parametrize("name", list(CATALOG))
def test_report_from_columns_equals_the_records(name, p_mode, with_candidates):
    # The report is written from the batch columns before its records are
    # built; then the records built from the same columns equal the
    # oracle's, and write the same text.
    sysdef = get_model(name)
    candidates = _candidates(sysdef) if with_candidates else {}
    sampler = _sampler(name, 40, 8, p_mode)
    report = scan(sysdef, sampler, candidates)
    with _fast_path_only():
        texts = [report.to_json(indent) for indent in (None, 2)]
    expected = oracles.scan(sysdef, sampler, candidates)
    assert report.records == expected.records
    assert report.summary == expected.summary
    assert texts == [json.dumps(report.to_json_dict(), indent=indent, allow_nan=False)
                     for indent in (None, 2)]
    assert [report.to_json(indent) for indent in (None, 2)] == texts


@pytest.mark.parametrize("name, argv", [
    ("rolling_penny", []),
    ("martinet", ["--p-mode", "legendre", "--candidates", str(GOLDEN / "martinet.cand")]),
    ("von_neumann2", []),
])
def test_scan_command_builds_no_records(name, argv, monkeypatch, capsys):
    def no_record(*_, **__):
        raise AssertionError("a ComparisonRecord was built")

    monkeypatch.setattr(ComparisonRecord, "__init__", no_record)
    assert run(["scan", name, "--samples", "30", *argv]) == 0
    assert len(json.loads(capsys.readouterr().out)["records"]) == 30


def test_records_read_from_a_scan_are_what_it_writes():
    # Once read, the records are the report: a changed value is written.
    report = _scanned()
    report.records[3].delta_y[1] = 0.125
    report.records[0].skipped = "changed"
    text = report.to_json(2)
    assert text == json.dumps(report.to_json_dict(), indent=2, allow_nan=False)
    records = json.loads(text)["records"]
    assert records[3]["deltaY"][1] == 0.125 and records[0]["skipped"] == "changed"


def test_skip_texts_keep_the_sign_of_a_zero_det(monkeypatch):
    # A singular matrix gives one error per distinct det, put into words
    # once; det 0.0 and -0.0 are equal as floats but written differently.
    # A lane keeps its first error.
    sysdef = get_model("martinet")
    error = EvalError("math domain error in 'log(x)'")
    stage_lanes, seen = comparison._stage_lanes, []

    def zero_dets(sys, buf, skip):
        dy, det, singular = stage_lanes(sys, buf, skip)
        det, singular = det.copy(), singular.copy()
        det[[0, 2, 3, 4]], singular[[0, 2, 3, 4]] = [0.0, -0.0, 0.0, 0.0], True
        return dy, det, singular

    class Lanes(comparison._Lanes):
        def record(self, candidates):
            seen.append(self)
            self.mark(np.arange(5) == 3, np.zeros(1), lambda i: error)
            return super().record(candidates)

    monkeypatch.setattr(comparison, "_stage_lanes", zero_dets)
    monkeypatch.setattr(comparison, "_Lanes", Lanes)
    report = scan(sysdef, _sampler("martinet", 5, 1))
    message = "vakonomic matrix is singular for system 'martinet' (det={})"
    assert [r.skipped for r in report.records] == [
        message.format("0.0"), None, message.format("-0.0"), str(error), message.format("0.0")]
    assert [r.index for r in report.records] == list(range(5))
    (lanes,) = seen
    zero, evaluated, minus_zero, first, again = lanes.code.tolist()
    assert (evaluated, first, again) == (0, 1, zero) and len(lanes.errors) == 3
    assert lanes.errors[0] is error
    assert [repr(lanes.errors[c - 1].det) for c in (zero, minus_zero)] == ["0.0", "-0.0"]


_rows = st.lists(st.lists(st.one_of(st.floats(), st.sampled_from([-0.0, 1e-10])),
                          min_size=2, max_size=2), max_size=6)


@settings(max_examples=200, deadline=None)
@given(_rows, st.sampled_from([1e-10, 0.5, 0.0, math.inf, math.nan]))
def test_summary_fractions_take_max_as_python_does(rows, tol):
    # Python's max keeps a leading NaN and passes over a later one.
    values = [max(map(abs, row)) for row in rows]
    expected = sum(1 for x in values if x < tol) / len(values) if values else None
    assert comparison._fraction(np.array(rows).reshape(len(rows), 2), tol) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("indent", [None, 2])
def test_to_json_raises_json_dumps_error(indent, bad):
    report = _report(skipped=None)
    report.records[1].delta_y = [1.0, bad]
    report.records[0].q = [0.5, bad]
    with pytest.raises(ValueError) as expected:
        json.dumps(report.to_json_dict(), indent=indent, allow_nan=False)
    with pytest.raises(ValueError) as got:
        report.to_json(indent)
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# compare at a scanned state
# ---------------------------------------------------------------------------


def _csv(values):
    return ",".join(map(repr, values))


@pytest.mark.parametrize("name", LINEAR_MODELS)
def test_compare_reads_the_scanned_record(name, tmp_path, capsys):
    candidates = tmp_path / "c.cand"
    candidates.write_text(CANDIDATES if name == "martinet" else "", encoding="utf-8")
    report = scan(get_model(name), _sampler(name, 5, 4),
                  parse_candidates(candidates.read_text(encoding="utf-8")))
    for record in report.records:
        assert record.skipped is None
        assert run(["compare", name, f"--q={_csv(record.q)}", f"--v={_csv(record.v)}",
                    f"--p={_csv(record.p_dep)}", "--candidates", str(candidates)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["g"], out["deltaY"], out["tangency"]) == (
            record.g, record.delta_y, record.tangency)



def _record_calls(monkeypatch, calls, function, label):
    """Record ``label(*args)`` of each call of ``function``, under every name
    a vaknh module binds it to."""
    def recorded(*args, **kwargs):
        calls.append(label(*args))
        return function(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("vaknh"):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, recorded)


def test_compare_evaluates_its_state_once(tmp_path, monkeypatch, capsys):
    # One compare makes the stacked sweeps of a one-sample scan and no
    # other: one restricted sweep (the curvature), one lift sweep, the
    # stacked field kernel of each field and the candidates' gradients; no
    # scalar sweep (vak_rhs, nh_rhs) and no interpreted partial derivative.
    candidates = tmp_path / "c.cand"
    candidates.write_text(CANDIDATES, encoding="utf-8")
    sysdef, sampler = get_model("martinet"), _sampler("martinet", 1, 4)
    record = scan(sysdef, sampler, parse_candidates(CANDIDATES)).records[0]
    calls = []
    _record_calls(monkeypatch, calls, _jets.run_lanes, lambda sweep, *_: sweep.label)
    for function in (_jets.restricted_table, _jets.ambient_velocity_gradient,
                     _jets.field_sweep, partial):
        _record_calls(monkeypatch, calls, function, lambda *_, name=function.__name__: name)

    assert scan(sysdef, sampler, parse_candidates(CANDIDATES)).records == [record]
    scanned = calls[:]
    calls.clear()
    assert run(["compare", "martinet", f"--q={_csv(record.q)}", f"--v={_csv(record.v)}",
                f"--p={_csv(record.p_dep)}", "--candidates", str(candidates)]) == 0
    assert json.loads(capsys.readouterr().out)["deltaY"] == record.delta_y
    assert calls == scanned
    assert sorted(scanned) == sorted(["restricted sweep of martinet", "lift sweep of martinet",
                                      "field sweep of martinet", "field sweep of martinet",
                                      "gradients"])


@pytest.mark.parametrize("p_mode, fields", [("random", 2), ("legendre", 1)])
def test_a_batch_evaluates_each_state_once(monkeypatch, p_mode, fields):
    # The curvature's restricted sweep, one lift sweep (the Legendre lift)
    # and a field sweep, determinant and solve per field; in legendre mode p
    # is the lift, so the two fields are one.
    sysdef = get_model("rolling_penny")
    calls = []
    _record_calls(monkeypatch, calls, _jets.run_lanes, lambda sweep, *_: sweep.label)
    _record_calls(monkeypatch, calls, vakonomic.det_threshold, lambda *_: "det")
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: calls.append("solve") or solve(*args))
    report = scan(sysdef, _sampler("rolling_penny", 50, 3, p_mode))
    assert report.summary["evaluated"] == 50
    assert sorted(calls) == sorted(
        [f"restricted sweep of {sysdef.name}", f"lift sweep of {sysdef.name}"]
        + [f"field sweep of {sysdef.name}", "det", "solve"] * fields)
