"""Batched evaluation against the per-state oracle (``oracles.scan`` and
the per-state functions in ``tests/oracles.py``).

* The array form of every generated kernel equals the scalar form lane by
  lane, bit for bit, and marks a lane exactly where the scalar form raises.
* ``scan`` writes the report that the oracle gives sample by sample, byte
  for byte, and the per-state functions of ``comparison`` return or raise
  what the oracle's do.
* ``ComparisonReport.to_json`` writes what ``json.dumps`` writes.
* ``compare`` at a scanned state reads that record's values, from the
  sweeps of a one-sample scan.
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vaknh import _jets, comparison, expr as E
from vaknh._kernel import compile_gradients
from vaknh.autodiff import partial
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
KINDS = ("restricted", "ambient", "velocity_gradient", "completion")
FAILURES = (EvalError, ArithmeticError, ValueError)
CANDIDATES = """\
C1 = p_z - (y^2/2)*dx
C2 = dx^2 + dy^2
C3 = p_z*y - x*dy
C4 = 2.5
"""


def _blocks(sysdef, kind, q, v, v_full):
    return (q, v) if kind in ("restricted", "completion") else (q, v_full)


def _assert_lanes_match(sweep, blocks, reference):
    """Lane by lane: the array kernel's row equals ``reference(lane args)``
    bit for bit, or the lane is marked and ``reference`` raises."""
    lanes = np.concatenate(blocks, axis=1).tolist()
    out, failed = _jets.run_lanes(sweep, *blocks)
    for i, args in enumerate(lanes):
        try:
            expected = reference(args)
        except FAILURES:
            assert failed[i]
            continue
        assert not failed[i]
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
    for kind in KINDS:
        _assert_lanes_match(_jets._kernel(sysdef, kind),
                            _blocks(sysdef, kind, q, v, v_full),
                            _scalar(_jets._kernel(sysdef, kind)))


def test_array_kernel_marks_lanes_outside_the_domain():
    sysdef = get_model("von_neumann2")
    q = np.array([[1.0, 1.0], [1.0, 1.0], [0.5, 1.0]])
    v = np.array([[0.5], [2.0], [0.0]])     # the second: sqrt of a negative
    tab, failed = _jets.restricted_table(sysdef, q, v)
    assert failed.tolist() == [False, True, False]
    for i in (0, 2):
        assert tab.rows[i].tobytes() == _jets.restricted_table(sysdef, q[i], v[i]).rows.tobytes()
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
    for kind in KINDS:
        _assert_lanes_match(_jets._kernel(sysdef, kind),
                            _blocks(sysdef, kind, q, v, v_full),
                            _scalar(_jets._kernel(sysdef, kind)))


_VALUES = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_LANES = st.lists(st.lists(st.one_of(st.just(0.0), _VALUES), min_size=6, max_size=6),
                  min_size=1, max_size=4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy overflow in the interpreter
@settings(max_examples=200, deadline=None)
@given(_exprs(), _exprs(), _LANES)
# a plain-float division by zero in one lane of the completion kernel
@example(E.parse("x"), E.parse("x/y"), [[1.0, 0.0, 0.0, 1.0, 1.0, 0.0],
                                        [1.0, 2.0, 0.0, 1.0, 1.0, 0.0]])
def test_array_kernels_equal_scalar_kernels_on_random_trees(lagrangian, psi, lanes):
    sysdef = SystemDef(name="random", coords=("x", "y", "k1"), dependent=("k1",),
                       lagrangian=lagrangian, psi={"k1": psi}, declared_linear=False)
    values = np.array(lanes)
    q, v, v_full = values[:, :3], values[:, 3:5], values[:, 3:6]
    for kind in KINDS:
        _assert_lanes_match(_jets._kernel(sysdef, kind),
                            _blocks(sysdef, kind, q, v, v_full),
                            _scalar(_jets._kernel(sysdef, kind)))
    # The gradient kernel of tangency_residuals against autodiff.partial.
    names = ["x", "y", "k1", "dx", "dy"]
    seeded = sorted(E.free_vars(lagrangian) & set(names))
    if seeded and not E.free_vars(lagrangian) - set(names):
        sweep = compile_gradients([lagrangian], names, seeded)
        _assert_lanes_match(sweep, (q, v), lambda args: [
            partial(lagrangian, dict(zip(names, args)), var) for var in seeded])


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


def _count_per_state(monkeypatch):
    """The positions q of the lanes re-run at their one state, in order."""
    calls = []
    fail = comparison._Lanes.fail

    def counted(lanes, bad, sweep, *blocks):
        def explain(*args):   # every kernel takes q first
            calls.append(list(args[:lanes.sys.n]))
            return sweep.explain(*args)
        return fail(lanes, bad, SimpleNamespace(explain=explain), *blocks)

    monkeypatch.setattr(comparison._Lanes, "fail", counted)
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


def test_scan_reruns_only_samples_outside_the_domain(monkeypatch):
    sysdef = get_model("von_neumann2")
    # dK2 up to 2 leaves the square root's domain at most states of the box.
    box = {"q": [(0.8, 2.0)] * 2, "v": [(-2.0, 2.0)], "p": [(0.5, 2.0)]}
    sampler = _sampler("von_neumann2", 200, 5, box=box)
    expected = oracles.scan(sysdef, sampler)
    per_state = _count_per_state(monkeypatch)
    report = scan(sysdef, sampler)
    assert report.to_json() == expected.to_json()
    domain = [r.q for r in report.records if "sqrt" in (r.skipped or "")]
    assert domain and per_state == domain


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
    sizes = []

    def counted(sysdef, first, q, *rest):
        sizes.append((first, len(q)))
        return batch(sysdef, first, q, *rest)

    monkeypatch.setattr(comparison, "BATCH", 16)
    monkeypatch.setattr(comparison, "_scan_lanes", counted)
    per_state = _count_per_state(monkeypatch)
    report = scan(sysdef, sampler)
    assert report.to_json() == expected.to_json()
    assert sizes == [(first, 16) for first in range(0, 192, 16)] + [(192, 8)]
    assert per_state == [r.q for r in report.records if "sqrt" in (r.skipped or "")]


def test_scan_lets_other_errors_of_a_batch_escape(monkeypatch):
    # A failed kernel marks lanes, and a lane's error is its skip reason;
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
    if name == "martinet":
        candidates = parse_candidates(CANDIDATES)
    else:
        candidates = parse_candidates(f"G = {sysdef.coords[0]}*p_{sysdef.dependent[0]}"
                                      f" + d{sysdef.base[-1]}^2\nC = 1.5\n")
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
    # exp(1000) reaches no input, so the array kernel raises outright.
    sysdef = load_system(CONSTANT_OVERFLOW)
    q, v = np.zeros((3, 2)), np.ones((3, 1))
    with pytest.raises(OverflowError):
        _jets._kernel(sysdef, "restricted").array(*np.concatenate([q, v], axis=1).T)
    tab, failed = _jets.restricted_table(sysdef, q, v)
    assert failed.all() and np.isnan(tab.rows).all()
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
_lists = st.lists(_numbers, max_size=3)


@st.composite
def _reports(draw):
    """Reports whose neighbouring records change shape: skipped and evaluated
    records interleaved, ``p=[]``, g and deltaY None or set, and tangency
    dicts with the same keys in another order."""
    names = draw(st.lists(_texts, max_size=3, unique=True))
    records = []
    for index in range(draw(st.integers(0, 6))):
        skipped = draw(st.one_of(st.none(), _texts))
        keys = draw(st.permutations(names)) if skipped is None else []
        records.append(ComparisonRecord(
            index=draw(st.one_of(st.just(index), st.integers(-2**64, 2**64))), q=draw(_lists),
            v=draw(_lists), p_dep=draw(st.one_of(st.just([]), _lists)),
            g=draw(st.one_of(st.none(), _lists)), delta_y=draw(st.one_of(st.none(), _lists)),
            tangency={key: draw(_numbers) for key in keys}, skipped=skipped))
    summary = {"samples": len(records), "tol": draw(_numbers), "p_mode": draw(_texts),
               "fraction_g_below_tol": None}
    return ComparisonReport(system=draw(_texts), records=records, summary=summary)


def _fast_path_only():
    """``to_json`` with its ``json.dumps`` fallback failing the test."""
    def fallback(*args, **kwargs):
        raise AssertionError("to_json left the report to json.dumps")
    return mock.patch.object(comparison.json, "dumps", fallback)


@settings(max_examples=150, deadline=None)
@given(_reports())
def test_to_json_equals_json_dumps_on_any_record_shapes(report):
    expected = [json.dumps(report.to_json_dict(), indent=indent, allow_nan=False)
                for indent in INDENTS]
    with _fast_path_only():
        assert [report.to_json(indent) for indent in INDENTS] == expected


@settings(max_examples=60, deadline=None)
@given(_reports(), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_to_json_raises_json_dumps_error_at_any_position(report, bad, data):
    slots = [(r, attr) for r in report.records for attr in ("q", "v", "p_dep", "g", "delta_y")
             if getattr(r, attr)]
    if not slots:
        report.summary["tol"] = bad
    else:
        record, attr = data.draw(st.sampled_from(slots))
        values = getattr(record, attr)
        values[data.draw(st.integers(0, len(values) - 1))] = bad
    for indent in INDENTS:
        with pytest.raises(ValueError) as expected:
            json.dumps(report.to_json_dict(), indent=indent, allow_nan=False)
        with pytest.raises(ValueError) as got:
            report.to_json(indent)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("value", [True, np.float64(0.25), 10**400],
                         ids=["bool", "np.float64", "int beyond the floats"])
@pytest.mark.parametrize("attr", ["q", "g", "tangency", "summary"])
def test_to_json_leaves_other_kinds_to_json_dumps(attr, value):
    # bool is an int and np.float64 a float to json, but not exactly; an int
    # beyond the float range is finite but math.isfinite cannot say so.
    report = _report(skipped=None)
    if attr == "summary":
        report.summary["tol"] = value
    elif attr == "tangency":
        report.records[1].tangency["Cé"] = value
    else:
        getattr(report.records[1], attr)[0] = value
    for indent in INDENTS:
        expected = json.dumps(report.to_json_dict(), indent=indent, allow_nan=False)
        with mock.patch.object(comparison.json, "dumps", wraps=json.dumps) as dumps:
            assert report.to_json(indent) == expected
        assert dumps.call_count == 1


def test_to_json_with_the_template_mark_in_the_indent():
    report = _report()
    expected = json.dumps(report.to_json_dict(), indent="\0 ", allow_nan=False)
    assert report.to_json("\0 ") == expected


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
    assert all(r.tangency for r in report.records if r.skipped is None)
    with _fast_path_only():
        assert report.to_json(2) and report.to_json()


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
    # other: no field kernel (vak_rhs, nh_rhs) and no interpreted partial
    # derivative.
    candidates = tmp_path / "c.cand"
    candidates.write_text(CANDIDATES, encoding="utf-8")
    sysdef, sampler = get_model("martinet"), _sampler("martinet", 1, 4)
    record = scan(sysdef, sampler, parse_candidates(CANDIDATES)).records[0]
    calls = []
    _record_calls(monkeypatch, calls, _jets.run_lanes, lambda sweep, *_: sweep.label)
    for function in (_jets.restricted_table, _jets.ambient_velocity_gradient):
        _record_calls(monkeypatch, calls, function,
                      lambda _, q, *rest, name=function.__name__: (name, np.ndim(q)))
    _record_calls(monkeypatch, calls, _jets.field_sweep, lambda *_: "field_sweep")
    _record_calls(monkeypatch, calls, partial, lambda *_: "partial")

    assert scan(sysdef, sampler, parse_candidates(CANDIDATES)).records == [record]
    scanned = calls[:]
    calls.clear()
    assert run(["compare", "martinet", f"--q={_csv(record.q)}", f"--v={_csv(record.v)}",
                f"--p={_csv(record.p_dep)}", "--candidates", str(candidates)]) == 0
    assert json.loads(capsys.readouterr().out)["deltaY"] == record.delta_y
    assert calls == scanned
    assert scanned.count(("restricted_table", 2)) == 3
    assert scanned.count(("ambient_velocity_gradient", 2)) == 2
    assert "gradients" in scanned
    assert "field_sweep" not in calls and "partial" not in calls
