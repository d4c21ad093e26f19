"""Batched evaluation against the per-state code it replaces in ``scan``.

* The array form of every generated kernel equals the scalar form lane by
  lane, bit for bit, and marks a lane exactly where the scalar form raises.
* ``scan`` writes the report that the per-state functions give sample by
  sample (``comparison._evaluate_one``), byte for byte.
* ``ComparisonReport.to_json`` writes what ``json.dumps`` writes.
* ``compare`` at a scanned state reads that record's values.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vaknh import _jets, comparison, expr as E
from vaknh._kernel import compile_gradients
from vaknh.autodiff import partial
from vaknh.cli import run
from vaknh.comparison import (ComparisonRecord, ComparisonReport, Sampler,
                              parse_candidates, scan)
from vaknh.errors import EvalError
from vaknh.models import CATALOG
from vaknh.system import SystemDef, complete_velocities

from conftest import ALL_MODELS, LINEAR_MODELS, get_model, random_states
from test_expr import _exprs
from test_kernel import _same_bits

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
    bit for bit, or the lane is marked and ``reference`` raises.  An array
    kernel raises only where every lane fails (a term no input reaches)."""
    lanes = np.concatenate(blocks, axis=1).tolist()
    try:
        out, failed = _jets.run_lanes(sweep, *blocks)
    except (ArithmeticError, ValueError):
        for args in lanes:
            with pytest.raises(FAILURES):
                reference(args)
        return
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


def _per_state(monkeypatch, *args, **kwargs):
    """The report of the per-state functions alone."""
    def refuse(*_):
        raise ValueError("batched evaluation switched off")

    with monkeypatch.context() as m:
        m.setattr(comparison, "_scan_lanes", refuse)
        return scan(*args, **kwargs)


def _count_per_state(monkeypatch):
    calls = []
    original = comparison._evaluate_one

    def counted(sysdef, i, *rest):
        calls.append(i)
        return original(sysdef, i, *rest)

    monkeypatch.setattr(comparison, "_evaluate_one", counted)
    return calls


@pytest.mark.parametrize("p_mode", ["random", "legendre"])
@pytest.mark.parametrize("name", ALL_MODELS)
def test_scan_equals_per_state_loop(name, p_mode, monkeypatch):
    sysdef = get_model(name)
    candidates = parse_candidates(CANDIDATES) if name == "martinet" else {}
    sampler = _sampler(name, 150, 23, p_mode)
    expected = _per_state(monkeypatch, sysdef, sampler, candidates).to_json(indent=2)
    per_state = _count_per_state(monkeypatch)
    assert scan(sysdef, sampler, candidates).to_json(indent=2) == expected
    assert per_state == []   # every sample evaluated in the batch


def test_scan_reruns_only_samples_outside_the_domain(monkeypatch):
    sysdef = get_model("von_neumann2")
    # dK2 up to 2 leaves the square root's domain at most states of the box.
    box = {"q": [(0.8, 2.0)] * 2, "v": [(-2.0, 2.0)], "p": [(0.5, 2.0)]}
    sampler = _sampler("von_neumann2", 200, 5, box=box)
    expected = _per_state(monkeypatch, sysdef, sampler)
    per_state = _count_per_state(monkeypatch)
    report = scan(sysdef, sampler)
    assert report.to_json() == expected.to_json()
    domain = [r.index for r in report.records if "sqrt" in (r.skipped or "")]
    assert domain and per_state == domain


def test_scan_in_batches_equals_per_state_loop(monkeypatch):
    # Batches of 16 samples: the last one short, and some of them with
    # samples outside the square root's domain.
    sysdef = get_model("von_neumann2")
    box = {"q": [(0.8, 2.0)] * 2, "v": [(-2.0, 2.0)], "p": [(0.5, 2.0)]}
    sampler = _sampler("von_neumann2", 200, 5, box=box)
    expected = _per_state(monkeypatch, sysdef, sampler)
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
    assert per_state == [r.index for r in report.records if "sqrt" in (r.skipped or "")]


def test_scan_lets_other_errors_of_a_batch_escape(monkeypatch):
    # Only a kernel or a stacked solve may send a batch to the per-state
    # functions; any other error is a fault of the batched code.
    def broken(*_):
        raise TypeError("broken batch")

    monkeypatch.setattr(comparison, "_scan_lanes", broken)
    with pytest.raises(TypeError, match="broken batch"):
        scan(get_model("martinet"), _sampler("martinet", 3, 1))


def test_scan_with_a_non_state_candidate_skips_every_record(monkeypatch):
    sysdef = get_model("martinet")
    candidates = parse_candidates("bad = x + w\n")
    sampler = _sampler("martinet", 30, 2)
    expected = _per_state(monkeypatch, sysdef, sampler, candidates)
    report = scan(sysdef, sampler, candidates)
    assert report.to_json() == expected.to_json()
    assert {r.skipped for r in report.records} == {
        "candidate 'bad' uses non-state variable(s) ['w']"}


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

