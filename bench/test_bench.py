"""Self-tests of the benchmark: ``python -m pytest -q bench``."""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from vaknh import cli  # noqa: E402
from workloads import WORKLOADS, Gate, GateError, build_ops  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _output(op):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.run(list(op.argv)) == 0
    return buf.getvalue()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_tiny(name, trace):
    result, details = run.measure(name, seed=3, seconds=0.0, trace=trace, tiny=True)
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    json.dumps(result, allow_nan=False)
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in section})


def test_same_seed_same_inputs():
    for workload in WORKLOADS.values():
        assert build_ops(workload, 11) == build_ops(workload, 11)
        assert build_ops(workload, 11) != build_ops(workload, 12)


def test_states_are_passed_in_equals_form():
    for workload in WORKLOADS.values():
        for op in build_ops(workload, 5, tiny=True):
            assert not any(a in ("--q", "--v", "--p") for a in op.argv)


def test_tail_has_ten_ops_beyond():
    times = [float(i) for i in range(100)]
    assert run.tail(times) == (89.0, 90.0)
    assert run.tail(times[:10]) is None


def test_hand_count_penny_scan_record():
    # One random-p record: g_residuals (curvature: 1 restricted; Legendre
    # lift: 1 ambient), vak_rhs (1 restricted), nh_rhs (lift: 1 ambient,
    # reduced dynamics: 1 restricted).
    assert run.hand_count() == {"restricted_table": 3, "ambient_velocity_gradient": 2,
                                "spans_match_profiler": True}


@pytest.mark.parametrize("corrupt", [
    lambda t: t.rsplit("\n", 2)[0] + "\n",                   # last step dropped
    lambda t: t.replace(t.split("\n")[3].split(",")[1], "nan", 1),
    lambda t: t.replace(t.split("\n")[3].split(",")[1],
                        format(float(t.split("\n")[3].split(",")[1]), ".6g"), 1),
    lambda t: t.replace(",", ";"),
], ids=["truncated", "nan", "rounded", "garbled"])
def test_gate_rejects_corrupted_csv(corrupt):
    gate = Gate()
    op = build_ops(WORKLOADS["integrate-rk45-vak"], 3, tiny=True)[0]
    text = _output(op)
    gate.check(op, 0, text)
    with pytest.raises(GateError):
        gate.check(op, 0, corrupt(text))


def test_gate_rejects_drifted_hamiltonian():
    gate = Gate()
    op = build_ops(WORKLOADS["integrate-rk45-vak"], 3, tiny=True)[0]
    rows = [row.split(",") for row in _output(op).rstrip("\n").split("\n")]
    column = rows[0].index("H")
    rows[-1][column] = repr(float(rows[-1][column]) + 1e-3)
    with pytest.raises(GateError):
        gate.check(op, 0, "\n".join(map(",".join, rows)) + "\n")


@pytest.mark.parametrize("corrupt", [
    lambda d: d["records"][0].__setitem__("deltaY", [float("nan")] * 2),
    lambda d: d["records"][0].__setitem__("g", [float("inf")] * 2),
    lambda d: d["summary"].__setitem__("skipped", d["summary"]["skipped"] + 1),
    lambda d: d["records"][0].pop("deltaY"),
], ids=["nan", "infinity", "counts", "schema"])
def test_gate_rejects_bad_report(corrupt):
    gate = Gate()
    op = build_ops(WORKLOADS["scan-mixed"], 3, tiny=True)[0]
    text = _output(op)
    gate.check(op, 0, text)
    report = json.loads(text)
    corrupt(report)
    with pytest.raises(GateError):
        gate.check(op, 0, json.dumps(report))


def test_gate_rejects_disagreement_at_legendre_momenta():
    gate = Gate()
    op = build_ops(WORKLOADS["scan-mixed"], 3, tiny=True)[1]
    assert op.legendre
    report = json.loads(_output(op))
    report["summary"]["fraction_deltay_below_tol"] = 0.5
    with pytest.raises(GateError):
        gate.check(op, 0, json.dumps(report))


def test_gate_rejects_nonzero_exit():
    op = build_ops(WORKLOADS["scan-mixed"], 3, tiny=True)[0]
    with pytest.raises(GateError):
        Gate().check(op, 3, "")


def test_fails_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scan-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
