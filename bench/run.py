"""Benchmark of the ``vaknh`` command line on its integrate and scan paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src/``.  One client drives ``vaknh.cli.run(argv)`` in a closed loop, in
this process: each call starts when the previous one has returned.  Every
call's exit code and output pass the gate in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds,
stopping after a whole cycle of models.  ``--trace 1`` runs a fixed, seeded
list of calls twice, untraced and then traced, and derives the per-layer
metrics from the spans (``spans.py``).  The last line printed is the result
object; the line before it holds the run's details: environment, output
digest, tail percentile, failures and tracing overhead.  See ``NOTES.md``
for the metric definitions.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Set before numpy is imported, here and in the set-up probes.
os.environ.pop("VAKNH_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "steps_per_s": "1/s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "jets.sweeps_per_step": "count",
    "jets.sweeps_per_record": "count",
    "jets.restricted_table_us": "us",
    "jets.ambient_velocity_gradient_us": "us",
    "jets.busy_frac": "ratio",
    "vakonomic.vak_rhs_calls_per_step": "count",
    "vakonomic.vak_rhs_self_us": "us",
    "vakonomic.hamiltonian_us": "us",
    "vakonomic.w1_momenta_us": "us",
    "nonholonomic.nh_rhs_calls_per_step": "count",
    "nonholonomic.nh_rhs_self_us": "us",
    "nonholonomic.legendre_lift_per_record": "count",
    "integrate.rhs_calls_per_step": "count",
    "integrate.steps_per_op": "count",
    "integrate.self_frac": "ratio",
    "integrate.to_csv_s": "s",
    "comparison.g_residuals_us": "us",
    "comparison.field_residual_us": "us",
    "comparison.tangency_residuals_us": "us",
    "comparison.scan_self_frac": "ratio",
    "comparison.to_json_s": "s",
    "comparison.skipped_frac": "ratio",
    "system.load_system_us": "us",
    "system.verify_linearity_us": "us",
    "cli.self_frac": "ratio",
}

TAIL_BEYOND = 10        # op_tail_s: ops that must lie beyond the percentile
SETUP_REPEATS = 11      # fresh processes per run; setup_s is their median

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import vaknh
from vaknh.models import builtin_source
from vaknh.system import load_system
for name in {models!r}:
    load_system(builtin_source(name))
print(repr(time.perf_counter() - t0))
"""


def setup_seconds(models, repeats):
    """Median time, over fresh processes, to import vaknh and load (and
    verify) every model.  One extra process runs first, untimed, so that
    bytecode caches are written before measuring."""
    code = SETUP_PROBE.format(src=str(SRC), models=tuple(models))
    times = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True, cwd=ROOT)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


@dataclass
class Pass:
    """Results of one closed-loop pass over a list of operations."""

    times: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)
    hashed: int = 0

    @property
    def attempted(self):
        return len(self.times)


def run_pass(ops, gate, stop, hash_ops, tracer=None) -> Pass:
    """Call ``cli.run`` on ``ops[i % len(ops)]`` for i = 0, 1, ... until
    ``stop(i, elapsed)``.  Only the call itself is timed; its output is then
    checked and the first ``hash_ops`` outputs are hashed."""
    from vaknh import cli
    from workloads import GateError

    result = Pass()
    start = time.perf_counter()
    i = 0
    while not stop(i, time.perf_counter() - start):
        op = ops[i % len(ops)]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.run(list(op.argv))
            except Exception:  # a crash is a failed op; keep measuring
                rc = "exception: " + traceback.format_exc()
            t1 = time.perf_counter()
        result.times.append(t1 - t0)
        text = out.getvalue()
        try:
            result.outputs.append(gate.check(op, rc, text))
        except GateError as exc:
            result.failures.append(f"op {i} ({' '.join(op.argv[:2])}): {exc}; "
                                   f"stderr: {err.getvalue().strip()[-500:]}")
        if i < hash_ops:
            result.digest.update(text.encode("utf-8") + b"\0")
            result.hashed += 1
        i += 1
    return result


def work_counts(workload, outputs):
    """(steps, records) summed over outputs.  A scan has no stepper, so on
    the scan workload each record counts as one step."""
    records = sum(o.records for o in outputs)
    if workload.kind == "scan":
        return records, records
    return sum(o.steps for o in outputs), records


def tail(times):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND ops beyond it, or None when there are too few ops."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _first(count):
    return lambda i, _elapsed: i >= count


def _traced_ops(workload, tiny):
    """Calls in the traced pass; the end-to-end run hashes the same ones."""
    return len(workload.models) * (1 if tiny else workload.trace_cycles)


def end_to_end(workload, ops, gate, seconds, tiny):
    """End-to-end metrics of an untraced run of ``seconds`` seconds."""
    from workloads import warmup_ops

    setup = setup_seconds(workload.models, 1 if tiny else SETUP_REPEATS)
    warm = run_pass(warmup_ops(workload), gate, _first(len(workload.models)), 0)
    cycle = len(workload.models)
    hash_ops = _traced_ops(workload, tiny)
    min_ops = max(hash_ops, TAIL_BEYOND + 1)

    def stop(i, elapsed):
        return i % cycle == 0 and i >= min_ops and elapsed >= seconds

    run = run_pass(ops, gate, stop, hash_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = sum(run.times)
    steps, records = work_counts(workload, run.outputs)
    tail_point = tail(run.times)
    tail_value, tail_pct = tail_point or (max(run.times), 100.0)
    metrics = {
        "setup_s": setup,
        "op_p50_s": statistics.median(run.times),
        "op_tail_s": tail_value,
        "steps_per_s": steps / wall,
        "records_per_s": records / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {"op_tail": {"percentile": tail_pct, "ops": run.attempted},
               "run_wall_s": wall}
    problems = [] if tail_point else [f"{run.attempted} calls leave no tail"]
    return metrics, details, [warm, run], problems


def hand_count():
    """Trace one rolling_penny random-p scan record.  Returns the sweeps it
    made and whether the span counts equal an independent profiler count of
    the same functions (which fails if a rebinding was missed)."""
    from spans import Tracer
    from vaknh import comparison, models

    sysdef = models.builtin("rolling_penny")
    box = models.CATALOG["rolling_penny"].sample_box
    sampler = comparison.Sampler(count=1, seed=0, q_bounds=tuple(box["q"]),
                                 v_bounds=tuple(box["v"]), p_bounds=tuple(box["p"]))
    with Tracer() as tracer:
        profiled = tracer.counted_calls(comparison.scan, sysdef, sampler)
    table = tracer.table()
    spanned = {name: table.calls(name) for name in tracer.names}
    return {"restricted_table": spanned.get("_jets.restricted_table", 0),
            "ambient_velocity_gradient": spanned.get("_jets.ambient_velocity_gradient", 0),
            "spans_match_profiler": spanned == profiled}


def per_layer(workload, ops, gate, tiny, seed):
    """Per-layer metrics from a traced pass over the first ``trace_cycles``
    cycles, after an untraced pass over the same calls."""
    from spans import Tracer
    from workloads import warmup_ops

    count = _traced_ops(workload, tiny)
    warm = run_pass(warmup_ops(workload), gate, _first(len(workload.models)), 0)
    plain = run_pass(ops, gate, _first(count), hash_ops=count)
    check = hand_count()
    tracer = Tracer()
    with tracer:
        traced = run_pass(ops, gate, _first(count), hash_ops=0, tracer=tracer)
    t = tracer.table()
    steps, records = work_counts(workload, traced.outputs)
    integrate_ops = t.calls("integrate.integrate")
    integration_steps = steps if workload.kind == "integrate" else 0
    samples = sum(op.samples for op in ops[:count])
    op_time = t.total("cli.run")
    sweeps = t.calls("_jets.restricted_table") + t.calls("_jets.ambient_velocity_gradient")
    rhs_in_integrate = t.calls_within(("vakonomic.vak_rhs", "nonholonomic.nh_rhs"),
                                      "integrate.integrate")
    us = 1e6
    metrics = {
        "jets.sweeps_per_step": sweeps / steps,
        "jets.sweeps_per_record": sweeps / records,
        "jets.restricted_table_us": t.per_call("_jets.restricted_table") * us,
        "jets.ambient_velocity_gradient_us":
            t.per_call("_jets.ambient_velocity_gradient") * us,
        "jets.busy_frac": (t.total("_jets.restricted_table")
                           + t.total("_jets.ambient_velocity_gradient")) / op_time,
        "vakonomic.vak_rhs_calls_per_step": t.calls("vakonomic.vak_rhs") / steps,
        "vakonomic.vak_rhs_self_us": t.per_call("vakonomic.vak_rhs", self_time=True) * us,
        "vakonomic.hamiltonian_us": t.per_call("vakonomic.hamiltonian") * us,
        "vakonomic.w1_momenta_us": t.per_call("vakonomic.w1_momenta") * us,
        "nonholonomic.nh_rhs_calls_per_step": t.calls("nonholonomic.nh_rhs") / steps,
        "nonholonomic.nh_rhs_self_us":
            t.per_call("nonholonomic.nh_rhs", self_time=True) * us,
        "nonholonomic.legendre_lift_per_record":
            t.calls("nonholonomic.legendre_lift") / records,
        "integrate.rhs_calls_per_step":
            rhs_in_integrate / integration_steps if integration_steps else 0.0,
        "integrate.steps_per_op":
            integration_steps / integrate_ops if integrate_ops else 0.0,
        "integrate.self_frac": t.self_total("integrate.integrate") / op_time,
        "integrate.to_csv_s": t.per_call("integrate.trajectory_to_csv"),
        "comparison.g_residuals_us": t.per_call("comparison.g_residuals") * us,
        "comparison.field_residual_us": t.per_call("comparison.field_residual") * us,
        "comparison.tangency_residuals_us":
            t.per_call("comparison.tangency_residuals") * us,
        "comparison.scan_self_frac": t.self_total("comparison.scan") / op_time,
        "comparison.to_json_s": t.per_call("comparison.to_json"),
        "comparison.skipped_frac":
            sum(o.skipped for o in traced.outputs) / samples if samples else 0.0,
        "system.load_system_us": t.per_call("system.load_system") * us,
        "system.verify_linearity_us": t.per_call("system.verify_linearity") * us,
        "cli.self_frac": t.self_total("cli.run") / op_time,
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv.gz"
    tracer.dump(spans_file)
    p50_plain = statistics.median(plain.times)
    p50_traced = statistics.median(traced.times)
    details = {
        "tracing": {
            "ops": count,
            "op_p50_untraced_s": p50_plain,
            "op_p50_traced_s": p50_traced,
            "overhead_s": p50_traced - p50_plain,
            "overhead_frac": (p50_traced - p50_plain) / p50_plain,
            "spans": len(tracer.starts),
            "spans_file": str(spans_file.relative_to(ROOT)),
            "hand_count_penny_scan_record": check,
        },
    }
    problems = ([] if check["spans_match_profiler"]
                else ["span counts differ from the profiler count"])
    return metrics, details, [warm, plain, traced], problems


def environment():
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy.__version__, "commit": commit}


def measure(workload_name, seed, seconds, trace, tiny=False):
    """Run one workload; return (result, details) as printed by ``main``."""
    from workloads import WORKLOADS, Gate, build_ops

    workload = WORKLOADS[workload_name]
    ops = build_ops(workload, seed, tiny=tiny)
    if trace:
        metrics, details, passes, problems = per_layer(workload, ops, Gate(), tiny, seed)
    else:
        metrics, details, passes, problems = end_to_end(workload, ops, Gate(), seconds, tiny)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    hashed = next(p for p in passes if p.hashed)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    details.update({
        "workload": workload_name, "seed": seed, "trace": int(trace),
        "environment": environment(),
        "failed_frac": failed / attempted,
        "failures": (problems + [f for p in passes for f in p.failures])[:20],
        "outputs_sha256": hashed.digest.hexdigest(), "hashed_ops": hashed.hashed,
    })
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vaknh" / "__init__.py").is_file():
        print(f"error: no vaknh source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vaknh

    if Path(vaknh.__file__).resolve().parent != SRC / "vaknh":
        print(f"error: imported vaknh from {vaknh.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
