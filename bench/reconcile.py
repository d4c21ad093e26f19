"""Traced counterparts of the ad-hoc baseline numbers quoted in ROADMAP.md.

    python3 bench/reconcile.py

Prints, for the checkout's source:

* ``restricted_table`` time per call, per model, over traced vakonomic rk45
  runs to t = 10 (the first Latin-hypercube block of integrate-rk45-vak,
  seed 0);
* steps, rhs calls and jet sweeps of each rolling_penny run in that block;
* the untraced wall time of ``vaknh scan rolling_penny --samples 400``
  (median of five calls).

``NOTES.md`` records the output on the seed commit next to the ROADMAP
figures.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time

import run  # sets the thread caps before numpy is imported

sys.path.insert(0, str(run.SRC))

from spans import Tracer  # noqa: E402
from vaknh import cli  # noqa: E402
from workloads import BLOCK, WORKLOADS, build_ops  # noqa: E402


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli.run(list(argv)) != 0:
            raise SystemExit(f"vaknh {' '.join(argv)} failed")
    return out.getvalue()


def main():
    workload = WORKLOADS["integrate-rk45-vak"]
    ops = build_ops(workload, 0)[:BLOCK * len(workload.models)]
    per_model, penny = {}, []
    for op in ops:
        tracer = Tracer()
        with tracer:
            text = _call(op.argv)
        t = tracer.table()
        per_model.setdefault(op.model, []).append(
            (t.total("_jets.restricted_table"), t.calls("_jets.restricted_table")))
        if op.model == "rolling_penny":
            steps = text.count("\n") - 2
            sweeps = t.calls("_jets.restricted_table") + t.calls("_jets.ambient_velocity_gradient")
            penny.append({"steps": steps,
                          "rhs_calls": t.calls("vakonomic.vak_rhs"),
                          "stepper_rhs_calls": t.calls("vakonomic.vak_rhs") - steps - 1,
                          "sweeps": sweeps,
                          "sweeps_per_step": sweeps / steps})
    restricted_us = {model: 1e6 * sum(s for s, _ in v) / sum(n for _, n in v)
                     for model, v in per_model.items()}

    argv = ("scan", "rolling_penny", "--samples", "400", "--seed", "7")
    _call(argv)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _call(argv)
        times.append(time.perf_counter() - t0)
    print(json.dumps({"restricted_table_us": restricted_us,
                      "penny_vak_rk45_runs": penny,
                      "penny_scan_400_s": statistics.median(times)}, indent=2))


if __name__ == "__main__":
    main()
