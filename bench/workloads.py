"""Workload inputs and the output gate every operation must pass.

A workload is a seeded, cyclic list of ``vaknh`` command lines.  Operation
``i`` uses model ``i % len(models)``, so every complete cycle runs each model
once.  Integrate states are drawn from the model's
``CATALOG[...].sample_box`` in blocks of Latin hypercubes, so each run covers
the box evenly and medians stay steady from one seed to the next.  States are
passed as ``--q=<csv>`` because ``--q -0.3,0.5`` is rejected by argparse.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from vaknh import models
from vaknh.comparison import REPORT_SCHEMA
from vaknh.errors import VaknhError
from vaknh.integrate import trajectory_from_csv, trajectory_to_csv

HERE = Path(__file__).resolve().parent
CANDIDATES = HERE / "martinet.cand"

INTEGRATE_MODELS = ("rolling_penny", "martinet", "paramecium", "constrained_particle")
T_END = 10.0
# Largest accepted drift of the Hamiltonian H, relative to 1 + |H(0)|.
# Seed commit: at most ~4e-9 (rk45 at the default rtol 1e-9).
DRIFT_TOL = 1e-6
POOL_PER_MODEL = 64
BLOCK = 8


@dataclass(frozen=True)
class Op:
    kind: str                # "integrate" | "scan"
    model: str
    argv: tuple[str, ...]
    t_end: float = 0.0       # integrate (vakonomic rk45)
    samples: int = 0         # scan
    legendre: bool = False   # scan with --p-mode legendre


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "integrate" | "scan"
    models: tuple[str, ...]
    trace_cycles: int        # cycles in the traced pass (a fixed, seeded op list)


# No nonholonomic rk4 workload: with a third workload each run has to be too
# short to average out the minutes-long slow spells of a shared host
# (NOTES.md).
WORKLOADS = {
    w.name: w for w in (
        Workload("integrate-rk45-vak", "integrate", INTEGRATE_MODELS, trace_cycles=8),
        Workload("scan-mixed", "scan",
                 ("rolling_penny", "martinet", "von_neumann2"), trace_cycles=2),
    )
}

# Samples per scan call, chosen so the three calls cost about the same at
# the seed commit (von_neumann2 records are skipped early and are cheap).
SCAN_SAMPLES = {"rolling_penny": 1000, "martinet": 1000, "von_neumann2": 3000}


def _box_states(rng, box, keys, count):
    """``count`` states in the box entries named by ``keys``, each returned
    as one list per key.  Every block of BLOCK consecutive states is a Latin
    hypercube: each coordinate puts one state in each of BLOCK equal bins."""
    lo, hi = np.array([b for key in keys for b in box[key]]).T
    u = np.empty((count, len(lo)))
    for start in range(0, count, BLOCK):
        n = min(BLOCK, count - start)
        for d in range(len(lo)):
            u[start:start + n, d] = (rng.permutation(n) + rng.random(n)) / n
    points = (lo + u * (hi - lo)).tolist()
    sizes = np.cumsum([len(box[key]) for key in keys])[:-1]
    return [[list(part) for part in np.split(point, sizes)] for point in points]


def _csv(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def build_ops(workload: Workload, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's operations for ``seed``; ``tiny`` shrinks every
    operation to a few steps or samples (used by the self-tests)."""
    rng = np.random.default_rng(seed)
    count = 4 if tiny else POOL_PER_MODEL
    per_model = []
    for model in workload.models:
        box = models.CATALOG[model].sample_box
        if workload.kind == "integrate":
            t_end = 0.05 if tiny else T_END
            per_model.append([
                Op("integrate", model,
                   ("integrate", model, "--dynamics", "vak", "--t-end", repr(t_end),
                    f"--q={_csv(q)}", f"--v={_csv(v)}", f"--p={_csv(p)}"),
                   t_end=t_end)
                for q, v, p in _box_states(rng, box, ("q", "v", "p"), count)])
        else:
            samples = 10 if tiny else SCAN_SAMPLES[model]
            legendre = model == "martinet"
            extra = (("--p-mode", "legendre", "--candidates", str(CANDIDATES))
                     if legendre else ())
            per_model.append([
                Op("scan", model,
                   ("scan", model, "--samples", str(samples),
                    f"--seed={int(s)}", *extra),
                   samples=samples, legendre=legendre)
                for s in rng.integers(0, 2**31 - 1, count)])
    return [op for cycle in zip(*per_model) for op in cycle]


def warmup_ops(workload: Workload) -> list[Op]:
    """One tiny operation per model, run untimed before measuring."""
    return build_ops(workload, seed=0, tiny=True)[:len(workload.models)]


# ---------------------------------------------------------------------------
# Output gate
# ---------------------------------------------------------------------------


class GateError(Exception):
    pass


@dataclass(frozen=True)
class Output:
    steps: int     # accepted integration steps (0 for a scan)
    records: int   # CSV data rows, or scan records (evaluated or skipped)
    skipped: int   # skipped scan records


def _reject_constant(token):
    raise GateError(f"non-standard JSON token {token}")


class Gate:
    """Checks one operation's exit code and output."""

    def __init__(self):
        self._systems = {}
        self._validator = jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)

    def _system(self, model):
        if model not in self._systems:
            self._systems[model] = models.builtin(model)
        return self._systems[model]

    def check(self, op: Op, rc, text: str) -> Output:
        """Return the output's counts, or raise :class:`GateError`."""
        if rc != 0:
            raise GateError(f"exit code {rc}")
        if op.kind == "integrate":
            return self._check_csv(op, text)
        return self._check_report(op, text)

    def _check_csv(self, op, text):
        sysdef = self._system(op.model)
        try:
            traj = trajectory_from_csv(sysdef, text)
        except (VaknhError, ValueError, StopIteration, IndexError) as exc:
            raise GateError(f"CSV does not parse: {exc!r}") from None
        if trajectory_to_csv(sysdef, traj) != text:
            raise GateError("CSV does not re-emit byte-identically")
        columns = [traj.times, *traj.monitors.values()]
        columns += [np.concatenate([s.q, s.v, getattr(s, "p_dep", ())]) for s in traj.states]
        if not all(np.isfinite(c).all() for c in columns):
            raise GateError("CSV holds a non-finite value")
        if len(traj.times) < 2 or traj.times[-1] != op.t_end:
            raise GateError(f"last t is not --t-end {op.t_end!r}")
        series = traj.monitors.get("H")
        if series is None:
            raise GateError("monitor H missing")
        drift = float(np.max(np.abs(series - series[0])))
        if not drift <= DRIFT_TOL * (1.0 + abs(series[0])):
            raise GateError(f"H drift {drift!r} exceeds tolerance")
        return Output(steps=len(traj.times) - 1, records=len(traj.times), skipped=0)

    def _check_report(self, op, text):
        try:
            report = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise GateError(f"report is not JSON: {exc}") from None
        error = jsonschema.exceptions.best_match(self._validator.iter_errors(report))
        if error is not None:
            raise GateError(f"report fails REPORT_SCHEMA: {error.message}")
        summary = report["summary"]
        if not (summary["samples"] == op.samples == len(report["records"])
                == summary["evaluated"] + summary["skipped"]):
            raise GateError("evaluated + skipped != samples")
        if op.legendre and summary["fraction_deltay_below_tol"] != 1:
            raise GateError("vak and nh fields differ at p = Leg_dep")
        for record in report["records"]:
            values = [*(record["g"] or ()), *(record["deltaY"] or ()),
                      *record["tangency"].values()]
            if not all(map(math.isfinite, values)):
                raise GateError(f"non-finite value in record {record['index']}")
        return Output(steps=0, records=summary["samples"], skipped=summary["skipped"])
