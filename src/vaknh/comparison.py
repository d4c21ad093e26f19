"""Comparison of the vakonomic and nonholonomic dynamics.

The two flows live on different spaces but project onto each other through
``upsilon``.  Pointwise agreement of the projected fields is measured by

* ``field_residual``: the difference of base accelerations (any
  constraints);
* ``g_residuals``: for linear constraints, the closed-form functions
  g_b = v_a (p_dep - Leg_dep) . R[dep, a, b] whose vanishing cuts out the
  agreement set; ``curvature`` supplies the integrability tensor R of the
  constraint distribution (R = 0 exactly for holonomic constraints, making
  the comparison trivial);
* ``tangency_residuals``: directional derivative of user-named candidate
  constraint functions along the vakonomic field, for checking
  flow-invariance of proposed agreement submanifolds;
* :func:`vaknh.nonholonomic.euler_lagrange_residual`: the ambient
  Euler-Lagrange residual, zero exactly on free solutions (which solve
  both problems simultaneously when they satisfy the constraints).

Each quantity has one implementation in the package, a phase over stacked
states (``_Lanes``) that runs the array form of the generated kernels
(:mod:`vaknh._jets`) and one stacked determinant and solve per field.
``scan`` runs the phases over batches of ``BATCH`` sampled states and
aggregates the records into a JSON-serializable report.  ``compare_state``
(the ``compare`` command) and the functions above run them on a stack of
one state, so they agree with ``scan`` by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import expr as _expr
from ._jets import (_kernel, ambient_velocity_gradient, completion, gradient_kernel,
                    restricted_table, run_lanes)
from .errors import EvalError, SingularMatrixError, VaknhError
from .system import NhState, SystemDef, VakState, check_state, require_linear
from .vakonomic import _reduced_lanes, _singular_message

__all__ = [
    "ComparisonRecord",
    "ComparisonReport",
    "Sampler",
    "REPORT_SCHEMA",
    "curvature",
    "g_residuals",
    "field_residual",
    "tangency_residuals",
    "compare_state",
    "parse_candidates",
    "scan",
]


def curvature(sys: SystemDef, q) -> np.ndarray:
    """Integrability tensor R[dep, a, b] of the (linear) constraint
    distribution viewed as a connection over the base coordinates:

        R = d(psi_b)/dq_a - d(psi_a)/dq_b
            + psi_a . d(psi_b)/dq_dep - psi_b . d(psi_a)/dq_dep

    with psi_a = dpsi/dv_a.  Exactly antisymmetric in (a, b) by assembly.
    """
    require_linear(sys, "curvature")
    q = np.asarray(q, dtype=float)
    if len(q) != sys.n:
        raise ValueError(f"expected {sys.n} positions, got {len(q)}")
    return _one(sys, VakState(q, np.zeros(sys.n - sys.m), np.zeros(sys.m)),
                _Lanes.curvature)[0]


def g_residuals(sys: SystemDef, s: VakState) -> np.ndarray:
    """Closed-form agreement functions for linear constraints, indexed by
    the base coordinates in declaration order:

        g_b = v_a (p_dep - Leg_dep)_k R[k, a, b]
    """
    require_linear(sys, "g_residuals")
    return _one(sys, s, _Lanes.g)[0]


def field_residual(sys: SystemDef, s: VakState) -> np.ndarray:
    """Difference of base accelerations between the vakonomic field at ``s``
    and the nonholonomic field at its projection.  Defined for nonlinear
    constraints too, unlike ``g_residuals``."""
    return _one(sys, s, lambda lanes: lanes.vak()[1] - lanes.nh())[0]


def candidate_variables(sys: SystemDef) -> set[str]:
    """Variable names a candidate constraint expression may use."""
    return set(sys.state_names)


def _non_state(sys, candidates) -> EvalError | None:
    """The error of the first candidate that uses a variable that is not a
    state variable, if any."""
    allowed = candidate_variables(sys)
    for name, g in candidates.items():
        extra = _expr.free_vars(g) - allowed
        if extra:
            return EvalError(f"candidate {name!r} uses non-state variable(s) {sorted(extra)}")


def tangency_residuals(sys: SystemDef, candidates: dict[str, _expr.Expression],
                       s: VakState) -> dict[str, float]:
    """Directional derivative of each candidate function along the vakonomic
    field.  A candidate cuts out a flow-invariant set at ``s`` when both its
    value and this residual vanish there."""
    out = _one(sys, s, lambda lanes: lanes.tangency(candidates))
    return {name: values[0] for name, values in out.items()}


def compare_state(sys: SystemDef, s: VakState, candidates=None) -> dict:
    """``g`` (None for nonlinear constraints), ``deltaY``, ``tangency`` and
    the two fields' base accelerations ``vak_dv`` and ``nh_dv`` at one
    state, from one evaluation of the phases of a ``scan`` record; raises
    the error that ``scan`` gives as the record's skip reason."""
    g, dv, nh_dv, tangency = _one(sys, s, lambda lanes: lanes.record(candidates))
    return {"g": None if g is None else g[0].tolist(), "deltaY": (dv - nh_dv)[0].tolist(),
            "tangency": {name: values[0] for name, values in tangency.items()},
            "vak_dv": dv[0].tolist(), "nh_dv": nh_dv[0].tolist()}


def parse_candidates(text: str) -> dict[str, _expr.Expression]:
    """Parse a candidates file: one ``name = expression`` per line,
    ``#`` comments allowed."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, eq, body = line.partition("=")
        name = name.strip()
        if not eq or not name:
            raise VaknhError(f"candidates line {lineno}: expected 'name = expression'")
        out[name] = _expr.parse(body.strip())
    return out


# ---------------------------------------------------------------------------
# Region scan
# ---------------------------------------------------------------------------


# Samples evaluated together by ``scan``.  Each line of a generated array
# kernel holds one array of this many lanes until the kernel returns, so a
# batch's memory grows with it; past a few thousand lanes a larger batch is
# no faster.
BATCH = 4096


@dataclass(frozen=True)
class Sampler:
    """Sampling plan for ``scan``: per-coordinate box bounds and the
    multiplier mode (``random`` draws from p_bounds, ``legendre`` sets
    p_dep to the Legendre momenta of the sampled velocity)."""

    count: int
    seed: int
    q_bounds: tuple[tuple[float, float], ...]  # n pairs
    v_bounds: tuple[tuple[float, float], ...]  # n-m pairs
    p_bounds: tuple[tuple[float, float], ...] = ()  # m pairs (random mode)
    p_mode: str = "random"


@dataclass
class ComparisonRecord:
    index: int
    q: list
    v: list
    p_dep: list
    g: list | None = None
    delta_y: list | None = None
    tangency: dict = field(default_factory=dict)
    skipped: str | None = None


@dataclass
class ComparisonReport:
    system: str
    records: list
    summary: dict

    def to_json_dict(self) -> dict:
        return {
            "system": self.system,
            "summary": dict(self.summary),
            "records": [
                {
                    "index": r.index,
                    "q": r.q,
                    "v": r.v,
                    "p": r.p_dep,
                    "g": r.g,
                    "deltaY": r.delta_y,
                    "tangency": r.tangency,
                    "skipped": r.skipped,
                }
                for r in self.records
            ],
        }

    def to_json(self, indent=None) -> str:
        """The report as strict JSON; a NaN or an infinity raises ValueError.

        Written directly from the records, byte for byte what
        ``json.dumps(self.to_json_dict(), indent=indent, allow_nan=False)``
        writes.  A non-finite number, or a value of a kind the writer does
        not know, is left to ``json.dumps``, which raises its own error or
        writes the value."""
        try:
            return _JsonWriter(indent).report(self)
        except (_Unwritable, ValueError):
            return json.dumps(self.to_json_dict(), indent=indent, allow_nan=False)


class _Unwritable(Exception):
    """A value ``_JsonWriter`` leaves to ``json.dumps``."""


class _JsonWriter:
    """The output of ``json.dumps(..., indent=indent)`` for finite numbers,
    strings, booleans, None and str-keyed dicts and lists of them; a value
    at ``level`` is nested in that many containers."""

    def __init__(self, indent):
        if indent is not None and not isinstance(indent, str):
            indent = " " * indent
        self.indent = indent

    def report(self, report: ComparisonReport) -> str:
        return self.join("{", [
            f'"system": {self.value(report.system, 1)}',
            f'"summary": {self.value(dict(report.summary), 1)}',
            f'"records": {self.join("[", self.records(report.records, 2), "]", 1)}',
        ], "}", 0)

    def records(self, records, level) -> list[str]:
        """Comparison records written at ``level``."""
        columns = [self.number_lists([getattr(r, attr) for r in records], level + 1)
                   for attr in ("q", "v", "p_dep", "g", "delta_y")]
        scalar, value = self.scalar, self.value
        return [self.join("{", [
            f'"index": {scalar(r.index)}', f'"q": {q}', f'"v": {v}', f'"p": {p}',
            f'"g": {g}', f'"deltaY": {dy}',
            f'"tangency": {value(r.tangency, level + 1) if r.tangency != {} else "{}"}',
            f'"skipped": {"null" if r.skipped is None else scalar(r.skipped)}'], "}", level)
            for r, q, v, p, g, dy in zip(records, *columns)]

    def number_lists(self, lists, level) -> list[str]:
        """Each of ``lists``, a list of ints and floats or None, written at
        ``level``: the numbers of all of them by one call of json's C
        encoder, which raises ValueError on a non-finite number."""
        present = [x for x in lists if x is not None]
        if not (all(type(x) is list for x in present)
                and set(map(type, chain.from_iterable(present))) <= {float, int}):
            raise _Unwritable
        if self.indent is None:
            sep, open_, close = ", ", "[", "]"
        else:
            open_ = "[\n" + self.indent * (level + 1)
            sep, close = "," + open_[1:], "\n" + self.indent * level + "]"
        text = json.JSONEncoder(separators=(sep, ": "), allow_nan=False).encode(present)
        bodies = iter(text[2:-2].split("]" + sep + "[") if present else ())
        out = []
        for x in lists:
            body = None if x is None else next(bodies)
            out.append("null" if x is None else open_ + body + close if body else "[]")
        return out

    def scalar(self, x) -> str:
        if isinstance(x, float):
            if not math.isfinite(x):
                raise _Unwritable
            return float.__repr__(x)
        if isinstance(x, str):
            return _encode_str(x)
        if x is None:
            return "null"
        if x is True:
            return "true"
        if x is False:
            return "false"
        if isinstance(x, int):
            return int.__repr__(x)
        raise _Unwritable

    def value(self, x, level) -> str:
        if isinstance(x, dict):
            items = []
            for key, item in x.items():
                if not isinstance(key, str):
                    raise _Unwritable
                items.append(f"{_encode_str(key)}: {self.value(item, level + 1)}")
            return self.join("{", items, "}", level)
        if isinstance(x, (list, tuple)):
            return self.join("[", [self.value(item, level + 1) for item in x], "]", level)
        return self.scalar(x)

    def join(self, open_, items, close, level) -> str:
        """A container of written ``items``."""
        if not items:
            return open_ + close
        if self.indent is None:
            return open_ + ", ".join(items) + close
        inner = "\n" + self.indent * (level + 1)
        return f"{open_}{inner}{(',' + inner).join(items)}\n{self.indent * level}{close}"


REPORT_SCHEMA = {
    "type": "object",
    "required": ["system", "summary", "records"],
    "properties": {
        "system": {"type": "string"},
        "summary": {
            "type": "object",
            "required": ["samples", "evaluated", "skipped", "tol", "seed", "p_mode",
                         "fraction_g_below_tol", "fraction_deltay_below_tol"],
            "properties": {
                "samples": {"type": "integer"},
                "evaluated": {"type": "integer"},
                "skipped": {"type": "integer"},
                "tol": {"type": "number"},
                "seed": {"type": "integer"},
                "p_mode": {"enum": ["random", "legendre"]},
                "fraction_g_below_tol": {"type": ["number", "null"]},
                "fraction_deltay_below_tol": {"type": ["number", "null"]},
            },
        },
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["index", "q", "v", "p", "g", "deltaY", "tangency", "skipped"],
                "properties": {
                    "index": {"type": "integer"},
                    "q": {"type": "array", "items": {"type": "number"}},
                    "v": {"type": "array", "items": {"type": "number"}},
                    "p": {"type": "array", "items": {"type": "number"}},
                    "g": {"type": ["array", "null"], "items": {"type": "number"}},
                    "deltaY": {"type": ["array", "null"], "items": {"type": "number"}},
                    "tangency": {"type": "object",
                                 "additionalProperties": {"type": "number"}},
                    "skipped": {"type": ["string", "null"]},
                },
            },
        },
    },
}


class _Lanes:
    """The comparison phases over stacked states (q, v, p), one per row
    (lane); in legendre mode ``p`` is None and becomes the Legendre lift.

    A lane keeps the first error of the phases run on it in ``events``: an
    :class:`EvalError`, or (what, det) for a singular matrix; its results
    are not defined then.  Where a kernel marks a lane, the sweep of that
    kernel explains it (``Sweep.explain``): it runs its own evaluation at
    that one state, through the interpreter, only for the error it raises.
    """

    def __init__(self, sys, q, v, p):
        self.sys, self.q, self.v, self.p = sys, q, v, p
        self.events = [None] * len(q)
        self.done = np.zeros(len(q), dtype=bool)   # lanes with an error
        if p is None:
            self.p = self.lift()

    def mark(self, bad, event):
        """Give each lane in ``bad`` without an error yet ``event(lane)``."""
        for i in np.flatnonzero(bad & ~self.done).tolist():
            self.events[i] = event(i)
        self.done |= bad

    def fail(self, bad, sweep, *blocks):
        """Give each lane in ``bad`` without an error yet the error that
        ``sweep`` explains at that lane's state, its row of ``blocks``, the
        stacked arguments of the kernel that marked it."""
        def error(i):
            try:
                sweep.explain(*chain.from_iterable(block[i].tolist() for block in blocks))
            except EvalError as exc:
                return exc

        self.mark(bad, error)

    def lift(self):
        """The Legendre momenta Leg_dep: completion, then the Legendre map."""
        sys, q, v = self.sys, self.q, self.v
        dependent, failed = completion(sys, q, v)
        vfull = np.empty((len(q), sys.n))
        vfull[:, sys.base_positions] = v
        vfull[:, sys.dependent_positions] = dependent
        lift, bad = ambient_velocity_gradient(sys, q, vfull)
        self.fail(failed, _kernel(sys, "completion"), q, v)
        self.fail(bad, _kernel(sys, "velocity_gradient"), q, vfull)
        return lift[:, sys.dependent_positions]

    def curvature(self):
        """``curvature`` in matrix form."""
        sys, q = self.sys, self.q
        n, m, base, dep = sys.n, sys.m, sys.base_positions, sys.dependent_positions
        v = np.zeros((len(q), n - m))
        tab, bad = restricted_table(sys, q, v)
        self.fail(bad, _kernel(sys, "restricted"), q, v)
        psi_v = tab.grads[:, :m, n:]
        h = tab.hessians[:, :m, :n, n:]
        a_mat = h[:, :, base] + psi_v.transpose(0, 2, 1)[:, None] @ h[:, :, dep]
        return a_mat - a_mat.transpose(0, 1, 3, 2)

    def g(self):
        """``g_residuals``: the curvature, then the Legendre lift."""
        r = self.curvature()
        return _contract_g(self.v, self.p - self.lift(), r)

    def field(self, mult, what):
        """dq, dv and dp of the field with multipliers ``mult``, matrix ``what``."""
        sys, q, v = self.sys, self.q, self.v
        tab, bad = restricted_table(sys, q, v)
        self.fail(bad, _kernel(sys, "restricted"), q, v)
        dq, dv, dp, det, singular = _reduced_lanes(sys, tab, v, mult, self.done)
        dets = det.tolist()
        self.mark(singular, lambda i: (what, dets[i]))
        return dq, dv, dp

    def vak(self):
        return self.field(self.p, "vakonomic matrix")

    def nh(self):
        """dv of the nonholonomic field: the Legendre lift, then the field."""
        return self.field(self.lift(), "nonholonomic matrix")[1]

    def tangency(self, candidates, vak=None):
        """``tangency_residuals`` along the vakonomic field ``vak`` (dq, dv,
        dp), evaluated here if not given: one list of values per candidate,
        from one gradient kernel of all candidates."""
        sys, q, v, p = self.sys, self.q, self.v, self.p
        error = _non_state(sys, candidates)
        if error is not None:
            self.mark(np.ones(len(q), dtype=bool), lambda i: error)
            return {}
        dq, dv, dp = vak or self.vak()
        # The candidate variables, in the order of the columns of q, v and p.
        names = sys.state_names
        flow = dict(zip(names, [*dq.T, *dv.T, *dp.T]))
        used = {name: sorted(_expr.free_vars(g)) for name, g in candidates.items()}
        # A candidate with no variables is never evaluated: its residual is 0.
        trees = [name for name in candidates if used[name]]
        seeded = sorted(set().union(*used.values()))
        if trees:
            sweep = gradient_kernel([candidates[name] for name in trees], names, seeded)
            grads, bad = run_lanes(sweep, q, v, p)
            self.fail(bad, sweep, q, v, p)
        k = len(seeded)
        out = {}
        for name in candidates:
            total = 0.0
            for var in used[name]:
                total = total + grads[:, trees.index(name) * k + seeded.index(var)] * flow[var]
            out[name] = total.tolist() if used[name] else [0.0] * len(q)
        return out

    def record(self, candidates):
        """The phases of a comparison record, in order: g (None unless the
        constraints are linear), the base accelerations of the vakonomic and
        of the nonholonomic field, and the tangency residuals."""
        g = self.g() if self.sys.linear else None
        vak = self.vak()
        nh_dv = self.nh()
        return g, vak[1], nh_dv, self.tangency(candidates, vak) if candidates else {}


def _one(sys, s, run):
    """``run(lanes)`` on the stack of the one state ``s``, which it checks.
    Raises the first error of the phases it ran; a singular matrix with the
    state of its field, ``s`` or its projection."""
    check_state(sys, s)
    with np.errstate(all="ignore"):
        lanes = _Lanes(sys, *(np.asarray(x, dtype=float)[None] for x in (s.q, s.v, s.p_dep)))
        out = run(lanes)
    event = lanes.events[0]
    if isinstance(event, tuple):
        what, det = event
        event = SingularMatrixError(_singular_message(sys, what, det), det,
                                    s if what == "vakonomic matrix" else NhState(s.q, s.v))
    if event is not None:
        raise event
    return out


def _contract_g(v, delta, r):
    """g_b = v_a delta_k R[k, a, b] of stacked states, summed in a fixed
    order, so each lane's result does not depend on the others."""
    g = np.zeros_like(v)
    for k in range(delta.shape[1]):
        for a in range(v.shape[1]):
            g = (v[:, a] * delta[:, k])[:, None] * r[:, k, a] + g
    return g


def _scan_lanes(sys, first, q, v, p, candidates) -> list:
    """The records of the stacked samples (q, v, p), numbered from
    ``first``; ``p`` is None in legendre mode.  A record with an error is
    skipped with its text, and without p when the Legendre lift failed."""
    lanes = _Lanes(sys, q, v, p)
    unlifted = lanes.done.tolist()
    g, dv, nh_dv, tangency = lanes.record(candidates)
    qs, vs, ps = q.tolist(), v.tolist(), lanes.p.tolist()
    gs = [None] * len(q) if g is None else g.tolist()
    deltas = (dv - nh_dv).tolist()
    records = []
    for i, event in enumerate(lanes.events):
        if event is None:
            records.append(ComparisonRecord(
                index=first + i, q=qs[i], v=vs[i], p_dep=ps[i], g=gs[i], delta_y=deltas[i],
                tangency={name: values[i] for name, values in tangency.items()}))
        else:
            reason = (str(event) if isinstance(event, EvalError)
                      else _singular_message(sys, *event))
            records.append(ComparisonRecord(index=first + i, q=qs[i], v=vs[i],
                                            p_dep=[] if unlifted[i] else ps[i],
                                            skipped=reason))
    return records


def _draw(sys, sampler):
    """The sampled (q, v, p) of every sample as stacked arrays; p is None in
    legendre mode.  One draw, in the order of one state after the other and
    of q, v, p within a state."""
    bounds = [*sampler.q_bounds, *sampler.v_bounds]
    if sampler.p_mode == "random":
        bounds += sampler.p_bounds
    lows, highs = np.array(bounds, dtype=float).T
    x = np.random.default_rng(sampler.seed).uniform(
        lows, highs, (sampler.count, len(bounds)))
    n, nb = sys.n, sys.n - sys.m
    return x[:, :n], x[:, n:n + nb], (x[:, n + nb:] if sampler.p_mode == "random" else None)


def scan(sys: SystemDef, sampler: Sampler, candidates=None, tol: float = 1e-10) -> ComparisonReport:
    """Evaluate the comparison residuals over sampled states.

    Per-state evaluation errors (domain errors, singular matrices) mark the
    record as skipped rather than aborting the scan.  Summary fractions are
    computed over the successfully evaluated records only.

    The samples are evaluated in batches of ``BATCH``, each phase once over
    the stacked samples of a batch (``_scan_lanes``).  A record's skip
    reason is the error the per-state functions raise at its state.
    """
    if sampler.count < 1:
        raise ValueError(f"sample count must be at least 1, got {sampler.count}")
    if sampler.p_mode not in ("random", "legendre"):
        raise ValueError(f"p_mode must be 'random' or 'legendre', got {sampler.p_mode!r}")
    nb = sys.n - sys.m
    if len(sampler.q_bounds) != sys.n or len(sampler.v_bounds) != nb:
        raise ValueError("sampler bounds do not match the system dimensions")
    if sampler.p_mode == "random" and len(sampler.p_bounds) != sys.m:
        raise ValueError("random p mode needs one bounds pair per dependent coordinate")

    q, v, p = _draw(sys, sampler)
    records = []
    with np.errstate(all="ignore"):
        for first in range(0, sampler.count, BATCH):
            part = slice(first, first + BATCH)
            records += _scan_lanes(sys, first, q[part], v[part],
                                   None if p is None else p[part], candidates)

    evaluated = [r for r in records if r.skipped is None]
    def fraction(read):
        values = [read(r) for r in evaluated]
        if not values or any(v is None for v in values):
            return None
        return sum(1 for v in values if v < tol) / len(values)

    summary = {
        "samples": sampler.count,
        "evaluated": len(evaluated),
        "skipped": len(records) - len(evaluated),
        "tol": tol,
        "seed": sampler.seed,
        "p_mode": sampler.p_mode,
        "fraction_g_below_tol": fraction(
            lambda r: max(map(abs, r.g)) if r.g is not None else None),
        "fraction_deltay_below_tol": fraction(
            lambda r: max(map(abs, r.delta_y))),
    }
    return ComparisonReport(system=sys.name, records=records, summary=summary)
