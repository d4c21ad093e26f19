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

``scan`` samples a box in state space, evaluates all applicable residuals
per state and aggregates the results into a JSON-serializable report.  It
evaluates the samples in batches of ``BATCH``: each phase runs once over
the stacked states of a batch, on the array form of the generated kernels
(:mod:`vaknh._jets`), with one stacked determinant and solve per field.  The per-state functions
above stay the reference: a sample that a kernel marks as failed is
evaluated by them, and the report equals theirs byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import expr as _expr
from ._jets import ambient_velocity_gradient, completion, restricted_table, run_lanes
from ._kernel import compile_gradients
from .autodiff import partial
from .errors import EvalError, SingularMatrixError, VaknhError
from .maps import upsilon
from .nonholonomic import NhState, _dependent_momenta, nh_rhs
from .system import SystemDef, VakState, check_state, require_linear, state_env
from .vakonomic import _reduced_lanes, _singular_message, vak_rhs

__all__ = [
    "ComparisonRecord",
    "ComparisonReport",
    "Sampler",
    "REPORT_SCHEMA",
    "curvature",
    "g_residuals",
    "field_residual",
    "tangency_residuals",
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
    n, m, base, dep = sys.n, sys.m, sys.base_positions, sys.dependent_positions
    tab = restricted_table(sys, q, np.zeros(n - m))
    # psi_v[k, a] = coefficient of v_a in psi_k; h[k, A, b] = d(psi_v[k, b])/dq_A
    psi_v = tab.grads[:m, n:]
    h = tab.hessians[:m, :n, n:]
    a_mat = h[:, base] + psi_v.T @ h[:, dep]
    return a_mat - a_mat.transpose(0, 2, 1)


def g_residuals(sys: SystemDef, s: VakState) -> np.ndarray:
    """Closed-form agreement functions for linear constraints, indexed by
    the base coordinates in declaration order:

        g_b = v_a (p_dep - Leg_dep)_k R[k, a, b]
    """
    require_linear(sys, "g_residuals")
    check_state(sys, s)
    r = curvature(sys, s.q)
    delta = s.p_dep - _dependent_momenta(sys, s)
    return _contract_g(s.v[None], delta[None], r[None])[0]


def field_residual(sys: SystemDef, s: VakState) -> np.ndarray:
    """Difference of base accelerations between the vakonomic field at ``s``
    and the nonholonomic field at its projection.  Defined for nonlinear
    constraints too, unlike ``g_residuals``."""
    check_state(sys, s)
    vak = vak_rhs(sys, s)
    nh = nh_rhs(sys, upsilon(sys, s))
    return vak.dv - nh.dv


def candidate_variables(sys: SystemDef) -> set[str]:
    """Variable names a candidate constraint expression may use."""
    return (set(sys.coords)
            | {sys.velocity_of(c) for c in sys.base}
            | {"p_" + c for c in sys.dependent})


def tangency_residuals(sys: SystemDef, candidates: dict[str, _expr.Expression],
                       s: VakState) -> dict[str, float]:
    """Directional derivative of each candidate function along the vakonomic
    field.  A candidate cuts out a flow-invariant set at ``s`` when both its
    value and this residual vanish there."""
    check_state(sys, s)
    allowed = candidate_variables(sys)
    for name, g in candidates.items():
        extra = _expr.free_vars(g) - allowed
        if extra:
            raise EvalError(
                f"candidate {name!r} uses non-state variable(s) {sorted(extra)}")
    deriv = vak_rhs(sys, s)
    env = state_env(sys, s)
    flow = {}
    for i, c in enumerate(sys.coords):
        flow[c] = deriv.dq[i]
    for a, c in enumerate(sys.base):
        flow[sys.velocity_of(c)] = deriv.dv[a]
    for k, c in enumerate(sys.dependent):
        flow["p_" + c] = deriv.dp_dep[k]
    out = {}
    for name, g in candidates.items():
        total = 0.0
        for var in sorted(_expr.free_vars(g)):
            total += partial(g, env, var) * flow[var]
        out[name] = float(total)
    return out


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


def _evaluate_one(sys, i, q, v, p, candidates, linear) -> ComparisonRecord:
    """One record, evaluated state by state with the per-state functions: the
    reference the batched evaluation reproduces.  ``p`` is None in legendre
    mode."""
    try:
        if p is None:
            p = _dependent_momenta(sys, NhState(q, v))
        s = VakState(q, v, p)
        record = ComparisonRecord(index=i, q=list(map(float, q)),
                                  v=list(map(float, v)),
                                  p_dep=list(map(float, p)))
        if linear:
            record.g = [float(x) for x in g_residuals(sys, s)]
        record.delta_y = [float(x) for x in field_residual(sys, s)]
        if candidates:
            record.tangency = tangency_residuals(sys, candidates, s)
        return record
    except (EvalError, SingularMatrixError) as exc:
        return ComparisonRecord(index=i, q=list(map(float, q)),
                                v=list(map(float, v)),
                                p_dep=[] if p is None else list(map(float, p)),
                                skipped=str(exc))


def _lift_lanes(sys, q, v):
    """Legendre lifts of stacked states (completion, then the Legendre
    map) and the mask of lanes where a kernel failed."""
    dependent, failed = completion(sys, q, v)
    vfull = np.empty((len(q), sys.n))
    vfull[:, sys.base_positions] = v
    vfull[:, sys.dependent_positions] = dependent
    lift, bad = ambient_velocity_gradient(sys, q, vfull)
    return lift, failed | bad


def _g_lanes(sys, q, v, p):
    """``g_residuals`` of stacked states, with ``curvature`` in the same
    matrix form, and the mask of lanes where a kernel failed."""
    n, m, base, dep = sys.n, sys.m, sys.base_positions, sys.dependent_positions
    tab, failed = restricted_table(sys, q, np.zeros_like(v))
    psi_v = tab.grads[:, :m, n:]
    h = tab.hessians[:, :m, :n, n:]
    a_mat = h[:, :, base] + psi_v.transpose(0, 2, 1)[:, None] @ h[:, :, dep]
    r = a_mat - a_mat.transpose(0, 1, 3, 2)
    lift, bad = _lift_lanes(sys, q, v)
    return _contract_g(v, p - lift[:, dep], r), failed | bad


def _contract_g(v, delta, r):
    """g_b = v_a delta_k R[k, a, b] of stacked states, summed in a fixed
    order, so each lane's result does not depend on the others: the
    per-state ``g_residuals`` is this on a stack of one."""
    g = np.zeros_like(v)
    for k in range(delta.shape[1]):
        for a in range(v.shape[1]):
            g = (v[:, a] * delta[:, k])[:, None] * r[:, k, a] + g
    return g


def _tangency_lanes(sys, candidates, q, v, p, dq, dv, dp):
    """``tangency_residuals`` of stacked states along their vakonomic
    field (dq, dv, dp): one value column per candidate, from one gradient
    kernel of all candidates, and the mask of lanes where it failed."""
    # The candidate variables, in the order of the columns of q, v and p.
    names = [*sys.coords, *map(sys.velocity_of, sys.base),
             *("p_" + c for c in sys.dependent)]
    flow = dict(zip(names, [*dq.T, *dv.T, *dp.T]))
    used = {name: sorted(_expr.free_vars(g)) for name, g in candidates.items()}
    # A candidate with no variables is never evaluated: its residual is 0.
    trees = [name for name in candidates if used[name]]
    seeded = sorted(set().union(*used.values()))
    failed = np.zeros(len(q), dtype=bool)
    if trees:
        sweep = compile_gradients([candidates[name] for name in trees], names, seeded)
        grads, failed = run_lanes(sweep, q, v, p)
    k = len(seeded)
    out = {}
    for name in candidates:
        total = 0.0
        for var in used[name]:
            total = total + grads[:, trees.index(name) * k + seeded.index(var)] * flow[var]
        out[name] = total.tolist() if used[name] else [0.0] * len(q)
    return out, failed


def _scan_lanes(sys, first, q, v, p, candidates, linear) -> list:
    """The records of the stacked samples (q, v, p), numbered from
    ``first``, evaluated one phase at a time over all of them; ``p`` is None
    in legendre mode.  A lane where a kernel failed is None: the per-state
    functions evaluate it instead.

    The phases follow ``_evaluate_one``: the Legendre lift (legendre mode),
    curvature and g, the vakonomic field, the nonholonomic field at
    ``upsilon``, and the tangency residuals.  Each phase runs the sweeps its
    per-state function runs, and a lane keeps the first singular matrix in
    that order as its skip reason.
    """
    dep = sys.dependent_positions
    failed = np.zeros(len(q), dtype=bool)
    if p is None:
        lift, failed = _lift_lanes(sys, q, v)
        p = lift[:, dep]
    if linear:
        g, bad = _g_lanes(sys, q, v, p)
        failed |= bad
    tab, bad = restricted_table(sys, q, v)
    failed |= bad
    dq, dv, dp, vak_det, vak_singular = _reduced_lanes(sys, tab, v, p, failed)
    lift, bad = _lift_lanes(sys, q, v)
    failed |= bad
    tab, bad = restricted_table(sys, q, v)
    failed |= bad
    _, nh_dv, _, nh_det, nh_singular = _reduced_lanes(
        sys, tab, v, lift[:, dep], failed | vak_singular)
    tangency = {}
    if candidates:
        tangency, bad = _tangency_lanes(sys, candidates, q, v, p, dq, dv, dp)
        failed |= bad

    qs, vs, ps = q.tolist(), v.tolist(), p.tolist()
    gs = g.tolist() if linear else [None] * len(q)
    deltas = (dv - nh_dv).tolist()
    vak_det, nh_det = vak_det.tolist(), nh_det.tolist()
    records = []
    for i in range(len(q)):
        if failed[i]:
            records.append(None)
        elif vak_singular[i] or nh_singular[i]:
            message = (_singular_message(sys, "vakonomic matrix", vak_det[i])
                       if vak_singular[i] else
                       _singular_message(sys, "nonholonomic matrix", nh_det[i]))
            records.append(ComparisonRecord(index=first + i, q=qs[i], v=vs[i],
                                            p_dep=ps[i], skipped=message))
        else:
            records.append(ComparisonRecord(
                index=first + i, q=qs[i], v=vs[i], p_dep=ps[i], g=gs[i], delta_y=deltas[i],
                tangency={name: values[i] for name, values in tangency.items()}))
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
    the stacked samples of a batch (``_scan_lanes``), and the report equals
    the one the per-state functions give sample by sample
    (``_evaluate_one``), byte for byte.  A sample where a generated kernel
    fails is re-run by the per-state functions.  So is every sample of a
    batch where a kernel or a stacked solve raises, and every sample when a
    candidate uses a variable that is not a state variable.
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
    candidates = candidates or {}
    linear = sys.linear

    q, v, p = _draw(sys, sampler)
    records = [None] * sampler.count
    allowed = candidate_variables(sys)
    if all(_expr.free_vars(g) <= allowed for g in candidates.values()):
        for first in range(0, sampler.count, BATCH):
            part = slice(first, first + BATCH)
            try:
                with np.errstate(all="ignore"):
                    records[part] = _scan_lanes(
                        sys, first, q[part], v[part], None if p is None else p[part],
                        candidates, linear)
            except (ArithmeticError, ValueError):   # a kernel or a stacked solve
                pass
    records = [_evaluate_one(sys, i, q[i], v[i], None if p is None else p[i],
                             candidates, linear) if record is None else record
               for i, record in enumerate(records)]

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
