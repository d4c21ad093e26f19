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
(:mod:`vaknh._jets`); a field is the integrator's ``field`` kernel read by
``vakonomic._stage_lanes``.  The Legendre lift (one run of the ``lift``
kernel) and the vakonomic field are evaluated once per stack, and every
phase that needs them reads them.  A lane that fails holds a code into the
stack's list of distinct errors, each the exception the per-state
functions raise at its state, built once per distinct failure.
``scan`` runs the phases over batches of ``BATCH`` sampled states.
``compare_state`` (the ``compare`` command) and the functions above run
them on a stack of one state, so they agree with ``scan`` by construction.

The report of ``scan`` is columnar (``_Batch``): one row per sample, with
a code that gives the row's record shape, and the summary computed from
the columns.  ``_JsonWriter`` writes it from the columns, in one ``repr``
sweep and one join; a report that holds records is written by
``json.dumps``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import expr as _expr
from ._jets import RestrictedTable, _kernel, gradient_kernel, run_lanes
from .errors import VaknhError
from .system import SystemDef, VakState, _non_state, check_state, require_linear
from .vakonomic import _singular, _stage_lanes

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
    return _one(sys, s, lambda lanes: lanes.vak[1] - lanes.nh())[0]


def tangency_residuals(sys: SystemDef, candidates: dict[str, _expr.Expression],
                       s: VakState) -> dict[str, float]:
    """Directional derivative of each candidate function along the vakonomic
    field.  A candidate cuts out a flow-invariant set at ``s`` when both its
    value and this residual vanish there."""
    out = _one(sys, s, lambda lanes: lanes.tangency(candidates))
    return {name: float(values[0]) for name, values in out.items()}


def compare_state(sys: SystemDef, s: VakState, candidates=None) -> dict:
    """``g`` (None for nonlinear constraints), ``deltaY``, ``tangency`` and
    the two fields' base accelerations ``vak_dv`` and ``nh_dv`` at one
    state, from one evaluation of the phases of a ``scan`` record; raises
    the error that ``scan`` gives as the record's skip reason."""
    g, dv, nh_dv, tangency = _one(sys, s, lambda lanes: lanes.record(candidates))
    return {"g": None if g is None else g[0].tolist(), "deltaY": (dv - nh_dv)[0].tolist(),
            "tangency": {name: float(values[0]) for name, values in tangency.items()},
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
        if name in out:
            raise VaknhError(f"candidates line {lineno}: repeated candidate {name!r}")
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


def _record_dict(index, q, v, p, g, delta_y, tangency, skipped) -> dict:
    """A record as it is written in the report."""
    return {"index": index, "q": q, "v": v, "p": p, "g": g, "deltaY": delta_y,
            "tangency": tangency, "skipped": skipped}


class ComparisonReport:
    """A scan report: the system's name, the summary and the records.

    ``scan`` keeps the stacked columns of all its samples (``_Batch``), and
    the records are built from them on the first read of ``records``.  From
    then on, and for a report constructed with its records, the records are
    what the report holds and writes."""

    def __init__(self, system: str, records: list | None, summary: dict):
        self.system, self.summary = system, summary
        self._records, self._batch = records, None

    @classmethod
    def _of_batch(cls, system, batch, summary) -> ComparisonReport:
        report = cls(system, None, summary)
        report._batch = batch
        return report

    @property
    def records(self) -> list:
        if self._records is None:
            self._records, self._batch = self._batch.records(), None
        return self._records

    def __eq__(self, other):
        if type(other) is not ComparisonReport:
            return NotImplemented
        return ((self.system, self.records, self.summary)
                == (other.system, other.records, other.summary))

    def __repr__(self):
        return (f"ComparisonReport(system={self.system!r}, records={self.records!r}, "
                f"summary={self.summary!r})")

    def to_json_dict(self) -> dict:
        return {
            "system": self.system,
            "summary": dict(self.summary),
            "records": [_record_dict(r.index, r.q, r.v, r.p_dep, r.g, r.delta_y, r.tangency,
                                     r.skipped) for r in self.records],
        }

    def to_json(self, indent=None) -> str:
        """The report as strict JSON; a NaN or an infinity raises ValueError.

        The text is ``json.dumps(self.to_json_dict(), indent=indent,
        allow_nan=False)``.  While the report holds its columns, it is
        written from them (``_JsonWriter``), byte for byte the same; a
        non-finite number, or a summary value of a kind the writer does not
        know, is left to ``json.dumps``, which raises its own error or
        writes the value."""
        if self._records is None:
            try:
                return _JsonWriter(indent).report(self)
            except (_Unwritable, ValueError, OverflowError):
                pass
        return json.dumps(self.to_json_dict(), indent=indent, allow_nan=False)


@dataclass(frozen=True)
class _Batch:
    """The records of ``scan``, as one block of columns.

    Row i is the record of sample i.  ``code[i]`` picks the row's record
    shape from ``shapes``: (len q, len v, len p, len g or None, len deltaY
    or None, tangency names, skip text).  Shape 0 is that of an evaluated
    record; the others are skipped.  ``columns[i]`` holds the record's
    numbers after its index, in the order they are written (q, v, p, g,
    deltaY, tangency values); a shape with fewer numbers reads the leading
    ones."""

    columns: np.ndarray
    code: np.ndarray
    shapes: tuple

    def records(self) -> list:
        """The records, read off the rows by their shapes."""
        rows, codes, out = self.columns.tolist(), self.code.tolist(), []
        for i, (row, code) in enumerate(zip(rows, codes)):
            *lengths, names, skipped = self.shapes[code]
            parts, at = [], 0
            for k in (*lengths, len(names)):
                parts.append(None if k is None else row[at:at + k])
                at += k or 0
            q, v, p, g, dy, values = parts
            out.append(ComparisonRecord(i, q, v, p, g, dy, dict(zip(names, values)), skipped))
        return out


class _Unwritable(Exception):
    """A value ``_JsonWriter`` leaves to ``json.dumps``."""


# A number of a record template, written as the mark the template is split
# at; the writer escapes the control character in every string it writes.
_SLOT, _MARK = object(), "\0"


class _JsonWriter:
    """The output of ``json.dumps(..., indent=indent)`` for finite floats and
    ints, strings, None and str-keyed dicts and lists of them; a value at
    ``level`` is nested in that many containers.

    The records of a report are written in one pass from its columns: the
    numbers of every record, index first, and the text after each number,
    from one template per record shape."""

    def __init__(self, indent):
        if indent is not None and not isinstance(indent, str):
            indent = " " * indent
        self.indent = indent
        # The records list is written at level 1.  An indent that holds the
        # mark fails to unpack.
        self.open, self.sep, self.close = self.join("[", [_MARK] * 2, "]", 1).split(_MARK)
        self.templates = {}

    def report(self, report: ComparisonReport) -> str:
        """The report in one join: the numbers of every record in one
        ``repr`` sweep, between the text around them."""
        literals, numbers = self.records(report._batch)
        # The text before and after the records list; no written string
        # holds the mark.
        before, after = self.join("{", [f'"system": {self.value(report.system, 1)}',
                                        f'"summary": {self.value(dict(report.summary), 1)}',
                                        f'"records": {_MARK}'], "}", 0).split(_MARK)
        if not numbers:
            return before + "[]" + after
        literals[-1] = literals[-1].removesuffix(self.sep + self.head) + self.close + after
        out = [None] * (2 * len(numbers) + 1)
        out[0], out[2::2], out[1::2] = before + self.open + self.head, literals, map(repr, numbers)
        return "".join(out)

    def template(self, shape) -> list[str]:
        """The text after each number of a record of ``shape``, the last up
        to the first number of the next record; every record starts with the
        same ``head``."""
        template = self.templates.get(shape)
        if template is None:
            *lengths, names, skipped = shape
            q, v, p, g, dy = (None if k is None else [_SLOT] * k for k in lengths)
            written = _record_dict(_SLOT, q, v, p, g, dy, dict.fromkeys(names, _SLOT), skipped)
            self.head, *after = self.value(written, 2).split(_MARK)
            template = self.templates[shape] = [*after[:-1], after[-1] + self.sep + self.head]
        return template

    def records(self, batch: _Batch):
        """The text and numbers of the records of ``batch``.  The numbers of
        each shape are laid out by slicing, the index as an int; where the
        records have several shapes, each shape's records are scattered to
        their places."""
        groups, widths = [], np.zeros(len(batch.shapes), dtype=np.intp)
        for code, shape in enumerate(batch.shapes):
            rows = np.flatnonzero(batch.code == code)
            if len(rows):
                template = self.template(shape)
                values = np.empty((len(rows), len(template)))
                values[:, 1:] = batch.columns[rows, :len(template) - 1]
                if not np.isfinite(values[:, 1:]).all():
                    raise _Unwritable
                numbers = values.ravel().tolist()
                numbers[::len(template)] = rows.tolist()
                groups.append((rows, template * len(rows), numbers))
                widths[code] = len(template)
        if len(groups) == 1:
            return groups[0][1:]
        sizes = widths[batch.code]
        starts = np.cumsum(sizes) - sizes
        literals = np.empty(int(sizes.sum()), dtype=object)
        numbers = np.empty_like(literals)
        for rows, text, values in groups:
            at = (starts[rows, None] + np.arange(sizes[rows[0]])).ravel()
            literals[at], numbers[at] = text, values
        return literals.tolist(), numbers.tolist()

    def value(self, x, level) -> str:
        if isinstance(x, dict):
            if not all(isinstance(key, str) for key in x):
                raise _Unwritable
            return self.join("{", [f"{_encode_str(key)}: {self.value(item, level + 1)}"
                                   for key, item in x.items()], "}", level)
        if isinstance(x, (list, tuple)):
            return self.join("[", [self.value(item, level + 1) for item in x], "]", level)
        if type(x) in (float, int) and math.isfinite(x):
            return repr(x)
        if isinstance(x, str):
            return _encode_str(x)
        if x is None or x is _SLOT:
            return "null" if x is None else _MARK
        raise _Unwritable

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

    A lane's ``code`` is 0, or 1 + the index in ``errors`` of the first
    error of the phases run on it, the exception the per-state functions
    raise at its state; its results are not defined then.  Each phase runs
    its kernels through ``run``, and lanes that fail alike share an error:
    a kernel's failure site and operand bits (``Sweep.error``), or a
    singular matrix's det bits.
    """

    def __init__(self, sys, q, v, p):
        self.sys, self.q, self.v, self.p = sys, q, v, p
        self.code = np.zeros(len(q), dtype=np.intp)
        self.errors = []
        if p is None:
            self.p = self.lift

    def mark(self, fresh, key, error):
        """Give the lanes in the mask ``fresh``, which have no error yet, one
        error per distinct row of ``key`` (one per such lane), ``error`` at
        its first lane, in the order of the rows."""
        if not fresh.any():
            return
        _, first, which = np.unique(key, axis=0, return_index=True, return_inverse=True)
        self.code[fresh] = len(self.errors) + 1 + which
        self.errors += [error(i) for i in np.flatnonzero(fresh)[first].tolist()]

    def run(self, sweep, *blocks):
        """The (N, outputs) results of ``sweep`` over the stacked arguments
        ``blocks``, and ``mark`` for the lanes where it fails, keyed by site
        and operand bits (``Sweep.error``)."""
        out, site, values = run_lanes(sweep, *blocks)
        if values is not None:
            fresh = (site != 0) & (self.code == 0)
            self.mark(fresh, np.column_stack([site, values.view(np.int64)])[fresh],
                      lambda i: sweep.error(int(site[i]), values[i].tolist()))
        return out

    @cached_property
    def lift(self):
        """The Legendre momenta Leg_dep, from one run of the ``lift``
        kernel."""
        sys = self.sys
        lift = self.run(_kernel(sys, "lift"), self.q, self.v)
        return lift[:, sys.n + sys.dependent_positions]

    def curvature(self):
        """``curvature`` in matrix form."""
        sys, q = self.sys, self.q
        n, m, base, dep = sys.n, sys.m, sys.base_positions, sys.dependent_positions
        rows = self.run(_kernel(sys, "restricted"), q, np.zeros((len(q), n - m)))
        tab = RestrictedTable(rows.reshape(len(q), m, -1), n, m)
        psi_v = tab.grads[..., n:]
        h = tab.hessians[..., :n, n:]
        a_mat = h[:, :, base] + psi_v.transpose(0, 2, 1)[:, None] @ h[:, :, dep]
        return a_mat - a_mat.transpose(0, 1, 3, 2)

    def g(self):
        """``g_residuals``: the curvature, then the Legendre lift."""
        r = self.curvature()
        return _contract_g(self.v, self.p - self.lift, r)

    def field(self, mult, what):
        """dq, dv and dp of the field with multipliers ``mult``, matrix
        ``what``; a singular matrix gives one error per distinct det bit
        pattern (0.0 and -0.0 are written apart), at its first lane."""
        sys, q, v = self.sys, self.q, self.v
        buf = self.run(_kernel(sys, "field"), q, v, mult)
        dy, det, singular = _stage_lanes(sys, buf, self.code != 0)
        fresh = singular & (self.code == 0)
        self.mark(fresh, det.view(np.int64)[fresh], lambda i: _singular(
            sys, what, float(det[i]), np.concatenate((q[i], v[i], mult[i]))))
        return np.split(dy, [sys.n, 2 * sys.n - sys.m], axis=1)

    @cached_property
    def vak(self):
        """dq, dv and dp of the vakonomic field, evaluated once."""
        return self.field(self.p, "vakonomic matrix")

    def nh(self):
        """dv of the nonholonomic field: the vakonomic one where p is the
        Legendre lift (legendre mode), else the field at the lift."""
        if self.p is self.lift:
            return self.vak[1]
        return self.field(self.lift, "nonholonomic matrix")[1]

    def tangency(self, candidates):
        """``tangency_residuals`` along the vakonomic field: one list of
        values per candidate, from one kernel of the values and gradients
        of all candidates, constants included."""
        sys, q, v, p = self.sys, self.q, self.v, self.p
        # The candidate variables, in the order of the columns of q, v and p.
        names = sys.state_names
        error = _non_state(names, candidates)
        if error is not None:
            self.mark(self.code == 0, self.code[self.code == 0], lambda i: error)
            return {}
        dq, dv, dp = self.vak
        flow = dict(zip(names, [*dq.T, *dv.T, *dp.T]))
        used = {name: sorted(_expr.free_vars(g)) for name, g in candidates.items()}
        seeded = sorted(set().union(*used.values()))
        jets = self.run(gradient_kernel(list(candidates.values()), names, seeded), q, v, p)
        # Per candidate, its value, then its gradient in the seeded variables.
        jets = jets.reshape(len(q), len(candidates), 1 + len(seeded))
        out = {}
        for i, name in enumerate(candidates):
            out[name] = np.zeros(len(q))
            for var in used[name]:
                out[name] = out[name] + jets[:, i, 1 + seeded.index(var)] * flow[var]
        return out

    def record(self, candidates):
        """The phases of a comparison record, in order: g (None unless the
        constraints are linear), the base accelerations of the vakonomic and
        of the nonholonomic field, and the tangency residuals."""
        g = self.g() if self.sys.linear else None
        return g, self.vak[1], self.nh(), self.tangency(candidates) if candidates else {}


def _one(sys, s, run):
    """``run(lanes)`` on the stack of the one state ``s``, which it checks.
    Raises the first error of the phases it ran; a singular matrix with the
    state of its field, ``s`` or its projection."""
    check_state(sys, s)
    with np.errstate(all="ignore"):
        lanes = _Lanes(sys, *(np.asarray(x, dtype=float)[None] for x in (s.q, s.v, s.p_dep)))
        out = run(lanes)
    if lanes.code[0]:
        raise lanes.errors[lanes.code[0] - 1]
    return out


def _contract_g(v, delta, r):
    """g_b = v_a delta_k R[k, a, b] of stacked states, summed in a fixed
    order, so each lane's result does not depend on the others."""
    g = np.zeros_like(v)
    for k in range(delta.shape[1]):
        for a in range(v.shape[1]):
            g = (v[:, a] * delta[:, k])[:, None] * r[:, k, a] + g
    return g


def _scan_lanes(sys, q, v, p, candidates, shapes):
    """The records of the stacked samples (q, v, p) as columns and codes
    into the record shapes ``shapes`` (shape -> code), which it extends;
    ``p`` is None in legendre mode.  A record with an error is skipped with
    its text, and without p when the Legendre lift failed; each distinct
    error is put into words once."""
    lanes = _Lanes(sys, q, v, p)
    lifted = len(lanes.errors)   # the errors of the Legendre lift come first
    g, dv, nh_dv, tangency = lanes.record(candidates)
    columns = np.column_stack([q, v, lanes.p, *(() if g is None else (g,)), dv - nh_dv,
                               *tangency.values()])
    n, nb, m = sys.n, sys.n - sys.m, sys.m
    # The shape of an evaluated record is the first the first batch adds.
    codes = [shapes.setdefault((n, nb, m, None if g is None else nb, nb, tuple(tangency), None),
                               len(shapes))]
    for j, error in enumerate(lanes.errors):
        codes.append(shapes.setdefault((n, nb, 0 if j < lifted else m, None, None, (),
                                        str(error)), len(shapes)))
    return columns, np.array(codes)[lanes.code]


def _fraction(values, tol):
    """The share of the rows of ``values`` whose largest absolute value is
    below ``tol``; None without rows.  The largest is taken as Python's
    ``max`` takes it: a NaN first value is the largest, a later NaN is
    passed over."""
    if not len(values):
        return None
    size = np.abs(values)
    top = np.where(np.isnan(size[:, 0]), np.nan, np.fmax.reduce(size, axis=1))
    return sum(1 for x in top.tolist() if x < tol) / len(top)


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


def _require_tol(tol) -> None:
    """Raise ValueError unless the agreement tolerance ``tol`` is
    non-negative and finite."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol!r}")


def scan(sys: SystemDef, sampler: Sampler, candidates=None, tol: float = 1e-10) -> ComparisonReport:
    """Evaluate the comparison residuals over sampled states.

    Per-state evaluation errors (domain errors, singular matrices) mark the
    record as skipped rather than aborting the scan.  Summary fractions are
    computed over the successfully evaluated records only.

    The samples are evaluated in batches of ``BATCH``, each phase once over
    the stacked samples of a batch (``_scan_lanes``), into one block of
    columns.  A record's skip reason is the error the per-state functions
    raise at its state.
    """
    if sampler.count < 1:
        raise ValueError(f"sample count must be at least 1, got {sampler.count}")
    _require_tol(tol)
    if sampler.p_mode not in ("random", "legendre"):
        raise ValueError(f"p_mode must be 'random' or 'legendre', got {sampler.p_mode!r}")
    nb = sys.n - sys.m
    if len(sampler.q_bounds) != sys.n or len(sampler.v_bounds) != nb:
        raise ValueError("sampler bounds do not match the system dimensions")
    if sampler.p_mode == "random" and len(sampler.p_bounds) != sys.m:
        raise ValueError("random p mode needs one bounds pair per dependent coordinate")

    q, v, p = _draw(sys, sampler)
    shapes, parts = {}, []
    with np.errstate(all="ignore"):
        for first in range(0, sampler.count, BATCH):
            part = slice(first, first + BATCH)
            parts.append(_scan_lanes(sys, q[part], v[part], None if p is None else p[part],
                                     candidates, shapes))
    columns, code = (np.concatenate(block) for block in zip(*parts))
    evaluated = columns[code == 0]
    at = sys.n + nb + sys.m + (nb if sys.linear else 0)   # the first column of deltaY
    summary = {
        "samples": sampler.count,
        "evaluated": len(evaluated),
        "skipped": sampler.count - len(evaluated),
        "tol": tol,
        "seed": sampler.seed,
        "p_mode": sampler.p_mode,
        "fraction_g_below_tol": _fraction(evaluated[:, at - nb:at], tol) if sys.linear else None,
        "fraction_deltay_below_tol": _fraction(evaluated[:, at:at + nb], tol),
    }
    return ComparisonReport._of_batch(sys.name, _Batch(columns, code, tuple(shapes)), summary)
