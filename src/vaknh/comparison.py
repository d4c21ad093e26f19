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
per state and aggregates the results into a JSON-serializable report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import expr as _expr
from ._jets import restricted_table
from .autodiff import partial
from .errors import EvalError, SingularMatrixError, VaknhError
from .maps import upsilon
from .nonholonomic import NhState, _dependent_momenta, nh_rhs
from .system import SystemDef, VakState, check_state, require_linear, state_env
from .vakonomic import vak_rhs

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
    return np.einsum("a,k,kab->b", s.v, delta, r)


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
        """The report as strict JSON; a NaN or an infinity raises ValueError."""
        return json.dumps(self.to_json_dict(), indent=indent, allow_nan=False)


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


def scan(sys: SystemDef, sampler: Sampler, candidates=None, tol: float = 1e-10) -> ComparisonReport:
    """Evaluate the comparison residuals over sampled states.

    Per-state evaluation errors (domain errors, singular matrices) mark the
    record as skipped rather than aborting the scan.  Summary fractions are
    computed over the successfully evaluated records only.
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

    rng = np.random.default_rng(sampler.seed)
    states = []
    for i in range(sampler.count):
        q = np.array([rng.uniform(lo, hi) for lo, hi in sampler.q_bounds])
        v = np.array([rng.uniform(lo, hi) for lo, hi in sampler.v_bounds])
        if sampler.p_mode == "random":
            p = np.array([rng.uniform(lo, hi) for lo, hi in sampler.p_bounds])
        else:
            p = None  # resolved per state below, may raise a domain error
        states.append((i, q, v, p))

    def evaluate_one(item):
        i, q, v, p = item
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

    records = [evaluate_one(item) for item in states]

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
