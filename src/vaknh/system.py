"""System definitions: configuration coordinates, Lagrangian and solved-form
velocity constraints.

A system couples an ambient Lagrangian L(q, dq) with constraints given in
the explicit form

    dq_dep = psi_dep(q, dq_base)

for a declared partition of the coordinates into m dependent and n-m base
ones.  Velocity variables are, by convention, the position name prefixed
with ``d`` (position ``x`` pairs with velocity ``dx``).

Requiring the solved form makes the rank condition on the constraint
velocity-Jacobian structural: no psi expression may mention a dependent
velocity, which the loader enforces.

Whether the constraints are linear homogeneous in the base velocities is
decided in one place, ``_linearity``: a structural certificate read from
the psi trees, or else, for a tree it leaves undecided, the sampled
``verify_linearity`` (20 samples, seed 0).  ``load_system`` applies it to a
system declared linear and ``SystemDef.linear`` to one that is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr as _expr
from .autodiff import second_partial
from .errors import AdmissibilityError, EvalError, LinearityError, SystemFormatError

__all__ = [
    "SystemDef",
    "NhState",
    "VakState",
    "LinearityReport",
    "load_system",
    "serialize_system",
    "complete_velocities",
    "completed_env",
    "state_env",
    "restricted_lagrangian",
    "verify_linearity",
    "require_linear",
]


def _positions(coords, names) -> np.ndarray:
    """Read-only intp array of the indices of ``names`` in ``coords``."""
    positions = np.array([coords.index(c) for c in names], dtype=np.intp)
    positions.flags.writeable = False
    return positions


@dataclass(frozen=True)
class SystemDef:
    """Immutable definition of a constrained Lagrangian system.  Its kernels
    are kept by :mod:`vaknh._jets`, which finds them by ``_key``."""

    name: str
    coords: tuple[str, ...]           # all n position names, declaration order
    dependent: tuple[str, ...]        # m of them, solved by the constraints
    lagrangian: _expr.Expression      # ambient L over (coords, d-coords)
    psi: dict[str, _expr.Expression]  # dependent coord -> constraint expression
    declared_linear: bool
    # Derived from coords and dependent once, in __post_init__.  The
    # positions are read-only intp arrays, ready for fancy indexing.
    n: int = field(init=False, compare=False, repr=False)
    m: int = field(init=False, compare=False, repr=False)
    base: tuple[str, ...] = field(init=False, compare=False, repr=False)
    # The state variables in packed order: the coords, the base velocities
    # d<base>, then the multipliers p_<dependent>.
    state_names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    dependent_positions: np.ndarray = field(init=False, compare=False, repr=False)
    base_positions: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        base = tuple(c for c in self.coords if c not in self.dependent)
        for name, value in (
                ("n", len(self.coords)),
                ("m", len(self.dependent)),
                ("base", base),
                ("state_names", (*self.coords, *map(self.velocity_of, base),
                                 *("p_" + c for c in self.dependent))),
                ("dependent_positions", _positions(self.coords, self.dependent)),
                ("base_positions", _positions(self.coords, base))):
            object.__setattr__(self, name, value)

    @cached_property
    def linear(self) -> bool:
        """Whether the constraints are linear homogeneous in the base
        velocities: the declaration, which ``load_system`` verified, or else
        ``_linearity``.  Constraints that cannot be evaluated at the samples
        are not verified, so not linear."""
        if self.declared_linear:
            return True
        try:
            return _linearity(self).linear
        except EvalError:
            return False

    @cached_property
    def _key(self) -> tuple:
        """What the generated kernels depend on: systems with equal keys
        share them.  The trees enter by ``repr``: Const(-0.0) and Const(0.0)
        are equal and hash alike, but emit different kernels."""
        return (self.name, self.coords, self.dependent, repr(self.lagrangian),
                tuple(repr(self.psi[c]) for c in self.dependent))

    def velocity_of(self, coord: str) -> str:
        return "d" + coord

    def coord_index(self, coord: str) -> int:
        return self.coords.index(coord)


@dataclass(frozen=True)
class NhState:
    """Point of the nonholonomic phase space: positions and base velocities."""

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


@dataclass(frozen=True)
class VakState:
    """Point of the vakonomic phase space: positions, base velocities and the
    constraint multipliers (momenta conjugate to the dependent coordinates).

    The eliminated base momenta are never stored; they are recovered from the
    state by ``vakonomic.w1_momenta``.
    """

    q: np.ndarray
    v: np.ndarray
    p_dep: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "p_dep", np.asarray(self.p_dep, dtype=float))


def check_state(sys: SystemDef, s) -> None:
    """Raise ValueError unless ``s`` has the sizes of a state of ``sys``
    and finite components; the error names the first component that is
    not finite."""
    if len(s.q) != sys.n:
        raise ValueError(f"state has {len(s.q)} positions, system {sys.name!r} has {sys.n}")
    if len(s.v) != sys.n - sys.m:
        raise ValueError(f"state has {len(s.v)} base velocities, expected {sys.n - sys.m}")
    if isinstance(s, VakState) and len(s.p_dep) != sys.m:
        raise ValueError(f"state has {len(s.p_dep)} multipliers, expected {sys.m}")
    values = np.concatenate([s.q, s.v, s.p_dep] if isinstance(s, VakState) else [s.q, s.v])
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"state component {sys.state_names[i]} = {float(values[i])!r} "
                         "is not finite")


def _non_state(names, candidates) -> EvalError | None:
    """The error of the first candidate that uses a variable other than the
    state variables ``names``, if any."""
    allowed = set(names)
    for name, g in candidates.items():
        extra = _expr.free_vars(g) - allowed
        if extra:
            return EvalError(f"candidate {name!r} uses non-state variable(s) {sorted(extra)}")


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def _valid_ident(name: str) -> bool:
    return (name[:1].isalpha()
            and all(ch.isalnum() or ch == "_" for ch in name))


def load_system(source: str) -> SystemDef:
    """Parse a system definition from its line-oriented text format.

    Performs all structural checks: coordinate partition consistency,
    admissibility (no dependent velocity inside any psi), variable closure
    of the Lagrangian, and -- for files declared linear -- the verification
    of the declaration (``_linearity``).
    """
    name = None
    coords = None
    dependent = None
    linear = None
    lagrangian_text = None
    psi_texts: dict[str, str] = {}
    seen: dict[str, int] = {}  # "name", ..., "psi <coord>" -> its line

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        slot = f"psi {rest.partition('=')[0].strip()}" if key == "psi" else key
        if slot in seen:
            raise SystemFormatError(
                f"line {lineno}: repeated {slot!r} line (first on line {seen[slot]})")
        seen[slot] = lineno
        if key == "name":
            name = rest
        elif key == "coords":
            coords = tuple(rest.split())
        elif key == "dependent":
            dependent = tuple(rest.split())
        elif key == "linear":
            if rest not in ("true", "false"):
                raise SystemFormatError(f"line {lineno}: linear must be true or false")
            linear = rest == "true"
        elif key == "lagrangian":
            lagrangian_text = rest
        elif key == "psi":
            target, eq, expr_text = rest.partition("=")
            if not eq:
                raise SystemFormatError(f"line {lineno}: psi line needs '<coord> = <expression>'")
            psi_texts[target.strip()] = expr_text.strip()
        else:
            raise SystemFormatError(f"line {lineno}: unknown key {key!r}")

    for what, value in (("name", name), ("coords", coords), ("dependent", dependent),
                        ("linear", linear), ("lagrangian", lagrangian_text)):
        if value is None:
            raise SystemFormatError(f"missing {what!r} line")

    for c in coords:
        if not _valid_ident(c):
            raise SystemFormatError(f"bad coordinate name {c!r}")
    if len(set(coords)) != len(coords):
        raise SystemFormatError("duplicate coordinate names")
    for c in dependent:
        if c not in coords:
            raise SystemFormatError(f"dependent coordinate {c!r} not among coords")
    if len(set(dependent)) != len(dependent):
        raise SystemFormatError("duplicate dependent coordinates")
    # The names the state and the Lagrangian derive from the coordinates.
    derived = {**{f"p_{d}": f"multiplier of {d!r}" for d in dependent},
               **{f"d{c}": f"velocity of {c!r}" for c in coords}}
    for c in coords:
        if c in derived:
            raise SystemFormatError(f"coordinate {c!r} is also the {derived[c]}")
    m, n = len(dependent), len(coords)
    if not 1 <= m < n:
        raise SystemFormatError(f"need 1 <= m < n, got m={m}, n={n}")
    if set(psi_texts) != set(dependent):
        raise SystemFormatError(
            f"psi lines {sorted(psi_texts)} do not match dependent coords {sorted(dependent)}")

    base = tuple(c for c in coords if c not in dependent)
    allowed_psi = set(coords) | {"d" + c for c in base}
    allowed_lag = set(coords) | {"d" + c for c in coords}

    psi = {}
    for c in dependent:
        e = _expr.parse(psi_texts[c])
        extra = _expr.free_vars(e) - allowed_psi
        dep_vels = sorted(v for v in extra if v in {"d" + d for d in dependent})
        if dep_vels:
            raise AdmissibilityError(
                f"psi {c} uses dependent velocity {', '.join(dep_vels)}; "
                "constraints must be solved for the dependent velocities")
        if extra:
            raise SystemFormatError(f"psi {c} uses unknown variable(s) {sorted(extra)}")
        psi[c] = e

    lagrangian = _expr.parse(lagrangian_text)
    extra = _expr.free_vars(lagrangian) - allowed_lag
    if extra:
        raise SystemFormatError(f"lagrangian uses unknown variable(s) {sorted(extra)}")

    sys = SystemDef(name=name, coords=coords, dependent=dependent,
                    lagrangian=lagrangian, psi=psi, declared_linear=linear)

    if linear:
        report = _linearity(sys)
        if not report.linear:
            raise LinearityError(
                f"system {name!r} is declared linear but fails verification "
                f"at state {report.witness}")
    return sys


def serialize_system(sys: SystemDef) -> str:
    lines = [
        f"name {sys.name}",
        "coords " + " ".join(sys.coords),
        "dependent " + " ".join(sys.dependent),
        f"linear {'true' if sys.declared_linear else 'false'}",
        f"lagrangian {_expr.serialize(sys.lagrangian)}",
    ]
    for c in sys.dependent:
        lines.append(f"psi {c} = {_expr.serialize(sys.psi[c])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Velocity completion and evaluation environments
# ---------------------------------------------------------------------------


def state_env(sys: SystemDef, s) -> dict[str, float]:
    """Environment binding the positions and base velocities of a state,
    and for a :class:`VakState` its multipliers as ``p_<dependent>``."""
    names, n, k = sys.state_names, sys.n, 2 * sys.n - sys.m
    env = dict(zip(names[:n], s.q.tolist()))
    env.update(zip(names[n:k], s.v.tolist()))
    if isinstance(s, VakState):
        env.update(zip(names[k:], s.p_dep.tolist()))
    return env


def complete_velocities(sys: SystemDef, s) -> np.ndarray:
    """Full n-velocity vector: base components from the state, dependent
    components from psi (the ``completion`` kernel)."""
    # Imported here, so that ``import vaknh`` and ``load_system`` do not
    # import the kernel generator.
    from ._jets import completion

    check_state(sys, s)
    full = np.empty(sys.n)
    full[sys.base_positions] = s.v
    full[sys.dependent_positions] = completion(sys, s.q, s.v)
    return full


def completed_env(sys: SystemDef, q, v) -> dict[str, float]:
    """Environment with all velocities bound, dependent ones via psi (the
    ``completion`` kernel); a state of the wrong size raises
    ``check_state``'s ValueError."""
    from ._jets import completion

    s = NhState(q, v)
    check_state(sys, s)
    env = state_env(sys, s)
    env.update(zip(map(sys.velocity_of, sys.dependent), completion(sys, s.q, s.v).tolist()))
    return env


def restricted_lagrangian(sys: SystemDef, q, v) -> float:
    """Value of the Lagrangian restricted to the constraint submanifold."""
    return float(_expr.evaluate(sys.lagrangian, completed_env(sys, q, v)))


# ---------------------------------------------------------------------------
# Linearity verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearityReport:
    linear: bool
    witness: tuple | None  # (q, v) arrays of a failing sample, if any


def verify_linearity(sys: SystemDef, samples: int, seed: int) -> LinearityReport:
    """Sampled check that every psi is linear homogeneous in the base
    velocities: every entry of the velocity Hessian of each psi, and psi(q,
    0), is exactly 0 (a NaN passes).

    States are drawn uniformly from [-1, 1] per coordinate.  A sample that
    raises a domain error is redrawn up to 10 times before the error is
    reported.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    vel_names = [sys.velocity_of(c) for c in sys.base]
    for _ in range(samples):
        for attempt in range(10):
            q = rng.uniform(-1.0, 1.0, sys.n)
            v = rng.uniform(-1.0, 1.0, sys.n - sys.m)
            env = state_env(sys, NhState(q, v))
            env0 = state_env(sys, NhState(q, np.zeros(sys.n - sys.m)))
            try:
                for c in sys.dependent:
                    e = sys.psi[c]
                    if abs(_expr.evaluate(e, env0)) > 0.0:
                        return LinearityReport(False, (q, v))
                    for i, va in enumerate(vel_names):
                        for vb in vel_names[i:]:
                            if abs(second_partial(e, env, va, vb)) > 0.0:
                                return LinearityReport(False, (q, v))
                break
            except EvalError:
                if attempt == 9:
                    raise
    return LinearityReport(True, None)


def _degree(e, velocities):
    """0 where ``e`` is free of ``velocities``, 1 where it is homogeneous of
    degree 1 in them by construction, None where this walk cannot tell."""
    if isinstance(e, _expr.Const):   # a literal past 1.8e308 parses as inf
        return 0 if math.isfinite(e.value) else None
    if isinstance(e, _expr.Var):
        return int(e.name in velocities)
    if isinstance(e, _expr.Unary):
        d = _degree(e.arg, velocities)
        return d if e.op == "neg" or (d == 0 and e.op in ("sin", "cos")) else None
    if isinstance(e, _expr.Power):
        d = _degree(e.base, velocities)
        free = d == 0 and e.integer and e.exponent >= 0
        return 0 if free else d if e.exponent == 1.0 else None
    left, right = _degree(e.left, velocities), _degree(e.right, velocities)
    if e.op == "/":
        return left if isinstance(e.right, _expr.Const) and e.right.value != 0.0 else None
    if e.op == "*":
        return left + right if None not in (left, right) and left + right <= 1 else None
    return left if left == right else None


def _linearity(sys: SystemDef) -> LinearityReport:
    """Linear when every psi is certified of degree 1 (``_degree``), else
    ``verify_linearity(sys, samples=20, seed=0)``."""
    velocities = set(map(sys.velocity_of, sys.base))
    if all(_degree(sys.psi[c], velocities) == 1 for c in sys.dependent):
        return LinearityReport(True, None)
    return verify_linearity(sys, samples=20, seed=0)


def require_linear(sys: SystemDef, what: str) -> None:
    """Raise unless the system's constraints are linear (``sys.linear``)."""
    from .errors import NonlinearSystemError

    if not sys.linear:
        raise NonlinearSystemError(
            f"{what} requires linear velocity constraints, "
            f"but system {sys.name!r} is not linear")
