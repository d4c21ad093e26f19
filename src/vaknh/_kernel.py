"""Straight-line forward-mode kernels for the jet sweeps.

``compile_sweep`` turns the expression trees of a system into one Python
function per sweep, built once with ``compile()``: the tape form of forward
mode (Griewank & Walther, *Evaluating Derivatives*, 2008) over the
hyper-dual algebra of Fike & Alonso (AIAA 2011-886) that
:class:`vaknh.autodiff.HyperDual` implements with array channels.

Code generation runs the interpreter's hyper-dual arithmetic symbolically:
every channel entry is a Python float known at generation time or the name
of a local of the generated function, and each operation on names becomes
one line of scalar code.  Operations with equal operands are emitted once,
so repeated subexpressions are shared.  Each entry is computed with the
interpreter's operations in the interpreter's order, which makes the
results equal to an interpreted sweep bit for bit:

* gradient entries are all computed, structural zeros included, because the
  sign of a zero gradient entry can reach the output;
* Hessian entries are computed only where they are not structurally zero,
  for the upper triangle only, and mirrored.  Dropping a term that is a
  structural zero changes no value, only possibly the sign of a zero (for
  finite intermediate values), and mirroring makes every Hessian exactly
  symmetric.

Every check the interpreter makes before an operation that may fail is
emitted with the same comparison, and every value-side operation that may
raise is emitted unconditionally, so a kernel raises whenever the
interpreter would.  Each line that can raise is a *failure site*, recorded
with the tree node the interpreter raises at and that node's operands
(``Sweep.sites``); a line emitted once for several nodes records the first
in evaluation order, where the interpreter raises first.  ``Sweep.error``
is the one place where a kernel failure becomes an error: the
interpreter's operation at that node alone, on the operand values the
kernel computed.  No tree is evaluated again.

The same pass emits a second source, the *array* kernel, from the same
lines: its arguments are float64 arrays of N lanes (one state per lane), and
numpy runs each line over all lanes with the same IEEE operations.  Where
the scalar kernel raises, the array kernel gives the lane that line's site
in an int column, unless the lane has failed before; a math function runs
lane by lane with ``math`` (``numpy``'s ``exp``, ``log`` and trigonometric
functions round differently; ``sqrt`` is exact in both).  Every other lane
holds the scalar kernel's result bit for bit.  A line that raises for
every state (a term no input reaches) raises in the array kernel too.

The ``field`` kernel carries the ``restricted`` kernel's lines (psi) on
through L~ and the multiplier shift (Lambda = L~ - mult . psi).  The
generated source contains only generated local names, float literals
and the math functions below: no text of the system file reaches it.
"""

from __future__ import annotations

import math
import operator
import struct
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable

import numpy as np

from . import expr as _expr
from .autodiff import HyperDual
from .errors import EvalError

__all__ = ["Sweep", "compile_sweep", "compile_gradients"]

_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_CHECKS = {"<": operator.lt, "<=": operator.le, "==": operator.eq}
_MATH = _expr.FUNCTIONS + ("pow",)
_GLOBALS = {f"_{name}": getattr(math, name) for name in _MATH}
_GLOBALS.update(_inf=math.inf, _nan=math.nan)


def _lanes(fn):
    """``fn`` applied lane by lane, as the scalar kernel applies it at one
    state; a lane where it raises is NaN and fails at ``at`` (``site``)."""
    def apply(site, at, x, *rest):
        if not isinstance(x, np.ndarray):   # a term no input reaches
            return fn(x, *rest)
        values = x.tolist()
        try:
            return np.fromiter(map(fn, values, *map(repeat, rest)), float, len(values))
        except (ValueError, ArithmeticError):
            out = np.empty(len(values))
            for i, value in enumerate(values):
                try:
                    out[i] = fn(value, *rest)
                except (ValueError, ArithmeticError):
                    out[i] = math.nan
                    site[i] = site[i] or at
            return out
    return apply


def _fail(site, at, condition):
    """The lanes where ``condition`` holds fail at ``at`` unless failed before."""
    if np.count_nonzero(condition):
        site[(site == 0) & condition] = at


_ARRAY_GLOBALS = {f"_{name}": _lanes(getattr(math, name)) for name in _MATH}
# A square root is correctly rounded in both, and a check precedes each.
_ARRAY_GLOBALS.update(_inf=math.inf, _nan=math.nan, _zeros=np.zeros, _any=np.count_nonzero,
                      _fail=_fail, _sqrt=lambda site, at, x:
                      np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x))


def _lit(term) -> str:
    """Source text of a term: a local name, or a float literal."""
    if isinstance(term, str):
        return term
    if math.isnan(term):
        return "_nan"
    text = repr(term) if math.isfinite(term) else "_inf"
    return f"(-{text.lstrip('-')})" if math.copysign(1.0, term) < 0 else text


def _is(term, value: float) -> bool:
    """Whether a term is the float ``value``, the sign of a zero included."""
    return (isinstance(term, float) and term == value
            and math.copysign(1.0, term) == math.copysign(1.0, value))


# A hyper-dual whose channel entries are terms.  ``hess`` maps (i, j), i <= j,
# to a term; a missing pair is a structural zero.
_Dual = namedtuple("_Dual", "value grad hess")


class _Emitter:
    """Emits the lines of one kernel while evaluating trees symbolically."""

    def __init__(self, k: int, hessian: bool):
        self.k = k
        self.hessian = hessian
        self.lines: list[str] = []     # the scalar kernel
        self.array_lines: list[str] = []   # the array kernel, line by line
        self.names: dict = {}          # operation key -> local name
        self.checks: set = set()       # checks already emitted
        self.zeros: set[str] = set()   # locals that are a zero of some sign
        self.sites: dict = {}          # failure sites (``Sweep.sites``)
        self.at = None                 # the node evaluated, and its operands

    # -- scalar terms -------------------------------------------------------

    def zero(self, term) -> bool:
        if isinstance(term, str):
            return term in self.zeros
        return term == 0.0

    def _line(self, line, array_line=None):
        self.lines.append(line)
        self.array_lines.append(line if array_line is None else array_line)

    def _site(self) -> int:
        """The next line's site (its scalar line number less one), at ``at``."""
        node, operands = self.at
        site = len(self.lines) + 1
        self.sites[site] = (node, tuple(x.value if isinstance(x, _Dual) else x for x in operands),
                            tuple(isinstance(x, _Dual) for x in operands))
        return site

    def _emit(self, key, code, zero=False, call=None, guard=None):
        """The local holding ``code``, on a failure site if it ``call``s a
        math function (name, arguments) or divides, raising where ``guard``
        holds."""
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = f"t{len(self.names)}"
            array = f"{name} = {code}"
            if call is not None:
                array = f"{name} = _{call[0]}(_site, {self._site()}, {call[1]})"
            elif guard is not None:   # the lanes where it holds fail here
                array = f"_fail(_site, {self._site()}, {guard}); {array}"
            self._line(f"{name} = {code}", array)
            if zero:
                self.zeros.add(name)
        return name

    def op(self, sym, a, b):
        if isinstance(a, float) and isinstance(b, float):
            try:
                return _FOLD[sym](a, b)
            except ArithmeticError:
                pass  # emitted, so that it raises at run time
        # x * 1.0, x / 1.0, x + (-0.0) and x - 0.0 are x bit for bit,
        # signed zeros and NaN included.
        if sym in "*+" and _is(a, 1.0 if sym == "*" else -0.0):
            return b
        if _is(b, {"*": 1.0, "/": 1.0, "+": -0.0, "-": 0.0}[sym]):
            return a
        la, lb = _lit(a), _lit(b)
        if sym in "+*" and lb < la:
            la, lb = lb, la   # commutative: one line for both orders
        zero = (self.zero(a) or self.zero(b)) if sym == "*" else \
            (self.zero(a) and self.zero(b)) if sym in "+-" else False
        # Python raises on a float division by zero; numpy does not.
        guard = f"{lb} == 0.0" if sym == "/" and not (
            isinstance(b, float) and b != 0.0) else None
        return self._emit((sym, la, lb), f"{la} {sym} {lb}", zero, guard=guard)

    def neg(self, a):
        if isinstance(a, float):
            return -a
        return self._emit(("neg", a), f"-{a}", self.zero(a))

    def call(self, fn, *args):
        texts = ", ".join(map(_lit, args))
        return self._emit((fn, texts), f"_{fn}({texts})", call=(fn, texts))

    def check(self, a, sym, b):
        """Fail where the interpreter raises: when ``a <sym> b`` holds."""
        if isinstance(a, float):
            if _CHECKS[sym](a, b):
                self.fail()
            return
        condition = f"{a} {sym} {_lit(b)}"
        if condition not in self.checks:
            self.checks.add(condition)
            self._line(f"if {condition}: raise ValueError",
                       f"_fail(_site, {self._site()}, {condition})")

    def fail(self, var=None):
        """Fail at every state, at the unbound variable ``var`` or else at the
        node evaluated (a check that holds, a function that is unknown)."""
        if var is not None:
            self.at = (var, ())
        self._site()
        self._line("raise ValueError")
        return "_unreachable"

    def seed(self, term, i):
        """The variable ``term`` carrying the i-th derivative channel."""
        return _Dual(term, [1.0 if j == i else 0.0 for j in range(self.k)], {})

    # -- hyper-duals ----------------------------------------------------------

    def _hmul(self, a, b):
        if a is None or b is None or self.zero(a) or self.zero(b):
            return None
        return self.op("*", a, b)

    def _hsum(self, *terms):
        total = None
        for t in terms:
            if t is not None:
                total = t if total is None else self.op("+", total, t)
        return None if total is None or self.zero(total) else total

    def _pairs(self):
        return ((i, j) for i in range(self.k) for j in range(i, self.k)) \
            if self.hessian else ()

    def _hess(self, entries):
        return {ij: h for ij, h in entries if h is not None}

    def dual_add(self, a, b, sym):
        """a + b or a - b."""
        hess = dict(a.hess)
        for ij, h in b.hess.items():
            hess[ij] = self.op(sym, hess[ij], h) if ij in hess else \
                (h if sym == "+" else self.neg(h))
        return _Dual(self.op(sym, a.value, b.value),
                     [self.op(sym, x, y) for x, y in zip(a.grad, b.grad)],
                     self._hess((ij, None if self.zero(h) else h)
                                for ij, h in hess.items()))

    def dual_mul(self, a, b):
        op, hmul = self.op, self._hmul
        grad = [op("+", op("*", a.value, gb), op("*", ga, b.value))
                for ga, gb in zip(a.grad, b.grad)]
        hess = self._hess(
            ((i, j), self._hsum(hmul(a.value, b.hess.get((i, j))),
                                hmul(a.grad[i], b.grad[j]),
                                hmul(a.grad[j], b.grad[i]),
                                hmul(a.hess.get((i, j)), b.value)))
            for i, j in self._pairs())
        return _Dual(op("*", a.value, b.value), grad, hess)

    def scale(self, a, s):
        """HyperDual times a plain float."""
        return _Dual(self.op("*", a.value, s), [self.op("*", g, s) for g in a.grad],
                     self._hess((ij, self._hmul(h, s)) for ij, h in a.hess.items()))

    def shift(self, a, s, sym):
        """HyperDual plus or minus a plain float: channels unchanged."""
        return _Dual(self.op(sym, a.value, s), a.grad, a.hess)

    def dual_neg(self, a, value=None):
        """-a, or ``value`` with the channels of -a (float minus a)."""
        return _Dual(self.neg(a.value) if value is None else value,
                     [self.neg(g) for g in a.grad],
                     {ij: self.neg(h) for ij, h in a.hess.items()})

    def compose(self, a, u, du, ddu):
        hmul = self._hmul
        hess = self._hess(
            ((i, j), self._hsum(hmul(du, a.hess.get((i, j))),
                                hmul(hmul(ddu, a.grad[i]), a.grad[j])))
            for i, j in self._pairs())
        return _Dual(u, [self.op("*", du, g) for g in a.grad], hess)

    def reciprocal(self, a):
        v, op = a.value, self.op
        vv = op("*", v, v)
        return self.compose(a, op("/", 1.0, v), op("/", -1.0, vv),
                            op("/", 2.0, op("*", vv, v)))

    # -- the evaluator, mirroring expr.evaluate --------------------------------

    def evaluate(self, e, env):
        if isinstance(e, _expr.Const):
            return float(e.value)
        if isinstance(e, _expr.Var):
            return env[e.name] if e.name in env else self.fail(e)
        if isinstance(e, _expr.Unary):
            x = self.evaluate(e.arg, env)
            if e.op == "neg":
                return self.dual_neg(x) if isinstance(x, _Dual) else self.neg(x)
            self.at = (e, (x,))
            return self.function(e.op, x)
        if isinstance(e, _expr.Binary):
            a, b = self.evaluate(e.left, env), self.evaluate(e.right, env)
            self.at = (e, (a, b))
            return self.binary(e.op, a, b)
        if isinstance(e, _expr.Power):
            x = self.evaluate(e.base, env)
            self.at = (e, (x,))
            return self.power(x, e.exponent, e.integer)
        raise TypeError(f"not an expression node: {e!r}")

    def binary(self, sym, a, b):
        da, db = isinstance(a, _Dual), isinstance(b, _Dual)
        if not (da or db):
            return self.op(sym, a, b)
        if sym == "/":
            if db:
                self.check(b.value, "==", 0.0)
                r = self.reciprocal(b)
                return self.dual_mul(a, r) if da else self.scale(r, a)
            self.check(b, "==", 0.0)
            return self.scale(a, self.op("/", 1.0, b))
        if da and db:
            return self.dual_mul(a, b) if sym == "*" else self.dual_add(a, b, sym)
        if sym == "*":
            return self.scale(a, b) if da else self.scale(b, a)
        if da or sym == "+":
            return self.shift(a, b, sym) if da else self.shift(b, a, sym)
        return self.dual_neg(b, value=self.op("-", a, b.value))  # float - HyperDual

    def function(self, name, x):
        if name not in _expr.FUNCTIONS:
            return self.fail()
        if not isinstance(x, _Dual):
            if name in ("sqrt", "log"):
                self.check(x, "<" if name == "sqrt" else "<=", 0.0)
            return self.call(name, x)
        v, op = x.value, self.op
        if name in ("sin", "cos"):
            s, c = self.call("sin", v), self.call("cos", v)
            if name == "sin":
                return self.compose(x, s, c, self.neg(s))
            return self.compose(x, c, self.neg(s), self.neg(c))
        if name == "tan":
            t = self.call("tan", v)
            d = op("+", 1.0, op("*", t, t))
            return self.compose(x, t, d, op("*", op("*", 2.0, t), d))
        if name == "exp":
            u = self.call("exp", v)
            return self.compose(x, u, u, u)
        self.check(v, "<=", 0.0)
        if name == "log":
            return self.compose(x, self.call("log", v), op("/", 1.0, v),
                                op("/", -1.0, op("*", v, v)))
        u = self.call("sqrt", v)
        du = op("/", 0.5, u)
        return self.compose(x, u, du, op("/", op("*", -0.5, du), v))

    def power(self, x, exponent, integer):
        if integer:
            n = int(exponent)
            if n == 0:
                return 1.0
            result = x
            for _ in range(abs(n) - 1):
                result = self.binary("*", result, x)
            return self.binary("/", 1.0, result) if n < 0 else result
        if not isinstance(x, _Dual):
            self.check(x, "<=", 0.0)
            return self.call("pow", x, exponent)
        v, r, op = x.value, exponent, self.op
        self.check(v, "<=", 0.0)
        return self.compose(x, self.call("pow", v, r),
                            op("*", r, self.call("pow", v, r - 1.0)),
                            op("*", r * (r - 1.0), self.call("pow", v, r - 2.0)))

    # -- outputs ----------------------------------------------------------------

    def outputs(self, results):
        """Per result: the value, the gradient and the mirrored row-major
        Hessian."""
        k = self.k
        out = []
        for x in results:
            if not isinstance(x, _Dual):   # no seeded variable reached it
                x = _Dual(x, [0.0] * k, {})
            out += [x.value, *x.grad]
            out += [x.hess.get((min(i, j), max(i, j)), 0.0)
                    for i in range(k) for j in range(k)]
        return out


def _failed(exc, header):
    """The site (line less ``header``) and locals where a called kernel raised ``exc``."""
    kernel = exc.__traceback__.tb_next
    return kernel.tb_lineno - header, kernel.tb_frame.f_locals


@dataclass
class Sweep:
    """One generated kernel in its two forms, each compiled on first use,
    and its failure sites.

    ``scalar`` takes one state, one float per argument, and returns its
    outputs as packed doubles (``struct``, native order).  ``array`` takes
    one float64 array of N lanes per argument and returns the outputs as an
    (outputs, N) array, each lane's failure site (0 for none) and, if a
    lane fails, the kernel's locals, each assigned once (else a false value).  ``sites`` maps a
    site to its node, the terms of the node's operands (a local's name or
    a float) and whether each carries derivative channels.
    """

    label: str
    outputs: int
    scalar_source: str
    array_source: str
    sites: dict

    def run(self, *args):
        """The scalar kernel's outputs at ``args``; where it fails, :meth:`error`."""
        try:
            return self.scalar(*args)
        except (ArithmeticError, ValueError) as exc:
            site, local = _failed(exc, 1)
            raise self.error(site, [local.get(t, t) for t in self.sites[site][1]]) from None

    def error(self, site, values) -> EvalError:
        """The :class:`~vaknh.errors.EvalError` of the interpreter's operation
        at the node of ``site`` on the operand ``values``, hyper-duals where
        they carry derivative channels; ``RuntimeError`` if it does not fail."""
        node, _, channels = self.sites[site]
        x = [HyperDual(value) if dual else value for value, dual in zip(values, channels)]
        if isinstance(node, _expr.Var):
            return _expr._unbound(node.name)
        try:
            if isinstance(node, _expr.Unary):
                _expr._call_function(node.op, *x, node)
            elif isinstance(node, _expr.Power):
                _expr.power_value(*x, node.exponent, node.integer, node)
            else:
                _expr._divide(*x, node)
        except EvalError as exc:
            return exc
        raise RuntimeError(f"{self.label}: the kernel failed where its interpreter does not")

    @cached_property
    def scalar(self) -> Callable:
        return _build(self.scalar_source, self.label,
                      dict(_GLOBALS, _pack=struct.Struct(f"{self.outputs}d").pack))

    @cached_property
    def array(self) -> Callable:
        return _build(self.array_source, self.label, _ARRAY_GLOBALS)


def _build(source, label, globals_):
    namespace = dict(globals_)
    exec(compile(source, f"<{label}>", "exec"), namespace)
    return namespace.pop("kernel")   # no cycle through the kernel's globals


def _generate(label, names, seeded, hessian, evaluate) -> Sweep:
    """Emit both kernels of ``evaluate(builder, env)``, which returns the output
    terms, taking ``names`` in order; the variables ``seeded`` carry the
    channels, from the start or once ``builder.seed`` seeds them."""
    b = _Emitter(len(seeded), hessian)
    args = {name: f"x{i}" for i, name in enumerate(names)}
    env = dict(args)
    for i, name in enumerate(seeded):
        if name in args:
            env[name] = b.seed(args[name], i)
    out = evaluate(b, env)

    head = f"def kernel({', '.join(args.values())}):\n"
    scalar = (head + "".join(f"    {line}\n" for line in b.lines)
              + f"    return _pack({', '.join(map(_lit, out))})\n")
    stores = "".join(f"    _o[{i}] = {_lit(term)}\n"
                     for i, term in enumerate(out) if not _is(term, 0.0))
    array = (head + "    _site = _zeros(len(x0), int)\n"
             + "".join(f"    {line}\n" for line in b.array_lines)
             + f"    _o = _zeros(({len(out)}, len(x0)))\n{stores}"
             + f"    return _o, _site, {'_any(_site) and locals()' if b.sites else None}\n")
    return Sweep(label, len(out), scalar, array, b.sites)


def compile_sweep(sys, kind: str) -> Sweep:
    """Build the kernels of one sweep of ``sys``.

    The kernels take the flat state: (q, all v) for ``ambient``, (q, base
    v, mult) for ``field`` and (q, base v) otherwise.  ``restricted``
    returns the jets of psi alone, in declaration order, each as its value,
    gradient and row-major Hessian in (q, base v); ``ambient`` the jet of
    the Lagrangian in (q, all v).  ``lift`` is the Legendre lift: it
    completes the velocities with psi on plain floats, as
    :func:`vaknh.expr.evaluate` computes them (the values kernel of
    :func:`compile_gradients` with nothing seeded), seeds the dependent
    ones like the base ones, and returns the n completed velocities, then
    the Lagrangian's gradient in the velocities there, the n momenta, then
    the Lagrangian's value there on plain floats, as
    :func:`vaknh.expr.evaluate` computes it.

    ``field`` continues the restricted sweep with the restricted Lagrangian
    L~ (L at the velocities psi's jets complete) and the m multipliers,
    which carry no derivative channels.  It returns the jet of the shifted
    Lagrangian Lambda = L~ - mult . psi; then the derivative of the packed
    state (q, v, mult) as far as it is known without the solve: the n
    completed velocities (v, and psi at the dependent coordinates), n-m
    zeros in place of the base accelerations and the m entries of
    Lambda's gradient at the dependent positions; then the gradients of
    psi in the base velocities, one m x (n-m) matrix row by row.  The
    shift subtracts mult_j * psi_j from every entry of L~'s jet for
    j = 0, 1, ... in turn, the operations of the numpy shift of the rows
    of psi and L~ (the tests' oracle), so the jet is its result bit for bit.
    """
    coords = list(sys.coords)
    base = coords + [sys.velocity_of(c) for c in sys.base]
    full = coords + [sys.velocity_of(c) for c in coords]
    # Not identifiers, so no variable of the system file can name them.
    mult = [f"mult {j}" for j in range(sys.m)]

    def restricted(b, env):
        results = []
        for c in sys.dependent:
            results.append(b.evaluate(sys.psi[c], env))
            env[sys.velocity_of(c)] = results[-1]
        return b.outputs(results)

    def lagrangian(b, env):
        return b.outputs([b.evaluate(sys.lagrangian, env)])

    def field(b, env):
        out, size = restricted(b, env), 1 + len(base) + len(base) ** 2
        psi = [out[j * size:(j + 1) * size] for j in range(sys.m)]
        lam = lagrangian(b, env)
        for j in range(sys.m):
            lam = [b.op("-", x, b.op("*", env[mult[j]], y)) for x, y in zip(lam, psi[j])]
        # A psi that no seeded variable reaches is a plain term, not a _Dual.
        value = {c: row[0] for c, row in zip(sys.dependent, psi)}
        dq = [value[c] if c in value else env[sys.velocity_of(c)].value for c in coords]
        dp = [lam[1 + sys.coord_index(c)] for c in sys.dependent]
        return (lam + dq + [0.0] * (sys.n - sys.m) + dp
                + [g for row in psi for g in row[1 + sys.n:1 + len(base)]])

    def completion(b, env):
        return [b.evaluate(sys.psi[c], env) for c in sys.dependent]

    def lift(b, env):
        # psi, then L, on the plain values of the velocities
        plain = {**env, **{name: env[name].value for name in base[sys.n:]}}
        for c, value in zip(sys.dependent, completion(b, plain)):
            plain[sys.velocity_of(c)] = value
            env[sys.velocity_of(c)] = b.seed(value, sys.coord_index(c))
        return ([plain[name] for name in full[sys.n:]] + lagrangian(b, env)[1:1 + sys.n]
                + [b.evaluate(sys.lagrangian, plain)])

    names, seeded, evaluate = {
        "restricted": (base, base, restricted),
        "field": (base + mult, base, field),
        "ambient": (full, full, lagrangian),
        "lift": (base, full[sys.n:], lift),
    }[kind]
    return _generate(f"{kind} sweep of {sys.name}", names, seeded,
                     kind in ("restricted", "ambient", "field"), evaluate)


def compile_gradients(trees, names, seeded) -> Sweep:
    """Build the kernels of ``trees`` taking the variables ``names`` in
    order: per tree, its value, then its gradient in the variables
    ``seeded``, each entry equal bit for bit to :func:`vaknh.autodiff.partial`.
    With nothing seeded the values are :func:`vaknh.expr.evaluate`'s."""
    def gradients(b, env):
        k = len(seeded)
        return [x for tree in trees for x in b.outputs([b.evaluate(tree, env)])[:1 + k]]

    return _generate("gradients", names, seeded, False, gradients)
