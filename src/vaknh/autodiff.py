"""Forward-mode automatic differentiation with second-order hyper-duals.

A :class:`HyperDual` carries a value and three derivative channels: two
first-order seed directions ``d1``, ``d2`` and the cross term ``d12``.
Propagating the truncated Taylor algebra through an expression yields exact
first and second partial derivatives -- no finite-difference truncation.

The derivative channels may hold plain floats or numpy arrays.  Seeding
``d1`` with a column of an identity matrix and ``d2`` with a row turns a
single evaluation into a full gradient-plus-Hessian sweep (the cross terms
broadcast into an outer-product shaped array); the interpreted sweeps of
the tests' oracle (``tests/oracles.py``) rely on this, while the public
``partial``/``second_partial``/``gradient`` operations stick to scalar seeds.
"""

from __future__ import annotations

import math

from . import expr as _expr

__all__ = ["HyperDual", "partial", "second_partial", "gradient"]


class HyperDual:
    """Second-order truncated Taylor scalar a + b eps1 + c eps2 + d eps1 eps2."""

    __slots__ = ("value", "d1", "d2", "d12")

    def __init__(self, value, d1=0.0, d2=0.0, d12=0.0):
        self.value = value
        self.d1 = d1
        self.d2 = d2
        self.d12 = d12

    def __repr__(self):
        return f"HyperDual({self.value!r}, {self.d1!r}, {self.d2!r}, {self.d12!r})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.value + other.value, self.d1 + other.d1,
                             self.d2 + other.d2, self.d12 + other.d12)
        return HyperDual(self.value + other, self.d1, self.d2, self.d12)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.value - other.value, self.d1 - other.d1,
                             self.d2 - other.d2, self.d12 - other.d12)
        return HyperDual(self.value - other, self.d1, self.d2, self.d12)

    def __rsub__(self, other):
        return HyperDual(other - self.value, -self.d1, -self.d2, -self.d12)

    def __neg__(self):
        return HyperDual(-self.value, -self.d1, -self.d2, -self.d12)

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(
                self.value * other.value,
                self.value * other.d1 + self.d1 * other.value,
                self.value * other.d2 + self.d2 * other.value,
                self.value * other.d12 + self.d1 * other.d2
                + self.d2 * other.d1 + self.d12 * other.value)
        return HyperDual(self.value * other, self.d1 * other,
                         self.d2 * other, self.d12 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            if other.value == 0.0:
                raise ZeroDivisionError("division by zero value")
            return self * other._reciprocal()
        if other == 0.0:
            raise ZeroDivisionError("division by zero")
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        if self.value == 0.0:
            raise ZeroDivisionError("division by zero value")
        return self._reciprocal() * other

    def _reciprocal(self):
        v = self.value
        return self._compose(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    # -- chain rule ----------------------------------------------------------

    def _compose(self, u, du, ddu):
        """Apply a scalar function with value u, first derivative du and
        second derivative ddu at ``self.value``."""
        return HyperDual(u,
                         du * self.d1,
                         du * self.d2,
                         du * self.d12 + ddu * self.d1 * self.d2)

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._compose(s, c, -s)

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._compose(c, -s, -c)

    def tan(self):
        t = math.tan(self.value)
        d = 1.0 + t * t
        return self._compose(t, d, 2.0 * t * d)

    def exp(self):
        u = math.exp(self.value)
        return self._compose(u, u, u)

    def log(self):
        v = self.value
        if v <= 0:
            raise ValueError(f"log of non-positive value {v!r}")
        return self._compose(math.log(v), 1.0 / v, -1.0 / (v * v))

    def sqrt(self):
        v = self.value
        if v <= 0:
            raise ValueError(f"sqrt of non-positive value {v!r} (derivative undefined)")
        u = math.sqrt(v)
        du = 0.5 / u
        return self._compose(u, du, -0.5 * du / v)

    def powreal(self, r):
        v = self.value
        if v <= 0:
            raise ValueError(f"non-integer power of non-positive base {v!r}")
        u = math.pow(v, r)
        return self._compose(u, r * math.pow(v, r - 1.0),
                             r * (r - 1.0) * math.pow(v, r - 2.0))


def _seeded_env(env, seeds):
    """Lift ``env`` to hyper-duals; ``seeds`` maps names to (d1, d2) pairs."""
    lifted = {}
    for name, value in env.items():
        s1, s2 = seeds.get(name, (0.0, 0.0))
        lifted[name] = HyperDual(float(value), s1, s2, 0.0)
    return lifted


def partial(e, env, v):
    """Exact first partial derivative of expression ``e`` w.r.t. ``v`` at ``env``."""
    if v not in env:
        raise _expr._unbound(v)
    lifted = _seeded_env(env, {v: (1.0, 0.0)})
    result = _expr.evaluate(e, lifted)
    # constant subtrees evaluate to plain floats
    return result.d1 if isinstance(result, HyperDual) else 0.0


def second_partial(e, env, v1, v2):
    """Exact mixed second partial of ``e`` w.r.t. ``v1`` and ``v2`` at ``env``.

    The seed directions are assigned in a canonical (sorted) order so the
    two argument orders run the identical computation: the result is
    symmetric in (v1, v2) bitwise.
    """
    for v in (v1, v2):
        if v not in env:
            raise _expr._unbound(v)
    if v2 == v1:
        seeds = {v1: (1.0, 1.0)}
    else:
        a, b = sorted((v1, v2))
        seeds = {a: (1.0, 0.0), b: (0.0, 1.0)}
    result = _expr.evaluate(e, _seeded_env(env, seeds))
    return result.d12 if isinstance(result, HyperDual) else 0.0


def gradient(e, env, vars):
    """First partials of ``e`` w.r.t. each name in ``vars`` (in order).

    Implemented as per-variable calls to :func:`partial`, so the result is
    bitwise identical to evaluating the partials one at a time.
    """
    return [partial(e, env, v) for v in vars]
