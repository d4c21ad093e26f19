"""Generated derivative kernels for the dynamics equations.

One hyper-dual sweep returns the value, full gradient and full Hessian of an
expression with respect to a chosen variable ordering.  A system has five
kinds of sweep (:func:`vaknh._kernel.compile_sweep`), named here with the
function that runs each at one state:

* ``restricted`` (``restricted_table``): psi and the Lagrangian restricted
  to the constraint submanifold, in (positions, base velocities);
* ``ambient`` (``ambient_table``): the full Lagrangian in (positions, all
  velocities) at completed velocities;
* ``field`` (``field_sweep``): the restricted sweep continued through the
  multiplier shift of the reduced equations (:mod:`vaknh.vakonomic`);
* ``lift`` (``ambient_velocity_gradient``): the Legendre lift, the
  completion, then the velocity gradient of L and L's value there;
* ``completion`` (``completion``): psi on plain floats, for
  :func:`vaknh.system.complete_velocities` and ``completed_env``.

:mod:`vaknh._kernel` generates the straight-line kernels from the system's
expression trees on the first sweep.  One store, ``_SWEEPS``, keeps the
last ``_SWEEPS_KEPT`` generated sweeps of the process, for equal systems
loaded again and for equal candidate functions (``gradient_kernel``, their
values and gradients).  Each kernel gives the bits of the interpreter it
is generated from, :func:`vaknh.expr.evaluate` over
:class:`~vaknh.autodiff.HyperDual` numbers or plain floats, in every value,
every gradient entry and, while the intermediate values are finite, every
Hessian entry of the upper triangle, up to the sign of a zero outside the
structural pattern.  At one state a sweep runs ``Sweep.run``: where the
kernel fails, ``Sweep.explain`` raises the interpreter's documented error.
A sweep called with the wrong number of entries raises the kernel's
``TypeError``.

``run_lanes`` runs the array form of a kernel once over N stacked states.
It returns the stacked results together with a failure mask: a lane is
marked exactly where the scalar kernel fails at that state, and every other
lane equals the scalar kernel's result bit for bit.  No interpreter runs
there; the caller asks the sweep to explain a marked lane
(``Sweep.explain``).

Kernel Hessians are exactly symmetric: the upper triangle is mirrored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernel import Sweep, compile_gradients, compile_sweep


@dataclass
class Jet:
    """Value, gradient and Hessian of one scalar function at one point.

    The arrays of a kernel's jets are read-only."""

    value: float
    grad: np.ndarray
    hess: np.ndarray


def _row_jet(row, k) -> Jet:
    """The jet of ``k`` variables laid out in ``row`` as the value, the
    gradient and the row-major Hessian."""
    return Jet(float(row[0]), row[1:1 + k], row[1 + k:].reshape(k, k))


@dataclass
class RestrictedTable:
    """Jets of the constraint functions and the restricted Lagrangian.

    Variable order: the n positions followed by the n-m base velocities,
    k = 2n-m variables in all.  The m+1 jets are the rows of one buffer,
    ``rows``, of shape (m+1, 1+k+k*k): psi in declaration order first and
    the Lagrangian last, each row holding the value, the gradient and the
    row-major Hessian.  ``values`` (m+1,), ``grads`` (m+1, k) and
    ``hessians`` (m+1, k, k) are views of that buffer; ``lag``, ``psi`` and
    ``psi_grad`` are slices of them.  A kernel's buffer is read-only.  The
    tables of N stacked states share one buffer of shape (N, m+1, 1+k+k*k),
    and ``values``, ``grads``, ``hessians`` and ``psi_grad`` gain the
    leading axis; ``jet``, ``lag`` and ``psi`` read the table of one state.
    """

    rows: np.ndarray
    n: int
    m: int

    def qi(self, i):
        return i

    def vi(self, a):
        return self.n + a

    @property
    def k(self) -> int:
        return 2 * self.n - self.m

    @property
    def values(self) -> np.ndarray:
        return self.rows[..., 0]

    @property
    def grads(self) -> np.ndarray:
        return self.rows[..., 1:1 + self.k]

    @property
    def hessians(self) -> np.ndarray:
        return self.rows[..., 1 + self.k:].reshape(self.rows.shape[:-1] + (self.k, self.k))

    def jet(self, row) -> Jet:
        """The jet laid out in ``row``: a row of ``rows``, or a linear
        combination of them."""
        return _row_jet(row, self.k)

    @property
    def lag(self) -> Jet:
        return self.jet(self.rows[self.m])

    @property
    def psi(self) -> list[Jet]:
        """One jet per dependent coordinate, in declaration order."""
        return [self.jet(row) for row in self.rows[:self.m]]

    @property
    def psi_grad(self) -> np.ndarray:
        """m x (2n-m) matrix whose rows are the gradients of the psi."""
        return self.grads[..., :self.m, :]


@dataclass
class AmbientTable:
    """Jets of the full Lagrangian in (positions, all velocities)."""

    lag: Jet
    n: int

    def qi(self, i):
        return i

    def vi(self, i):
        return self.n + i


# ---------------------------------------------------------------------------
# Generated kernels
# ---------------------------------------------------------------------------


# Sweeps already generated in this process, oldest first, keyed by what the
# generated source depends on: the kind and ``SystemDef._key``, or the
# candidate functions.
_SWEEPS: dict = {}
_SWEEPS_KEPT = 64


def _kept(store, limit, key, build):
    """The entry of ``store`` under ``key``, or else ``build()``, kept from
    now on, the oldest entry making room when ``store`` holds ``limit``.
    What ``build`` raises is not kept."""
    entry = store.get(key)
    if entry is None:
        entry = build()
        if len(store) >= limit:
            del store[next(iter(store))]
        store[key] = entry
    return entry


def _kernel(sys, kind) -> Sweep:
    """The generated kernels of sweep ``kind`` of ``sys``: those of an equal
    system, if the process still keeps them, or else new ones."""
    return _kept(_SWEEPS, _SWEEPS_KEPT, (kind, sys._key), lambda: compile_sweep(sys, kind))


def gradient_kernel(trees, names, seeded) -> Sweep:
    """The generated values and gradients of ``trees`` in the variables
    ``seeded`` (:func:`vaknh._kernel.compile_gradients`), kept with the
    sweeps."""
    key = ("gradients", tuple(names), tuple(seeded), tuple(map(repr, trees)))
    return _kept(_SWEEPS, _SWEEPS_KEPT, key, lambda: compile_gradients(trees, names, seeded))


def _flat(*vectors):
    """The arguments of a kernel: the entries of the vectors as floats."""
    args = []
    for vector in vectors:
        args += np.asarray(vector, dtype=float).tolist()
    return args


def run_lanes(sweep: Sweep, *blocks):
    """Run the array form of ``sweep`` over stacked states.  ``blocks`` are
    (N, .) arrays whose columns, in order, are the kernel's arguments.
    Returns the (N, outputs) results and the failure mask of the N lanes;
    numpy's floating-point warnings are silenced, since a failed lane is
    marked instead.  A kernel that fails at every state (a term no input
    reaches) marks every lane, with NaN results."""
    columns = np.ascontiguousarray(np.concatenate(blocks, axis=1, dtype=float).T)
    with np.errstate(all="ignore"):
        try:
            out, failed = sweep.array(*columns)
        except (ArithmeticError, ValueError):
            lanes = columns.shape[1]
            out, failed = np.full((sweep.outputs, lanes), np.nan), np.ones(lanes, dtype=bool)
    return np.ascontiguousarray(out.T), failed


def _rows(packed, count, k):
    """A kernel's output as ``count`` rows, one jet of ``k`` variables each
    (value, gradient, row-major Hessian): a read-only view of the buffer."""
    return np.frombuffer(packed).reshape(count, 1 + k + k * k)


def restricted_table(sys, q, v) -> RestrictedTable:
    """Differentiate psi and the restricted Lagrangian at (q, v).

    The dependent velocities are substituted as hyper-duals, so the
    Lagrangian jets chain through the constraint completion.
    """
    k = 2 * sys.n - sys.m
    packed = _kernel(sys, "restricted").run(*_flat(q, v))
    return RestrictedTable(_rows(packed, sys.m + 1, k), sys.n, sys.m)


def ambient_table(sys, q, v_full) -> AmbientTable:
    """Differentiate the ambient Lagrangian at completed velocities, with
    every velocity treated as an independent variable."""
    packed = _kernel(sys, "ambient").run(*_flat(q, v_full))
    k = 2 * sys.n
    return AmbientTable(lag=_row_jet(_rows(packed, 1, k)[0], k), n=sys.n)


def ambient_velocity_gradient(sys, q, v) -> np.ndarray:
    """The Legendre lift at the positions ``q`` and base velocities ``v``,
    from one run of the ``lift`` kernel, 2n+1 entries: the n completed
    velocities, then d(ambient L)/d(velocities) there, the n momenta, then
    the value of L there."""
    return np.frombuffer(bytearray(_kernel(sys, "lift").run(*_flat(q, v))))


def field_sweep(sys, args) -> np.ndarray:
    """The ``field`` kernel at the flat state ``args``, the entries of q,
    base v and the multipliers as floats (``_flat(q, v, mult)``), as one
    array, laid out as :func:`vaknh._kernel.compile_sweep` describes."""
    return np.frombuffer(bytearray(_kernel(sys, "field").run(*args)))


def completion(sys, q, v):
    """The dependent velocities psi(q, v), evaluated on plain floats bit for
    bit as :func:`vaknh.expr.evaluate` does."""
    return np.frombuffer(bytearray(_kernel(sys, "completion").run(*_flat(q, v))))
