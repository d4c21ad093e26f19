"""Generated derivative kernels for the dynamics equations.

One hyper-dual sweep returns the value, full gradient and full Hessian of an
expression with respect to a chosen variable ordering.  A system has four
kinds of sweep (:func:`vaknh._kernel.compile_sweep`), named here with the
function that runs each at one state:

* ``restricted`` (``restricted_table``): the jets of psi alone, in
  (positions, base velocities);
* ``ambient`` (``ambient_table``): the jet of the full Lagrangian in
  (positions, all velocities) at completed velocities;
* ``field`` (``field_sweep``): the restricted sweep continued through the
  restricted Lagrangian L~ and the multiplier shift of the reduced
  equations (:mod:`vaknh.vakonomic`);
* ``lift`` (``ambient_velocity_gradient``): the Legendre lift, the
  completion, then the velocity gradient of L and L's value there.

:mod:`vaknh._kernel` generates the kernels on the first sweep.  One store,
``_SWEEPS``, keeps the last ``_SWEEPS_KEPT`` generated sweeps of the
process, for equal systems loaded again and for equal candidate functions
(``gradient_kernel``).  Each kernel gives the bits of the interpreter it
is generated from, :func:`vaknh.expr.evaluate` over
:class:`~vaknh.autodiff.HyperDual` numbers or plain floats, in every value,
every gradient entry and, while the intermediate values are finite, every
Hessian entry of the upper triangle, up to the sign of a zero outside the
structural pattern; Hessians are mirrored, so exactly symmetric.
``Sweep.run`` runs a kernel at one state and ``run_lanes`` its array form
over N stacked states.  Where either fails, the failure site gives the
interpreter's error (``Sweep.error``); no tree is evaluated.  A sweep
called with the wrong number of entries raises the kernel's ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernel import Sweep, _failed, compile_gradients, compile_sweep


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
    """Jets of the constraint functions psi.

    Variable order: the n positions followed by the n-m base velocities,
    k = 2n-m variables in all.  The jets, one per psi in declaration order,
    are the rows of one read-only buffer ``rows`` of shape (m, 1+k+k*k),
    each the value, the gradient and the row-major Hessian; ``grads`` and
    ``hessians`` are views of it, with a leading axis for the tables of N
    stacked states in one (N, m, 1+k+k*k) buffer.
    """

    rows: np.ndarray
    n: int
    m: int

    @property
    def k(self) -> int:
        return 2 * self.n - self.m

    @property
    def grads(self) -> np.ndarray:
        return self.rows[..., 1:1 + self.k]

    @property
    def hessians(self) -> np.ndarray:
        return self.rows[..., 1 + self.k:].reshape(self.rows.shape[:-1] + (self.k, self.k))


# ---------------------------------------------------------------------------
# Generated kernels
# ---------------------------------------------------------------------------


# Sweeps already generated in this process, oldest first, keyed by what the
# generated source depends on: the kind (or "psi", the values of psi) and
# ``SystemDef._key``, or the candidate functions.
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
    """Run the array form of ``sweep`` over stacked states, the columns of
    the (N, .) arrays ``blocks``, with numpy's warnings silenced.  Returns
    the (N, outputs) results, each lane's failure site (0 for none) and an
    (N, 2) array of the operand values there, None if no lane fails.  Where
    a line raises for every lane (a term no input reaches), the lanes that
    have not failed before fail there, and every result is NaN."""
    columns = np.ascontiguousarray(np.concatenate(blocks, axis=1, dtype=float).T)
    with np.errstate(all="ignore"):
        try:
            out, site, local = sweep.array(*columns)
        except (ArithmeticError, ValueError) as exc:
            at, local = _failed(exc, 2)
            site = np.where(local["_site"] == 0, at, local["_site"])
            out = np.full((sweep.outputs, len(site)), np.nan)
    values = np.zeros((len(site), 2)) if local else None
    for k in np.unique(site[site != 0]).tolist() if local else []:
        lanes = site == k
        for j, term in enumerate(sweep.sites[k][1]):   # a local's name, or a float
            values[lanes, j] = np.broadcast_to(local.get(term, term), site.shape)[lanes]
    return np.ascontiguousarray(out.T), site, values


def _rows(packed, count, k):
    """A kernel's output as ``count`` rows, one jet of ``k`` variables each
    (value, gradient, row-major Hessian): a read-only view of the buffer."""
    return np.frombuffer(packed).reshape(count, 1 + k + k * k)


def restricted_table(sys, q, v) -> RestrictedTable:
    """Differentiate psi at (q, v): the jets of the constraint functions
    alone, so no value of the Lagrangian can fail them."""
    packed = _kernel(sys, "restricted").run(*_flat(q, v))
    return RestrictedTable(_rows(packed, sys.m, 2 * sys.n - sys.m), sys.n, sys.m)


def ambient_table(sys, q, v_full) -> Jet:
    """The jet of the ambient Lagrangian at completed velocities, with
    every velocity treated as an independent variable, in (positions, all
    velocities)."""
    packed = _kernel(sys, "ambient").run(*_flat(q, v_full))
    k = 2 * sys.n
    return _row_jet(_rows(packed, 1, k)[0], k)


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


def _psi_values(sys) -> Sweep:
    """The values kernel of the psi trees in (positions, base velocities),
    kept under ("psi", ``SystemDef._key``): no key is built from the trees."""
    return _kept(_SWEEPS, _SWEEPS_KEPT, ("psi", sys._key), lambda: compile_gradients(
        [sys.psi[c] for c in sys.dependent], sys.state_names[:2 * sys.n - sys.m], ()))


def completion(sys, q, v):
    """The dependent velocities psi(q, v), evaluated on plain floats bit for
    bit as :func:`vaknh.expr.evaluate` does, by ``_psi_values``'s kernel."""
    return np.frombuffer(bytearray(_psi_values(sys).run(*_flat(q, v))))
