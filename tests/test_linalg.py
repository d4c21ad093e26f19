"""The determinant guard and the stage's solve call numpy's LAPACK gufuncs
directly (``vakonomic.det_threshold``, ``vakonomic._solve_ignoring``).  They must
give what ``np.linalg.det`` and ``np.linalg.solve`` give: the same bits,
the same exception with the same text, and the same warnings.  A numpy
release that changes either function makes these tests fail.
"""

import warnings

import numpy as np
import pytest

from vaknh.errors import SingularMatrixError
from vaknh.integrate import integrate
from vaknh.system import VakState
from vaknh.vakonomic import _solve_ignoring, det_threshold, vak_rhs

from conftest import get_model

_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-310, 1e-300, -1e-300,
                     1e300, -1e300, 1.0, -1.0, 2.0, 0.5])
_PER_SIZE = 34_000


def _entries(rng, shape):
    """Random entries: mostly normal numbers over six decades, the rest
    signed zeros, subnormals, 1e±300 and small exact values."""
    normal = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    special = _SPECIAL[rng.integers(0, len(_SPECIAL), shape)]
    return np.where(rng.random(shape) < 0.3, special, normal)


def _matrices(rng, n):
    """``_PER_SIZE`` n x n matrices; every other one is a strided view of a
    larger matrix, as the reduced matrix is a block of the Hessian."""
    big = _entries(rng, (_PER_SIZE, 5, 5))
    return [big[i, 5 - n:, 5 - n:] if i % 2 else big[i, :n, :n].copy()
            for i in range(_PER_SIZE)]


def _outcome(fn, *args):
    """fn(*args) as its bits, or as the type and text of what it raised,
    with the warnings it emitted."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        try:
            result = ("value", np.asarray(fn(*args), dtype=float).tobytes())
        except Exception as exc:   # compared, not swallowed
            result = ("raised", type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in log]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _solve(c, r):
    """The stage's solve, with floating-point errors ignored as the stage
    ignores them."""
    with np.errstate(all="ignore"):
        return _solve_ignoring(c, r)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_det_equals_numpy_det_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    matrices = _matrices(rng, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # neither side may warn here
        with np.errstate(all="ignore"):
            dets = [det_threshold(c, n)[0] for c in matrices]
            expected = [float(np.linalg.det(c)) for c in matrices]
            assert _bits(dets) == _bits(expected)
            # Stacked input: one call over all matrices, and over a view.
            stack = np.array(matrices)
            assert _bits(det_threshold(stack, n)[0]) == _bits(np.linalg.det(stack))
            assert _bits(det_threshold(stack, n)[0]) == _bits(expected)
            view = stack[::-3].transpose(0, 2, 1)
            assert _bits(det_threshold(view, n)[0]) == _bits(np.linalg.det(view))
    assert any(d == 0.0 for d in dets) and any(abs(d) > 1e299 for d in dets)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solve_equals_numpy_solve_bit_for_bit(n):
    rng = np.random.default_rng(200 + n)
    matrices = _matrices(rng, n)
    rights = _entries(rng, (_PER_SIZE, n))
    raised = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # neither side may warn
        for c, r in zip(matrices, rights):
            try:
                expected = np.linalg.solve(c, r)
            except np.linalg.LinAlgError as exc:
                raised += 1
                with pytest.raises(np.linalg.LinAlgError) as got:
                    _solve(c, r)
                assert str(got.value) == str(exc)
                continue
            assert _bits(_solve(c, r)) == _bits(expected)
    # Both paths ran: singular matrices and solved ones.
    assert 0 < raised < _PER_SIZE // 2


_EDGES = {
    "singular": ([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]),
    "nan-with-zero-row": ([[np.nan, 1.0], [0.0, 0.0]], [1.0, 1.0]),
    "nan": ([[np.nan, 1.0], [1.0, 0.0]], [1.0, 1.0]),
    "inf-r": ([[2.0, 1.0], [1.0, 3.0]], [np.inf, 1.0]),
    "inf-r-identity": ([[1.0, 0.0], [0.0, 1.0]], [np.inf, 1.0]),
    "nan-r": ([[2.0, 1.0], [1.0, 3.0]], [np.nan, 1.0]),
    "overflowing-r": ([[1e-300, 0.0], [0.0, 1e-300]], [1e300, 1.0]),
    "overflowing-r-1x1": ([[1e-300]], [1e300]),
    "underflowing-r": ([[1e300, 0.0], [0.0, 1.0]], [1e-300, 1.0]),
    "zero-1x1": ([[0.0]], [1.0]),
}


@pytest.mark.parametrize("errors", ["default", "raise"])
@pytest.mark.parametrize("case", list(_EDGES))
def test_edge_cases_raise_and_warn_as_numpy(case, errors):
    c, r = (np.array(x) for x in _EDGES[case])
    with np.errstate(**({"all": "raise"} if errors == "raise" else {})):
        assert _outcome(_solve, c, r) == _outcome(np.linalg.solve, c, r)
        # Order 0 keeps the threshold at DET_RTOL, so that only the
        # determinant can raise or warn.
        assert (_outcome(lambda c: det_threshold(c, 0)[0], c)
                == _outcome(lambda c: float(np.linalg.det(c)), c))


def test_singular_stage_in_integrate_keeps_error_det_and_state():
    # The capital-growth model's reduced matrix is proportional to the
    # multiplier: a zero multiplier stops the first stage.
    vn = get_model("von_neumann2")
    s0 = VakState([1.5, 1.2], [0.3], [0.0])
    with pytest.raises(Exception) as info:
        integrate(vn, "vak", s0, t_end=1.0)
    error = info.value.__cause__
    assert isinstance(error, SingularMatrixError)
    assert isinstance(error.state, VakState)
    assert _bits(np.concatenate([error.state.q, error.state.v, error.state.p_dep])) \
        == _bits(np.concatenate([s0.q, s0.v, s0.p_dep]))
    with pytest.raises(SingularMatrixError) as direct:
        vak_rhs(vn, s0)
    assert str(direct.value) == str(error)
    assert _bits(direct.value.det) == _bits(error.det)
    assert str(error) in str(info.value)
