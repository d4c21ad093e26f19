"""The determinant guard of the reduced equations.  Its threshold is formed
in Python floats (``vakonomic._threshold``), and the stage skips the LAPACK
det of a 2 x 2 reduced matrix that ``vakonomic._certainly_regular``
certifies.  The threshold must equal the reference guard's
(``oracles.reference_det_threshold``) bit for bit, a skipped det must be one
the reference guard passes, and an integration that never skips must give
the same bytes as one that does.
"""

import math

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from vaknh import vakonomic
from vaknh.integrate import integrate, trajectory_to_csv
from vaknh.system import NhState
from vaknh.vakonomic import DET_RTOL, _certainly_regular, _threshold, det_threshold

from conftest import LINEAR_MODELS, get_model, random_states
from oracles import reference_det_threshold

_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-310, 1e-160, 1e-300,
                     1e154, -1e155, 1e200, -1e300, 1.7e308, math.inf, -math.inf, math.nan,
                     1.0, -2.0])
_PER_SIZE = 34_000


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _matrices(rng, n):
    """``_PER_SIZE`` n x n matrices over the whole double range, with NaN,
    infinities, subnormals and entries whose square overflows; every other
    one is a strided view of a larger matrix."""
    shape = (_PER_SIZE, 4, 4)
    normal = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    special = _SPECIAL[rng.integers(0, len(_SPECIAL), shape)]
    big = np.where(rng.random(shape) < 0.1, special, normal)
    return [big[i, 4 - n:, 4 - n:] if i % 2 else big[i, :n, :n].copy()
            for i in range(_PER_SIZE)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_threshold_equals_the_reference_bit_for_bit(n):
    matrices = _matrices(np.random.default_rng(400 + n), n)
    with np.errstate(all="ignore"):
        got = [det_threshold(c, n) for c in matrices]
        expected = [reference_det_threshold(c, n) for c in matrices]
        assert _bits(got) == _bits(expected)
        assert all(type(threshold) is float for _, threshold in got)
        stack = np.array(matrices)
        for stacked in (stack, stack[::-3].transpose(0, 2, 1)):
            assert _bits(det_threshold(stacked, n)) == _bits(reference_det_threshold(stacked, n))
    thresholds = np.array([threshold for _, threshold in got])
    # NaN, overflowing and underflowing thresholds all occurred.
    assert np.isnan(thresholds).any() and np.isinf(thresholds).any()
    assert (thresholds == 0.0).any()


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_threshold_power_equals_numpy_scalar_power(order):
    rng = np.random.default_rng(500 + order)
    with np.errstate(all="ignore"):
        largest = np.abs(np.concatenate([
            rng.standard_normal(100_000) * 10.0 ** rng.uniform(-320, 308, 100_000),
            _SPECIAL])).tolist()
        expected = [DET_RTOL * np.float64(x) ** order for x in largest]
    assert _bits([_threshold(x, order) for x in largest]) == _bits(expected)


def _near_threshold(rng, count):
    """``count`` 2 x 2 matrices at scales 10**-120 to 10**120 whose |det|
    is 0.1 to 30 times the threshold of their first three entries."""
    scale = 10.0 ** rng.uniform(-120, 120, count)
    a = rng.choice([-1.0, 1.0], count) * rng.uniform(0.5, 2.0, count) * scale
    b, c = rng.standard_normal((2, count)) * scale
    largest = np.maximum(np.abs(a), np.maximum(np.abs(b), np.abs(c)))
    ratio = 10.0 ** rng.uniform(-1, math.log10(30.0), count)
    det = rng.choice([-1.0, 1.0], count) * ratio * DET_RTOL * largest ** 2
    return np.stack([a, b, c, (det + b * c) / a], axis=1).reshape(count, 2, 2)


def test_the_skip_agrees_with_the_exact_guard():
    matrices = _near_threshold(np.random.default_rng(600), 200_000)
    dets, thresholds = reference_det_threshold(matrices, 2)
    passes = np.abs(dets) > thresholds
    skipped = []
    for (c00, c01), (c10, c11) in matrices.tolist():
        largest = max(abs(c00), abs(c01), abs(c10), abs(c11))
        skipped.append(_certainly_regular(c00, c01, c10, c11, largest,
                                          _threshold(largest, 2)))
    skipped = np.array(skipped)
    # A skipped det is one the exact guard passes: the stage decides as
    # the guard does.
    assert not (skipped & ~passes).any()
    # Every kind of matrix occurred: skipped, checked and passed, singular,
    # and out of the skip's range.
    assert skipped.sum() > 20_000 and (passes & ~skipped).sum() > 20_000
    assert (~passes).sum() > 20_000
    scales = np.abs(matrices).max(axis=(1, 2))
    assert not skipped[(scales <= 1e-100) | (scales >= 1e100)].any()
    assert passes[(scales <= 1e-100) | (scales >= 1e100)].sum() > 1_000


@pytest.mark.parametrize("method", ["rk45", "rk4"])
@pytest.mark.parametrize("dynamics", ["vak", "nh"])
@pytest.mark.parametrize("name", LINEAR_MODELS)
def test_the_exact_guard_integrates_the_same_bytes(name, dynamics, method, monkeypatch):
    # With the skip off, every stage runs the det and the guard; the stage
    # must write the stepper's row on that path as on the skip path.
    sysdef = get_model(name)
    s = random_states(name, 1, 71)[0]
    s0 = s if dynamics == "vak" else NhState(s.q, s.v)
    det = _umath_linalg.det
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return det(*args, **kwargs)

    monkeypatch.setattr(_umath_linalg, "det", counted)

    def run():
        calls.clear()
        traj = integrate(sysdef, dynamics, s0, t_end=0.5, method=method, dt=0.05)
        return trajectory_to_csv(sysdef, traj), traj.stats.evaluations, len(calls)

    text, evaluations, skipping_dets = run()
    monkeypatch.setattr(vakonomic, "_certainly_regular", lambda *_: False)
    exact_text, exact_evaluations, exact_dets = run()
    same_bytes = exact_text == text   # (no diff of two whole CSVs on failure)
    assert same_bytes and exact_evaluations == evaluations
    assert skipping_dets < evaluations == exact_dets
