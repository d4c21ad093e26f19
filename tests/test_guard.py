"""The determinant guard of the reduced equations.  Its threshold
(``vakonomic._threshold``) is DET_RTOL times a product of the largest entry
by itself, which a Python float and a float64 array round alike, so one
path serves a matrix and a stack; the stage skips the guard of a 2 x 2
reduced matrix that ``vakonomic._certainly_regular`` certifies.  The
threshold must equal the reference guard's
(``oracles.reference_det_threshold``) bit for bit, on an array as on each
of its floats, and give the verdicts of a guard on libm's ``pow`` but where
|det| lies between the two thresholds; a skipped det must be one the
reference guard passes, and an integration that never skips must give the
same bytes as one that does.
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


def _sizes(rng, count):
    """``count`` largest entries from 1e-320 to 1e308, then ``_SPECIAL``'s:
    zeros, subnormals, NaN, infinities and ones whose powers overflow."""
    with np.errstate(all="ignore"):
        return np.abs(np.concatenate([
            rng.standard_normal(count) * 10.0 ** rng.uniform(-320, 308, count), _SPECIAL]))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_threshold_equals_the_product_of_numpy_scalars(order):
    largest = _sizes(np.random.default_rng(500 + order), 100_000).tolist()
    with np.errstate(all="ignore"):
        expected = [DET_RTOL * math.prod([np.float64(x)] * order) for x in largest]
    assert _bits([_threshold(x, order) for x in largest]) == _bits(expected)


def test_threshold_of_an_array_is_that_of_each_float():
    # The stack's threshold is one product over the array; every element
    # must be the bits of a matrix on its own, for every order.
    largest = _sizes(np.random.default_rng(510), 100_000)
    with np.errstate(all="ignore"):
        for order in range(5):
            stacked = np.broadcast_to(_threshold(largest, order), largest.shape)
            assert _bits(stacked) == _bits([_threshold(x, order) for x in largest.tolist()])
            # Each kind of threshold occurred: NaN, inf, zero and subnormal.
            if order >= 2:
                assert np.isnan(stacked).any() and np.isinf(stacked).any()
                assert (stacked == 0.0).any() and ((0 < stacked) & (stacked < 2.3e-308)).any()


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
    skipped = np.array([_certainly_regular(c00, c01, c10, c11)
                        for (c00, c01), (c10, c11) in matrices.tolist()])
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


def test_the_product_keeps_the_verdicts_of_the_power():
    # libm's pow and the product round apart on a few of these matrices.
    # A verdict may change only where |det| lies between the two
    # thresholds, and on this corpus none does.
    matrices = _near_threshold(np.random.default_rng(600), 200_000)
    dets, thresholds = det_threshold(matrices, 2)
    powered = np.array([DET_RTOL * x ** 2 for x in np.abs(matrices).max(axis=(1, 2)).tolist()])
    changed = thresholds != powered
    assert 0 < changed.sum() < 1_000
    band = ((np.abs(dets) > np.minimum(thresholds, powered))
            & (np.abs(dets) <= np.maximum(thresholds, powered)))
    verdicts, powered_verdicts = np.abs(dets) <= thresholds, np.abs(dets) <= powered
    assert not (verdicts != powered_verdicts)[~band].any()
    assert not band.any()


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
