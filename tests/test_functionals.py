"""Functional evaluation: exact sums, marginals, linearity, additive block sums."""
import itertools
import math
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from latfield._errors import ModelError
from latfield import functionals
from latfield.covariance import (
    ADDITIVE,
    CAUCHY,
    FGN,
    SEPARABLE,
    CompositeCovariance,
    FactorCovariance,
)
from latfield.fieldsim import ADDITIVE_CIRCULANT, FieldSample, LatticeSpec, build_sampler, draw
from latfield.functionals import evaluate, marginal_evaluate
from latfield.hermite import CUSTOM, INDICATOR, PURE, HermiteSpec, hermite_eval


def _sample(values, blocks):
    return FieldSample(values=np.asarray(values, dtype=float),
                       lattice=LatticeSpec(blocks), seed=0, replicate_id=0)


def _one(sample, phi):
    """evaluate on a block of one sample: that sample's value."""
    (y,) = evaluate([sample], phi)
    return y


def test_evaluate_exact_cases():
    zeros = _sample(np.zeros((4, 3)), ((4,), (3,)))
    assert _one(zeros, HermiteSpec(PURE, q=2)) == -12.0
    assert _one(zeros, HermiteSpec(INDICATOR, level=0.0)) == 12.0
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 7))
    s = _sample(x, ((5,), (7,)))
    assert _one(s, HermiteSpec(PURE, q=1)) == pytest.approx(x.sum(), rel=1e-14)


def test_marginal_evaluate():
    zeros = _sample(np.zeros((4, 3)), ((4,), (3,)))
    assert marginal_evaluate(zeros, HermiteSpec(PURE, q=2), block=0, frozen=(1,)) == -4.0
    assert marginal_evaluate(zeros, HermiteSpec(PURE, q=2), block=1, frozen=(2,)) == -3.0

    one = _sample(np.array([[0.7]]), ((1,), (1,)))
    got = marginal_evaluate(one, HermiteSpec(PURE, q=3), block=0, frozen=(0,))
    assert got == pytest.approx(hermite_eval(3, 0.7))

    single_block = _sample(np.arange(6.0), ((6,),))
    assert marginal_evaluate(single_block, HermiteSpec(PURE, q=1), block=0) == 15.0
    for bare in (2.0, np.array(2), np.array([2])):
        assert marginal_evaluate(zeros, HermiteSpec(PURE, q=1), block=1, frozen=bare) == 0.0
    # each index must be an integer in range; these were read as coordinate
    # 1, as coordinate 2 and as block 1, or raised a TypeError
    for block, frozen, named in ((0, (1.7,), "frozen[0]"), (0, ("2",), "frozen[0]"),
                                 (True, (0,), "block"), (1.5, (0,), "block"),
                                 (None, (0,), "block")):
        with pytest.raises(ModelError, match=rf"^{re.escape(named)}: "):
            marginal_evaluate(zeros, HermiteSpec(PURE, q=1), block=block, frozen=frozen)


def test_marginal_fubini():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4, 5))
    s = _sample(x, ((3,), (4, 5)))
    phi = HermiteSpec(PURE, q=2)
    # block 0 marginals, summed over all frozen (axis-1, axis-2) coordinates
    total = sum(
        marginal_evaluate(s, phi, block=0, frozen=(j, k))
        for j, k in itertools.product(range(4), range(5))
    )
    assert total == pytest.approx(_one(s, phi), rel=1e-12)
    # block 1 marginals, frozen axis-0 coordinate
    total = sum(marginal_evaluate(s, phi, block=1, frozen=(i,)) for i in range(3))
    assert total == pytest.approx(_one(s, phi), rel=1e-12)


def test_marginal_validation():
    s = _sample(np.zeros((4, 3)), ((4,), (3,)))
    phi = HermiteSpec(PURE, q=1)
    with pytest.raises(ModelError):
        marginal_evaluate(s, phi, block=2, frozen=(0,))
    with pytest.raises(ModelError):
        marginal_evaluate(s, phi, block=0, frozen=(3,))  # axis 1 has size 3
    with pytest.raises(ModelError):
        marginal_evaluate(s, phi, block=0, frozen=(0, 0))


def test_linearity_via_custom():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 8))
    s = _sample(x, ((8,), (8,)))
    combo = HermiteSpec(
        CUSTOM, func=lambda v: 2.0 * hermite_eval(1, v) + 3.0 * hermite_eval(2, v)
    )
    expected = 2.0 * _one(s, HermiteSpec(PURE, q=1)) + 3.0 * _one(
        s, HermiteSpec(PURE, q=2)
    )
    assert _one(s, combo) == pytest.approx(expected, rel=1e-14)


_ADDITIVE_CASES = {
    "1-D blocks": (
        CompositeCovariance(
            ADDITIVE,
            (FactorCovariance(CAUCHY, exponent=0.48), FactorCovariance(CAUCHY, exponent=3.0)),
            weights=(0.1, 0.9),
        ),
        ((64,), (23,)),
    ),
    "2-D block": (
        CompositeCovariance(
            ADDITIVE,
            (FactorCovariance(CAUCHY, dim=2, exponent=1.0), FactorCovariance(FGN, hurst=0.7)),
            weights=(0.4, 0.6),
        ),
        ((5, 4), (6,)),
    ),
}


def _additive_sampler(case):
    cov, blocks = _ADDITIVE_CASES[case]
    sampler = build_sampler(cov, LatticeSpec(blocks))
    assert sampler.method == ADDITIVE_CIRCULANT
    return sampler


@pytest.mark.parametrize("case", list(_ADDITIVE_CASES))
def test_additive_pure_functional_comes_from_the_block_sums(case):
    # the addition theorem over the per-block Hermite sums gives the sum of
    # H_q over the broadcast lattice field, for both halves of two pairs,
    # without building that field
    sampler = _additive_sampler(case)
    n = sampler.lattice.n_total
    for q in range(1, 7):
        phi = HermiteSpec(PURE, q=q)
        for r in range(4):
            sample = draw(sampler, seed=17, replicate_id=r)
            y = _one(sample, phi)
            assert sample._values is None  # the lattice field was never built
            direct = float(np.sum(phi(sample.values)))
            scale = max(abs(direct), math.sqrt(math.factorial(q) * n))
            assert abs(y - direct) <= 1e-12 * scale, (q, r, y, direct)


@pytest.mark.parametrize("case", list(_ADDITIVE_CASES))
def test_other_functionals_read_the_additive_lattice_field(case):
    sampler = _additive_sampler(case)
    lattice = sampler.lattice
    sample = draw(sampler, seed=23, replicate_id=3)
    field = _sample(sample.values, lattice.blocks)
    above = HermiteSpec(INDICATOR, level=0.3)
    assert _one(sample, above) == float(np.sum(sample.values >= 0.3))
    cube = HermiteSpec(CUSTOM, func=lambda v: v**3)
    assert _one(sample, cube) == _one(field, cube)
    h2 = HermiteSpec(PURE, q=2)
    frozen = tuple(size - 1 for size in lattice.blocks[1])
    assert marginal_evaluate(sample, h2, block=0, frozen=frozen) == \
        marginal_evaluate(field, h2, block=0, frozen=frozen)
    corner = (0,) * len(lattice.blocks[0])
    assert marginal_evaluate(sample, above, block=1, frozen=corner) == \
        marginal_evaluate(field, above, block=1, frozen=corner)


def _recurrence(q, x):
    """H_q(x) by the textbook recurrence, each step a new array."""
    prev, cur = np.ones_like(x), x.copy()
    if q == 0:
        return prev
    for k in range(1, q):
        prev, cur = cur, x * cur - k * prev
    return cur


def _per_k_additive_sum(sample, q):
    """The addition-theorem sum with each H_k recomputed from H_0."""
    total = sum(sample.weights)
    scales = [math.sqrt(w / total) for w in sample.weights]
    sums = [[float(np.sum(_recurrence(k, x / s))) for k in range(q + 1)]
            for x, s in zip(sample.blocks, scales)]
    return math.fsum(math.comb(q, k) * scales[0] ** k * scales[1] ** (q - k)
                     * sums[0][k] * sums[1][q - k] for k in range(q + 1))


def _per_sample(sample, phi):
    """One sample's value as a block of one computes it: the addition
    theorem for a pure phi on an additive sample, else phi summed over the
    lattice field."""
    if phi.kind == PURE and sample.blocks is not None:
        return _per_k_additive_sum(sample, phi.q)
    return float(np.sum(phi(sample.values)))


@pytest.mark.parametrize("case", list(_ADDITIVE_CASES))
def test_the_fused_recurrence_keeps_the_bits(case):
    # one in-place pass of the recurrence gives the same sums, bit for bit,
    # as a new array per step and per order: on the lattice field, where
    # evaluate equals np.sum(phi(values)), and from the block fields of an
    # additive sample; the indicator's count equals its float sum.  A block
    # gives each sample, in order, the value of its own evaluation, bit for
    # bit: additive samples whose weights miss 1 by nearly the allowed
    # 1e-12, at q = 1 ... 5, in blocks of 1, 2 and 7; and a block mixing
    # them with lattice samples, with samples under the exact weights and
    # with a sample of the other case, under a pure, an indicator and a
    # custom phi
    sampler = _additive_sampler(case)
    for r in range(2):
        sample = draw(sampler, seed=29, replicate_id=r)
        field = _sample(sample.values, sampler.lattice.blocks)
        for q in range(1, 7):
            phi = HermiteSpec(PURE, q=q)
            assert _one(field, phi) == float(np.sum(phi(field.values))), (q, r)
            assert _one(field, phi) == float(np.sum(_recurrence(q, field.values))), (q, r)
            assert _one(sample, phi) == _per_k_additive_sum(sample, q), (q, r)
            assert np.array_equal(hermite_eval(q, field.values), _recurrence(q, field.values))
        for level in (0.0, 0.3, -1.0):
            above = HermiteSpec(INDICATOR, level=level)
            assert _one(field, above) == float(np.sum(above(field.values)))
    assert hermite_eval(0, 2.0) == 1.0 and hermite_eval(3, 2.0) == 2.0

    cov, blocks = _ADDITIVE_CASES[case]
    w1 = cov.weights[0]
    slack = CompositeCovariance(ADDITIVE, cov.factors, weights=(w1, 1.0 - w1 + 9e-13))
    assert sum(slack.weights) != 1.0
    samples = [draw(build_sampler(slack, LatticeSpec(blocks)), seed=31, replicate_id=r)
               for r in range(7)]
    for q in range(1, 6):
        phi = HermiteSpec(PURE, q=q)
        want = [_per_sample(sample, phi) for sample in samples]
        for size in (1, 2, 7):
            got = [y for lo in range(0, 7, size) for y in evaluate(samples[lo:lo + size], phi)]
            assert got == want, (q, size)
    exact = [draw(sampler, seed=31, replicate_id=r) for r in range(2)]
    other = draw(_additive_sampler(next(c for c in _ADDITIVE_CASES if c != case)),
                 seed=31, replicate_id=0)
    fields = [_sample(sample.values, blocks) for sample in samples[:3]]
    mixed = [samples[3], fields[0], exact[0], other, samples[4], fields[1], exact[1], fields[2]]
    for phi in [HermiteSpec(PURE, q=q) for q in range(1, 6)] + [
            HermiteSpec(INDICATOR, level=0.3), HermiteSpec(CUSTOM, func=lambda v: v**3)]:
        assert evaluate(fields, phi).tolist() == [_per_sample(f, phi) for f in fields]
        assert evaluate(mixed, phi).tolist() == [_per_sample(s, phi) for s in mixed]
    assert evaluate([], phi).shape == (0,)


def test_a_warm_pure_evaluate_allocates_little():
    # H_2 and H_3 on a 256x256 field (512 kB) are summed in buffers the
    # thread keeps, so a warm evaluate allocates next to nothing; another
    # shape replaces the buffers, and another thread has its own; likewise
    # for a block of additive samples
    cov = CompositeCovariance(
        SEPARABLE, (FactorCovariance(CAUCHY, exponent=0.3), FactorCovariance(CAUCHY, exponent=0.4)))
    sampler = build_sampler(cov, LatticeSpec(((256,), (256,))))
    sample = draw(sampler, seed=3, replicate_id=0)
    for q, held in ((2, 1), (3, 3)):
        phi = HermiteSpec(PURE, q=q)
        want = _one(sample, phi)  # warm-up: allocates the buffers
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = _one(sample, phi)
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert extra < 64 * 1024, (q, extra)
        assert got == want == float(np.sum(phi(sample.values)))
        shape, buffers = functionals._local.hermite
        assert shape == (256, 256) and len(buffers) >= held
    small = _sample(np.arange(12.0).reshape(4, 3) / 7, ((4,), (3,)))
    phi = HermiteSpec(PURE, q=3)
    assert _one(small, phi) == float(np.sum(phi(small.values)))
    assert functionals._local.hermite[0] == (4, 3)
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(_one, sample, phi).result() == float(np.sum(phi(sample.values)))
    assert functionals._local.hermite[0] == (4, 3)
    # a block of 26 additive samples on 1024x181: each block's fields are
    # stacked (26 x 1024 reals, 213 kB) and H_3 is computed from the stack,
    # all in buffers the thread keeps
    cov = CompositeCovariance(
        ADDITIVE, (FactorCovariance(CAUCHY, exponent=0.48), FactorCovariance(CAUCHY, exponent=3.0)),
        weights=(0.1, 0.9))
    sampler = build_sampler(cov, LatticeSpec(((1024,), (181,))))
    samples = [draw(sampler, seed=3, replicate_id=r) for r in range(26)]
    want = evaluate(samples, phi)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = evaluate(samples, phi)
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert extra < 64 * 1024, extra
    assert got.tobytes() == want.tobytes()
    assert functionals._local.stack0[0] == functionals._local.terms0[0] == (26, 1024)
    assert functionals._local.stack1[0] == functionals._local.terms1[0] == (26, 181)
