"""Sampling: method selection, exactness certificates, and MC covariance checks."""
import dataclasses
import itertools
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not a POSIX platform
    resource = None

from latfield._errors import ModelError, NumericalError
from latfield.covariance import (
    ADDITIVE,
    CAUCHY,
    EXPONENTIAL,
    FGN,
    GNEITING,
    ISOTROPIC,
    SEPARABLE,
    TABULATED,
    WHITE_NOISE,
    CompositeCovariance,
    FactorCovariance,
    composite_embedding_values,
    embedding_spectrum,
    nonnegative_spectrum,
)
from latfield import fieldsim
from latfield.fieldsim import (
    ADDITIVE_CIRCULANT,
    DENSE_CHOLESKY,
    FULL_CIRCULANT,
    KRONECKER_CIRCULANT,
    Embedding,
    FieldSample,
    LatticeSpec,
    Sampler,
    build_sampler,
    _replicate_rng,
    dense_covariance_matrix,
    draw,
    draw_pairs,
)
from latfield.oracle import lattice_covariance_matrix

FGN_075_LAG1 = 0.41421356237309515  # sqrt(2) - 1


def _separable(*factors):
    return CompositeCovariance(SEPARABLE, tuple(factors))


def test_lattice_spec():
    lat = LatticeSpec(((8, 8), (4,)))
    assert lat.block_dims == (2, 1)
    assert lat.all_sizes == (8, 8, 4)
    assert lat.n_total == 256
    assert lat.block_axes(0) == (0, 1)
    assert lat.block_axes(1) == (2,)
    with pytest.raises(ModelError):
        LatticeSpec(())
    with pytest.raises(ModelError):
        LatticeSpec(((4, 0),))
    # a size is a count: no fraction, no boolean, the parser's rule
    for size, why in ((2.7, "must be an integer, got 2.7"), (True, "expected a number, got bool"),
                      (0, "must be at least 1, got 0"), ("4", "expected a number, got str")):
        with pytest.raises(ModelError, match=rf"^\[0\]\[1\]: {why}$"):
            LatticeSpec(((4, size),))
    assert LatticeSpec(((np.int64(4), 3.0),)).blocks == ((4, 3),)


def test_lattice_spec_names_a_block_that_is_not_a_sequence():
    # LatticeSpec((5,)) where LatticeSpec(((5,),)) was meant
    for blocks, index, block in (((5,), 0, "5"), (((4,), 5), 1, "5"), (((4,), "45"), 1, "'45'")):
        with pytest.raises(ModelError, match=rf"^\[{index}\]: must be a nonempty sequence "
                           f"of sizes, got {block}$"):
            LatticeSpec(blocks)
    with pytest.raises(ModelError, match="expected a sequence of blocks"):
        LatticeSpec(5)
    assert LatticeSpec(([4, 3], np.array([5]))).blocks == ((4, 3), (5,))


def test_draws_are_counter_deterministic():
    cov = _separable(FactorCovariance(FGN, hurst=0.7))
    sampler = build_sampler(cov, LatticeSpec(((64,),)))
    a = draw(sampler, seed=123, replicate_id=5)
    b = draw(sampler, seed=123, replicate_id=5)
    assert np.array_equal(a.values, b.values)  # bit-identical
    c = draw(sampler, seed=123, replicate_id=6)
    d = draw(sampler, seed=124, replicate_id=5)
    assert not np.array_equal(a.values, c.values)
    assert not np.array_equal(a.values, d.values)
    assert isinstance(a, FieldSample) and a.replicate_id == 5


def test_seeds_outside_64_bits_are_refused_before_any_normal(monkeypatch):
    # a seed keys its stream as is, so 2^128 + 5 cannot alias 5, nor -1
    # alias 2^128 - 1; the workspace keeps the block it holds
    cov, blocks = _CIRCULANT_CASES["two factors"]
    circulant = build_sampler(cov, LatticeSpec(blocks))
    dense = build_sampler(_separable(FactorCovariance(
        TABULATED, table={(0,): 1.0, (1,): 0.9, (2,): 0.7})), LatticeSpec(((3,),)))
    assert dense.method == DENSE_CHOLESKY
    top = fieldsim.SEED_LIMIT - 1
    assert np.array_equal(draw(circulant, top, 3).values, _one_shot_draw(circulant, top, 3))
    draw_pairs(circulant, 7, 2, 2)
    held = fieldsim._local.pairs
    windows = []
    monkeypatch.setattr(fieldsim, "_replicate_rng", lambda *a: windows.append(a))
    for sampler in (circulant, dense):
        for seed in (2**128 + 5, -1, fieldsim.SEED_LIMIT):
            message = rf"^seed: must be at (least 0|most {top}), got {seed}$"
            with pytest.raises(ModelError, match=message):
                draw(sampler, seed, 4)
            with pytest.raises(ModelError, match=message):
                draw_pairs(sampler, seed, 2, 2)
    assert windows == [] and fieldsim._local.pairs is held


def test_block_pairs_fill_the_block_budget():
    # as many pairs as fit in the block's points, at least one: a pair
    # holds its embedding (both blocks' for an additive sampler), or the
    # lattice for a dense-Cholesky sampler
    for name, points in (("two factors", 78 * 64), ("additive", 78 + 24)):
        cov, blocks = _CIRCULANT_CASES[name]
        sampler = build_sampler(cov, LatticeSpec(blocks))
        assert sampler.block_pairs == fieldsim._BLOCK_POINTS // points > 1, name
    large = build_sampler(_CIRCULANT_CASES["two factors"][0], LatticeSpec(((256,), (256,))))
    assert large.sqrt_spectrum.size > fieldsim._BLOCK_POINTS and large.block_pairs == 1
    dense = build_sampler(_separable(FactorCovariance(
        TABULATED, table={(0,): 1.0, (1,): 0.9, (2,): 0.7})), LatticeSpec(((3,),)))
    assert dense.method == DENSE_CHOLESKY
    assert dense.block_pairs == fieldsim._BLOCK_POINTS // 3 == 10922


def test_replicate_streams_look_independent():
    cov = _separable(FactorCovariance(WHITE_NOISE, dim=1))
    sampler = build_sampler(cov, LatticeSpec(((4096,),)))
    # widely separated replicate ids share no counter window
    x = draw(sampler, seed=9, replicate_id=0).values
    y = draw(sampler, seed=9, replicate_id=2**20).values
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) < 5.0 / np.sqrt(x.size)


def _one_shot_field(w, sizes, part):
    full = np.fft.ifftn(w)
    field = (full.imag if part else full.real) * np.sqrt(w.size)
    return field[tuple(slice(0, n) for n in sizes)]


def _one_shot_draw(sampler, seed, replicate_id):
    """The circulant draw as one ifftn over each whole embedding, cropped:
    replicates 2k and 2k+1 are the real and imaginary parts of the
    transform of pair k's normals.  An additive draw is the broadcast sum of
    its two block fields, each taken this way."""
    pair, part = divmod(replicate_id, 2)
    m = sampler.sqrt_spectrum.size
    z = _replicate_rng(seed, pair).standard_normal(2 * m)
    w = sampler.sqrt_spectrum * (z[:m] + 1j * z[m:]).reshape(sampler.sqrt_spectrum.shape)
    if sampler.method != ADDITIVE_CIRCULANT:
        return _one_shot_field(w, sampler.lattice.all_sizes, part)
    (a, b), (n1, n2) = sampler.embeddings, sampler.lattice.blocks
    m1 = int(np.prod(a.shape))
    u = _one_shot_field(w[:m1].reshape(a.shape), n1, part)
    v = _one_shot_field(w[m1:].reshape(b.shape), n2, part)
    return u[(...,) + (None,) * v.ndim] + v


_ADDITIVE_2D = CompositeCovariance(
    ADDITIVE,
    (FactorCovariance(CAUCHY, dim=2, exponent=1.0), FactorCovariance(FGN, hurst=0.7)),
    weights=(0.4, 0.6),
)


_CIRCULANT_CASES = {
    "one factor": (_separable(FactorCovariance(FGN, hurst=0.7)), ((100,),)),
    "two factors": (
        _separable(FactorCovariance(CAUCHY, exponent=0.3), FactorCovariance(CAUCHY, exponent=0.4)),
        ((40,), (33,)),
    ),
    "three factors": (
        _separable(
            FactorCovariance(FGN, hurst=0.3),
            FactorCovariance(CAUCHY, exponent=1.5),
            FactorCovariance(EXPONENTIAL, scale=2.0),
        ),
        ((9,), (8,), (7,)),
    ),
    "2-D factor x 1-D factor": (
        _separable(FactorCovariance(CAUCHY, dim=2, exponent=0.5), FactorCovariance(FGN, hurst=0.3)),
        ((16, 16), (8,)),
    ),
    "additive": (
        CompositeCovariance(
            ADDITIVE,
            (FactorCovariance(CAUCHY, exponent=0.48), FactorCovariance(CAUCHY, exponent=3.0)),
            weights=(0.1, 0.9),
        ),
        ((40,), (13,)),
    ),
    "additive 2-D block": (_ADDITIVE_2D, ((5, 4), (6,))),
    "gneiting": (
        CompositeCovariance(
            GNEITING, (FactorCovariance(CAUCHY, exponent=0.3), FactorCovariance(CAUCHY, exponent=1.0))
        ),
        ((24,), (24,)),
    ),
    "size-1 axis": (
        _separable(FactorCovariance(FGN, hurst=0.7), FactorCovariance(CAUCHY, exponent=1.5)),
        ((1,), (16,)),
    ),
    # each half of a pair's window spans several chunks of normals, the
    # last one ragged (see test_chunked_cases_cross_chunk_boundaries)
    "510x510 embedding": (
        _separable(FactorCovariance(CAUCHY, exponent=0.3), FactorCovariance(CAUCHY, exponent=0.4)),
        ((256,), (256,)),
    ),
    # a chunk straddles the end of the first block's stretch of the root
    "additive across a chunk": (
        CompositeCovariance(
            ADDITIVE,
            (FactorCovariance(CAUCHY, exponent=0.48), FactorCovariance(CAUCHY, exponent=3.0)),
            weights=(0.1, 0.9),
        ),
        ((3000,), (2500,)),
    ),
}


def test_chunked_cases_cross_chunk_boundaries():
    # normals reach the stack _CHUNK at a time; these cases put chunk
    # boundaries inside each half of a pair's window, a ragged chunk at its
    # end, and a chunk across the additive blocks' boundary
    chunk = fieldsim._CHUNK
    cov, blocks = _CIRCULANT_CASES["510x510 embedding"]
    square = build_sampler(cov, LatticeSpec(blocks))
    assert square.sqrt_spectrum.shape == (510, 510)
    m = square.sqrt_spectrum.size
    assert m > 4 * chunk and m % chunk
    cov, blocks = _CIRCULANT_CASES["additive across a chunk"]
    additive = build_sampler(cov, LatticeSpec(blocks))
    assert additive.method == ADDITIVE_CIRCULANT
    m1, m = additive.embeddings[0].shape[0], additive.sqrt_spectrum.size
    assert m > chunk and m1 % chunk and m % chunk  # chunk 0 holds both blocks


@pytest.mark.parametrize("case", list(_CIRCULANT_CASES))
def test_draw_matches_one_shot_inverse_fft(case):
    # the per-axis, crop-as-you-go, in-place inverse gives the one-shot
    # ifftn values bit for bit: the real part for even replicates and the
    # imaginary part for odd ones, over two pairs
    cov, blocks = _CIRCULANT_CASES[case]
    sampler = build_sampler(cov, LatticeSpec(blocks))
    assert sampler.method != DENSE_CHOLESKY
    for r in range(4):
        sample = draw(sampler, seed=31, replicate_id=r)
        assert sample.values.shape == sampler.lattice.all_sizes
        assert np.array_equal(sample.values, _one_shot_draw(sampler, 31, r))


def test_draws_never_alias_the_workspace():
    # interleaved draws from two embedding shapes on one thread: every
    # earlier sample survives later draws, and each equals the same draw
    # taken alone on a fresh thread, whose workspace is new
    small = build_sampler(_separable(FactorCovariance(FGN, hurst=0.7)), LatticeSpec(((50,),)))
    large = build_sampler(
        _separable(FactorCovariance(CAUCHY, exponent=0.3), FactorCovariance(CAUCHY, exponent=0.4)),
        LatticeSpec(((20,), (30,))),
    )
    additive = build_sampler(_ADDITIVE_2D, LatticeSpec(((5, 4), (6,))))
    assert additive.method == ADDITIVE_CIRCULANT
    assert len({s.sqrt_spectrum.shape for s in (small, large, additive)}) == 3
    plan = list(enumerate([small, large, additive, large, small, additive, small, large] * 2))
    samples, copies = [], []
    for r, sampler in plan:
        samples.append(draw(sampler, seed=5, replicate_id=r))
        copies.append(samples[-1].values.copy())
        for sample, copy in zip(samples, copies):
            assert np.array_equal(sample.values, copy)
    for (r, sampler), sample in zip(plan, samples):
        with ThreadPoolExecutor(max_workers=1) as pool:
            alone = pool.submit(draw, sampler, 5, r).result()
        assert np.array_equal(sample.values, alone.values)


def test_additive_samples_carry_their_block_fields():
    # an additive sample holds sqrt(w1) U and sqrt(w2) V as arrays of its
    # own, and builds the lattice field from them on first read, bit for
    # bit the broadcast sum, even after later draws refill the workspace
    cov, blocks = _CIRCULANT_CASES["additive 2-D block"]
    sampler = build_sampler(cov, LatticeSpec(blocks))
    early = [draw(sampler, seed=41, replicate_id=r) for r in range(2)]
    for r in range(2, 6):
        draw(sampler, seed=41, replicate_id=r)
    workspace = fieldsim._local.buffers[1]
    for r, sample in enumerate(early):
        u, v = sample.blocks
        assert u.shape == blocks[0] and v.shape == blocks[1]
        assert sample.weights == cov.weights
        assert not any(np.shares_memory(b, workspace) for b in sample.blocks)
        assert sample._values is None
        assert np.array_equal(sample.values, u[:, :, None] + v)
        assert np.array_equal(sample.values, _one_shot_draw(sampler, 41, r))
    separable, separable_blocks = _CIRCULANT_CASES["two factors"]
    assert draw(build_sampler(separable, LatticeSpec(separable_blocks)), 41, 0).blocks is None
    with pytest.raises(ModelError):
        FieldSample(values=None, lattice=sampler.lattice, seed=0, replicate_id=0)
    with pytest.raises(ModelError):
        FieldSample(values=u[:, :, None] + v, lattice=sampler.lattice, seed=0,
                    replicate_id=0, blocks=(u, v), weights=cov.weights)


def _cold_draw(sampler, seed, replicate_id):
    """The draw taken alone on a fresh thread, whose workspace is new."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(draw, sampler, seed, replicate_id).result().values


@pytest.mark.parametrize("case", ["two factors", "additive 2-D block", "gneiting"])
def test_second_half_of_a_pair_comes_from_the_workspace(case, monkeypatch):
    cov, blocks = _CIRCULANT_CASES[case]
    sampler = build_sampler(cov, LatticeSpec(blocks))
    # same embedding shape, another spectrum: only identity tells them apart
    twin = dataclasses.replace(sampler, sqrt_spectrum=2.0 * sampler.sqrt_spectrum)
    windows = []
    counted = fieldsim._replicate_rng
    monkeypatch.setattr(fieldsim, "_replicate_rng",
                        lambda seed, window: windows.append(window) or counted(seed, window))
    odd = _cold_draw(sampler, 7, 5)
    assert windows == [2]
    assert np.array_equal(odd, _one_shot_draw(sampler, 7, 5))
    # right after replicate 4, replicate 5 draws no normals and equals the
    # cold draw bit for bit
    windows.clear()
    assert np.array_equal(draw(sampler, 7, 4).values, _cold_draw(sampler, 7, 4))
    assert np.array_equal(draw(sampler, 7, 5).values, odd)
    assert windows == [2, 2]  # the warm draw of 4 and the cold one, not 5
    # another sampler, seed or pair in between refills the workspace
    for between in [(twin, 7, 4), (sampler, 8, 4), (sampler, 7, 2)]:
        draw(sampler, 7, 4)
        other = draw(*between).values
        assert np.array_equal(draw(sampler, 7, 5).values, odd), between
        assert np.array_equal(other, _cold_draw(*between)), between
    assert np.array_equal(draw(twin, 7, 5).values, _one_shot_draw(twin, 7, 5))


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("case", list(_CIRCULANT_CASES))
def test_block_draws_match_one_shot_inverse_fft(case, count, monkeypatch):
    # a block of pairs is drawn and transformed as one stack; every
    # replicate of it is then served from the workspace, with no further
    # normals, bit for bit the one-shot ifftn of its own pair, including
    # blocks that start past a rung offset of 51 pairs
    cov, blocks = _CIRCULANT_CASES[case]
    sampler = build_sampler(cov, LatticeSpec(blocks))
    windows = []
    counted = fieldsim._replicate_rng
    monkeypatch.setattr(fieldsim, "_replicate_rng",
                        lambda seed, window: windows.append(window) or counted(seed, window))
    for first in (0, count, 51, 51 + count):
        windows.clear()
        draw_pairs(sampler, 31, first, count)
        assert windows == list(range(first, first + count))
        for r in range(2 * first + 2 * count - 1, 2 * first - 1, -1):
            sample = draw(sampler, seed=31, replicate_id=r)
            assert np.array_equal(sample.values, _one_shot_draw(sampler, 31, r)), r
        assert windows == list(range(first, first + count))


def test_a_block_is_refilled_for_another_sampler_seed_or_pair():
    # the workspace serves only the (sampler, seed, pairs) it holds; any
    # other draw is a fresh block of one, and a block of zero is refused
    cov, blocks = _CIRCULANT_CASES["two factors"]
    sampler = build_sampler(cov, LatticeSpec(blocks))
    twin = dataclasses.replace(sampler, sqrt_spectrum=2.0 * sampler.sqrt_spectrum)
    for between in [(twin, 7, 4), (sampler, 8, 4), (sampler, 7, 9)]:
        draw_pairs(sampler, 7, 2, 2)
        assert np.array_equal(draw(*between).values, _one_shot_draw(*between)), between
        assert np.array_equal(draw(sampler, 7, 7).values, _one_shot_draw(sampler, 7, 7))
    with pytest.raises(ModelError):
        draw_pairs(sampler, 7, 0, 0)


def test_a_warm_block_draw_allocates_little():
    # a block of three pairs on a 254x254 embedding holds a 3 MB stack; a
    # warm block reuses it and transforms in place, and a later block of
    # one uses its first plane, so neither allocates more than the FFT's
    # own line buffer (about 130 kB), against 1 MB per plane
    cov = _separable(FactorCovariance(CAUCHY, exponent=0.3), FactorCovariance(CAUCHY, exponent=0.4))
    sampler = build_sampler(cov, LatticeSpec(((128,), (128,))))
    assert sampler.sqrt_spectrum.shape == (254, 254)
    draw_pairs(sampler, 8, 0, 3)  # warm-up: allocates the workspace
    stack = fieldsim._local.buffers[1]
    assert stack.shape == (3, 254, 254)
    for first, count in ((3, 3), (6, 1), (7, 2)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            draw_pairs(sampler, 8, first, count)
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert extra <= 192 * 1024, (first, count, extra)
        assert fieldsim._local.buffers[1] is stack


def test_the_stack_is_the_only_embedding_sized_buffer():
    # normals stream through a chunk of _CHUNK reals into the stack, so
    # after a block the workspace holds no m-point buffer beside the stack
    cov, blocks = _CIRCULANT_CASES["510x510 embedding"]
    sampler = build_sampler(cov, LatticeSpec(blocks))
    m = sampler.sqrt_spectrum.size
    for count in (1, 2):
        draw_pairs(sampler, 8, 0, count)
        stack = fieldsim._local.buffers[1]
        assert stack.shape == (count, 510, 510)
        others = [b for b in fieldsim._local.buffers if b is not stack]
        assert others and all(b.size < m for b in others), [b.size for b in others]


def _stream(rng):
    """Enough of a generator's stream to tell two states apart: raw
    words, normals, and 32-bit integers (which read a spare half word)."""
    return (rng.bit_generator.random_raw(5).tobytes() + rng.standard_normal(7).tobytes()
            + rng.integers(2**32, size=5, dtype=np.uint32).tobytes())


def _fresh_stream(seed, window):
    return _stream(np.random.Generator(np.random.Philox(key=seed, counter=window << 64)))


def test_replicate_rng_resets_the_whole_stream():
    # one generator per thread, fully reset per window, reads the stream
    # of a new Philox(key=seed, counter=window << 64): for windows out of
    # order, after a stream left partly read (a spare 32-bit half and a
    # part-used word buffer included), and on another thread
    seed = 2**64 - 3
    for window in (5, 2, 2**40, 0, 5, 3):
        assert _stream(_replicate_rng(seed, window)) == _fresh_stream(seed, window), window
    rng = _replicate_rng(seed, 9)
    rng.standard_normal(3)
    rng.integers(2**32, dtype=np.uint32)
    state = rng.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    assert _replicate_rng(seed, 9) is rng
    assert _stream(rng) == _fresh_stream(seed, 9)
    _replicate_rng(seed, 4).random(3)
    assert _stream(_replicate_rng(7, 4)) == _fresh_stream(7, 4)
    with ThreadPoolExecutor(max_workers=1) as pool:
        other, stream = pool.submit(lambda: (_replicate_rng(seed, 6),
                                             _stream(_replicate_rng(seed, 6)))).result()
    assert other is not rng and stream == _fresh_stream(seed, 6)
    assert _stream(_replicate_rng(seed, 6)) == _fresh_stream(seed, 6)
    with pytest.raises(ModelError):
        _replicate_rng(seed, -1)


@pytest.mark.skipif(
    not hasattr(resource, "RUSAGE_THREAD"),
    reason="needs resource.RUSAGE_THREAD (per-thread page-fault counts), "
    "which this platform does not provide",
)
def test_draw_reuses_its_buffers():
    # a 256x256 draw that allocated its arrays afresh (about 20 MB on the
    # 510x510 embedding) would take about 5000 minor faults; one that reuses
    # its thread's workspace takes almost none
    cov = _separable(FactorCovariance(CAUCHY, exponent=0.3), FactorCovariance(CAUCHY, exponent=0.4))
    sampler = build_sampler(cov, LatticeSpec(((256,), (256,))))
    assert sampler.sqrt_spectrum.shape == (510, 510)
    draw(sampler, seed=8, replicate_id=0)  # warm-up: allocates the workspace
    reps = 20
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for r in range(1, reps + 1):
        draw(sampler, seed=8, replicate_id=r)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults / reps < 500, faults / reps


def test_draw_inverts_in_place():
    # a warm draw that starts a new pair allocates its sample and little
    # else: each axis is transformed into the workspace, with no temporary
    # of the 254x254 embedding's size (1 MB)
    cov = _separable(FactorCovariance(CAUCHY, exponent=0.3), FactorCovariance(CAUCHY, exponent=0.4))
    sampler = build_sampler(cov, LatticeSpec(((128,), (128,))))
    assert sampler.sqrt_spectrum.shape == (254, 254)
    draw(sampler, seed=8, replicate_id=0)  # warm-up: allocates the workspace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sample = draw(sampler, seed=8, replicate_id=2)  # pair 1: new normals and transform
        extra = tracemalloc.get_traced_memory()[1] - base - sample.values.nbytes
    finally:
        tracemalloc.stop()
    assert extra <= 128 * 1024, extra


def test_white_noise_sampler_is_iid():
    cov = _separable(
        FactorCovariance(WHITE_NOISE, dim=1), FactorCovariance(WHITE_NOISE, dim=1)
    )
    sampler = build_sampler(cov, LatticeSpec(((16,), (16,))))
    assert sampler.method == KRONECKER_CIRCULANT
    # the delta covariance has a flat embedding spectrum
    assert np.allclose(sampler.sqrt_spectrum, 1.0)
    pooled = np.concatenate(
        [draw(sampler, seed=1, replicate_id=r).values.ravel() for r in range(40)]
    )
    n = pooled.size
    assert abs(pooled.mean()) < 5.0 / np.sqrt(n)
    assert abs(pooled.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)


def test_kronecker_embedding_matches_full_embedding():
    cov = _separable(
        FactorCovariance(FGN, hurst=0.3), FactorCovariance(CAUCHY, exponent=1.5)
    )
    lat = LatticeSpec(((32,), (32,)))
    sampler = build_sampler(cov, lat)
    assert sampler.method == KRONECKER_CIRCULANT
    assert sampler.min_eigenvalue >= -1e-10
    # outer product of per-factor spectra == spectrum of the joint embedding
    assert sampler.sqrt_spectrum.shape == (62, 62)
    joint = np.fft.ifftn(sampler.sqrt_spectrum.astype(complex) ** 2).real
    expected = composite_embedding_values(cov, lat.all_sizes, 0)
    assert np.allclose(joint, expected, atol=1e-10)


@pytest.mark.parametrize("cov, doublings", [
    (CompositeCovariance(GNEITING, (FactorCovariance(CAUCHY, exponent=0.3),
                                    FactorCovariance(CAUCHY, exponent=1.0))), 1),
    (CompositeCovariance(ISOTROPIC, (FactorCovariance(CAUCHY, exponent=0.5, dim=2),),
                         block_dims=(1, 1)), 3),
], ids=["gneiting", "isotropic"])
def test_a_whole_lattice_model_is_embedded_like_a_factor(cov, doublings):
    # the joint circulant's spectrum, fftn of the composite's embedding grid,
    # at its first nonnegative doubling gives the sampler's record and root
    sizes = (8, 6)
    spectra = [np.fft.fftn(composite_embedding_values(cov, sizes, d)).real
               for d in range(fieldsim.MAX_DOUBLINGS + 1)]
    assert [nonnegative_spectrum(eig) for eig in spectra].index(True) == doublings
    eig = spectra[doublings]
    assert np.array_equal(embedding_spectrum(cov, sizes, doublings).eigenvalues, eig)
    sampler = build_sampler(cov, LatticeSpec(((8,), (6,))))
    assert sampler.method == FULL_CIRCULANT
    assert sampler.embeddings == (Embedding(eig.shape, doublings, float(eig.min())),)
    assert np.array_equal(sampler.sqrt_spectrum, np.sqrt(np.clip(eig, 0.0, None)))
    with pytest.raises(ModelError, match=r"^sizes: must be a sequence of 2 sizes, got \(8,\)$"):
        embedding_spectrum(cov, (8,))


def _diagonal_moving_average(a=0.2, c=0.05, reach=7):
    """The unit-variance covariance of W(z) + a W(z + (1, 1)) + c W(z + (1, -1))
    for white noise W, tabulated for lags up to ``reach``: positive semidefinite
    on every lattice and even, but with C(1, 1) != C(1, -1) when a != c,
    so not even in each coordinate."""
    kernel = {(0, 0): 1.0, (1, 1): a, (1, -1): c}
    norm = sum(h * h for h in kernel.values())
    table = {(z1, z2): 0.0 for z1 in range(reach + 1) for z2 in range(-reach, reach + 1)}
    for (k1, k2), h in kernel.items():
        for (l1, l2), g in kernel.items():
            if (l1 - k1, l2 - k2) in table:
                table[(l1 - k1, l2 - k2)] += h * g / norm
    return FactorCovariance(TABULATED, dim=2, table=table)


def _sampler_covariance(sampler):
    """The exact covariance matrix of the sampler's fields over the lattice
    points in axis-major order: L L^T for a dense factor; for a circulant
    method, the first row ifftn(root**2) of each embedding's circulant
    at the wrapped differences of the points (summed over the blocks of an
    additive sampler, whose roots carry sqrt(w_i))."""
    if sampler.method == DENSE_CHOLESKY:
        return sampler.chol_factor @ sampler.chol_factor.T
    lattice = sampler.lattice
    points = np.indices(lattice.all_sizes).reshape(len(lattice.all_sizes), -1)
    if sampler.method == ADDITIVE_CIRCULANT:
        shapes = [e.shape for e in sampler.embeddings]
        axes = [lattice.block_axes(i) for i in range(2)]
    else:
        shapes, axes = [sampler.sqrt_spectrum.shape], [range(len(points))]
    root, start, out = sampler.sqrt_spectrum.ravel(), 0, 0.0
    for shape, ax in zip(shapes, axes):
        m = math.prod(shape)
        row = np.fft.ifftn(root[start:start + m].reshape(shape) ** 2).real
        start += m
        sub = points[list(ax)]
        out = out + row[tuple((sub[:, :, None] - sub[:, None, :])
                              % np.array(shape)[:, None, None])]
    return out


_EXACT_CASES = {
    "separable": (_separable(FactorCovariance(FGN, hurst=0.3),
                             FactorCovariance(CAUCHY, exponent=1.5)), ((9,), (7,)),
                  KRONECKER_CIRCULANT),
    "separable doubled": (_separable(FactorCovariance(CAUCHY, dim=2, exponent=0.5),
                                     FactorCovariance(FGN, hurst=0.3)), ((7, 6), (4,)),
                          KRONECKER_CIRCULANT),
    "even 2-D table": (_separable(FactorCovariance(TABULATED, dim=2, table={
        (z1, z2): 0.6 ** (z1 + abs(z2)) for z1 in range(5) for z2 in range(-4, 5)})),
        ((5, 4),), KRONECKER_CIRCULANT),
    "additive": (_ADDITIVE_2D, ((5, 4), (6,)), ADDITIVE_CIRCULANT),
    "gneiting": (CompositeCovariance(GNEITING, (FactorCovariance(CAUCHY, exponent=0.3),
                                                FactorCovariance(CAUCHY, exponent=1.0))),
                 ((8,), (6,)), FULL_CIRCULANT),
    "isotropic": (CompositeCovariance(ISOTROPIC, (FactorCovariance(CAUCHY, dim=2, exponent=0.8),),
                                      block_dims=(1, 1)), ((7,), (5,)), FULL_CIRCULANT),
    "dense": (_separable(FactorCovariance(TABULATED, table={(0,): 1.0, (1,): 0.9, (2,): 0.7})),
              ((3,),), DENSE_CHOLESKY),
    "skew table 3x2": (_separable(_diagonal_moving_average()), ((3, 2),), DENSE_CHOLESKY),
    "skew table 4x4": (_separable(_diagonal_moving_average()), ((4, 4),), DENSE_CHOLESKY),
    "skew table 7x4": (_separable(_diagonal_moving_average()), ((7, 4),), DENSE_CHOLESKY),
}


@pytest.mark.parametrize("case", list(_EXACT_CASES))
def test_each_sampler_method_has_the_exact_covariance(case):
    # what the sampler draws, not just what it certifies: a table that is
    # not even in each coordinate has no circulant embedding, since the
    # embedding grid reads each axis at |z_j|, so it takes the dense route
    cov, blocks, method = _EXACT_CASES[case]
    lattice = LatticeSpec(blocks)
    sampler = build_sampler(cov, lattice)
    assert sampler.method == method
    np.testing.assert_allclose(_sampler_covariance(sampler),
                               dense_covariance_matrix(cov, lattice), rtol=0, atol=1e-12)


def test_a_skew_table_past_the_dense_limit_fails_loudly():
    # refused before any lag is looked up, so the table's reach is moot
    cov = _separable(_diagonal_moving_average())
    with pytest.raises(NumericalError, match="not even in each lag coordinate.*"
                                             "exceeds the dense fallback limit"):
        build_sampler(cov, LatticeSpec(((65, 65),)))


def test_sampler_records_the_embeddings_it_uses():
    # the 2-D Cauchy factor's minimal 30x30 embedding has a negative
    # spectrum; the sampler doubles once and draws on 60x60
    cov = _separable(
        FactorCovariance(CAUCHY, dim=2, exponent=0.5), FactorCovariance(FGN, hurst=0.3)
    )
    sampler = build_sampler(cov, LatticeSpec(((16, 16), (8,))))
    assert sampler.method == KRONECKER_CIRCULANT
    cauchy, fgn = sampler.embeddings
    assert (cauchy.shape, cauchy.doublings) == ((60, 60), 1)
    assert (fgn.shape, fgn.doublings) == ((14,), 0)
    assert sampler.sqrt_spectrum.shape == (60, 60, 14)
    assert min(cauchy.min_eigenvalue, fgn.min_eigenvalue) >= -1e-10
    assert sampler.min_eigenvalue == cauchy.min_eigenvalue
    # the additive sampler keeps one record per block, and its spectrum
    # holds both blocks' roots end to end
    additive = CompositeCovariance(
        ADDITIVE,
        (FactorCovariance(CAUCHY, exponent=1.0), FactorCovariance(CAUCHY, exponent=2.0)),
        weights=(0.3, 0.7),
    )
    sampler = build_sampler(additive, LatticeSpec(((8,), (6,))))
    assert sampler.method == ADDITIVE_CIRCULANT
    first, second = sampler.embeddings
    assert (first.shape, first.doublings) == ((14,), 0)
    assert (second.shape, second.doublings) == ((10,), 0)
    assert min(first.min_eigenvalue, second.min_eigenvalue) >= -1e-10
    assert sampler.min_eigenvalue == min(first.min_eigenvalue, second.min_eigenvalue)
    assert sampler.sqrt_spectrum.shape == (14 + 10,)
    # gneiting and isotropic models keep one record for the joint embedding
    gneiting = CompositeCovariance(
        GNEITING, (FactorCovariance(CAUCHY, exponent=0.3), FactorCovariance(CAUCHY, exponent=1.0))
    )
    sampler = build_sampler(gneiting, LatticeSpec(((8,), (6,))))
    assert sampler.method == FULL_CIRCULANT
    (joint,) = sampler.embeddings
    assert joint == Embedding((28, 20), 1, sampler.min_eigenvalue)
    assert sampler.sqrt_spectrum.shape == joint.shape


def test_fgn_lag_one_covariance():
    cov = _separable(FactorCovariance(FGN, hurst=0.75))
    sampler = build_sampler(cov, LatticeSpec(((256,),)))
    reps = 400
    lag1 = np.empty(reps)
    var = np.empty(reps)
    for r in range(reps):
        x = draw(sampler, seed=2024, replicate_id=r).values
        lag1[r] = np.mean(x[:-1] * x[1:])
        var[r] = np.mean(x * x)
    se1 = lag1.std(ddof=1) / np.sqrt(reps)
    sev = var.std(ddof=1) / np.sqrt(reps)
    assert abs(lag1.mean() - FGN_075_LAG1) < 5.0 * se1
    assert abs(var.mean() - 1.0) < 5.0 * sev
    assert se1 < 0.02  # enough power to catch a wrong lag-1 value


def test_additive_field_covariance():
    cov = CompositeCovariance(
        ADDITIVE,
        (
            FactorCovariance(CAUCHY, exponent=1.0),
            FactorCovariance(CAUCHY, exponent=2.0),
        ),
        weights=(0.3, 0.7),
    )
    lat = LatticeSpec(((8,), (8,)))
    sampler = build_sampler(cov, lat)
    assert sampler.method == ADDITIVE_CIRCULANT
    k1, k2 = 2.0 ** (-0.5), 0.5  # cauchy lag-1 values for exponents 1 and 2
    targets = {
        (1, 0): 0.3 * k1 + 0.7,
        (0, 1): 0.3 + 0.7 * k2,
        (1, 1): 0.3 * k1 + 0.7 * k2,
    }
    reps = 4000
    stats = {lag: np.empty(reps) for lag in targets}
    for r in range(reps):
        x = draw(sampler, seed=77, replicate_id=r).values
        for (di, dj) in targets:
            a = x[: 8 - di, : 8 - dj]
            b = x[di:, dj:]
            stats[(di, dj)][r] = np.mean(a * b)
    for lag, target in targets.items():
        vals = stats[lag]
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - target) < 5.0 * se, (lag, vals.mean(), target, se)
        assert se < 0.02


def test_additive_2d_block_matches_dense_covariance():
    # every entry of the 120x120 covariance matrix of a 2-D block (+) 1-D
    # block field, within 5 standard errors of its Monte Carlo estimate
    lat = LatticeSpec(((5, 4), (6,)))
    sampler = build_sampler(_ADDITIVE_2D, lat)
    assert sampler.method == ADDITIVE_CIRCULANT
    target = dense_covariance_matrix(_ADDITIVE_2D, lat)
    reps, chunk = 40000, 500
    total = np.zeros_like(target)
    squares = np.zeros_like(target)
    for start in range(0, reps, chunk):
        x = np.stack([draw(sampler, seed=2718, replicate_id=r).values.ravel()
                      for r in range(start, start + chunk)])
        total += x.T @ x
        squares += (x * x).T @ (x * x)  # sums of (x_i x_j)^2
    mean = total / reps
    se = np.sqrt((squares / reps - mean**2) / (reps - 1))
    assert np.all(np.abs(mean - target) < 5.0 * se), np.max(np.abs(mean - target) / se)
    assert se.max() < 0.02


@pytest.mark.parametrize("cov, blocks", [
    (_separable(FactorCovariance(CAUCHY, exponent=0.3), FactorCovariance(CAUCHY, exponent=0.4)),
     ((8,), (6,))),
    (_ADDITIVE_2D, ((5, 4), (6,))),
], ids=["two factors", "additive 2-D block"])
def test_imaginary_halves_are_exact_and_independent_of_the_real_halves(cov, blocks):
    # the odd replicates alone have the dense covariance matrix, and the
    # fields of replicates 2k and 2k+1 are uncorrelated, entry by entry
    # within 5 standard errors
    lat = LatticeSpec(blocks)
    sampler = build_sampler(cov, lat)
    assert sampler.method in (KRONECKER_CIRCULANT, ADDITIVE_CIRCULANT)
    target = dense_covariance_matrix(cov, lat)
    pairs, chunk = 10000, 500
    sums = {"odd": np.zeros_like(target), "cross": np.zeros_like(target)}
    squares = {key: np.zeros_like(target) for key in sums}
    for start in range(0, pairs, chunk):
        real, imag = (np.stack([draw(sampler, seed=1618, replicate_id=2 * k + part).values.ravel()
                                for k in range(start, start + chunk)])
                      for part in (0, 1))
        for key, x in (("odd", imag), ("cross", real)):
            sums[key] += x.T @ imag
            squares[key] += (x * x).T @ (imag * imag)
    for key, want in (("odd", target), ("cross", 0.0)):
        mean = sums[key] / pairs
        se = np.sqrt((squares[key] / pairs - mean**2) / (pairs - 1))
        assert np.all(np.abs(mean - want) < 5.0 * se), (key, np.max(np.abs(mean - want) / se))
        assert se.max() < 0.02


def test_dense_fallback_on_unembeddable_tabulated():
    # 3x3 Toeplitz PSD, but its 4-point circulant embedding has eigenvalue -0.1
    # and a tabulated model cannot extend to doubled embeddings.
    factor = FactorCovariance(
        TABULATED, table={(0,): 1.0, (1,): 0.9, (2,): 0.7}
    )
    cov = _separable(factor)
    lat = LatticeSpec(((3,),))
    sampler = build_sampler(cov, lat)
    assert sampler.method == DENSE_CHOLESKY
    assert sampler.embeddings == ()
    matrix = dense_covariance_matrix(cov, lat)
    assert np.allclose(sampler.chol_factor @ sampler.chol_factor.T, matrix)
    # dense draws come in pairs: replicates 2k and 2k+1 are the factor
    # times the first and the last n normals of pair k's window.  A skew
    # 32x32 table holds 32 pairs per block, so 40 pairs take two blocks;
    # each replicate drawn in its block equals, bit for bit, the same
    # replicate drawn alone
    skew = build_sampler(_separable(_diagonal_moving_average(reach=31)),
                         LatticeSpec(((32, 32),)))
    assert skew.method == DENSE_CHOLESKY and skew.block_pairs == 32
    for dense, pairs in ((sampler, 2), (skew, 40)):
        n, blocked = dense.lattice.n_total, []
        for first in range(0, pairs, dense.block_pairs):
            count = min(dense.block_pairs, pairs - first)
            draw_pairs(dense, 3, first, count)
            blocked += [draw(dense, 3, r).values for r in range(2 * first, 2 * (first + count))]
        for r, values in enumerate(blocked):
            fieldsim._local.pairs = None
            alone = draw(dense, 3, r).values
            z = _replicate_rng(3, r // 2).standard_normal(2 * n)
            want = (dense.chol_factor @ z[n * (r % 2):][:n]).reshape(dense.lattice.all_sizes)
            assert values.tobytes() == alone.tobytes() == want.tobytes(), (n, r)


def test_a_singular_dense_matrix_is_factored_by_its_eigenvectors():
    # even, but not even in each coordinate, so no circulant embedding; its
    # 4x4 matrix has eigenvalues 2, 1, 1, 0, so Cholesky fails and the
    # dense factor is V sqrt(Lambda) from eigh
    factor = FactorCovariance(TABULATED, dim=2, table={
        (0, 0): 1.0, (1, 1): 1.0, (1, -1): 0.0, (0, 1): 0.0, (1, 0): 0.0})
    cov, lattice = _separable(factor), LatticeSpec(((2, 2),))
    matrix = dense_covariance_matrix(cov, lattice)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(matrix)
    sampler = build_sampler(cov, lattice)
    assert sampler.method == DENSE_CHOLESKY
    np.testing.assert_allclose(sampler.chol_factor @ sampler.chol_factor.T, matrix,
                               rtol=0, atol=1e-12)
    assert sampler.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_unembeddable_large_lattice_fails_loudly():
    n = 4097
    table = {(k,): 0.0 for k in range(n)}
    table[(0,)] = 1.0
    table[(1,)] = 0.9
    table[(2,)] = 0.7
    cov = _separable(FactorCovariance(TABULATED, table=table))
    with pytest.raises(NumericalError):
        build_sampler(cov, LatticeSpec(((n,),)))


def test_a_short_lag_table_names_the_missing_lag():
    # the minimal embedding needs every lag of the lattice, so a table that
    # stops at lag 1 names lag 2 at any size, not a failed embedding
    cov = _separable(FactorCovariance(TABULATED, table={(0,): 1.0, (1,): 0.3}))
    for n in (3, 5000):
        with pytest.raises(ModelError, match=r"^tabulated covariance has no entry for lag \(2,\)$"):
            build_sampler(cov, LatticeSpec(((n,),)))


def test_block_mismatch_rejected():
    cov = _separable(FactorCovariance(FGN, hurst=0.6))
    with pytest.raises(ModelError):
        build_sampler(cov, LatticeSpec(((8,), (8,))))


_WINDOW_MODELS = {
    "separable 2-D factor": _separable(FactorCovariance(FGN, hurst=0.3),
                                       FactorCovariance(CAUCHY, dim=2, exponent=0.5)),
    "gneiting": CompositeCovariance(GNEITING, (FactorCovariance(CAUCHY, exponent=0.3),
                                               FactorCovariance(CAUCHY, exponent=1.0))),
    "isotropic": CompositeCovariance(ISOTROPIC, (FactorCovariance(CAUCHY, dim=2, exponent=0.8),),
                                     block_dims=(1, 1)),
    "additive": _ADDITIVE_2D,
    "skew table": _separable(_diagonal_moving_average()),
}
#: axis sizes with odd, even and 1-point axes, per total dim
_WINDOW_SHAPES = {2: [(1, 1), (5, 4), (1, 7), (6, 1), (3, 8)],
                  3: [(1, 1, 1), (5, 4, 1), (1, 6, 3), (4, 3, 2)]}


@pytest.mark.parametrize("case, shape", [
    (case, shape) for case, cov in _WINDOW_MODELS.items()
    for shape in _WINDOW_SHAPES[cov.total_dim]])
def test_dense_matrix_is_the_pointwise_oracle_matrix(case, shape):
    # gathered from the lag window, each entry has the bits of the
    # covariance evaluated at its own point pair
    cov = _WINDOW_MODELS[case]
    ends = list(itertools.accumulate(cov.blocks))
    lattice = LatticeSpec(tuple(shape[end - d:end] for d, end in zip(cov.blocks, ends)))
    np.testing.assert_array_equal(dense_covariance_matrix(cov, lattice),
                                  lattice_covariance_matrix(cov, lattice))


def test_dense_matrix_matches_pointwise_eval():
    cov = CompositeCovariance(
        ADDITIVE,
        (
            FactorCovariance(FGN, hurst=0.8),
            FactorCovariance(CAUCHY, exponent=0.6),
        ),
        weights=(0.5, 0.5),
    )
    lat = LatticeSpec(((3,), (4,)))
    matrix = dense_covariance_matrix(cov, lat)
    assert matrix.shape == (12, 12)
    assert np.allclose(matrix, matrix.T)
    assert np.allclose(np.diag(matrix), 1.0)
    from latfield.covariance import eval_composite

    # spot-check: points are enumerated axis-major
    pts = [(i, j) for i in range(3) for j in range(4)]
    for a in (0, 5, 11):
        for b in (2, 7):
            lag = np.subtract(pts[a], pts[b])
            assert matrix[a, b] == pytest.approx(eval_composite(cov, lag))
