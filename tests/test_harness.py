import math
import sys
import threading

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not a POSIX platform
    resource = None

from latfield import chaoscalc, covariance, fieldsim, harness
from latfield._errors import ModelError, NumericalError
from latfield.chaoscalc import fourth_cumulant, variance_hermite, variance_phi
from latfield.covariance import (
    ADDITIVE,
    GNEITING,
    SEPARABLE,
    CompositeCovariance,
    FactorCovariance,
)
from latfield.fieldsim import (ADDITIVE_CIRCULANT, DENSE_CHOLESKY, FULL_CIRCULANT,
                               KRONECKER_CIRCULANT, LatticeSpec, build_sampler)
from latfield.harness import (
    ExperimentConfig,
    _draw_values,
    config_fingerprint,
    is_gaussian,
    normality_report,
    rate_fit,
    run_experiment,
)
from latfield.hermite import HermiteSpec


def pure(q):
    return HermiteSpec("pure", q=q)


def separable(*factors):
    return CompositeCovariance(SEPARABLE, tuple(factors))


def lattice(*sizes):
    return LatticeSpec(tuple((int(n),) for n in sizes))


WHITE = separable(FactorCovariance("white_noise"))


def skew(n1, n2, a=0.2):
    """The covariance of W(z) + a W(z + (1, 1)) for white noise W, tabulated
    over the lags of an n1 x n2 block: not even in each lag coordinate, so
    it has no circulant embedding and takes the dense route."""
    table = {(z1, z2): 0.0 for z1 in range(n1) for z2 in range(1 - n2, n2)}
    table[0, 0], table[1, 1] = 1.0, a / (1.0 + a * a)
    return separable(FactorCovariance("tabulated", dim=2, table=table))


# ---------------------------------------------------------------------------
# normality statistics


def test_normality_report_on_the_null():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(100_000)
    rep = normality_report(x)
    assert abs(rep.mean) < 5 * rep.mean_se
    assert abs(rep.variance - 1.0) < 5 * rep.variance_se
    assert abs(rep.skewness) < 5 * rep.skewness_se
    assert abs(rep.kurtosis) < 5 * rep.kurtosis_se
    assert rep.ks_stat < 0.01
    assert is_gaussian(rep)
    # the jackknife agrees with the classical standard error of the mean
    assert rep.mean_se == pytest.approx(x.std(ddof=1) / math.sqrt(x.size), rel=1e-6)


def test_ks_statistic_is_scipys():
    # scipy.stats is the independent reference for the statistic the
    # harness computes from the standard library's erf and erfc; scipy's
    # own Phi differs from theirs by a few ulp on about a third of values
    from scipy.stats import kstest

    rng = np.random.default_rng(5)
    for n in (100, 1001, 4096):
        x = rng.standard_t(4, size=n) * 1.3
        assert abs(normality_report(x).ks_stat - float(kstest(x, "norm").statistic)) <= 1e-15


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05])
def test_critical_values_are_scipys(alpha):
    # is_gaussian's kurtosis z and KS critical value, without scipy
    from scipy.special import kolmogi, ndtri

    from latfield._gauss import kolmogorov_quantile, normal_quantile

    for got, want in ((normal_quantile(1.0 - alpha / 2.0), float(ndtri(1.0 - alpha / 2.0))),
                      (kolmogorov_quantile(alpha), float(kolmogi(alpha)))):
        assert abs(got - want) <= 4 * math.ulp(want)


def test_normality_report_detects_a_squared_transform():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(200_000)
    rep = normality_report(x**2 - 1.0)
    # single-point second-order functional: excess kurtosis 12, skewness sqrt(8)
    assert abs(rep.kurtosis - 12.0) < 5 * rep.kurtosis_se
    assert abs(rep.skewness - math.sqrt(8.0)) < 5 * rep.skewness_se
    assert not is_gaussian(rep)


def test_normality_report_rejects_bad_input():
    with pytest.raises(ModelError):
        normality_report(np.zeros(50))
    with pytest.raises(NumericalError):
        normality_report(np.ones(500))


# ---------------------------------------------------------------------------
# rate fitting


def test_rate_fit_recovers_an_exact_power_law():
    ns = [100, 200, 400, 800, 1600]
    slope, stderr = rate_fit([(n, 5.0 / n) for n in ns])
    assert slope == pytest.approx(-1.0, abs=1e-9)
    assert stderr < 1e-9


def test_rate_fit_with_noise():
    rng = np.random.default_rng(3)
    ns = np.logspace(2, 5, 12)
    values = ns**-0.5 * np.exp(rng.normal(scale=0.01, size=ns.size))
    slope, stderr = rate_fit(list(zip(ns, values)))
    assert slope == pytest.approx(-0.5, abs=0.05)
    assert 0.0 < stderr < 0.05


def test_rate_fit_validation():
    with pytest.raises(ModelError):
        rate_fit([(10, 1.0), (20, 0.5), (40, 0.25)])
    with pytest.raises(ModelError):
        rate_fit([(10, 1.0), (20, 0.5), (40, -0.2), (80, 0.1)])
    # one size, or a size at or below 0, is refused before the fit (which
    # warned and raised LinAlgError on them)
    for sizes, message in (((10, 10, 10, 10), r"rate fits need at least two distinct sizes"),
                           ((-10, 20, 40, 80), r"series\[0\]\.size: must be positive, got -10\.0"),
                           ((0, 20, 40, 80), r"series\[0\]\.size: must be positive, got 0\.0")):
        with pytest.raises(ModelError, match=f"^{message}$"):
            rate_fit([(n, v) for n, v in zip(sizes, (1.0, 2.0, 3.0, 4.0))])


# ---------------------------------------------------------------------------
# experiment configs


def test_config_validation():
    ok = ExperimentConfig(
        covariance=WHITE,
        phi=pure(2),
        ladder=(lattice(16), lattice(32)),
        replicates=200,
        seed=7,
    )
    assert ok.outputs == ("normality",)
    with pytest.raises(ModelError, match="increasing"):
        ExperimentConfig(WHITE, pure(2), (lattice(32), lattice(16)), 200, 7)
    with pytest.raises(ModelError, match="100"):
        ExperimentConfig(WHITE, pure(2), (lattice(16),), 50, 7)
    # chaos reports alone carry no statistical verdict
    ExperimentConfig(
        WHITE, pure(2), (lattice(16),), 1, 7, outputs=("chaos_reports",)
    )
    with pytest.raises(ModelError, match="outputs"):
        ExperimentConfig(
            WHITE, pure(2), (lattice(16),), 200, 7, outputs=("plots",)
        )
    with pytest.raises(ModelError, match="seed"):
        ExperimentConfig(WHITE, pure(2), (lattice(16),), 200, 2**64)
    # every violated rule is named at once
    with pytest.raises(ModelError, match="^seed must be at most 18446744073709551615, "
                                         "got 18446744073709551616; "
                                         "replicates must be at least 100 "):
        ExperimentConfig(WHITE, pure(2), (lattice(16),), 50, 2**64)


def test_config_fingerprint_tracks_content():
    base = ExperimentConfig(WHITE, pure(2), (lattice(16),), 200, 7)
    same = ExperimentConfig(WHITE, pure(2), (lattice(16),), 200, 7)
    assert config_fingerprint(base) == config_fingerprint(same)
    bumped = ExperimentConfig(WHITE, pure(2), (lattice(16),), 200, 8)
    assert config_fingerprint(base) != config_fingerprint(bumped)
    # qmax truncates only a custom phi's expansion: a pure phi refuses it,
    # and a custom phi's is hashed
    with pytest.raises(ModelError, match=r"^qmax: not a parameter of pure phi$"):
        HermiteSpec("pure", q=2, qmax=30)
    custom = [ExperimentConfig(WHITE, HermiteSpec("custom", func=np.tanh, qmax=qmax),
                               (lattice(16),), 200, 7) for qmax in (20, 30)]
    assert config_fingerprint(custom[0]) != config_fingerprint(custom[1])


# ---------------------------------------------------------------------------
# the runner


def test_white_noise_functional_is_gaussian():
    config = ExperimentConfig(
        covariance=WHITE,
        phi=pure(2),
        ladder=(lattice(64),),
        replicates=2000,
        seed=7,
        outputs=("normality", "chaos_reports"),
    )
    result = run_experiment(config)
    assert result.verdict == "gaussian"
    # the kurtosis interval contains 0 even though n=64 leaves visible
    # skewness; the rule's KS leg is what separates marginal seeds
    assert abs(result.rungs[0].stats.kurtosis) < 2.5758 * result.rungs[0].stats.kurtosis_se
    rung = result.rungs[0]
    assert rung.variance_source == "exact"
    assert rung.exact_variance == pytest.approx(2.0 * 64)
    assert rung.exact_mean == 0.0
    # variance bridge: standardized samples have unit variance within noise
    assert abs(rung.stats.variance - 1.0) < 5 * rung.stats.variance_se
    # raw sample variance brackets the exact one
    se_raw = rung.raw_variance * math.sqrt(2.0 / (config.replicates - 1))
    assert abs(rung.raw_variance - rung.exact_variance) < 5 * se_raw
    assert rung.chaos is not None and rung.chaos.q == 2
    assert rung.gaussian


def test_long_memory_functional_is_not_gaussian():
    cov = separable(FactorCovariance("fgn", hurst=0.9))
    config = ExperimentConfig(
        covariance=cov,
        phi=pure(2),
        ladder=(lattice(4096),),
        replicates=2000,
        seed=20260815,
        outputs=("normality",),
    )
    result = run_experiment(config)
    assert result.verdict == "non_gaussian"
    rung = result.rungs[0]
    # kurtosis bridge: the empirical excess kurtosis brackets the exact
    # fourth cumulant of the standardized functional
    exact = fourth_cumulant(cov, lattice(4096), 2)[0]
    assert abs(rung.stats.kurtosis - exact) < 5 * rung.stats.kurtosis_se
    assert rung.stats.kurtosis > 2.5758 * rung.stats.kurtosis_se


def test_results_are_deterministic_and_schedule_independent():
    config = ExperimentConfig(
        covariance=WHITE,
        phi=pure(2),
        ladder=(lattice(16), lattice(32)),
        replicates=200,
        seed=99,
        outputs=("normality", "kurtosis_series"),
    )
    a = run_experiment(config, threads=1)
    b = run_experiment(config, threads=1)
    c = run_experiment(config, threads=4)
    assert a == b == c
    assert a.config_hash == config_fingerprint(config)


_CAUCHY_FGN = (FactorCovariance("cauchy", exponent=0.4), FactorCovariance("fgn", hurst=0.7))
# (covariance, rung, method): each rung holds several blocks of its 60 pairs
_THREAD_CASES = {
    "separable": (separable(*_CAUCHY_FGN), lattice(24, 17), KRONECKER_CIRCULANT),
    "additive": (CompositeCovariance(ADDITIVE, _CAUCHY_FGN, weights=(0.3, 0.7)),
                 lattice(240, 170), ADDITIVE_CIRCULANT),
    "gneiting": (CompositeCovariance(GNEITING, (FactorCovariance("cauchy", exponent=0.3),
                                                FactorCovariance("cauchy", exponent=1.0))),
                 lattice(24, 17), FULL_CIRCULANT),
    "dense": (skew(32, 32), LatticeSpec(((32, 32),)), DENSE_CHOLESKY),
}


@pytest.mark.parametrize("case", list(_THREAD_CASES))
def test_draw_values_do_not_depend_on_the_thread_count(case):
    # each worker thread draws in its own workspace: 1 thread and 3 threads
    # switching often give bit-identical functional values
    cov, rung, method = _THREAD_CASES[case]
    config = ExperimentConfig(cov, pure(2), (rung,), 120, 13)
    sampler = build_sampler(cov, rung)
    assert sampler.method == method and sampler.block_pairs < 60
    one = _draw_values(config, sampler, 0, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        three = _draw_values(config, sampler, 0, threads=3)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(one, three)


def test_an_additive_rung_of_several_blocks_keeps_each_replicates_value():
    # crit10's additive model on 1024x181: a block holds 13 pairs of its
    # 2046 + 360 point embeddings, so 101 replicates (51 pairs, the last
    # pair's second half unused) take 4 blocks, each evaluated in one call;
    # every value equals, bit for bit, evaluate on that replicate's draw
    # alone, at 1 and 3 threads
    cov = CompositeCovariance(ADDITIVE, (FactorCovariance("cauchy", exponent=0.48),
                                         FactorCovariance("cauchy", exponent=3.0)),
                              weights=(0.1, 0.9))
    config = ExperimentConfig(cov, pure(2), (lattice(64, 23), lattice(1024, 181)), 101, 29)
    sampler = build_sampler(cov, config.ladder[1])
    assert sampler.block_pairs == 13
    alone = [harness.evaluate([harness.draw(sampler, config.seed, 102 + r)], config.phi)[0]
             for r in range(101)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 3):
            values = _draw_values(config, sampler, 1, threads)
            assert values.tobytes() == np.array(alone).tobytes(), threads
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(
    not hasattr(resource, "RUSAGE_THREAD"),
    reason="needs resource.RUSAGE_THREAD (per-thread page-fault counts), "
    "which this platform does not provide",
)
def test_a_warm_rung_takes_few_page_faults():
    # a warm 256x256 H2 rung on one thread allocates only each replicate's
    # sample: the normals stream into the thread's stack and H2 is summed
    # in the thread's own buffer, so the allocator need not hand pages back
    # and map them again (480 faults per replicate when each replicate
    # allocated and freed about 2 MB)
    cov = separable(FactorCovariance("cauchy", exponent=0.3), FactorCovariance("cauchy", exponent=0.4))
    config = ExperimentConfig(cov, pure(2), (lattice(256, 256),), 100, 17)
    sampler = build_sampler(cov, config.ladder[0])
    assert sampler.sqrt_spectrum.shape == (510, 510)
    warm = _draw_values(config, sampler, 0, 1)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    values = _draw_values(config, sampler, 0, 1)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults / config.replicates < 16, faults / config.replicates
    assert values.tobytes() == warm.tobytes()


def test_draws_come_in_replicate_pairs(monkeypatch):
    # 101 replicates per rung: 51 pair windows each, the last pair's second
    # half unused; rung 1 starts at the even base 102, at pair 51; the
    # values are the same at 1 and 3 threads; for circulant and dense rungs
    ladders = [(separable(*_CAUCHY_FGN), (lattice(24, 17), lattice(20, 30))),
               (skew(32, 32), (LatticeSpec(((16, 16),)), LatticeSpec(((32, 32),))))]
    windows = []
    counted = fieldsim._replicate_rng
    monkeypatch.setattr(fieldsim, "_replicate_rng",
                        lambda seed, window: windows.append(window) or counted(seed, window))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cov, ladder in ladders:
            config = ExperimentConfig(cov, pure(2), ladder, 101, 13)
            samplers = [build_sampler(cov, lat) for lat in config.ladder]
            values = {}
            for threads in (1, 3):
                for idx, sampler in enumerate(samplers):
                    windows.clear()
                    values[threads, idx] = _draw_values(config, sampler, idx, threads).tobytes()
                    assert sorted(windows) == list(range(51 * idx, 51 * idx + 51)), \
                        (sampler.method, threads, idx)
            for idx in range(2):
                assert values[1, idx] == values[3, idx]
    finally:
        sys.setswitchinterval(interval)
    assert samplers[1].method == DENSE_CHOLESKY and samplers[1].block_pairs == 32


def _count_pools_and_threads(monkeypatch):
    """Patch harness to count the worker pools it opens and record, per
    lattice size, the threads that evaluate its blocks."""
    pools, threads_seen = [], {}
    executor = harness.ThreadPoolExecutor

    def counted_pool(*args, **kwargs):
        pools.append(1)
        return executor(*args, **kwargs)

    evaluate = harness.evaluate

    def recorded(samples, phi):
        threads_seen.setdefault(samples[0].lattice.n_total, set()).add(threading.get_ident())
        return evaluate(samples, phi)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", counted_pool)
    monkeypatch.setattr(harness, "evaluate", recorded)
    return pools, threads_seen


def test_each_multi_block_rung_has_its_own_pool_and_one_block_runs_inline(monkeypatch):
    # the 4x3 rung fits in one block of pairs and is drawn on the calling
    # thread; the 24x17 rung takes several blocks, spread over a pool that
    # lasts as long as the rung; the values match one thread's
    cov = separable(FactorCovariance("cauchy", exponent=0.4), FactorCovariance("fgn", hurst=0.7))
    config = ExperimentConfig(cov, pure(2), (lattice(4, 3), lattice(24, 17)), 120, 13)
    blocks = [build_sampler(cov, lat).block_pairs for lat in config.ladder]
    assert blocks[0] >= 60 > blocks[1]
    pools, threads_seen = _count_pools_and_threads(monkeypatch)
    many = run_experiment(config, threads=3)
    assert pools == [1]
    assert threads_seen[12] == {threading.get_ident()}
    assert threading.get_ident() not in threads_seen[24 * 17]
    assert run_experiment(config, threads=1) == many


def test_two_multi_block_rungs_open_two_pools(monkeypatch):
    # both rungs take several blocks of pairs, so each opens its own pool;
    # the values match one thread's, and one thread opens no pool
    cov = separable(FactorCovariance("cauchy", exponent=0.4), FactorCovariance("fgn", hurst=0.7))
    config = ExperimentConfig(cov, pure(2), (lattice(24, 17), lattice(20, 30)), 120, 13)
    assert all(build_sampler(cov, lat).block_pairs < 60 for lat in config.ladder)
    pools, threads_seen = _count_pools_and_threads(monkeypatch)
    many = run_experiment(config, threads=3)
    assert pools == [1, 1]
    assert threading.get_ident() not in threads_seen[24 * 17] | threads_seen[20 * 30]
    pools.clear()
    assert run_experiment(config, threads=1) == many
    assert pools == []


def test_rungs_use_distinct_replicate_streams():
    single = ExperimentConfig(WHITE, pure(1), (lattice(16),), 150, 4)
    laddered = ExperimentConfig(
        WHITE, pure(1), (lattice(8), lattice(16)), 150, 4
    )
    a = run_experiment(single).rungs[0]
    b = run_experiment(laddered).rungs[1]
    # same lattice, same seed, but disjoint global replicate ids
    assert a.sizes == b.sizes
    assert a.raw_mean != b.raw_mean


def test_sampler_failures_name_the_rung():
    table = FactorCovariance(
        "tabulated", table={(0,): 1.0, (1,): 0.9, (2,): 0.7}
    )
    config = ExperimentConfig(
        covariance=separable(table),
        phi=pure(2),
        ladder=(lattice(3), lattice(9)),
        replicates=120,
        seed=1,
    )
    with pytest.raises((ModelError, NumericalError), match="rung 1"):
        run_experiment(config)


def test_a_degenerate_sample_names_its_rung():
    # an indicator of level 6 is 0 on every white-noise draw of 8 points,
    # so rung 0's standardized sample has no spread
    phi = HermiteSpec("indicator", level=6.0)
    config = ExperimentConfig(WHITE, phi, (lattice(8), lattice(16)), 100, 3)
    with pytest.raises(NumericalError, match=r"^rung 0 \(8\): degenerate sample variance"):
        run_experiment(config)


def test_rate_fit_output_uses_exact_cumulants():
    cov = separable(FactorCovariance("fgn", hurst=0.3))
    ladder = tuple(lattice(n) for n in (256, 512, 1024, 2048))
    config = ExperimentConfig(
        covariance=cov,
        phi=pure(2),
        ladder=ladder,
        replicates=100,
        seed=2,
        outputs=("rate_fit", "kurtosis_series"),
    )
    result = run_experiment(config)
    assert result.rate_source == "exact-fourth-cumulant"
    slope, stderr = result.rate
    # short-memory fourth cumulants decay like 1/n
    assert slope == pytest.approx(-1.0, abs=0.15)
    assert len(result.kurtosis_series) == 4
    # the exact series the fit used matches chaoscalc point by point
    for latt, (n, _, _) in zip(ladder, result.kurtosis_series):
        assert n == latt.n_total


def test_indicator_variance_is_exact():
    # a sum of n iid Bernoulli(1/2) variables has variance n / 4; a chaos
    # sum truncated at q = 20 gives 221.5 at n = 1000 and inflates the
    # standardized variance by 13 %
    config = ExperimentConfig(
        covariance=WHITE,
        phi=HermiteSpec("indicator", level=0.0),
        ladder=(lattice(1000),),
        replicates=4000,
        seed=20261017,
    )
    rung = run_experiment(config).rungs[0]
    assert rung.variance_source == "exact"
    assert rung.exact_variance == pytest.approx(250.0, rel=1e-12)
    assert rung.exact_mean == 500.0
    assert abs(rung.stats.variance - 1.0) < 5 * rung.stats.variance_se


def test_empirical_fallback_is_flagged(monkeypatch):
    # isotropic models have no factorized variance, and past the lag-sum
    # budget the harness standardizes by the empirical spread instead; the
    # 300x300 rung has 599^2 = 358 801 lags
    cov = CompositeCovariance(
        "isotropic",
        (FactorCovariance("cauchy", exponent=1.5, dim=2),),
        block_dims=(1, 1),
    )
    small = LatticeSpec(((24,), (24,)))
    big = LatticeSpec(((300,), (300,)))
    config = ExperimentConfig(
        covariance=cov,
        phi=pure(2),
        ladder=(small, big),
        replicates=150,
        seed=6,
    )
    unlimited = run_experiment(config).rungs[1]
    assert unlimited.variance_source == "exact"
    assert unlimited.exact_variance == variance_hermite(cov, big, 2)

    monkeypatch.setattr(covariance, "_DIRECT_LAG_LIMIT", 2**18)
    result = run_experiment(config)
    exact_rung, empirical_rung = result.rungs
    assert exact_rung.variance_source == "exact"
    assert exact_rung.exact_variance > 0
    assert empirical_rung.variance_source == "empirical"
    assert empirical_rung.exact_variance is None
    assert any("empirical" in note for note in empirical_rung.notes)
    assert empirical_rung.stats.variance == pytest.approx(1.0, rel=1e-9)


def test_custom_phi_is_exact_only_when_its_chaos_sum_is_complete():
    cov = separable(FactorCovariance("fgn", hurst=0.7))
    # H_3 written as a callable: a complete chaos sum, so exact
    h3 = HermiteSpec("custom", func=lambda x: x**3 - 3.0 * x)
    config = ExperimentConfig(covariance=cov, phi=h3, ladder=(lattice(200),),
                              replicates=200, seed=3)
    rung = run_experiment(config).rungs[0]
    assert rung.variance_source == "exact"
    assert rung.exact_variance == pytest.approx(variance_hermite(cov, lattice(200), 3),
                                                rel=1e-12)
    # tanh's chaos sum stops at q = 20 with a tail bound of 3.29 against a
    # variance of 5844: too loose to call exact
    tanh = HermiteSpec("custom", func=np.tanh)
    config = ExperimentConfig(covariance=cov, phi=tanh, ladder=(lattice(1000),),
                              replicates=200, seed=3)
    rung = run_experiment(config).rungs[0]
    bound = variance_phi(cov, lattice(1000), tanh).tail_bound
    assert bound > 1e-9 * 5844.0
    assert rung.variance_source == "empirical"
    assert rung.exact_variance is None
    assert any(f"{bound:.3g}" in note for note in rung.notes)


def test_variance_bridge_on_a_correlated_model():
    cov = separable(
        FactorCovariance("fgn", hurst=0.75),
        FactorCovariance("cauchy", exponent=1.5),
    )
    latt = lattice(24, 24)
    config = ExperimentConfig(
        covariance=cov,
        phi=pure(2),
        ladder=(latt,),
        replicates=600,
        seed=13,
    )
    result = run_experiment(config)
    rung = result.rungs[0]
    assert rung.exact_variance == pytest.approx(
        variance_hermite(cov, latt, 2)
    )
    assert abs(rung.stats.variance - 1.0) < 5 * rung.stats.variance_se


def test_rate_fit_falls_back_when_a_kappa4_is_only_a_bound(monkeypatch):
    # fGn(0.8) at q = 3 with the clique budget lowered to a 256-point 1-D
    # block's: kappa_4 is exact up to 256 points and a majorant at 512, past
    # the budget, so the exact series is refused as a whole
    monkeypatch.setattr(chaoscalc, "_CLIQUE_BUDGET", chaoscalc._clique_cost((256,), 3))
    cov = separable(FactorCovariance("fgn", hurst=0.8))
    ladder = tuple(lattice(n) for n in (64, 128, 256, 512))
    assert [fourth_cumulant(cov, latt, 3)[1] for latt in ladder] == [True, True, True, False]
    config = ExperimentConfig(cov, pure(3), ladder, 100, 7, outputs=("rate_fit",))
    result = run_experiment(config)
    assert result.rate_source == "empirical-kurtosis"
    assert result.rate is not None
    assert result.notes == (
        "exact cumulant series unavailable: kappa_4 is only an upper bound at rung 3 (512)",)


def test_rate_fit_is_exact_when_every_kappa4_is():
    # the same ladder within the 1-D clique budget: every kappa_4 is exact
    cov = separable(FactorCovariance("fgn", hurst=0.8))
    ladder = tuple(lattice(n) for n in (64, 128, 256, 512))
    assert all(fourth_cumulant(cov, latt, 3)[1] for latt in ladder)
    config = ExperimentConfig(cov, pure(3), ladder, 100, 7, outputs=("rate_fit",))
    result = run_experiment(config)
    assert result.rate_source == "exact-fourth-cumulant"
    assert result.rate is not None
    assert result.notes == ()


def test_chaos_reports_and_rate_fit_sum_each_rungs_cliques_once(monkeypatch):
    # the rate fit reads each rung's kappa_4 from its chaos report, so the
    # fGn(0.8), q = 3 ladder takes one lag-triple clique sum per rung
    calls = []
    original = chaoscalc._lag_clique_sum
    monkeypatch.setattr(chaoscalc, "_lag_clique_sum", lambda values, sizes, triple:
                        calls.append(*sizes) or original(values, sizes, triple))
    cov = separable(FactorCovariance("fgn", hurst=0.8))
    ladder = tuple(lattice(n) for n in (64, 128, 256, 512))
    config = ExperimentConfig(cov, pure(3), ladder, 100, 7, outputs=("rate_fit", "chaos_reports"))
    result = run_experiment(config)
    assert calls == [64, 128, 256, 512]
    assert result.rate_source == "exact-fourth-cumulant"
    assert result.rate == rate_fit([(latt.n_total, fourth_cumulant(cov, latt, 3)[0])
                                    for latt in ladder])


def test_thread_count_is_checked_and_auto_counts_usable_cpus(monkeypatch):
    config = ExperimentConfig(WHITE, pure(2), (lattice(16),), 100, 5)
    with pytest.raises(ModelError, match="threads"):
        run_experiment(config, threads=-3)
    seen = []
    drawn = harness._draw_values
    monkeypatch.setattr(harness, "_draw_values",
                        lambda c, s, i, threads: seen.append(threads) or drawn(c, s, i, threads))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    auto = run_experiment(config, threads=0)
    assert seen == [3]
    assert auto == run_experiment(config, threads=1)
