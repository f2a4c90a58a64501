import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from spikecca import (
    ConfigurationError,
    DataPair,
    ModelConfig,
    SpikeSpectrum,
    UnsupportedModelError,
    mixing_weights,
    replicate_rng,
    sample_coupled,
    sample_general,
    seeded_rng,
    spike_to_t,
    squared_canonical_correlations,
    standard_normal_matrix,
    subtract_means,
)
from spikecca.sampler import CHUNK, JointFactor, _fold, sample_factor


def config(p=20, q=30, n=200, spikes=(0.8, 0.5), seed=11):
    return ModelConfig(p=p, q=q, n=n, spikes=SpikeSpectrum(spikes), seed=seed)


def latent_noise(pair):
    """W = X - T Y, formed row by row from the pair and its strengths t."""
    t = pair.t
    W = np.array(pair.X)
    W[: t.shape[0]] -= t[:, None] * pair.Y[: t.shape[0]]
    return W


# -- randomness contract --------------------------------------------------------


def test_same_seed_same_bits():
    cfg = config()
    a = sample_coupled(cfg)
    b = sample_coupled(cfg)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.t, b.t)


def test_different_seeds_differ():
    a = sample_coupled(config(seed=1))
    b = sample_coupled(config(seed=2))
    assert not np.array_equal(a.X, b.X)


def test_replicate_streams_reproducible_and_distinct():
    a = standard_normal_matrix(replicate_rng(9, 3), 5, 7)
    b = standard_normal_matrix(replicate_rng(9, 3), 5, 7)
    c = standard_normal_matrix(replicate_rng(9, 4), 5, 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_replicate_streams_order_insensitive():
    # drawing stream 5 before or after stream 2 changes nothing
    first = standard_normal_matrix(replicate_rng(21, 5), 4, 4)
    _ = standard_normal_matrix(replicate_rng(21, 2), 4, 4)
    second = standard_normal_matrix(replicate_rng(21, 5), 4, 4)
    assert np.array_equal(first, second)


def test_normal_matrix_moments():
    draw = standard_normal_matrix(seeded_rng(5), 400, 500)
    assert abs(draw.mean()) < 0.01
    assert abs(draw.var() - 1.0) < 0.02
    assert np.all(np.isfinite(draw))


# -- coupled sampler -------------------------------------------------------------


def test_latent_identity_exactly_zero():
    # X = W + T Y with the dense p x q coupling T that the strengths t describe
    pair = sample_coupled(config())
    t = pair.t
    T = np.zeros((pair.p, pair.q))
    T[np.arange(t.shape[0]), np.arange(t.shape[0])] = t
    residual = pair.X - T @ pair.Y - latent_noise(pair)
    assert np.all(residual == 0.0)


def test_latent_noise_recovered_bitwise():
    # the recovered noise is the raw draw: exactly beyond the k coupled rows,
    # to rounding within them
    cfg = config()
    pair = sample_coupled(cfg)
    W = latent_noise(pair)
    assert np.array_equal(W, latent_noise(sample_coupled(cfg)))
    raw = standard_normal_matrix(seeded_rng(cfg.seed), cfg.p, cfg.n)
    k = pair.t.shape[0]
    assert np.array_equal(W[k:], raw[k:])
    scale = np.max(np.abs(pair.X[:k]))
    assert np.max(np.abs(W[:k] - raw[:k])) <= 4 * np.finfo(float).eps * scale


def test_coupling_matrix_structure():
    # the pair carries T's k nonzero diagonal entries t, read-only
    cfg = config(spikes=(0.8, 0.5))
    t = sample_coupled(cfg).t
    assert t.shape == (2,)
    assert t[0] == spike_to_t(0.8)
    assert t[1] == spike_to_t(0.5)
    with pytest.raises(ValueError):
        t[0] = 1.0


def test_coupled_seeding_contract():
    # in-place coupling keeps the raw draws: Y untouched, X[k:] untouched,
    # X[:k] = raw[:k] + t Y[:k]
    cfg = config(p=12, q=16, n=90, spikes=(0.8, 0.6, 0.3), seed=19)
    pair = sample_coupled(cfg)
    rng = seeded_rng(cfg.seed)
    raw_x = standard_normal_matrix(rng, cfg.p, cfg.n)
    raw_y = standard_normal_matrix(rng, cfg.q, cfg.n)
    t = pair.t
    k = t.shape[0]
    assert np.array_equal(pair.Y, raw_y)
    assert np.array_equal(pair.X[k:], raw_x[k:])
    assert np.array_equal(pair.X[:k], raw_x[:k] + t[:, None] * pair.Y[:k])


STREAMED_SHAPES = {
    "one_short_block": (7, 11, 500),
    "one_full_block": (50, 80, CHUNK),
    "ragged_last_block": (30, 40, 2 * CHUNK + 1),
    "p_plus_q_above_n": (50, 80, 120),
}


@pytest.mark.parametrize(
    "p, q, n, spikes, sample",
    [
        pytest.param(*shape, spikes, sample, id=name + suffix)
        for suffix, spikes, sample in [
            ("", (0.8, 0.6), sample_coupled),
            ("_unit_spike", (1.0, 0.5), sample_general),
        ]
        for name, shape in STREAMED_SHAPES.items()
    ],
)
def test_streamed_factor_equals_the_sampled_pairs(p, q, n, spikes, sample):
    # ModelConfig needs p + q < n; the sampler reads only these fields
    cfg = SimpleNamespace(p=p, q=q, n=n, spikes=SpikeSpectrum(spikes), seed=0)
    rng_pair, rng_streamed = replicate_rng(41, 2), replicate_rng(41, 2)
    pair = sample(cfg, rng_pair)
    streamed = sample_factor(cfg, rng_streamed)
    factor = pair.factor
    assert np.array_equal(streamed.Ryy.base, factor.Ryy.base)
    assert np.array_equal(streamed.cosines, factor.cosines)
    if pair.t is None:
        assert streamed.t is None
    else:
        assert np.array_equal(streamed.t, pair.t) and not streamed.t.flags.writeable
    assert (streamed.p, streamed.q, streamed.n) == (p, q, n)
    assert rng_streamed.bit_generator.state == rng_pair.bit_generator.state


def traced_peak(compute):
    """compute() and the peak of the memory it allocated, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        return compute(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fold_of_a_short_wide_pair_holds_r_or_its_copy_not_both():
    # n < p + q: R's leading n rows are copied once the last block is freed
    # (holding R, the block and the copy at once peaked at 1.48 times R and the block)
    width, n = 500, 400
    M = standard_normal_matrix(seeded_rng(5), width, n)

    def fill(block, start):
        block[:] = M[:, start : start + block.shape[1]]

    R, peak = traced_peak(lambda: _fold(width, n, fill))
    assert R.shape == (n, width) and not np.tril(R, -1).any()
    assert np.allclose(R.T @ R, M @ M.T, rtol=0, atol=1e-10 * n)
    assert peak <= 1.2 * (width * width + width * n) * 8


def test_small_qr_factors_one_copy_in_place():
    # [Ryx; Rxx] is copied once and factored in place: beside the Sxx guard's
    # Rx and Gram, np.linalg.qr held its own copy and Qx (3.5 times [Ryx; Rxx])
    p, q, n = 500, 100, 2000
    R = np.asfortranarray(np.linalg.qr(standard_normal_matrix(seeded_rng(21), n, q + p), "r"))
    before = R.copy()
    factor, peak = traced_peak(lambda: JointFactor._guarded(R, None, p, q, n))
    assert peak <= 1.1 * ((q + p) * p + 2 * p * p) * 8
    assert np.array_equal(R, before)
    cosines = np.linalg.svd(np.linalg.qr(R[:, q:])[0][:q], compute_uv=False)
    assert np.allclose(factor.cosines, cosines, rtol=0, atol=1e-13)


@pytest.mark.parametrize("p, q", [(300, 100), (100, 300)])
def test_joint_factor_keeps_the_cosines_not_qx(p, q):
    # the cosines are taken from Qx[:q] and Qx, (q + p) x p, is dropped, so
    # the step leaves only the cosines and a few Python objects (about 1 kB)
    # allocated; a kept Qx would be 0.3 MB or more here
    n = 1000
    R = np.asfortranarray(np.linalg.qr(standard_normal_matrix(seeded_rng(22), n, q + p), "r"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        factor = JointFactor._guarded(R, None, p, q, n)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert factor.cosines.shape == (min(p, q),)
    assert factor.cosines.flags.owndata and factor.cosines.base is None
    assert kept <= factor.cosines.nbytes + 4096


def test_coupled_rejects_unit_spike():
    with pytest.raises(UnsupportedModelError):
        sample_coupled(config(spikes=(1.0, 0.5)))


def test_null_case_cross_covariance_small():
    cfg = config(p=10, q=10, n=4000, spikes=())
    pair = sample_coupled(cfg)
    sxy = pair.X @ pair.Y.T / cfg.n
    # independent rows: entries are O(n^{-1/2})
    assert np.max(np.abs(sxy)) < 6.0 / math.sqrt(cfg.n)


def test_coupled_population_covariance():
    cfg = config(p=4, q=4, n=100_000, spikes=(0.8, 0.5), seed=3)
    pair = sample_coupled(cfg)
    sxx = pair.X @ pair.X.T / cfg.n
    target = np.eye(4)
    target[0, 0] += spike_to_t(0.8) ** 2
    target[1, 1] += spike_to_t(0.5) ** 2
    assert np.max(np.abs(sxx - target)) < 0.05


# -- general sampler ---------------------------------------------------------------


def test_general_null_case_passthrough():
    cfg = config(p=6, q=8, n=50, spikes=(), seed=17)
    pair = sample_general(cfg)
    rng = seeded_rng(cfg.seed)
    w1 = standard_normal_matrix(rng, cfg.p, cfg.n)
    w2 = standard_normal_matrix(rng, cfg.q, cfg.n)
    assert np.array_equal(pair.X, w1)
    assert np.array_equal(pair.Y, w2)
    assert pair.t is None


def test_general_unit_spike_perfect_correlation():
    cfg = config(p=10, q=12, n=150, spikes=(1.0,), seed=5)
    pair = sample_general(cfg)
    assert np.array_equal(pair.X[0], pair.Y[0])
    report = squared_canonical_correlations(pair)
    assert abs(report.lambdas[0] - 1.0) < 1e-10


def test_general_population_blocks():
    cfg = config(p=4, q=4, n=100_000, spikes=(0.8, 0.5), seed=9)
    pair = sample_general(cfg)
    n = cfg.n
    sxx = pair.X @ pair.X.T / n
    sxy = pair.X @ pair.Y.T / n
    weights = [mixing_weights(r) for r in cfg.spikes.r]
    target_xx = np.eye(4)
    for i, (a, b) in enumerate(weights):
        target_xx[i, i] = a * a + b * b
    target_xy = np.zeros((4, 4))
    for i, (a, b) in enumerate(weights):
        target_xy[i, i] = 2.0 * a * b
    assert np.max(np.abs(sxx - target_xx)) < 0.05
    assert np.max(np.abs(sxy - target_xy)) < 0.05


def test_samplers_agree_in_law():
    # same top-eigenvalue distribution from both constructions
    reps = 200
    means = {}
    for name, fn in (("coupled", sample_coupled), ("general", sample_general)):
        tops = []
        for i in range(reps):
            cfg = ModelConfig(p=4, q=4, n=20_000, spikes=SpikeSpectrum((0.5,)), seed=31)
            pair = fn(cfg, replicate_rng(cfg.seed, i))
            tops.append(squared_canonical_correlations(pair).lambdas[0])
        means[name] = float(np.mean(tops))
    assert abs(means["coupled"] - means["general"]) < 0.02


# -- centering ----------------------------------------------------------------------


def test_subtract_means_zeroes_row_means():
    pair = sample_coupled(config())
    centered = subtract_means(pair)
    assert np.max(np.abs(centered.X.mean(axis=1))) < 1e-12
    assert np.max(np.abs(centered.Y.mean(axis=1))) < 1e-12
    assert centered.t is None


def test_subtract_means_shift_invariance():
    pair = sample_coupled(config())
    shifted = DataPair(X=pair.X + 7.5, Y=pair.Y - 3.25)
    a = subtract_means(pair)
    b = subtract_means(shifted)
    assert np.max(np.abs(a.X - b.X)) < 1e-12
    assert np.max(np.abs(a.Y - b.Y)) < 1e-12


def test_subtract_means_idempotent_on_centered_data():
    X = np.array([[1.0, -1.0, 2.0, -2.0], [3.0, -3.0, 0.5, -0.5]])
    Y = np.array([[4.0, -4.0, 1.0, -1.0]])
    pair = DataPair(X=X, Y=Y)
    centered = subtract_means(pair)
    assert np.max(np.abs(centered.X - X)) < 1e-15
    assert np.max(np.abs(centered.Y - Y)) < 1e-15


def test_subtract_means_needs_two_samples():
    pair = DataPair(X=np.ones((2, 1)), Y=np.ones((3, 1)))
    with pytest.raises(ConfigurationError):
        subtract_means(pair)


# -- data pair validation --------------------------------------------------------------


def test_data_pair_shape_check():
    with pytest.raises(ConfigurationError):
        DataPair(X=np.ones((2, 5)), Y=np.ones((3, 6)))
    with pytest.raises(ConfigurationError):
        DataPair(X=np.ones(5), Y=np.ones((3, 5)))


@pytest.mark.parametrize("p, q", [(0, 3), (3, 0)])
def test_data_pair_rejects_an_empty_block(p, q):
    with pytest.raises(ConfigurationError, match="at least one row"):
        DataPair(X=np.empty((p, 10)), Y=np.empty((q, 10)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: DataPair(X=np.ones((2, 5)), Y=np.ones((3, 5)), t=np.full((2, 1), 0.5)),
        lambda: DataPair(X=np.ones((2, 5)), Y=np.ones((3, 5)), t=np.array([0.5, np.nan])),
        lambda: DataPair(X=np.ones((2, 5)), Y=np.ones((3, 5)), t=np.ones(3)),
    ],
    ids=["two_dimensional_t", "nan_t", "k_above_min_p_q"],
)
def test_latent_boundary_checks(build):
    with pytest.raises(ConfigurationError):
        build()


@pytest.mark.parametrize("p, q, n", [(20, 30, 200), (60, 80, 100)])
def test_joint_factor_blocks_are_read_only_views(p, q, n):
    rng = seeded_rng(p)
    pair = DataPair(X=standard_normal_matrix(rng, p, n), Y=standard_normal_matrix(rng, q, n))
    factor = pair.factor
    assert factor is pair.factor
    assert (factor.p, factor.q, factor.n, factor.t) == (p, q, n, None)
    # Rxx has n - q rows when p + q > n, not p
    rows = min(n, p + q)
    assert factor.Ryy.shape == (q, q)
    assert factor.Ryx.shape == (q, p)
    assert factor.Rxx.shape == (rows - q, p)
    assert factor.cosines.shape == (min(p, q),) and not factor.cosines.flags.writeable
    R = factor.Ryy.base
    assert R.shape == (rows, q + p)
    assert factor.Ryx.base is R and factor.Rxx.base is R
    assert not np.tril(R, -1).any()
    for block in (factor.Ryy, factor.Ryx, factor.Rxx):
        assert not block.flags.writeable and not block.flags.owndata


def test_data_pair_freezes_the_callers_array_without_a_copy():
    X = standard_normal_matrix(seeded_rng(3), 4, 30)
    pair = DataPair(X=X, Y=standard_normal_matrix(seeded_rng(4), 5, 30), t=[0.5])
    assert pair.X is X and not X.flags.writeable
    assert pair.factor.t is pair.t


def test_data_pair_immutable():
    pair = sample_coupled(config())
    with pytest.raises(ValueError):
        pair.X[0, 0] = 99.0
