import tracemalloc
import warnings

import numpy as np
import pytest

from spikecca import (
    ConfigurationError,
    DataPair,
    DeterminantOracle,
    DomainError,
    ModelConfig,
    NumericalError,
    ResolventSingularityError,
    SingularityError,
    SpikeSpectrum,
    UnsupportedModelError,
    detverify,
    f,
    finite_n_det,
    ratios_from_dims,
    replicate_rng,
    sample_coupled,
    sample_general,
    sampler,
    seeded_rng,
    spike_to_t,
    squared_canonical_correlations,
    standard_normal_matrix,
    wachter_edges,
)


@pytest.fixture(scope="module")
def spiked_pair():
    cfg = ModelConfig(p=40, q=80, n=400, spikes=SpikeSpectrum((0.8, 0.5)), seed=23)
    return sample_coupled(cfg)


def zero_coupling_pair(p=20, q=30, n=200, seed=11):
    rng = seeded_rng(seed)
    W = standard_normal_matrix(rng, p, n)
    Y = standard_normal_matrix(rng, q, n)
    return DataPair(X=W, Y=Y, t=np.zeros(1))


def latent_noise(pair):
    """W = X - T Y, formed row by row from the pair and its strengths t."""
    t = pair.t
    W = np.array(pair.X)
    W[: t.shape[0]] -= t[:, None] * pair.Y[: t.shape[0]]
    return W


def coupled_pair(W, Y, t):
    """The pair X = W + T Y for noise W, data Y and the strengths t."""
    X = np.array(W)
    X[: t.shape[0]] += t[:, None] * Y[: t.shape[0]]
    return DataPair(X=X, Y=Y, t=t)


# -- factorization -----------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2])
def test_factor_shapes(k):
    # Delta = B C B' has rank at most 2k: U = B C is p x 2k and V = B' is 2k x p
    cfg = ModelConfig(p=15, q=20, n=150, spikes=SpikeSpectrum((0.8, 0.5)[:k]), seed=2)
    oracle = DeterminantOracle(sample_coupled(cfg))
    factors = oracle.factors()
    assert factors.U.shape == (15, 2 * k)
    assert factors.V.shape == (2 * k, 15)
    assert oracle.reduced_matrix(0.7).shape == (2 * k, 2 * k)
    assert oracle.limit_matrix(0.7).shape == (2 * k, 2 * k)


def test_null_oracle_is_the_identity():
    cfg = ModelConfig(p=20, q=30, n=200, spikes=SpikeSpectrum(()), seed=9)
    pair = sample_coupled(cfg)
    oracle = DeterminantOracle(pair)
    factors = oracle.factors()
    assert factors.U.shape == (20, 0) and factors.V.shape == (0, 20)
    assert np.array_equal(factors.Delta, np.zeros((20, 20)))
    for lam in (0.6, 0.9):
        assert oracle.normalized_det(lam) == 1.0
    assert oracle.limit_matrix(0.7).shape == (0, 0)
    assert oracle.reduced_matrix(0.7).shape == (0, 0)
    assert oracle.mn_comparison(0.7) == 0.0


def test_perturbation_is_symmetric(spiked_pair):
    factors = DeterminantOracle(spiked_pair).factors()
    assert np.max(np.abs(factors.Delta - factors.Delta.T)) < 1e-12


def test_delta_matches_stored_product(spiked_pair):
    factors = DeterminantOracle(spiked_pair).factors()
    assert np.array_equal(factors.Delta, factors.U @ factors.V)


def test_chi_concentrates_on_squared_strengths():
    cfg = ModelConfig(p=6, q=8, n=20_000, spikes=SpikeSpectrum((0.8, 0.5)), seed=3)
    pair = sample_coupled(cfg)
    oracle = DeterminantOracle(pair)
    for i, r in enumerate(cfg.spikes.r):
        chi_ii = oracle.t[i] ** 2 * oracle.S_yy[i, i]
        assert abs(chi_ii - spike_to_t(r) ** 2) < 0.1


def test_factorization_needs_latent():
    pair = DataPair(X=np.ones((3, 10)), Y=np.ones((4, 10)))
    with pytest.raises(UnsupportedModelError):
        DeterminantOracle(pair).factors()
    cfg = ModelConfig(p=5, q=6, n=30, spikes=SpikeSpectrum((0.5,)), seed=4)
    with pytest.raises(UnsupportedModelError):
        DeterminantOracle(sample_general(cfg)).factors()


# -- resolvent ----------------------------------------------------------------------


def latent_resolvent(pair, lam):
    """(Swy Syy^{-1} Syw - lam Sww)^{-1}, inverted directly from the latent W = X - T Y."""
    n = pair.n
    W, Y = latent_noise(pair), pair.Y
    S_wy = W @ Y.T / n
    S_yy = Y @ Y.T / n
    S_ww = W @ W.T / n
    return np.linalg.inv(S_wy @ np.linalg.solve(S_yy, S_wy.T) - lam * S_ww)


def test_resolvent_matches_direct_formula(spiked_pair):
    oracle = DeterminantOracle(spiked_pair)
    factors = oracle.factors()
    lam = 0.7
    phi = latent_resolvent(spiked_pair, lam)
    direct = np.eye(2 * oracle.k) + (1.0 - lam) * factors.V @ phi @ factors.U
    assert np.max(np.abs(oracle.reduced_matrix(lam) - direct)) < 1e-8


def test_projection_split_sums_to_covariance(spiked_pair):
    # the null pencil (E, Sww) is diagonalized by Sww-orthonormal eigenvectors
    oracle = DeterminantOracle(spiked_pair)
    vecs = oracle.vecs
    identity = np.eye(spiked_pair.p)
    assert np.max(np.abs(vecs.T @ oracle.S_ww @ vecs - identity)) < 1e-12
    assert np.max(np.abs(vecs.T @ oracle.E @ vecs - np.diag(oracle.mu))) < 1e-12


def test_resolvent_singularity_detected(spiked_pair):
    oracle = DeterminantOracle(spiked_pair)
    # exact eigenvalues of the null-side pencil make the argument singular
    null_eigs = np.linalg.eigvals(np.linalg.solve(oracle.S_ww, oracle.E)).real
    for evaluate in (oracle.reduced_matrix, oracle.normalized_det):
        with pytest.raises(ResolventSingularityError):
            evaluate(float(np.max(null_eigs)))


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_non_finite_argument_fails_closed(spiked_pair, lam):
    # a non-finite lam is outside the determinant's domain, not a singular resolvent
    oracle = DeterminantOracle(spiked_pair)
    with pytest.raises(DomainError):
        oracle.reduced_matrix(lam)
    with pytest.raises(DomainError):
        oracle.normalized_det(lam)
    with pytest.raises(DomainError):
        finite_n_det(spiked_pair, lam)


def test_wishart_trace_moment():
    p, q, n = 40, 80, 400
    traces_e = []
    for i in range(120):
        cfg = ModelConfig(p=p, q=q, n=n, spikes=SpikeSpectrum((0.5,)), seed=31)
        oracle = DeterminantOracle(sample_coupled(cfg, replicate_rng(cfg.seed, i)))
        traces_e.append(np.trace(oracle.E))
    mean_e = float(np.mean(traces_e))
    assert abs(mean_e - p * q / n) < 0.05 * p * q / n


def test_rank_deficient_y_is_reported():
    # a duplicated row of Y makes Syy singular; the oracle must not build a
    # resolvent from a spurious basis direction
    cfg = ModelConfig(p=20, q=30, n=400, spikes=SpikeSpectrum((0.8,)), seed=12)
    coupled = sample_coupled(cfg)
    W, Y = latent_noise(coupled), np.array(coupled.Y)
    Y[1] = Y[0]
    pair = coupled_pair(W, Y, coupled.t)
    for compute in (squared_canonical_correlations, lambda pair: finite_n_det(pair, 0.6)):
        with pytest.raises(SingularityError) as info:
            compute(pair)
        assert info.value.block == "Syy"


def test_rank_deficient_noise_is_reported():
    # a zero row of W makes Sww singular while X and Y stay full rank; the
    # pencil would certify non-eigenvalues and miss the true root lam_1 = 1
    cfg = ModelConfig(p=20, q=30, n=400, spikes=SpikeSpectrum((0.8,)), seed=12)
    coupled = sample_coupled(cfg)
    W = latent_noise(coupled)
    W[0] = 0.0
    pair = coupled_pair(W, coupled.Y, coupled.t)
    assert squared_canonical_correlations(pair).lambdas[0] == pytest.approx(1.0)
    # the Gram's certificate fails, so [A; Rxx] is stacked and its singular
    # values give the reported condition
    factor, t = pair.factor, pair.t
    A = factor.Ryx.copy()
    A[:, :1] -= factor.Ryy[:, :1] * t
    with pytest.raises(SingularityError) as stacked:
        sampler.guard_rank("Sww", np.vstack((A, factor.Rxx)))
    for compute in (DeterminantOracle, lambda pair: finite_n_det(pair, 0.95)):
        with pytest.raises(SingularityError) as info:
            compute(pair)
        assert info.value.block == "Sww"
        assert info.value.condition == stacked.value.condition > 1e20


def test_oracle_certifies_sww_on_its_own_gram(monkeypatch):
    # a well-conditioned W is certified on A'A + Rxx'Rxx, which the pencil
    # needs anyway: no (q + p) x p stack is built; stacking and scaling it
    # peaked at 8.4 p x p arrays, and the eigendecomposition now sets the peak
    p, q, n = 300, 100, 1000
    cfg = ModelConfig(p=p, q=q, n=n, spikes=SpikeSpectrum((0.8, 0.6)), seed=3)
    factor = sampler.sample_factor(cfg, seeded_rng(3))

    def no_stacked_guard(block, R):
        raise AssertionError(f"block {block!r} was stacked and guarded")

    monkeypatch.setattr(detverify, "guard_rank", no_stacked_guard)
    tracemalloc.start()
    try:
        oracle = DeterminantOracle(factor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * p * p * 8
    assert np.allclose(oracle.S_ww, oracle.E + factor.Rxx.T @ factor.Rxx / n, rtol=0, atol=1e-14)


def test_oracle_guards_sww_on_the_stack_near_underflow(monkeypatch):
    # a Gram near underflow is not certified on its own: its rounding could
    # exceed the certificate's margin, so [A; Rxx] is stacked and guarded
    p, q, n = 20, 30, 400
    pair = sample_coupled(ModelConfig(p=p, q=q, n=n, spikes=SpikeSpectrum((0.8,)), seed=3))
    guarded = []
    monkeypatch.setattr(detverify, "guard_rank", lambda block, R: guarded.append((block, R.shape)))
    for scale in (1.0, 1e-160):
        DeterminantOracle(DataPair(X=pair.X * scale, Y=pair.Y * scale, t=pair.t))
    assert guarded == [("Sww", (q + p, p))]


def test_rank_deficient_x_and_y_report_sxx_first():
    # X is guarded before Y, for the canonical correlations and the oracle alike
    cfg = ModelConfig(p=20, q=30, n=400, spikes=SpikeSpectrum((0.8,)), seed=12)
    coupled = sample_coupled(cfg)
    W, Y = latent_noise(coupled), np.array(coupled.Y)
    W[3] = W[2]
    Y[1] = Y[0]
    pair = coupled_pair(W, Y, coupled.t)
    for compute in (squared_canonical_correlations, lambda pair: finite_n_det(pair, 0.6)):
        with pytest.raises(SingularityError) as info:
            compute(pair)
        assert info.value.block == "Sxx"


@pytest.mark.parametrize("p, q, n", [(5, 30, 20), (30, 5, 20)])
def test_oracle_rejects_the_dimensions_cca_rejects(p, q, n):
    # the joint factor owns the p < n and q < n check for every consumer
    rng = seeded_rng(p)
    pair = DataPair(
        X=standard_normal_matrix(rng, p, n), Y=standard_normal_matrix(rng, q, n), t=[0.5]
    )
    for compute in (
        squared_canonical_correlations,
        DeterminantOracle,
        lambda pair: finite_n_det(pair, 0.9),
    ):
        with pytest.raises(ConfigurationError, match="p < n and q < n"):
            compute(pair)


def test_oracle_blocks_match_latent_formulas():
    # the oracle never reads W: it relies on X = W + T Y and the pair's joint factor
    cfg = ModelConfig(p=20, q=30, n=200, spikes=SpikeSpectrum((0.8, 0.6)), seed=8)
    pair = sample_coupled(cfg)
    oracle = DeterminantOracle(pair)
    n, W, Y_k = pair.n, latent_noise(pair), pair.Y[: pair.t.shape[0]]
    A = W @ np.linalg.qr(pair.Y.T)[0]
    direct = {
        "E": A @ A.T / n,
        "S_ww": W @ W.T / n,
        "S_wy": W @ Y_k.T / n,
        "S_yy": Y_k @ Y_k.T / n,
    }
    for name, block in direct.items():
        got = getattr(oracle, name)
        assert got.shape == block.shape
        assert np.max(np.abs(got - block)) <= 1e-12 * np.max(np.abs(block)), name


def test_projection_split_independence_proxy():
    p, q, n = 40, 80, 400
    traces_e, traces_h = [], []
    for i in range(400):
        rng = replicate_rng(55, i)
        W = standard_normal_matrix(rng, p, n)
        Y = standard_normal_matrix(rng, q, n)
        basis = np.linalg.qr(Y.T)[0].T
        A = W @ basis.T
        traces_e.append(np.sum(A * A) / n)
        traces_h.append(np.sum(W * W) / n - traces_e[-1])
    corr = np.corrcoef(traces_e, traces_h)[0, 1]
    assert abs(corr) < 0.1


# -- determinant --------------------------------------------------------------------


def test_pair_is_factorized_once(monkeypatch):
    # a ragged last block: n is not a multiple of the block size
    n = 2 * sampler.CHUNK + 300
    cfg = ModelConfig(p=30, q=50, n=n, spikes=SpikeSpectrum((0.8, 0.6)), seed=5)
    pair = sample_coupled(cfg)
    qr_shapes, svd_shapes, folds = [], [], []
    qr, svd, tpqrt = np.linalg.qr, np.linalg.svd, sampler.dtpqrt

    def counting_tpqrt(l, nb, a, b, **kwargs):
        folds.append((a.ctypes.data, a.shape, b.shape))
        return tpqrt(l, nb, a, b, **kwargs)

    def counting_qr(a, *args, **kwargs):
        qr_shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        svd_shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(sampler, "dtpqrt", counting_tpqrt)
    report = squared_canonical_correlations(pair)
    oracle = DeterminantOracle(pair)
    for lam in report.lambdas[:2]:
        oracle.normalized_det(float(lam))
    oracle.reduced_matrix(0.8)
    # one fold of [Y' X'] into a single R, one block of samples per call, is
    # the only factorization of n-length data
    width = pair.q + pair.p
    assert len(folds) == -(-n // sampler.CHUNK)
    assert len({data for data, _, _ in folds}) == 1
    assert all(a == (width, width) and b[1] == width for _, a, b in folds)
    assert sum(b[0] for _, _, b in folds) == n
    assert not any(n in shape for shape in qr_shapes + svd_shapes)
    assert oracle.factors() is oracle.factors()


def test_outlier_roots(spiked_pair):
    # both spikes are supercritical here; their sample eigenvalues must be
    # roots of the reduced determinant
    report = squared_canonical_correlations(spiked_pair)
    law = wachter_edges(ratios_from_dims(spiked_pair.p, spiked_pair.q, spiked_pair.n))
    oracle = DeterminantOracle(spiked_pair)
    checked = 0
    for lam in report.lambdas[:4]:
        if lam > law.d_right + 0.05:
            assert abs(oracle.normalized_det(float(lam))) < 1e-6
            checked += 1
    assert checked >= 2


def test_non_eigenvalue_is_not_a_root(spiked_pair):
    assert abs(finite_n_det(spiked_pair, 0.95)) > 1e-4


def test_certificate_separates_roots_from_near_misses():
    # the normalized determinant vanishes at the outliers but not beside them: a
    # point 0.01 above each stays well clear of the 1e-6 certification bound
    cfg = ModelConfig(
        p=100, q=200, n=1000, spikes=SpikeSpectrum((0.8, 0.7, 0.6, 0.16, 0.15)), seed=42
    )
    for i in range(3):
        pair = sample_coupled(cfg, replicate_rng(cfg.seed, i))
        oracle = DeterminantOracle(pair)
        for lam in squared_canonical_correlations(pair).lambdas[:3]:
            assert abs(oracle.normalized_det(float(lam))) < 1e-10
            assert abs(oracle.normalized_det(float(lam) + 0.01)) > 1e-3


@pytest.mark.parametrize("scale", [1e-3, 1e3, 1e-150, 1e150])
def test_certificate_does_not_depend_on_units(spiked_pair, scale):
    # the determinant is invariant when X and Y are rescaled together, so a
    # change of units neither certifies a non-root nor loses a root
    lam = float(squared_canonical_correlations(spiked_pair).lambdas[0])
    beside = DeterminantOracle(spiked_pair).normalized_det(lam + 0.01)
    pair = DataPair(X=spiked_pair.X * scale, Y=spiked_pair.Y * scale, t=spiked_pair.t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle = DeterminantOracle(pair)
        assert abs(oracle.normalized_det(lam)) < 1e-10
        assert oracle.normalized_det(lam + 0.01) == pytest.approx(beside, rel=1e-9)


def test_strong_spikes_certify_only_their_outliers():
    # spikes near 1 make the reduced matrix's rows very unequal; the
    # determinant still vanishes at the outliers and nowhere else on a grid
    cfg = ModelConfig(
        p=100, q=200, n=1000, spikes=SpikeSpectrum((0.999, 0.998, 0.997)), seed=42
    )
    pair = sample_coupled(cfg)
    lambdas = squared_canonical_correlations(pair).lambdas
    oracle = DeterminantOracle(pair)
    for lam in lambdas[:3]:
        assert abs(oracle.normalized_det(float(lam))) < 1e-10
    grid = [
        x for x in np.linspace(0.53, 0.995, 94) if np.min(np.abs(lambdas - x)) >= 0.005
    ]
    assert len(grid) == 93
    assert min(abs(oracle.normalized_det(float(x))) for x in grid) > 1e-3


def test_oracle_fails_closed_past_double_range():
    # the covariances overflow at X, Y x 1e160, the null pencil's S_ww
    # underflows at x 1e-170 and the reduced matrix at x 1e-160: each raises
    # NumericalError, and no warning escapes
    cfg = ModelConfig(p=20, q=30, n=400, spikes=SpikeSpectrum((0.8,)), seed=3)
    pair = sample_coupled(cfg)
    lam = float(squared_canonical_correlations(pair).lambdas[0])

    def scaled(scale):
        return DataPair(X=pair.X * scale, Y=pair.Y * scale, t=pair.t)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e160, 1e-170):
            with pytest.raises(NumericalError, match="double range"):
                DeterminantOracle(scaled(scale))
        oracle = DeterminantOracle(scaled(1e-160))
        for evaluate in (oracle.normalized_det, oracle.mn_comparison):
            with pytest.raises(NumericalError, match="double range"):
                evaluate(lam)


def test_zero_coupling_det_is_one():
    pair = zero_coupling_pair()
    for lam in (0.6, 0.75, 0.9):
        assert finite_n_det(pair, lam) == 1.0


def test_reduced_equals_full_determinant(spiked_pair):
    oracle = DeterminantOracle(spiked_pair)
    factors = oracle.factors()
    for lam in (0.62, 0.7, 0.9):
        phi = latent_resolvent(spiked_pair, lam)
        full = np.linalg.det(np.eye(spiked_pair.p) + (1.0 - lam) * phi @ factors.Delta)
        reduced = np.linalg.det(oracle.reduced_matrix(lam))
        assert abs(full - reduced) < 1e-6 * abs(full)


# -- finite matrix vs limit ------------------------------------------------------------


def test_zero_coupling_reduced_matrix_is_identity():
    pair = zero_coupling_pair()
    oracle = DeterminantOracle(pair)
    assert np.array_equal(oracle.reduced_matrix(0.7), np.eye(2))
    assert np.array_equal(oracle.limit_matrix(0.7), np.eye(2))


def test_mn_comparison_domain(spiked_pair):
    ratios = ratios_from_dims(spiked_pair.p, spiked_pair.q, spiked_pair.n)
    oracle = DeterminantOracle(spiked_pair)
    for z in (0.2, wachter_edges(ratios).d_right, float("nan")):
        with pytest.raises(DomainError):
            oracle.mn_comparison(z)


def test_leading_entry_concentrates():
    # the (0, 0) entry concentrates at 1 + t^2 f(z)
    z, reps = 0.7, 32
    cfg = ModelConfig(p=200, q=400, n=2000, spikes=SpikeSpectrum((0.8,)), seed=77)
    entries = []
    for i in range(reps):
        pair = sample_coupled(cfg, replicate_rng(cfg.seed, i))
        entries.append(DeterminantOracle(pair).reduced_matrix(z)[0, 0])
    ratios = cfg.ratios
    target = 1.0 + spike_to_t(0.8) ** 2 * f(z, ratios)
    assert abs(float(np.mean(entries)) - target) < 0.05


def test_cross_spike_entries_concentrate_near_zero():
    z, reps = 0.7, 16
    cfg = ModelConfig(p=100, q=200, n=1000, spikes=SpikeSpectrum((0.8, 0.5)), seed=78)
    spike0, spike1 = [0, 2], [1, 3]  # spike i owns rows and columns i and k + i
    off = []
    for i in range(reps):
        pair = sample_coupled(cfg, replicate_rng(cfg.seed, i))
        finite = DeterminantOracle(pair).reduced_matrix(z)
        off.append(finite[np.ix_(spike0, spike1)])
        off.append(finite[np.ix_(spike1, spike0)])
    # the entries coupling spike 0 to spike 1 have zero limit
    assert np.max(np.abs(np.mean(off, axis=0))) < 0.05


def test_entry_scatter_shrinks_with_dimension():
    z = 0.7
    spreads = []
    for p, q, n in ((20, 40, 200), (80, 160, 800)):
        cfg = ModelConfig(p=p, q=q, n=n, spikes=SpikeSpectrum((0.8,)), seed=79)
        deviations = []
        for i in range(48):
            pair = sample_coupled(cfg, replicate_rng(cfg.seed, i))
            deviations.append(DeterminantOracle(pair).reduced_matrix(z)[0, 0])
        spreads.append(float(np.std(deviations)))
    assert spreads[0] / spreads[1] > 1.5


def test_limit_determinant_factorizes(spiked_pair):
    # spike i's 2 x 2 block at rows and columns i and k + i carries its scalar factor
    from spikecca import limiting_det_factor

    ratios = ratios_from_dims(spiked_pair.p, spiked_pair.q, spiked_pair.n)
    oracle = DeterminantOracle(spiked_pair)
    z, k = 0.7, oracle.k
    M = oracle.limit_matrix(z)
    product = 1.0
    for i, r in enumerate((0.8, 0.5)):
        factor = limiting_det_factor(z, spike_to_t(r), ratios)
        block = M[np.ix_([i, k + i], [i, k + i])]
        assert np.linalg.det(block) == pytest.approx(factor, rel=1e-12)
        product *= factor
    assert np.linalg.det(M) == pytest.approx(product, rel=1e-12)
