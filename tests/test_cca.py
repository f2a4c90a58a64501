import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from spikecca import (
    ConfigurationError,
    DataPair,
    DomainError,
    EigenReport,
    ModelConfig,
    SingularityError,
    SpectrumRangeError,
    SpikeSpectrum,
    brute_force_ccs,
    empirical_cdf,
    replicate_rng,
    sample_coupled,
    sample_covariances,
    sampler,
    seeded_rng,
    squared_canonical_correlations,
    standard_normal_matrix,
)
from spikecca.cca import RANGE_SLACK
from spikecca.cli import main
from spikecca.sampler import COND_THRESHOLD, _cholesky_with_margin, guard_rank


def random_pair(rng, p, q, n, k=0, spikes=None):
    cfg = ModelConfig(
        p=p,
        q=q,
        n=n,
        spikes=SpikeSpectrum(tuple(spikes) if spikes else tuple([0.5] * k)),
        seed=0,
    )
    return sample_coupled(cfg, rng)


# -- covariances -----------------------------------------------------------------


def test_identical_views_share_covariances():
    X = standard_normal_matrix(seeded_rng(1), 4, 30)
    pair = DataPair(X=X, Y=X)
    cov = sample_covariances(pair)
    assert np.array_equal(cov.Sxx, cov.Syy)
    assert np.array_equal(cov.Sxx, cov.Sxy)


def test_hand_computed_covariances():
    X = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0]])
    Y = np.array([[1.0, 0.0, 1.0]])
    cov = sample_covariances(DataPair(X=X, Y=Y))
    expected_xx = np.array(
        [
            [Fraction(14, 3), Fraction(5, 3)],
            [Fraction(5, 3), Fraction(2, 3)],
        ],
        dtype=float,
    )
    expected_xy = np.array([[Fraction(4, 3)], [Fraction(1, 3)]], dtype=float)
    assert np.max(np.abs(cov.Sxx - expected_xx)) < 1e-15
    assert np.max(np.abs(cov.Sxy - expected_xy)) < 1e-15
    assert np.max(np.abs(cov.Syy - 2.0 / 3.0)) < 1e-15


def test_null_covariance_near_identity():
    pair = random_pair(seeded_rng(4), p=4, q=5, n=100_000)
    cov = sample_covariances(pair)
    assert np.max(np.abs(cov.Sxx - np.eye(4))) < 0.05


def test_covariance_needs_samples():
    with pytest.raises(ConfigurationError):
        sample_covariances(DataPair(X=np.ones((2, 1)), Y=np.ones((2, 1))))


# -- stable path -------------------------------------------------------------------


def test_identical_views_give_unit_correlations():
    X = standard_normal_matrix(seeded_rng(2), 5, 40)
    report = squared_canonical_correlations(DataPair(X=X, Y=X))
    assert np.all(report.lambdas > 1.0 - 1e-10)
    assert np.all(report.lambdas <= 1.0)


def test_scalar_case_reduces_to_squared_cosine():
    pair = DataPair(X=np.array([[1.0, 2.0, 3.0]]), Y=np.array([[3.0, 2.0, 1.0]]))
    report = squared_canonical_correlations(pair)
    assert report.lambdas[0] == pytest.approx(25.0 / 49.0, abs=1e-14)


def test_orthogonal_rows_give_zero_correlations():
    X = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]])
    Y = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])
    report = squared_canonical_correlations(DataPair(X=X, Y=Y))
    assert np.max(report.lambdas) < 1e-12
    brute = brute_force_ccs(DataPair(X=X, Y=Y))
    assert np.max(brute.lambdas) < 1e-12


def test_null_top_eigenvalue_near_bulk_edge():
    pair = random_pair(seeded_rng(6), p=100, q=200, n=1000)
    report = squared_canonical_correlations(pair)
    assert abs(report.lambdas[0] - 0.5) < 0.05
    assert len(report.lambdas) == 100


def test_rank_deficient_block_reported():
    X = standard_normal_matrix(seeded_rng(7), 4, 50)
    X[3] = X[0]
    Y = standard_normal_matrix(seeded_rng(8), 3, 50)
    with pytest.raises(SingularityError) as info:
        squared_canonical_correlations(DataPair(X=X, Y=Y))
    assert info.value.block == "Sxx"
    assert info.value.condition > 1e10


def conditioned_x(cond_sxx, p=20, n=200, seed=9):
    # X = U diag(s) V' with singular values spread so that cond(X X'/n) = cond_sxx
    rng = seeded_rng(seed)
    U = np.linalg.qr(standard_normal_matrix(rng, p, p))[0]
    V = np.linalg.qr(standard_normal_matrix(rng, n, p))[0]
    s = np.geomspace(1.0, cond_sxx**-0.5, p)
    return (U * s) @ V.T


def test_rank_guard_boundary():
    Y = standard_normal_matrix(seeded_rng(10), 30, 200)
    X = conditioned_x(1e9)
    report = squared_canonical_correlations(DataPair(X=X, Y=Y))
    # reference: squared cosines from SVD bases of the two row spaces
    basis_x = np.linalg.svd(X, full_matrices=False)[2]
    basis_y = np.linalg.svd(Y, full_matrices=False)[2]
    cosines = np.linalg.svd(basis_x @ basis_y.T, compute_uv=False)
    assert np.max(np.abs(report.lambdas - cosines**2)) < 1e-10

    with pytest.raises(SingularityError) as info:
        squared_canonical_correlations(DataPair(X=conditioned_x(1e11), Y=Y))
    assert info.value.block == "Sxx"
    assert info.value.condition == pytest.approx(1e11, rel=1e-6)


@pytest.mark.parametrize("p, q, n", [(60, 80, 100), (99, 99, 100)])
def test_wide_pairs_share_p_plus_q_minus_n_directions(p, q, n):
    # p + q >= n: the joint triangular factor is wide and the row spaces meet
    rng = seeded_rng(p + q)
    X = standard_normal_matrix(rng, p, n)
    Y = standard_normal_matrix(rng, q, n)
    report = squared_canonical_correlations(DataPair(X=X, Y=Y))
    basis_x = np.linalg.svd(X, full_matrices=False)[2]
    basis_y = np.linalg.svd(Y, full_matrices=False)[2]
    cosines = np.linalg.svd(basis_x @ basis_y.T, compute_uv=False)
    assert np.max(np.abs(report.lambdas - cosines**2)) < 1e-10
    assert np.count_nonzero(np.abs(report.lambdas - 1.0) <= 1e-12) == p + q - n


@pytest.mark.parametrize(
    "R, condition",
    [
        (np.array([[np.inf, 1.0], [0.0, 1.0]]), "nan"),
        (np.zeros((3, 3)), "inf"),
        (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), "inf"),
    ],
    ids=["non-finite", "zero", "wide"],
)
def test_rank_guard_fails_closed(R, condition):
    # NaN singular values, a zero block and a wide R (R'R singular) all raise
    with pytest.raises(SingularityError) as info:
        guard_rank("Sxx", R)
    assert info.value.block == "Sxx"
    assert str(info.value.condition) == condition


@pytest.mark.parametrize("cond_sxx", [1.1e10, 1e11, 1e13])
def test_brute_force_and_stable_path_share_one_rank_rule(cond_sxx):
    Y = standard_normal_matrix(seeded_rng(10), 30, 200)
    pair = DataPair(X=conditioned_x(cond_sxx), Y=Y)
    conditions = []
    for method in (squared_canonical_correlations, brute_force_ccs):
        with pytest.raises(SingularityError) as info:
            method(pair)
        assert info.value.block == "Sxx"
        conditions.append(info.value.condition)
    assert conditions[1] == pytest.approx(conditions[0], rel=1e-9)
    passing = DataPair(X=conditioned_x(9e9), Y=Y)
    squared_canonical_correlations(passing)
    brute_force_ccs(passing)


def test_guard_certificate_clears_only_blocks_far_from_the_threshold():
    cleared = []
    for cond_sxx in np.geomspace(1.0, 1e12, 25):
        R = np.linalg.qr(conditioned_x(cond_sxx).T)[1]
        if _cholesky_with_margin(R.T @ R):
            s = np.linalg.svd(R, compute_uv=False)
            assert (s[-1] / s[0]) ** 2 > 100 * COND_THRESHOLD
            cleared.append(cond_sxx)
    # well-conditioned blocks skip the singular values; blocks near the threshold never do
    assert cleared and cleared[0] == 1.0 and max(cleared) < 1e8


def test_guard_certificate_does_not_depend_on_the_scale():
    # at 2^530, R'R overflows, and at 2^-530 it underflows: the certificate
    # declines, and the singular values give the decision, and the condition,
    # of scale 1 (to rounding: LAPACK rescales such a block itself)
    for cond_sxx in (1.0, 1e6, 1e11):
        R = np.linalg.qr(conditioned_x(cond_sxx).T)[1]
        conditions = []
        for e in (0, 530, -530):
            scaled = np.ldexp(R, e)
            if e:
                with np.errstate(over="ignore", invalid="ignore"):
                    assert not _cholesky_with_margin(scaled.T @ scaled)
            try:
                guard_rank("Sxx", scaled)
                conditions.append(None)
            except SingularityError as error:
                conditions.append(error.condition)
        if cond_sxx < 1e10:
            assert conditions == [None] * 3
        else:
            assert conditions[1:] == pytest.approx([conditions[0]] * 2, rel=1e-12)
    cfg = ModelConfig(p=50, q=80, n=600, spikes=SpikeSpectrum((0.8, 0.6)), seed=7)
    pair = sample_coupled(cfg)
    lambdas = squared_canonical_correlations(pair).lambdas
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e160, 1e-160):
            scaled = squared_canonical_correlations(DataPair(X=pair.X * scale, Y=pair.Y))
            assert np.max(np.abs(scaled.lambdas - lambdas)) < 1e-12


def test_guard_certificate_answers_only_inside_its_trace_window():
    # the certificate answers when trace(G) lies in (2^-512, inf) and declines
    # elsewhere, an overflowed or NaN Gram included, without a warning
    edge = 2.0**-512
    above = np.nextafter(edge, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trace, expected in ((edge, False), (above, True)):
            gram = np.diag([edge / 2, trace - edge / 2])
            assert np.trace(gram) == trace
            assert _cholesky_with_margin(gram) == expected
        for bad in (np.inf, np.nan):
            assert not _cholesky_with_margin(np.diag([1.0, bad]))


def test_guard_certificate_holds_one_gram_and_leaves_r_intact(monkeypatch):
    # the guard forms only the Gram it factors in place, not a copy of R, and
    # frees it before the singular values read a block the certificate
    # declines; the joint factor marks R read-only only after both guards ran
    R = np.linalg.qr(standard_normal_matrix(seeded_rng(12), 1200, 400))[1]
    big = np.zeros((500, 500), order="F")
    big[:400, :400] = R
    svd = np.linalg.svd
    held = []

    def svd_after_the_gram(a, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_after_the_gram)
    for block in (R, big[:400, :400]):  # the second is a strided view, as Ryy is
        before = block.copy()
        tracemalloc.start()
        try:
            guard_rank("Syy", block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not held  # the certificate passed the block
        assert peak <= 1.25 * block.nbytes
        assert np.array_equal(block, before)
    singular = R.copy()
    singular[:, -1] = singular[:, 0]
    tracemalloc.start()
    try:
        with pytest.raises(SingularityError):
            guard_rank("Syy", singular)
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] < 0.25 * singular.nbytes


def test_dimensions_must_leave_room():
    X = np.ones((3, 3))
    with pytest.raises(ConfigurationError):
        squared_canonical_correlations(DataPair(X=X, Y=X))


# -- brute force oracle ---------------------------------------------------------------


def test_brute_force_identical_views():
    X = standard_normal_matrix(seeded_rng(9), 4, 30)
    report = brute_force_ccs(DataPair(X=X, Y=X))
    assert np.allclose(report.lambdas, 1.0, atol=1e-8)


def test_brute_force_scale_cap():
    X = np.ones((65, 200))
    with pytest.raises(ConfigurationError):
        brute_force_ccs(DataPair(X=X, Y=X))


def test_brute_force_singular_block():
    X = standard_normal_matrix(seeded_rng(22), 4, 40)
    X[2] = 2.0 * X[1]
    Y = standard_normal_matrix(seeded_rng(23), 3, 40)
    with pytest.raises(SingularityError) as info:
        brute_force_ccs(DataPair(X=X, Y=Y))
    assert info.value.block == "Sxx"


def test_brute_force_rejects_more_variables_than_samples():
    # p > n: X' is wide, so Sxx is singular however its n singular values spread
    rng = seeded_rng(24)
    pair = DataPair(X=standard_normal_matrix(rng, 10, 5), Y=standard_normal_matrix(rng, 3, 5))
    with pytest.raises(SingularityError) as info:
        brute_force_ccs(pair)
    assert info.value.block == "Sxx" and info.value.condition == np.inf


def test_stable_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(10)
    for trial in range(20):
        p = int(rng.integers(2, 9))
        q = int(rng.integers(2, 9))
        n = int(rng.integers(p + q + 2, 64))
        k = int(rng.integers(0, min(p, q, 2) + 1))
        spikes = tuple(sorted(rng.uniform(0.2, 0.9, size=k), reverse=True))
        pair = random_pair(replicate_rng(77, trial), p=p, q=q, n=n, spikes=spikes)
        stable = squared_canonical_correlations(pair)
        brute = brute_force_ccs(pair)
        assert np.max(np.abs(stable.lambdas - brute.lambdas)) < 1e-8


def test_block_diagonal_transformation_invariance():
    rng = np.random.default_rng(11)
    pair = random_pair(seeded_rng(12), p=5, q=6, n=40, spikes=(0.7,))
    base = squared_canonical_correlations(pair).lambdas

    def well_conditioned(dim):
        u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        return u @ np.diag(rng.uniform(0.5, 2.0, size=dim)) @ v

    for _ in range(5):
        A = well_conditioned(5)
        B = well_conditioned(6)
        transformed = DataPair(X=A @ pair.X, Y=B @ pair.Y)
        lam = squared_canonical_correlations(transformed).lambdas
        assert np.max(np.abs(lam - base)) < 1e-8


def test_scale_invariance():
    pair = random_pair(seeded_rng(13), p=4, q=5, n=50, spikes=(0.6,))
    base = squared_canonical_correlations(pair).lambdas
    scaled = DataPair(X=5.0 * pair.X, Y=pair.Y)
    lam = squared_canonical_correlations(scaled).lambdas
    assert np.max(np.abs(lam - base)) < 1e-12


def test_spectrum_within_unit_interval():
    for trial in range(10):
        pair = random_pair(replicate_rng(14, trial), p=6, q=7, n=60, spikes=(0.9,))
        for report in (squared_canonical_correlations(pair), brute_force_ccs(pair)):
            assert np.all(report.lambdas >= 0.0)
            assert np.all(report.lambdas <= 1.0)
            assert np.all(np.diff(report.lambdas) <= 1e-12)


def factor_with_top_cosine(pair, top):
    """The pair's joint factor, its cosines scaled so that the largest is top."""
    factor = pair.factor
    return replace(factor, cosines=factor.cosines * (top / factor.cosines[0]))


def test_spectrum_range_slack(monkeypatch):
    pair = random_pair(seeded_rng(15), p=6, q=7, n=60, spikes=(0.9,))
    lam = squared_canonical_correlations(pair).lambdas
    # beyond the slack the stable path raises instead of clamping
    beyond = factor_with_top_cosine(pair, 1.0 + 10 * RANGE_SLACK)
    monkeypatch.setattr(DataPair, "factor", property(lambda self: beyond))
    with pytest.raises(SpectrumRangeError, match="stable"):
        squared_canonical_correlations(pair)
    # within the slack the top value is clamped to 1 and the rest are untouched
    top = 1.0 + 0.2 * RANGE_SLACK
    within = factor_with_top_cosine(pair, top)
    monkeypatch.setattr(DataPair, "factor", property(lambda self: within))
    clamped = squared_canonical_correlations(pair).lambdas
    assert clamped[0] == 1.0
    assert np.max(np.abs(clamped[1:] - lam[1:] * top**2 / lam[0])) < 1e-12


def test_spectrum_range_error_exits_three(monkeypatch, capsys):
    pair = random_pair(seeded_rng(16), p=4, q=5, n=40, spikes=(0.9,))
    beyond = factor_with_top_cosine(pair, 1.5)
    # simulate streams each replicate straight into its joint factor
    monkeypatch.setattr(sampler, "sample_factor", lambda *args, **kwargs: beyond)
    code = main(["simulate", "--p", "4", "--q", "5", "--n", "40", "--spikes", "0.9"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("numerical failure:") and "beyond slack" in captured.err


# -- empirical distribution -------------------------------------------------------------


def test_empirical_cdf_boundaries():
    report = EigenReport(lambdas=np.array([0.9, 0.5, 0.1]))
    assert empirical_cdf(report, 1.0) == 1.0
    assert empirical_cdf(report, 1.5) == 1.0
    assert empirical_cdf(report, -0.1) == 0.0
    assert empirical_cdf(EigenReport(lambdas=[]), 0.5) == 0.0


def test_empirical_cdf_rejects_nan():
    report = EigenReport(lambdas=np.array([0.9, 0.5, 0.1]))
    with pytest.raises(DomainError, match="NaN"):
        empirical_cdf(report, np.nan)


def test_empirical_cdf_median_of_odd_count():
    report = EigenReport(lambdas=np.array([0.9, 0.5, 0.1]))
    assert empirical_cdf(report, 0.5) == pytest.approx(2.0 / 3.0)


def test_empirical_cdf_counts_min_side():
    pair = random_pair(seeded_rng(15), p=4, q=9, n=60)
    report = squared_canonical_correlations(pair)
    assert len(report.lambdas) == 4
    assert empirical_cdf(report, 1.0) == 1.0
