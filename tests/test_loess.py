import itertools
import math
import tracemalloc

import numpy as np
import pytest

from epidetect import loess
from epidetect.loess import LoessConfig, fit


def oracle_basis(X, degree):
    """Uncentered polynomial basis used by the independent oracle."""
    X = np.atleast_2d(X)
    n, d = X.shape
    cols = [np.ones(n)]
    if degree >= 1:
        cols.extend(X[:, j] for j in range(d))
    if degree == 2:
        for j in range(d):
            for l in range(j, d):
                cols.append(X[:, j] * X[:, l])
    return np.column_stack(cols)


def oracle_weights(X, x, span, degree):
    """Tricube weights on the k-nearest neighborhood of `x`, and its members.

    Standardized distance, zero weight outside the neighborhood, equal
    weights on the neighborhood when the tricube ones vanish.
    """
    X = np.atleast_2d(np.asarray(X, float))
    x = np.asarray(x, float)
    n, d = X.shape
    scales = X.std(axis=0, ddof=1) if n > 1 else np.ones(d)
    scales = np.where(scales > 0, scales, 1.0)
    dist = np.sqrt((((X - x) / scales) ** 2).sum(axis=1))

    k = min(n, max(math.ceil(span * n), oracle_basis(X[:1], degree).shape[1]))
    dmax = np.sort(dist)[k - 1]
    w = np.zeros(n)
    mask = dist <= dmax
    if dmax == 0.0:
        w[mask] = 1.0
    else:
        w[mask] = (1.0 - (dist[mask] / dmax) ** 3) ** 3
    if w.sum() == 0.0:
        w[mask] = 1.0
    return w, mask


def dense_wls_oracle(X, y, x, span, degree):
    """Independent loess prediction: dense weighted least squares via pinv.

    Builds the full N-point weight vector (`oracle_weights`), solves the
    uncentered normal equations with a pseudo-inverse, and returns the
    predicted mean plus the full equivalent-kernel row.
    """
    X = np.atleast_2d(np.asarray(X, float))
    y = np.asarray(y, float)
    w, _ = oracle_weights(X, x, span, degree)
    B = oracle_basis(X, degree)
    A_inv = np.linalg.pinv(B.T @ (w[:, None] * B))
    bx = oracle_basis(np.asarray(x, float)[None, :], degree)[0]
    l_row = (w[:, None] * B) @ (A_inv @ bx)
    return float(bx @ A_inv @ B.T @ (w * y)), l_row


def dense_wls_stderr(X, y, x, span):
    """Independent local-linear standard error from explicit N-point sums.

    The oracle's weights w, kernel row l and local residuals e give
    sigma2 = sum(w e^2) / (sum(w) (1 - r / k_size)) and stderr
    sqrt(sigma2) ||l||, with k_size the neighborhood's members. Returns
    (stderr, ||l||, sigma2).
    """
    X = np.atleast_2d(np.asarray(X, float))
    y = np.asarray(y, float)
    w, members = oracle_weights(X, x, span, 1)
    _, l_row = dense_wls_oracle(X, y, x, span, 1)
    B = oracle_basis(X, 1)
    root = np.sqrt(w)
    beta = np.linalg.lstsq(root[:, None] * B, root * y, rcond=None)[0]
    resid = y - B @ beta
    sigma2 = (w @ resid ** 2) / (w.sum() * (1.0 - B.shape[1] / members.sum()))
    knorm = float(np.linalg.norm(l_row))
    return math.sqrt(sigma2) * knorm, knorm, float(sigma2)


class TestFitValidation:
    def test_underdetermined_errors(self):
        # r = 3 for d = 2 linear; r - 1 points must be rejected
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            fit(X, [1.0, 2.0], LoessConfig(span=1.0))

    def test_non_finite_rejected(self):
        X = np.array([[0.0], [1.0], [np.nan], [3.0]])
        with pytest.raises(ValueError):
            fit(X, [1.0, 2.0, 3.0, 4.0], LoessConfig(span=1.0))
        with pytest.raises(ValueError):
            fit(np.array([[0.0], [1.0]]), [1.0, np.inf], LoessConfig(span=1.0))
        model = fit(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                    [1.0, 2.0, 3.0, 4.0], LoessConfig(span=1.0))
        for query in (model.predict, model.predict_mean,
                      model.predict_many, model.predict_mean_many):
            with pytest.raises(ValueError):
                query([0.5, np.nan])
            with pytest.raises(ValueError):
                query([[0.5, 0.5], [np.inf, 0.5]])
            with pytest.raises(ValueError):
                query([0.5, 0.5, 0.5])

    def test_dimension_cap(self):
        X = np.zeros((20, 5))
        with pytest.raises(ValueError):
            fit(X, np.zeros(20), LoessConfig())

    def test_duplicated_design_points_accepted(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(15, 2))
        X = np.vstack([X, X[:5], X[:5]])  # heavy replication is expected usage
        y = X[:, 0] + rng.normal(0, 0.05, len(X))
        model = fit(X, y, LoessConfig(span=0.8))
        pred = model.predict(X[0])
        assert np.isfinite(pred.mean) and np.isfinite(pred.stderr)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoessConfig(span=0.0)
        with pytest.raises(ValueError):
            LoessConfig(span=1.5)


class TestExactness:
    def test_reproduces_linear_functions(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 2, size=(40, 1))
        y = 2.0 * X[:, 0] + 1.0
        model = fit(X, y, LoessConfig(span=0.4))
        for xq in np.linspace(-0.5, 1.5, 11):
            pred = model.predict([xq])
            assert pred.mean == pytest.approx(2.0 * xq + 1.0, abs=1e-8)

    def test_constant_responses_exact_with_zero_stderr(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, size=(25, 2))
        # the mean of 25 copies of 0.7 rounds away from 0.7; of 3.25 it does not
        for value in (3.25, 0.7):
            model = fit(X, np.full(25, value), LoessConfig(span=0.6))
            pred = model.predict([0.4, 0.7])
            assert pred.mean == pytest.approx(value, abs=1e-10)
            assert pred.stderr == 0.0

    def test_kernel_sums_to_one(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 5, size=(60, 3))
        y = rng.normal(size=60)
        model = fit(X, y, LoessConfig(span=0.5))
        for _ in range(20):
            xq = rng.uniform(0.5, 4.5, size=3)
            pred = model.predict(xq, with_kernel=True)
            assert pred.kernel.sum() == pytest.approx(1.0, abs=1e-10)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_wls(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 50))
        d = int(rng.integers(1, 4))
        span = float(rng.uniform(0.3, 1.0))
        X = rng.uniform(0, 5, size=(n, d))
        y = rng.normal(size=n) + X.sum(axis=1)
        model = fit(X, y, LoessConfig(span=span))
        for _ in range(5):
            xq = rng.uniform(0.5, 4.5, size=d)
            pred = model.predict(xq, with_kernel=True)
            mean_o, l_o = dense_wls_oracle(X, y, xq, span, 1)
            assert pred.mean == pytest.approx(mean_o, abs=1e-8)
            np.testing.assert_allclose(pred.kernel, l_o, atol=1e-8)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("seed", range(8))
    def test_stderr_matches_explicit_sums(self, seed, offset):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 50))
        d = int(rng.integers(1, 4))
        span = float(rng.uniform(0.3, 1.0))
        X = rng.uniform(0, 5, size=(n, d))
        y = rng.normal(size=n) + X.sum(axis=1) + offset
        model = fit(X, y, LoessConfig(span=span))
        Q = rng.uniform(0.5, 4.5, size=(5, d))
        reference = np.array([dense_wls_stderr(X, y, xq, span) for xq in Q])
        _, stderrs = model.predict_many(Q)
        preds = [model.predict(xq) for xq in Q]
        assert not any(p.degenerate for p in preds)
        got = [(se, p.kernel_norm, p.local_sigma2) for se, p in zip(stderrs, preds)]
        np.testing.assert_allclose(got, reference, rtol=1e-8, atol=0)


class TestPredictionProperties:
    def test_row_reordering_invariance(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(40, 2))
        y = rng.normal(size=40)
        perm = rng.permutation(40)
        a = fit(X, y, LoessConfig(span=0.5))
        b = fit(X[perm], y[perm], LoessConfig(span=0.5))
        xq = [0.5, 0.5]
        pa, pb = a.predict(xq), b.predict(xq)
        assert pa.mean == pytest.approx(pb.mean, abs=1e-10)
        assert pa.stderr == pytest.approx(pb.stderr, abs=1e-10)

    def test_stderr_composition(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(50, 2))
        y = rng.normal(size=50)
        model = fit(X, y, LoessConfig(span=0.5))
        pred = model.predict([0.3, 0.3])
        assert pred.stderr == pytest.approx(
            math.sqrt(pred.local_sigma2) * pred.kernel_norm, rel=1e-12
        )

    def test_query_duplicate_gets_full_weight(self):
        X = np.array([[0.0], [0.5], [1.0], [1.5], [2.0]])
        y = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        model = fit(X, y, LoessConfig(span=0.8))
        pred = model.predict([1.0], with_kernel=True)
        # tricube weight at distance zero is 1; prediction well-defined
        assert np.isfinite(pred.mean)
        assert pred.kernel[2] != 0.0

    def test_singular_local_system_falls_back_to_weighted_mean(self):
        # constant second coordinate: centered basis column identically zero
        X = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        y = np.arange(10.0) ** 2
        model = fit(X, y, LoessConfig(span=1.0))
        pred = model.predict([4.0, 3.0], with_kernel=True)
        assert pred.degenerate
        assert pred.kernel.sum() == pytest.approx(1.0, abs=1e-12)
        assert min(y) <= pred.mean <= max(y)

    @pytest.mark.parametrize("d", [2, 3])
    def test_predict_many_matches_predict(self, d):
        rng = np.random.default_rng(13)
        X = rng.uniform(0, 1, size=(45, d))
        y = rng.normal(size=45)
        model = fit(X, y, LoessConfig(span=0.45))
        Q = rng.uniform(0, 1, size=(12, d))
        means, stderrs = model.predict_many(Q)
        batch_means = model.predict_mean_many(Q)
        for j in range(12):
            pred = model.predict(Q[j])
            assert means[j] == pred.mean == batch_means[j] == model.predict_mean(Q[j])
            assert stderrs[j] == pred.stderr


class TestBlockKernel:
    """All four query methods run one block kernel, whose rows never mix."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_distances_match_cdist_bit_for_bit(self, d):
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        rng = np.random.default_rng(40 + d)
        for _ in range(75):
            n = int(rng.integers(8, 200))
            scale = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
            X = rng.normal(size=(n, d)) * scale
            X[1:n // 4] = X[0]  # coincident points
            model = fit(X, rng.normal(size=n), LoessConfig(span=0.5))
            Q = np.vstack([X[:5], rng.normal(size=(10, d)) * scale,
                           60.0 * rng.normal(size=(5, d)) * scale])  # far outside
            q = Q / model.normalization
            d2 = model._sq_distances(q)
            assert d2.shape == (20, n)
            np.testing.assert_array_equal(d2, cdist(q, X / model.normalization,
                                                    "sqeuclidean"))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_match_row_by_row(self, d, monkeypatch):
        rng = np.random.default_rng(103 + d)
        X = rng.uniform(0, 1, size=(80, d))
        y = rng.normal(size=80) + X.sum(axis=1)
        model = fit(X, y, LoessConfig(span=0.5))
        Q = rng.uniform(-0.2, 1.2, size=(600, d))
        preds = [model.predict(q) for q in Q]
        means = np.array([p.mean for p in preds])
        stderrs = np.array([p.stderr for p in preds])
        np.testing.assert_array_equal(means, [model.predict_mean(q) for q in Q])
        # one row per block, 7 rows per block (the last one partial), the
        # default; batches of one row, of 7 rows, the default (600 rows overrun it)
        for entries, rows in itertools.product((80, 7 * 80, loess._BLOCK_ENTRIES),
                                               (1, 7, loess._BATCH_ROWS)):
            monkeypatch.setattr(loess, "_BLOCK_ENTRIES", entries)
            monkeypatch.setattr(loess, "_BATCH_ROWS", rows)
            batch_means, batch_stderrs = model.predict_many(Q)
            np.testing.assert_array_equal(batch_means, means)
            np.testing.assert_array_equal(batch_stderrs, stderrs)
            np.testing.assert_array_equal(model.predict_mean_many(Q), means)
            # a block of zero rows gives empty float arrays
            for out in (*model.predict_many(Q[:0]), model.predict_mean_many(Q[:0])):
                assert out.shape == (0,) and out.dtype == np.float64

    def test_singular_row_among_regular_rows(self, monkeypatch):
        # Pool A lies on x2 = 0, the exact mean of x2 (whose scale is exactly
        # 1), so its local systems are singular; pool B spreads in x2.
        x2_b = np.tile([2.0, -2.0, 0.0, 0.0], 5)
        X = np.vstack([
            np.column_stack([np.arange(21.0), np.zeros(21)]),
            np.column_stack([100.0 + np.arange(20.0), x2_b]),
        ])
        y = np.random.default_rng(14).normal(size=41)
        model = fit(X, y, LoessConfig(span=0.25))
        rng = np.random.default_rng(15)
        Q = np.column_stack([rng.uniform(101.0, 118.0, 600), rng.choice([-1.0, 1.0], 600)])
        singular = [1, 3, 520, 599]  # the last two lie beyond the first default batch
        Q[singular] = [[10.0, 0.0], [6.5, 0.0], [3.0, 0.0], [15.5, 0.0]]
        preds = [model.predict(q, with_kernel=True) for q in Q]
        assert [j for j, p in enumerate(preds) if p.degenerate] == singular
        for j, pred in enumerate(preds):
            assert pred.mean == model.predict_mean(Q[j])
            if pred.degenerate:  # weighted mean of the neighborhood
                assert pred.mean == pytest.approx(pred.kernel @ y, abs=1e-12)
                assert pred.kernel.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(pred.kernel[21:] == 0.0)
        for rows in (1, 7, loess._BATCH_ROWS):  # batches of one row, of 7, the default
            monkeypatch.setattr(loess, "_BATCH_ROWS", rows)
            means, stderrs = model.predict_many(Q)
            np.testing.assert_array_equal(means, [p.mean for p in preds])
            np.testing.assert_array_equal(stderrs, [p.stderr for p in preds])
            np.testing.assert_array_equal(model.predict_mean_many(Q), means)

    def test_row_batches_bound_memory(self):
        # The r x r algebra runs per batch of rows, so its arrays do not grow
        # with the query count: 8000 rows in one batch peaked at 14 MiB.
        rng = np.random.default_rng(22)
        X = rng.uniform(0, 1, size=(1000, 3))
        model = fit(X, rng.normal(size=1000), LoessConfig(span=0.4))
        Q = rng.uniform(0, 1, size=(8000, 3))
        tracemalloc.start()
        try:
            model.predict_many(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_coincident_neighbors_get_equal_weights(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(0, 1, size=(18, 2))
        X = np.vstack([X, np.repeat(X[:1], 12, axis=0)])  # 13 copies of X[0]
        y = rng.normal(size=30)
        model = fit(X, y, LoessConfig(span=0.3))
        # the 9 nearest neighbors of X[0] and of a query next to it are all
        # copies of X[0]: at the query every tricube weight is 1 (d2max = 0),
        # next to it every one is 0 (all mass on the boundary)
        near = X[0] + 1e-6
        Q = np.vstack([X[0], rng.uniform(0, 1, size=(20, 2)), near, X[0]])
        means, stderrs = model.predict_many(Q)
        for j, q in enumerate(Q):
            pred = model.predict(q)
            assert means[j] == pred.mean == model.predict_mean(q)
            assert stderrs[j] == pred.stderr
        # both fall back to equal weights on every copy, ties included
        copies = np.all(X == X[0], axis=1)
        for q in (X[0], near):
            pred = model.predict(q, with_kernel=True)
            assert pred.mean == pytest.approx(y[copies].mean(), abs=1e-12)
            np.testing.assert_allclose(pred.kernel[copies], 1.0 / 13, atol=1e-12)
            assert np.all(pred.kernel[~copies] == 0.0)

    def test_constant_responses_batch_zero_stderr(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(0, 1, size=(300, 3))
        Q = rng.uniform(0, 1, size=(300, 3))
        for value in (3.25, 0.7):  # the mean of 300 copies of 0.7 is not 0.7
            model = fit(X, np.full(300, value), LoessConfig(span=0.3))
            means, stderrs = model.predict_many(Q)
            np.testing.assert_allclose(means, value, rtol=0, atol=1e-10)
            assert np.all(stderrs == 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_far_queries_match_dense_wls(self, d):
        rng = np.random.default_rng(17 + d)
        X = rng.uniform(0, 5, size=(60, d))
        y = rng.normal(size=60) + X.sum(axis=1)
        model = fit(X, y, LoessConfig(span=0.5))
        # 50 standard deviations from the data's center, in random diagonal directions
        Q = X.mean(axis=0) + 50 * X.std(axis=0, ddof=1) * rng.choice([-1.0, 1.0], size=(6, d))
        batch_means, _ = model.predict_many(Q)
        for q, batch_mean in zip(Q, batch_means):
            pred = model.predict(q, with_kernel=True)
            mean_o, l_o = dense_wls_oracle(X, y, q, 0.5, 1)
            assert pred.mean == batch_mean
            assert pred.mean == pytest.approx(mean_o, rel=1e-8)
            np.testing.assert_allclose(pred.kernel, l_o, rtol=0, atol=1e-8 * np.abs(l_o).max())
