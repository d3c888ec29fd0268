import math

import numpy as np
import pytest

from epidetect import RngStream
from epidetect.design import (
    StateBox,
    acquisition_weight,
    boundary_probability,
    lhs,
    normal_tail,
    sample_indices,
)

UNIT_2D = StateBox(lower=(0.0, 0.0), upper=(1.0, 1.0), integer=(False, False))


class TestLhs:
    def test_marginal_bins_exact_for_continuous_coordinates(self):
        for count in (4, 17, 100):
            pts = lhs(UNIT_2D, count, RngStream(1))
            for j in range(2):
                bins = np.floor(pts[:, j] * count).astype(int)
                assert sorted(bins) == list(range(count))

    def test_single_point_uniform_in_box(self):
        box = StateBox(lower=(-2.0, 5.0), upper=(2.0, 6.0), integer=(False, False))
        pts = lhs(box, 1, RngStream(2))
        assert pts.shape == (1, 2)
        assert -2.0 <= pts[0, 0] <= 2.0 and 5.0 <= pts[0, 1] <= 6.0

    def test_integer_rounding_allows_duplicates(self):
        box = StateBox(lower=(0.0,), upper=(3.0,), integer=(True,))
        pts = lhs(box, 40, RngStream(3))[:, 0]
        assert set(pts) <= {0.0, 1.0, 2.0, 3.0}
        assert len(set(pts)) < 40  # pigeonhole: duplicates are unavoidable

    def test_respects_bounds(self):
        box = StateBox(lower=(0.0, 1000.0), upper=(400.0, 2000.0), integer=(True, True))
        pts = lhs(box, 500, RngStream(4))
        assert pts[:, 0].min() >= 0 and pts[:, 0].max() <= 400
        assert pts[:, 1].min() >= 1000 and pts[:, 1].max() <= 2000

    def test_box_validation(self):
        with pytest.raises(ValueError):
            StateBox(lower=(0.0,), upper=(0.0,), integer=(False,))
        with pytest.raises(ValueError):
            lhs(UNIT_2D, 0, RngStream(1))


class TestBoundaryProbability:
    def test_on_the_boundary(self):
        assert boundary_probability(5.0, 1.0, 5.0) == pytest.approx(0.5, rel=1e-12)

    def test_normal_table_value(self):
        norm = pytest.importorskip("scipy.stats").norm
        got = boundary_probability(1.96, 1.0, 0.0)
        assert got == pytest.approx(norm.cdf(-1.96), rel=1e-10)
        assert got == pytest.approx(0.025, abs=5e-4)

    def test_certainty_limits_at_zero_stderr(self):
        assert boundary_probability(3.0, 0.0, 1.0) == 0.0
        assert boundary_probability(1.0, 0.0, 1.0) == 0.5

    def test_strictly_decreasing_in_gap(self):
        gaps = np.linspace(0.0, 4.0, 17)
        vals = [boundary_probability(g, 0.7, 0.0) for g in gaps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_vectorized(self):
        qhat = np.array([0.0, 1.0, 2.0])
        se = np.array([1.0, 0.0, 2.0])
        out = boundary_probability(qhat, se, 0.0)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(0.5)
        assert out[1] == 0.0


class TestNormalTail:
    def test_agrees_with_ndtr(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        z = np.linspace(-8.0, 8.0, 16001)
        np.testing.assert_allclose(normal_tail(z), ndtr(-z), rtol=1e-13, atol=0)
        assert normal_tail(np.inf) == 0.0 and normal_tail(-np.inf) == 1.0
        assert normal_tail(0.0) == 0.5

    def test_boundary_probability_agrees_with_ndtr(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        rng = np.random.default_rng(8)
        se = 10.0 ** rng.uniform(-3.0, 3.0, size=5000)
        qhat = rng.uniform(-8.0, 8.0, size=5000) * se + 2.0
        expected = ndtr(-np.abs(qhat - 2.0) / se)
        np.testing.assert_allclose(boundary_probability(qhat, se, 2.0), expected,
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("z", [1.5, np.float64(1.5), np.array(1.5)])
    def test_scalar_in_float_out(self, z):
        ndtr = pytest.importorskip("scipy.special").ndtr
        assert type(normal_tail(z)) is float
        assert normal_tail(z) == pytest.approx(ndtr(-1.5), rel=1e-13)
        assert type(boundary_probability(z, 1.0, 0.0)) is float

    @pytest.mark.parametrize("shape", [(0,), (3,), (2, 3)])
    def test_arrays_keep_their_shape(self, shape):
        z = np.linspace(0.0, 3.0, math.prod(shape)).reshape(shape)
        for out in (normal_tail(z), boundary_probability(z, np.ones(shape), 0.0)):
            assert isinstance(out, np.ndarray)
            assert out.shape == shape and out.dtype == np.float64


class TestAcquisitionWeight:
    def test_values_at_half(self):
        assert acquisition_weight(0.5) == 0.5

    def test_zero_at_certainty(self):
        assert acquisition_weight(0.0) == 0.0
        assert acquisition_weight(1.0) == 0.0

    def test_min_weight_definition(self):
        assert acquisition_weight(0.2) == pytest.approx(0.2)
        ps = np.linspace(0.0, 1.0, 101)
        np.testing.assert_array_equal(acquisition_weight(ps), np.minimum(ps, 1.0 - ps))

    def test_symmetry(self):
        ps = np.linspace(0.0, 1.0, 21)
        w = acquisition_weight(ps)
        np.testing.assert_allclose(w, w[::-1], atol=1e-12)

    def test_rejects_out_of_range(self):
        for p in (1.2, -0.1, [0.5, 1.0 + 1e-12]):
            with pytest.raises(ValueError):
                acquisition_weight(p)


class TestSampleBatch:
    def test_single_positive_candidate_always_chosen(self):
        cands = np.array([[3.0, 4.0]])
        idx, fallback = sample_indices(np.array([0.7]), 10, RngStream(5))
        assert not fallback
        assert np.all(cands[idx] == cands[0])

    def test_zero_weight_candidate_never_chosen(self):
        cands = np.array([[0.0], [1.0]])
        idx, fallback = sample_indices(np.array([1.0, 0.0]), 200, RngStream(6))
        assert not fallback
        assert np.all(cands[idx, 0] == 0.0)

    @pytest.mark.slow
    def test_multinomial_frequencies(self):
        cands = np.array([[0.0], [1.0]])
        idx, _ = sample_indices(np.array([1.0, 3.0]), 100_000, RngStream(7))
        freq = cands[idx, 0].mean()
        se = math.sqrt(0.75 * 0.25 / 100_000)
        assert abs(freq - 0.75) <= 3 * se

    def test_all_zero_weights_fall_back_to_uniform(self):
        cands = np.arange(10.0)[:, None]
        idx, fallback = sample_indices(np.zeros(10), 500, RngStream(8))
        assert fallback
        assert len(set(cands[idx, 0])) > 5  # spread over candidates

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            sample_indices(np.array([1.0, -0.1]), 5, RngStream(9))
