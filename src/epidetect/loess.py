"""Local weighted linear regression with predictive standard errors.

Memory-based smoother in the style of Cleveland's loess: a prediction at a
query point fits a weighted least-squares linear function to the
k = max(ceil(span * N), d + 1) nearest data points, weighted by the tricube
kernel w = (1 - (dist / dist_max)^3)^3 in per-coordinate standardized
Euclidean distance. Each prediction exposes

  * the fitted mean b(x)' betahat(x),
  * the equivalent-kernel row l(x)' = b(x)' (B'WB)^{-1} B'W, whose entries
    sum to one and express the prediction as a weighted average of the
    responses,
  * a local noise level sigma2(x) from weighted neighborhood residuals,
  * the predictive standard error sqrt(sigma2(x)) * ||l(x)||.

The model is the data: fitting stores inputs, responses and per-coordinate
scales, plus the per-point moment features below, nothing else.

Every query runs through one block kernel, `LoessModel._fit_block`, which
fits a block of queries with array operations (a point query is a block
of one row):

  * the standardized inputs u_i are centered at their column mean c0, and
    point i carries the upper triangle of v_i v_i' with v_i = [z_i, y_i]
    and basis row z_i = [u_i - c0, 1] (constant term last);
  * per block, one pass of squared distances, summed coordinate by
    coordinate over contiguous input columns, then a row-wise partition
    for the k-th distance and the tricube weights; non-members get weight 0;
  * the weighted moments [Z y]' W [Z y] come from one (1 x N)(N x m)
    product per row and move to the query-centered basis by T(c), with
    [u - c, 1] = T(c) [u, 1] and c = x / scale - c0;
  * a stacked Cholesky factorization of that bordered system is the
    singularity test and the solver: its last row carries the forward
    substitution of B'Wy, from which the fitted mean follows. Rows whose
    local system is singular fall back to the weighted mean.

Rows never mix: every product and reduction runs per row, so a query gets
the same bits in any block, alone or among others.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_BLOCK_ENTRIES = 1 << 14  # distance entries per block (128 KiB): larger blocks ran slower


@dataclass(frozen=True)
class LoessConfig:
    """Smoothing configuration.

    span: fraction of the data in each local neighborhood, in (0, 1]; the
    neighborhood holds at least d + 1 points, the size of the linear basis.
    """

    span: float = 0.4

    def __post_init__(self):
        if not 0.0 < self.span <= 1.0:
            raise ValueError(f"span must lie in (0, 1], got {self.span}")


def _basis(x_centered: np.ndarray) -> np.ndarray:
    """Linear design matrix [x, 1] of centered rows; the last column is 1."""
    return np.column_stack([x_centered, np.ones(x_centered.shape[0])])


def _shift(c: np.ndarray) -> np.ndarray:
    """One matrix T per row of `c` with T [u; 1; y] = [u - c; 1; y] for all u, y."""
    m, d = c.shape
    r = d + 1
    T = np.zeros((m, r + 1, r + 1))
    T.reshape(m, (r + 1) ** 2)[:, ::r + 2] = 1.0
    T[:, :d, r - 1] = -c
    return T


def _backward(lt: np.ndarray, x: np.ndarray) -> None:
    """x <- L'^{-1} x in place; `lt` is L as (r, r, rows), `x` is (r, cols, rows).

    Each step is one elementwise operation over the rows, so rows never mix.
    """
    r = lt.shape[0]
    for i in reversed(range(r)):
        for j in range(i + 1, r):
            x[i] -= lt[j, i] * x[j]
        x[i] /= lt[i, i]


@dataclass(frozen=True)
class LoessPrediction:
    """Prediction at one query point."""

    mean: float
    stderr: float
    kernel_norm: float
    local_sigma2: float
    degenerate: bool = False  # True when the local system was singular
    kernel: Optional[np.ndarray] = field(default=None, repr=False)  # length-N row l(x)


class LoessModel:
    """Fitted (memory-based) local regression model."""

    def __init__(self, inputs: np.ndarray, responses: np.ndarray, config: LoessConfig):
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        responses = np.asarray(responses, dtype=float).ravel()
        if inputs.ndim != 2:
            raise ValueError("inputs must form an N x d matrix")
        n, d = inputs.shape
        if not 1 <= d <= 4:
            raise ValueError(f"input dimension must be 1..4, got {d}")
        if responses.shape[0] != n:
            raise ValueError(f"{n} inputs but {responses.shape[0]} responses")
        if not np.all(np.isfinite(inputs)):
            raise ValueError("inputs contain non-finite values")
        if not np.all(np.isfinite(responses)):
            raise ValueError("responses contain non-finite values")

        r = d + 1  # basis size
        if n < r:
            raise ValueError(f"need at least {r} points, got {n}")

        scales = inputs.std(axis=0, ddof=1) if n > 1 else np.ones(d)
        scales = np.where(scales > 0, scales, 1.0)  # zero-variance coordinate: scale 1

        self.inputs = inputs
        self.responses = responses
        self.config = config
        self.normalization = scales
        scaled = inputs / scales
        self._columns = scaled.T.copy()  # one contiguous row per coordinate
        self._r = r
        self._k = min(n, max(math.ceil(config.span * n), r))  # neighborhood size

        # Moment features in a basis centered at the data's mean: column by
        # column, a weighted sum of the rows of `_features` gives the upper
        # triangle of [Z y]' W [Z y], so Z'WZ, Z'Wy and y'Wy.
        self._center = scaled.mean(axis=0)
        self._z = _basis(scaled - self._center)
        zy = np.column_stack([self._z, responses])
        upper = np.triu_indices(r + 1)
        self._features = zy[:, upper[0]] * zy[:, upper[1]]
        position = np.empty((r + 1, r + 1), dtype=int)  # (p, q) -> feature column
        position[upper] = position[upper[::-1]] = np.arange(upper[0].size)
        self._symmetric = position.ravel()

    @property
    def n_points(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def _moments(self, w: np.ndarray) -> np.ndarray:
        """[Z y]' W [Z y] per row of weights `w`, from one (1 x N)(N x m) product each."""
        r1 = self._r + 1
        return (w[:, None, :] @ self._features)[:, 0, self._symmetric].reshape(-1, r1, r1)

    def _sq_distances(self, q: np.ndarray) -> np.ndarray:
        """Squared distances from the standardized queries `q` (rows) to every point.

        Summed coordinate by coordinate, ((0 + d_0^2) + d_1^2) + ..., one row
        per query.
        """
        d2 = np.zeros((q.shape[0], self.n_points))
        diff = np.empty_like(d2)
        for j, col in enumerate(self._columns):
            np.subtract(q[:, j, None], col, out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(d2, diff, out=d2)
        return d2

    def _fit_block(self, q: np.ndarray, with_se: bool, with_kernel: bool):
        """Local fits at the standardized queries `q` (rows of one block).

        Returns the fitted means alone when `with_se` is false, else the
        tuple (mean, stderr, kernel_norm, sigma2, degenerate), with the
        (rows x N) equivalent-kernel rows appended when `with_kernel` is set.
        """
        b = q.shape[0]
        n, k, r = self.n_points, self._k, self._r
        d2 = self._sq_distances(q)
        d2max = d2.max(axis=1) if k == n else np.partition(d2, k - 1, axis=1)[:, k - 1]

        # tricube weights by products, clipped at 0 outside the neighborhood
        w = d2 * (1.0 / np.where(d2max > 0.0, d2max, 1.0))[:, None]
        cube = np.sqrt(w)
        np.multiply(cube, w, out=cube)
        np.subtract(1.0, cube, out=w)
        np.maximum(w, 0.0, out=w)
        np.multiply(w, w, out=cube)
        np.multiply(w, cube, out=w)
        mz = self._moments(w)
        # every neighbor at the query, or all mass on the neighborhood
        # boundary: equal weights on the members (ties included)
        flat = (d2max == 0.0) | (mz[:, r - 1, r - 1] <= 0.0)
        if flat.any():
            w[flat] = d2[flat] <= d2max[flat, None]
            mz[flat] = self._moments(w[flat])
        sw = mz[:, r - 1, r - 1]

        # moments in the query-centered basis, whose constant term comes last:
        # the fitted value at x is the last coefficient
        T = _shift(q - self._center)
        gram = T @ mz @ T.transpose(0, 2, 1)
        # Bordered system [[M, B'Wy], [y'WB, s]]: the last row of its Cholesky
        # factor is [u', sqrt(s - u'u)] with u = L^{-1} B'Wy, so the fitted
        # value is u_r / L_rr. s = 2 y'Wy + 1 > u'u keeps that pivot positive.
        gram[:, r, r] += gram[:, r, r] + 1.0
        singular = np.zeros(b, dtype=bool)
        try:
            # the Cholesky factorization doubles as the singularity test
            fac = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            fac = np.empty_like(gram)
            for j in range(b):
                try:
                    fac[j] = np.linalg.cholesky(gram[j])
                except np.linalg.LinAlgError:
                    singular[j] = True
                    fac[j] = np.eye(r + 1)
        pivot = fac[:, r - 1, r - 1]
        mean = fac[:, r, r - 1] / pivot
        if singular.any():
            mean[singular] = mz[singular, r - 1, r] / sw[singular]  # weighted mean
        if not with_se:
            return mean

        # beta = M^{-1} B'Wy = L'^{-1} u and a = M^{-1} e_r = L'^{-1} e_r / L_rr;
        # the equivalent-kernel row is l = w * (B a)
        lt = fac[:, :r, :r].transpose(1, 2, 0).copy()  # rows last
        x = np.zeros((r, 2, b))
        x[:, 0] = fac[:, r, :r].T
        x[-1, 1] = 1.0 / pivot
        _backward(lt, x)
        coef = T[:, :r, :r].transpose(0, 2, 1) @ x.transpose(2, 0, 1)  # centered basis
        # the weighted mean is the constant fit with a = e_r / sum(w)
        coef[singular] = 0.0
        coef[singular, r - 1, 0] = mean[singular]
        coef[singular, r - 1, 1] = 1.0 / sw[singular]
        resid = self.responses - (self._z @ coef[:, :, :1])[:, :, 0]
        kern = (self._z @ coef[:, :, 1:])[:, :, 0]
        np.multiply(kern, w, out=kern)
        w_resid = np.multiply(w, resid, out=w)

        k_size = (d2 <= d2max[:, None]).sum(axis=1)  # boundary ties all included
        dof = 1.0 - np.where(singular, 1, r) / k_size
        sigma2 = np.zeros(b)
        pos = dof > 0
        ssr = (w_resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
        sigma2[pos] = np.maximum(ssr[pos] / (sw[pos] * dof[pos]), 0.0)
        knorm = np.sqrt((kern[:, None, :] @ kern[:, :, None])[:, 0, 0])
        out = (mean, np.sqrt(sigma2) * knorm, knorm, sigma2, singular)
        return out + (kern,) if with_kernel else out

    def _fit(self, xs: np.ndarray, with_se: bool, with_kernel: bool = False):
        """`_fit_block` over the rows of the 2-D array `xs`, block by block."""
        if xs.shape[1] != self.dim:
            raise ValueError(f"queries have dimension {xs.shape[1]}, model expects {self.dim}")
        if not np.isfinite(xs).all():
            raise ValueError("queries contain non-finite values")
        q = xs / self.normalization
        rows = max(1, _BLOCK_ENTRIES // self.n_points)
        if q.shape[0] <= rows:
            return self._fit_block(q, with_se, with_kernel)
        blocks = [self._fit_block(q[i:i + rows], with_se, with_kernel)
                  for i in range(0, q.shape[0], rows)]
        if not with_se:
            return np.concatenate(blocks)
        return tuple(np.concatenate(part) for part in zip(*blocks))

    def predict_mean(self, x) -> float:
        """Fitted mean at `x` without standard errors (fast path)."""
        return float(self._fit(np.asarray(x, dtype=float).reshape(1, -1), with_se=False)[0])

    def predict_mean_many(self, xs) -> np.ndarray:
        """Fitted means at each row of `xs` (fast path)."""
        return self._fit(np.atleast_2d(np.asarray(xs, dtype=float)), with_se=False)

    def predict(self, x, with_kernel: bool = False) -> LoessPrediction:
        """Local fit at the query point `x` (length-d array-like)."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        mean, stderr, knorm, sigma2, degenerate, *kern = self._fit(x, True, with_kernel)
        return LoessPrediction(float(mean[0]), float(stderr[0]), float(knorm[0]),
                               float(sigma2[0]), bool(degenerate[0]),
                               kern[0][0] if kern else None)

    def predict_many(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Means and standard errors at each row of `xs`."""
        mean, stderr, *_ = self._fit(np.atleast_2d(np.asarray(xs, dtype=float)), with_se=True)
        return mean, stderr


def fit(inputs, responses, config: LoessConfig = LoessConfig()) -> LoessModel:
    """Fit a loess model; the data plus per-coordinate scales are the model."""
    return LoessModel(inputs, responses, config)
