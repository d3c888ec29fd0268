"""Local weighted polynomial regression with predictive standard errors.

Memory-based smoother in the style of Cleveland's loess: a prediction at a
query point fits a weighted least-squares polynomial (degree 0, 1 or 2) to
the k = ceil(span * N) nearest data points, weighted by the tricube kernel
w = (1 - (dist / dist_max)^3)^3 in per-coordinate standardized Euclidean
distance. Each prediction exposes

  * the fitted mean b(x)' betahat(x),
  * the equivalent-kernel row l(x)' = b(x)' (B'WB)^{-1} B'W, whose entries
    sum to one and express the prediction as a weighted average of the
    responses,
  * a local noise level sigma2(x) from weighted neighborhood residuals,
  * the predictive standard error sqrt(sigma2(x)) * ||l(x)||.

The model is the data: fitting stores inputs, responses and per-coordinate
scales, nothing else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist


@dataclass(frozen=True)
class LoessConfig:
    """Smoothing configuration.

    span: fraction of the data in each local neighborhood, in (0, 1].
    degree: local polynomial degree (0, 1, or 2; 2 includes cross terms).
    min_neighbors: floor on neighborhood size; defaults to the basis size.
    kernel: "tricube" (default) or "uniform" distance weighting.
    """

    span: float = 0.4
    degree: int = 1
    min_neighbors: Optional[int] = None
    kernel: str = "tricube"

    def __post_init__(self):
        if not 0.0 < self.span <= 1.0:
            raise ValueError(f"span must lie in (0, 1], got {self.span}")
        if self.degree not in (0, 1, 2):
            raise ValueError(f"degree must be 0, 1, or 2, got {self.degree}")
        if self.kernel not in ("tricube", "uniform"):
            raise ValueError(f"kernel must be 'tricube' or 'uniform', got {self.kernel!r}")


def basis_size(dim: int, degree: int) -> int:
    """Number of terms in the local polynomial basis."""
    if degree == 0:
        return 1
    if degree == 1:
        return 1 + dim
    return 1 + dim + dim * (dim + 1) // 2


def _basis(x_centered: np.ndarray, degree: int) -> np.ndarray:
    """Polynomial design matrix of centered rows; first column is 1."""
    n, d = x_centered.shape
    cols = [np.ones(n)]
    if degree >= 1:
        cols.extend(x_centered[:, j] for j in range(d))
    if degree == 2:
        for j in range(d):
            for l in range(j, d):
                cols.append(x_centered[:, j] * x_centered[:, l])
    return np.column_stack(cols)


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

        r = basis_size(d, config.degree)
        min_nb = config.min_neighbors if config.min_neighbors is not None else r
        if min_nb < r:
            raise ValueError(f"min_neighbors={min_nb} below basis size r={r}")
        if n < min_nb:
            raise ValueError(f"need at least {min_nb} points, got {n}")

        scales = inputs.std(axis=0, ddof=1) if n > 1 else np.ones(d)
        scales = np.where(scales > 0, scales, 1.0)  # zero-variance coordinate: scale 1

        self.inputs = inputs
        self.responses = responses
        self.config = config
        self.normalization = scales
        self._scaled = inputs / scales
        self._r = r
        self._k = min(n, max(math.ceil(config.span * n), min_nb))  # neighborhood size

    @property
    def n_points(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def _fit_at(self, x: np.ndarray, dist2: np.ndarray, with_se: bool, with_kernel: bool):
        """The local fit at `x` from its squared scaled distances `dist2`.

        Returns the fitted mean alone when `with_se` is false, else a
        `LoessPrediction` (carrying the length-N kernel row if asked for).
        """
        n, k = self.n_points, self._k
        d2max = dist2.max() if k == n else np.partition(dist2, k - 1)[k - 1]
        members = np.flatnonzero(dist2 <= d2max)  # boundary ties all included
        k_size = members.size

        if self.config.kernel == "uniform" or d2max == 0.0:
            w = np.ones(k_size)
        else:
            rel = np.sqrt(dist2[members] / d2max)
            w = (1.0 - rel**3) ** 3
            np.maximum(w, 0.0, out=w)
        sw = w.sum()
        if sw <= 0.0:  # all mass on the boundary: fall back to uniform
            w = np.ones(k_size)
            sw = float(k_size)

        # Covariates centered at the query and standardized, so the fitted
        # value at x is coef[0] and the normal equations stay well scaled.
        xb = (self.inputs[members] - x) / self.normalization
        y = self.responses[members]
        B = _basis(xb, self.config.degree)
        bw = B * w[:, None]
        try:
            # the Cholesky factorization doubles as the singularity test
            fac = cho_factor(B.T @ bw, lower=True, check_finite=False)
        except LinAlgError:
            fac = None
        if fac is None:  # singular local system: weighted mean
            l_local = w / sw
            mean = float(l_local @ y)
            resid = y - mean
            r_eff = 1
        else:
            # a = M^{-1} e1 gives the equivalent-kernel row l = w * (B a)
            rhs = np.zeros((self._r, 2))
            rhs[:, 0] = bw.T @ y
            rhs[0, 1] = 1.0
            sol = cho_solve(fac, rhs, check_finite=False)
            mean = float(sol[0, 0])
            if not with_se:
                return mean
            l_local = w * (B @ sol[:, 1])
            resid = y - B @ sol[:, 0]
            r_eff = self._r
        if not with_se:
            return mean

        dof = 1.0 - r_eff / k_size
        sigma2 = max(float(w @ (resid * resid) / (sw * dof)), 0.0) if dof > 0 else 0.0
        knorm = float(np.sqrt(l_local @ l_local))
        stderr = math.sqrt(sigma2) * knorm

        kern = None
        if with_kernel:
            kern = np.zeros(n)
            kern[members] = l_local
        return LoessPrediction(mean, stderr, knorm, sigma2, fac is None, kern)

    def _query(self, xs: np.ndarray, with_se: bool, with_kernel: bool = False):
        """Yield the local fit at each row of the 2-D array `xs`; one distance pass."""
        if xs.shape[1] != self.dim:
            raise ValueError(f"queries have dimension {xs.shape[1]}, model expects {self.dim}")
        if not np.all(np.isfinite(xs)):
            raise ValueError("queries contain non-finite values")
        dist2 = cdist(xs / self.normalization, self._scaled, "sqeuclidean")
        for x, d2 in zip(xs, dist2):
            yield self._fit_at(x, d2, with_se, with_kernel)

    def predict_mean(self, x) -> float:
        """Fitted mean at `x` without standard errors (fast path)."""
        return next(self._query(np.asarray(x, dtype=float).reshape(1, -1), with_se=False))

    def predict_mean_many(self, xs) -> np.ndarray:
        """Fitted means at each row of `xs` (fast path)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.fromiter(self._query(xs, with_se=False), float, count=xs.shape[0])

    def predict(self, x, with_kernel: bool = False) -> LoessPrediction:
        """Local fit at the query point `x` (length-d array-like)."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        return next(self._query(x, with_se=True, with_kernel=with_kernel))

    def predict_many(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Means and standard errors at each row of `xs`."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        means = np.empty(xs.shape[0])
        stderrs = np.empty(xs.shape[0])
        for j, pred in enumerate(self._query(xs, with_se=True)):
            means[j] = pred.mean
            stderrs[j] = pred.stderr
        return means, stderrs


def fit(inputs, responses, config: LoessConfig = LoessConfig()) -> LoessModel:
    """Fit a loess model; the data plus per-coordinate scales are the model."""
    return LoessModel(inputs, responses, config)

