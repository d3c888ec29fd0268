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
scales, plus the per-site moment features below, nothing else. The
standard error's features are built on the first standard-error query, so
a model that only predicts means never holds them.

A sequential design draws its batches with replacement, so its rows pile up
on repeated design sites: final designs hold about a third as many distinct
rows as points. The estimator is the N-point one, but the query passes run
over the distinct sites (in order of first occurrence). Every moment is a
sum over points, so fitting sums the copies of a site into one feature row,
and the neighborhood count weighs each site by its copies. The radius is
still the k-th smallest of the N point distances: the site distances are
spread over the points and partitioned, so it has the bits of the N-point
selection.

Every query, a block of any number of rows (zero included; a point query is
one row), runs through one kernel, `LoessModel._fit`, at two block levels:

  * per block of `_BLOCK_ENTRIES` point distances (N per row), `_weigh`
    makes the passes over the sites: squared distances, summed coordinate
    by coordinate over contiguous site columns, a row-wise partition of the
    N point distances for the k-th one, the tricube weights (0 outside the
    neighborhood) and the weighted moments, each from one (1 x S)(S x m)
    product per row over the S sites. The (S x m) features are column-major,
    the order in which OpenBLAS runs that product fastest (12 us against
    20 us C-ordered for a 16-row block at S = 350, 2-core x86 VM);
  * per batch of `_BATCH_ROWS` rows, `_solve` does the r x r algebra, so
    its few dozen small array operations are paid once per batch rather
    than once per block of 16 rows (N = 1000). The batch is bounded
    because its arrays grow with it: one batch of 8000 rows at N = 1000
    and d = 3 peaked at 14 MiB of traced memory against 1.4 MiB.

The fitted mean: the standardized inputs u_i are centered at their column
mean c0, and point i carries the upper triangle of v_i v_i' with
v_i = [z_i, y_i] and basis row z_i = [u_i - c0, 1] (constant term last);
a site carries the sum over its copies.
The moments [Z y]' W [Z y] move to the query-centered basis B by T(c), with
[u - c, 1] = T(c) [u, 1] and c = x / scale - c0. A stacked Cholesky
factorization of that bordered system is the singularity test and the
solver: its last row carries the forward substitution of B'Wy, from which
the fitted mean follows. Rows whose local system is singular fall back to
the weighted mean.

The standard error comes from moments as well (Cleveland & Grosse,
"Computational methods for local regression", 1991), so a standard-error
row costs a mean row plus two moment products and a neighborhood count,
with no pass over the N points that evaluates the local fit:

  * ||l||^2 = a' Z'W^2Z a with a = M^{-1} e_r in the centered basis, and
    Z'W^2Z from the weights w^2 and the upper triangle of z z' times the
    site's copies;
  * the weighted residual sum of squares is yt'W yt - |L^{-1} B'W yt|^2,
    with L L' = B'WB and the responses yt = y - ybar. Centering keeps the
    two terms at the scale of the local spread of the responses, whatever
    their offset, so their difference keeps its digits. ybar is the
    response nearest the mean of the responses, so constant responses give
    yt = 0, and a standard error of 0, exactly; the mean itself of n copies
    of a value can round away from it. A singular row's sum is that of its
    weighted mean, yt'W yt - (sum w yt)^2 / sum(w). A sum within 256 eps of
    yt'W yt is rounding noise and counts as 0, so a neighborhood of constant
    responses other than ybar has a standard error of 0 in any summation
    order, too.

A nearly singular local system makes a large, and the terms of a' Z'W^2Z a
then cancel. Rows that lose more than five digits there take the explicit
passes instead: l = w * (Z a) and the residuals y - Z beta at all N points,
with each site's weight spread over its copies. The equivalent-kernel row
itself, one entry per point, is built only on request.

Rows never mix: every product runs per row, and small sums run left to
right as elementwise operations over the rows, so a query gets the same
bits in any block and batch, alone or among others.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_BLOCK_ENTRIES = 1 << 14  # distance entries per block (128 KiB): larger blocks ran slower
_BATCH_ROWS = 512  # rows per batch of r x r algebra: its arrays grow with the batch
_SSR_FLOOR = 256 * np.finfo(float).eps  # residual sums below it, relative to yt'W yt, are 0


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


def _upper_products(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The upper triangle of v_i v_i' for each row v_i of `v`, one row each, and
    the flat index that spreads a triangle over the full symmetric matrix."""
    m = v.shape[1]
    upper = np.triu_indices(m)
    position = np.empty((m, m), dtype=int)  # (p, q) -> triangle column
    position[upper] = position[upper[::-1]] = np.arange(upper[0].size)
    return v[:, upper[0]] * v[:, upper[1]], position.ravel()


def _sites(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `x` in order of first occurrence, as the index of
    each one's first row, and the site index of every row.

    A stable lexsort groups equal rows and lists each group's rows in input
    order, so a group's first sorted row is its first occurrence.
    """
    order = np.lexsort(x.T[::-1])
    xs = x[order]
    new = np.ones(len(x), dtype=bool)
    np.any(xs[1:] != xs[:-1], axis=1, out=new[1:])
    firsts = order[new]  # per group, in sorted order
    rank = np.empty(firsts.size, dtype=np.intp)
    rank[np.argsort(firsts)] = np.arange(firsts.size)
    site = np.empty(len(x), dtype=np.intp)
    site[order] = rank[np.cumsum(new) - 1]
    return np.sort(firsts), site


def _padded(features: np.ndarray) -> np.ndarray:
    """`features`, column-major, with zero columns appended up to a multiple of 4.

    A (1 x N)(N x m) product ran about twice as fast with m a multiple of 4
    (OpenBLAS, N = 1000: 1.6 us for m = 12 against 3.4 us for m = 10). The
    mean's features stay unpadded, because padding moves bits of the product.
    """
    return np.asfortranarray(np.pad(features, ((0, 0), (0, -features.shape[1] % 4))))


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of the rows of two (rows, m) arrays, summed left to right.

    Each step is one elementwise operation over the rows, so rows never mix.
    """
    out = x[:, 0] * y[:, 0]
    for j in range(1, x.shape[1]):
        out += x[:, j] * y[:, j]
    return out


def _forward(lt: np.ndarray, x: np.ndarray) -> None:
    """x <- L^{-1} x in place, with `lt` and `x` laid out as for `_backward`."""
    r = lt.shape[0]
    for i in range(r):
        for j in range(i):
            x[i] -= lt[i, j] * x[j]
        x[i] /= lt[i, i]


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
        self._r = r
        self._k = min(n, max(math.ceil(config.span * n), r))  # neighborhood size

        # distinct sites: a design without repeats has N sites of one copy each
        firsts, self._site = _sites(inputs)
        self._counts = np.bincount(self._site).astype(float)  # copies per site, for BLAS products
        self._columns = scaled[firsts].T.copy()  # one contiguous row per coordinate

        # Moment features in a basis centered at the data's mean: column by
        # column, a weighted sum of the rows of `_features` gives the upper
        # triangle of [Z y]' W [Z y], so Z'WZ, Z'Wy and y'Wy. A site's row is
        # the sum of its copies' rows.
        self._center = scaled.mean(axis=0)
        self._z = _basis(scaled - self._center)  # one row per point
        features, self._symmetric = _upper_products(np.column_stack([self._z, responses]))
        self._features = self._site_sums(features)
        self._z_sites = self._z[firsts]

    def _site_sums(self, features: np.ndarray) -> np.ndarray:
        """Per-site sums of per-point feature rows, one `bincount` per column,
        column-major (a row of weights times it takes OpenBLAS's fast path)."""
        return np.array([np.bincount(self._site, col, self._counts.size)
                         for col in features.T]).T

    def _at_points(self, a: np.ndarray) -> np.ndarray:
        """Per-site columns of `a` spread over the N points: each copy gets its site's."""
        return a.take(self._site, axis=1)

    @functools.cached_property
    def _se_features(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The standard error's features (zz, its spreading index, zyt): weighted
        by w^2, the upper triangle zz of z z' gives Z'W^2Z; weighted by w,
        zyt = [z yt, yt^2] gives Z'W yt and yt'W yt for the responses yt = y -
        ybar, centered at the response nearest their mean, so that constant
        responses give yt = 0 exactly."""
        y = self.responses
        zz, symmetric = _upper_products(self._z_sites)
        zz *= self._counts[:, None]  # the copies of a site share z
        yt = y - y[np.abs(y - y.mean()).argmin()]
        zyt = self._site_sums(np.column_stack([self._z * yt[:, None], yt * yt]))
        return _padded(zz), symmetric, _padded(zyt)

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
        """Squared distances from the standardized queries `q` (rows) to every site.

        Summed coordinate by coordinate, (d_0^2 + d_1^2) + ..., one row per
        query. Starting from d_0^2 rather than from 0 + d_0^2 changes no bit,
        since 0 + x = x for every square x. Each coordinate of the queries is
        first copied along its row: subtracting a broadcast column ran at
        about twice the cost of the copy plus a contiguous subtraction.
        """
        d2 = np.empty((q.shape[0], self._columns.shape[1]))
        diff = np.empty_like(d2)
        for j, col in enumerate(self._columns):
            out = diff if j else d2
            out[:] = q[:, j, None]
            np.subtract(out, col, out=out)
            np.multiply(out, out, out=out)
            if j:
                np.add(d2, diff, out=d2)
        return d2

    def _weigh(self, q: np.ndarray, with_se: bool, with_kernel: bool) -> tuple:
        """The site passes for the standardized queries `q` (rows of one block).

        Returns (mz,) with the moments [Z y]' W [Z y], and for standard errors
        also (Z'W^2Z, [Z'W yt, yt'W yt], k_size), plus the (rows x N) weights
        of the points when `with_kernel` is set.
        """
        k, r = self._k, self._r
        d2 = self._sq_distances(q)
        # the k-th smallest of the N point distances (k = n: the row maximum)
        d2max = np.partition(self._at_points(d2), k - 1, axis=1)[:, k - 1]

        # tricube weights by products, clipped at 0 outside the neighborhood
        # (the row scales are copied along their rows first, as in `_sq_distances`)
        w = np.empty_like(d2)
        w[:] = (1.0 / np.where(d2max > 0.0, d2max, 1.0))[:, None]
        np.multiply(d2, w, out=w)
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
        if not with_se:
            return (mz,)
        zz_features, symmetric, zyt = self._se_features
        np.multiply(w, w, out=cube)
        zz = (cube[:, None, :] @ zz_features)[:, 0, symmetric].reshape(-1, r, r)
        zy = (w[:, None, :] @ zyt)[:, 0]
        # every copy counts, boundary ties included
        k_size = (d2 <= d2max[:, None]) @ self._counts
        return (mz, zz, zy, k_size) + ((self._at_points(w),) if with_kernel else ())

    def _solve(self, q: np.ndarray, with_se: bool, mz: np.ndarray, zz=None, zy=None,
               k_size=None, w=None):
        """The r x r algebra for the standardized queries `q` (rows of one batch).

        Takes the moments of `_weigh` for the same rows. Returns the tuple
        (mean,) when `with_se` is false, else (mean, stderr, kernel_norm,
        sigma2, degenerate), with the (rows x N) equivalent-kernel rows
        appended when the weights `w` are given.
        """
        b, r = q.shape[0], self._r
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
            return (mean,)

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

        # ||l||^2 = a' Z'W^2Z a and the residual sum of squares
        # yt'W yt - |L^{-1} B'W yt|^2 with B'W yt = T Z'W yt
        a = coef[:, :, 1]
        knorm2 = _row_dot(a, np.stack([_row_dot(zz[:, p], a) for p in range(r)], 1))
        v = (T[:, :r, :r] @ zy[:, :r, None])[:, :, 0].T.copy()  # rows last
        _forward(lt, v)
        ssr = zy[:, r] - _row_dot(v.T, v.T)
        ssr[singular] = zy[singular, r] - zy[singular, r - 1] ** 2 / sw[singular]
        # a sum within rounding of yt'W yt is 0: constant responses off ybar
        # would otherwise leave noise whose size depends on summation order
        ssr[ssr <= _SSR_FLOOR * zy[:, r]] = 0.0
        # each term of a' Z'W^2Z a is at most |a_p| |a_q| sqrt(Q_pp Q_qq):
        # rows whose sum cancels more than 5 digits of that bound take the
        # explicit passes over the N points
        ill = knorm2 <= 1e-5 * _row_dot(np.abs(a), np.sqrt(np.diagonal(zz, 0, 1, 2))) ** 2
        if ill.any():
            w_ill = self._weigh(q[ill], True, True)[-1]
            kern = w_ill * (self._z @ a[ill, :, None])[:, :, 0]
            resid = self.responses - (self._z @ coef[ill, :, :1])[:, :, 0]
            knorm2[ill] = (kern[:, None, :] @ kern[:, :, None])[:, 0, 0]
            ssr[ill] = ((w_ill * resid)[:, None, :] @ resid[:, :, None])[:, 0, 0]
        knorm = np.sqrt(knorm2)
        dof = 1.0 - np.where(singular, 1, r) / k_size
        sigma2 = np.zeros(b)
        pos = dof > 0
        sigma2[pos] = np.maximum(ssr[pos] / (sw[pos] * dof[pos]), 0.0)
        out = (mean, np.sqrt(sigma2) * knorm, knorm, sigma2, singular)
        if w is None:
            return out
        return out + (np.multiply(w, (self._z @ a[:, :, None])[:, :, 0], out=w),)

    def _fit(self, xs: np.ndarray, with_se: bool, with_kernel: bool = False) -> tuple:
        """Local fits at the rows of the 2-D array `xs`, any number, 0 included.

        Row batches of `_BATCH_ROWS` run `_weigh` block by block and then one
        `_solve` each, whose tuples are joined; zero rows make one empty block.
        """
        if xs.shape[1] != self.dim:
            raise ValueError(f"queries have dimension {xs.shape[1]}, model expects {self.dim}")
        if not np.isfinite(xs).all():
            raise ValueError("queries contain non-finite values")
        q = xs / self.normalization
        rows = max(1, _BLOCK_ENTRIES // self.n_points)
        batches = []
        for lo in range(0, max(q.shape[0], 1), _BATCH_ROWS):
            batch = q[lo:lo + _BATCH_ROWS]
            blocks = [self._weigh(batch[i:i + rows], with_se, with_kernel)
                      for i in range(0, max(batch.shape[0], 1), rows)]
            batches.append(self._solve(batch, with_se, *map(np.concatenate, zip(*blocks))))
        return tuple(map(np.concatenate, zip(*batches)))

    def predict_mean(self, x) -> float:
        """Fitted mean at `x` without standard errors (fast path)."""
        return float(self._fit(np.asarray(x, dtype=float).reshape(1, -1), with_se=False)[0][0])

    def predict_mean_many(self, xs) -> np.ndarray:
        """Fitted means at each row of `xs` (fast path)."""
        return self._fit(np.atleast_2d(np.asarray(xs, dtype=float)), with_se=False)[0]

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
