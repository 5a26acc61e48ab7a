"""Distance-based ranking of an unknown terrain against known classes.

A terrain library holds per-class mean feature vectors and a pooled
within-class covariance, all in standardized feature space.  An unknown
recording's mean feature vector is ranked against every class under both
the Euclidean and Mahalanobis metrics; disagreement between the two
nearest classes is flagged rather than hidden.  The covariance is
regularized with a trace-scaled ridge and factorized by Cholesky; no
explicit inverse is ever formed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    EmptyInputError,
    LayoutMismatchError,
    NotPositiveDefiniteError,
    ValidationError,
    _finite_array,
    _positive,
)
from .eigen import _checked_symmetric
from .svm import Standardizer, apply_standardizer, fit_standardizer

DEFAULT_EPSILON_SCALE = 1e-6
_EPSILON_FLOOR = 1e-12


def _difference(x, y) -> np.ndarray:
    """x - y of two finite, non-empty vectors of equal length."""
    xv = _finite_array(x, "distance operand", (None,))
    return xv - _finite_array(y, "distance operand", xv.shape)


def euclidean_distance(x, y) -> float:
    return float(_norms(_difference(x, y)))


def cholesky_spd(a) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == a.

    Raises NotPositiveDefiniteError naming the 1-based leading principal
    minor at which positivity first fails.
    """
    arr = _finite_array(a, "matrix", (None, None), min_len=0)
    d = arr.shape[0]
    if arr.shape[1] != d:
        raise LayoutMismatchError(f"matrix must be square, got shape {arr.shape}")
    lower = np.zeros((d, d))
    for j in range(d):
        pivot = arr[j, j] - np.dot(lower[j, :j], lower[j, :j])
        if pivot <= 0.0 or not np.isfinite(pivot):
            raise NotPositiveDefiniteError(j + 1)
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < d:
            lower[j + 1 :, j] = (
                arr[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]
            ) / lower[j, j]
    return lower


def _solve_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution for L W = rhs; rhs is a d-vector or d x k."""
    w = np.empty(rhs.shape)
    for i in range(rhs.shape[0]):
        w[i] = (rhs[i] - lower[i, :i] @ w[:i]) / lower[i, i]
    return w


def _norms(columns: np.ndarray) -> np.ndarray:
    """Euclidean length of a vector, or of each column of a matrix."""
    return np.sqrt(np.sum(columns * columns, axis=0))


def mahalanobis_distance(x, y, covariance) -> float:
    """sqrt((x - y)^T S^{-1} (x - y)) via Cholesky and forward substitution."""
    diff = _difference(x, y)
    cov = _checked_symmetric(covariance, diff.shape[0], "covariance", 1e-9)
    return float(_norms(_solve_lower(cholesky_spd(cov), diff)))


@dataclass(eq=False)
class TerrainLibrary:
    """Known-class geometry in standardized feature space."""

    class_names: tuple[str, ...]
    class_means: np.ndarray  # (k, d), standardized
    pooled_covariance: np.ndarray  # (d, d), before regularization
    regularized_covariance: np.ndarray  # (d, d)
    epsilon: float
    standardizer: Standardizer
    cholesky_factor: np.ndarray  # cached factor of the regularized covariance

    @property
    def n_features(self) -> int:
        return self.class_means.shape[1]


def build_library(
    features_by_class: Mapping[str, np.ndarray],
    epsilon_scale: float = DEFAULT_EPSILON_SCALE,
) -> TerrainLibrary:
    """Pool per-class window features into a terrain library.

    The pooled covariance is the population average of squared deviations
    from each row's own class mean; the ridge is epsilon_scale * trace / d
    with epsilon_scale finite and > 0.  The ridge is required: rms and std,
    and energy and n * std**2, are one statistic per channel, so the pooled
    covariance of the 18 columns is singular and Cholesky fails without it
    (at leading minor 14 on criterion-2 data).  Only a zero-trace pooled
    covariance falls back to a 1e-12 ridge, with a warning.  Class order
    follows the mapping's iteration order.
    """
    if not features_by_class:
        raise EmptyInputError("no classes given")
    epsilon_scale = _positive(epsilon_scale, "epsilon_scale")
    names = tuple(str(k) for k in features_by_class.keys())
    matrices = []
    width = None
    for name, raw in zip(names, features_by_class.values()):
        mat = _finite_array(raw, f"class {name!r} features", (None, width))
        if mat.shape[0] < 2:
            raise ValidationError(f"class {name!r} has {mat.shape[0]} windows; need at least 2")
        width = mat.shape[1]
        matrices.append(mat)
    pooled_raw = np.vstack(matrices)
    standardizer = fit_standardizer(pooled_raw)
    total = pooled_raw.shape[0]
    means = np.empty((len(names), width))
    scatter = np.zeros((width, width))
    for row, mat in enumerate(matrices):
        std_mat = apply_standardizer(standardizer, mat)
        mu = std_mat.mean(axis=0)
        means[row] = mu
        centered = std_mat - mu
        scatter += centered.T @ centered
    pooled = scatter / total
    pooled = (pooled + pooled.T) / 2.0
    epsilon = epsilon_scale * float(np.trace(pooled)) / width
    if epsilon <= 0.0:
        warnings.warn(
            "pooled covariance has zero trace; applying minimum ridge",
            RuntimeWarning,
            stacklevel=2,
        )
        epsilon = _EPSILON_FLOOR
    regularized = pooled + epsilon * np.eye(width)
    factor = cholesky_spd(regularized)
    return TerrainLibrary(
        class_names=names,
        class_means=means,
        pooled_covariance=pooled,
        regularized_covariance=regularized,
        epsilon=epsilon,
        standardizer=standardizer,
        cholesky_factor=factor,
    )


@dataclass(eq=False)
class DistanceReport:
    """Per-class distances of one unknown recording, both metrics."""

    class_names: tuple[str, ...]
    euclidean: np.ndarray
    mahalanobis: np.ndarray
    nearest_euclidean: str
    nearest_mahalanobis: str
    metric_divergence: bool

    def ranked(self, metric: str) -> list[str]:
        if metric == "euclidean":
            order = np.argsort(self.euclidean, kind="stable")
        elif metric == "mahalanobis":
            order = np.argsort(self.mahalanobis, kind="stable")
        else:
            raise ValidationError(f"unknown metric {metric!r}")
        return [self.class_names[i] for i in order]


def rank_unknown(unknown_windows, library: TerrainLibrary) -> DistanceReport:
    """Rank an unknown recording's mean feature vector against every class."""
    mat = np.atleast_2d(_finite_array(unknown_windows, "unknown features", None))
    if mat.ndim != 2 or mat.shape[1] != library.n_features:
        raise LayoutMismatchError(
            f"unknown features have shape {mat.shape}, library expects "
            f"{library.n_features} columns"
        )
    query = apply_standardizer(library.standardizer, mat.mean(axis=0))
    diffs = (query - library.class_means).T  # (d, k): one column per class
    euclid = _norms(diffs)
    mahal = _norms(_solve_lower(library.cholesky_factor, diffs))
    nearest_e = int(np.argmin(euclid))
    nearest_m = int(np.argmin(mahal))
    return DistanceReport(
        class_names=library.class_names,
        euclidean=euclid,
        mahalanobis=mahal,
        nearest_euclidean=library.class_names[nearest_e],
        nearest_mahalanobis=library.class_names[nearest_m],
        metric_divergence=nearest_e != nearest_m,
    )
