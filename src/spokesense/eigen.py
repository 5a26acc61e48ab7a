"""Cross-channel covariance eigen-signatures.

For one window, the raw channels are mean-removed, the 3x3 population
covariance across channels is formed, and its eigenvalues are extracted in
descending order with a cyclic Jacobi solver for symmetric 3x3 matrices.
A Covariance3 is solved once, when its positive semi-definiteness is
checked, and keeps those eigenvalues.  The leading eigenvalue tracks
overall excitation strength, so it orders terrain roughness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, _finite_array
from .signals import TimeSeries, Window, check_window


_OFF_DIAGONAL_PAIRS = ((0, 1), (0, 2), (1, 2))


def _sym3_eigenvalues(a: np.ndarray) -> tuple[float, float, float]:
    """Eigenvalues of a symmetric 3x3 matrix, descending.

    Cyclic Jacobi rotations: each pass zeroes the three off-diagonal
    entries in turn and converges quadratically.  Unlike the closed-form
    trigonometric solution, accuracy stays near machine epsilon even for
    repeated or near-repeated eigenvalues, which covariances of strongly
    correlated channels produce routinely.
    """
    m = np.array(a, dtype=np.float64)
    scale = float(np.abs(m).max())
    floor = 4.0 * np.finfo(np.float64).eps * scale
    for _ in range(20):
        if max(abs(m[0, 1]), abs(m[0, 2]), abs(m[1, 2])) <= floor:
            break
        for p, q in _OFF_DIAGONAL_PAIRS:
            apq = m[p, q]
            if apq == 0.0:
                continue
            diff = m[q, q] - m[p, p]
            if abs(apq) < 1e-300 * abs(diff):
                # tan(2*angle) underflows; the rotation would be a no-op
                m[p, q] = m[q, p] = 0.0
                continue
            theta = 0.5 * diff / apq
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            rot = np.eye(3)
            rot[p, p] = rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
            m = rot.T @ m @ rot
            # The rotation annihilates this entry analytically; force the
            # exact zero so rounding residue cannot stall convergence.
            m[p, q] = m[q, p] = 0.0
    return tuple(sorted((float(m[0, 0]), float(m[1, 1]), float(m[2, 2])), reverse=True))


def _checked_symmetric(a, d: int, what: str, tol: float) -> np.ndarray:
    """``a`` as a finite d x d float array, symmetrized; asymmetry beyond
    ``tol`` relative to max(1, max|a|) is rejected."""
    arr = _finite_array(a, what, (d, d))
    scale = max(1.0, float(np.abs(arr).max()))
    if float(np.abs(arr - arr.T).max()) > tol * scale:
        raise ValidationError(f"{what} is not symmetric")
    return (arr + arr.T) / 2.0


@dataclass(eq=False)
class Covariance3:
    """Symmetric positive semi-definite 3x3 covariance across channels."""

    entries: np.ndarray
    _eigenvalues: tuple[float, float, float] = field(init=False, repr=False)

    def __post_init__(self):
        arr = _checked_symmetric(self.entries, 3, "covariance", 1e-12)
        trace = float(np.trace(arr))
        self._eigenvalues = _sym3_eigenvalues(arr)  # kept for eigenvalues_sym3
        smallest = self._eigenvalues[2]
        if smallest < -1e-9 * max(trace, 1e-30):
            raise ValidationError(
                f"covariance is not positive semi-definite (eigenvalue {smallest})"
            )
        self.entries = arr


@dataclass(frozen=True)
class EigenSignature:
    """Eigenvalues in descending order."""

    lambda1: float
    lambda2: float
    lambda3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3)


def covariance3(series: TimeSeries, window: Window) -> Covariance3:
    """Population covariance of the mean-removed raw channels."""
    check_window(series, window)
    segment = series.channels[:, window.start_index:window.stop_index]
    centered = segment - segment.mean(axis=1, keepdims=True)
    return Covariance3(entries=(centered @ centered.T) / window.length)


def eigenvalues_sym3(cov: Covariance3 | np.ndarray) -> EigenSignature:
    """Descending eigenvalues of a symmetric 3x3 matrix; a Covariance3
    returns those its PSD check solved for."""
    if isinstance(cov, Covariance3):
        return EigenSignature(*cov._eigenvalues)
    return EigenSignature(*_sym3_eigenvalues(_checked_symmetric(cov, 3, "matrix", 1e-9)))


def eigen_report_rows(series: TimeSeries, windows) -> list[tuple[int, EigenSignature, str | None]]:
    """(window index, signature, record label) for each window."""
    return [
        (idx, eigenvalues_sym3(covariance3(series, window)), series.label)
        for idx, window in enumerate(windows)
    ]
