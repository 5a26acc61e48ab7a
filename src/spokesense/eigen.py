"""Cross-channel covariance eigen-signatures.

For one window, the raw channels are mean-removed, the 3x3 population
covariance across channels is formed, and its eigenvalues are extracted in
descending order with a cyclic Jacobi solver for symmetric 3x3 matrices,
which rotates Python floats (tests hold it within 8 eps of the largest
magnitude of the 3x3 rotation-matrix form it replaced; no command writes
eigenvalues).  A Covariance3 is solved once, when its positive
semi-definiteness is checked, and keeps those eigenvalues.  The leading
eigenvalue tracks overall excitation strength, so it orders terrain roughness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, _finite_array
from .signals import TimeSeries, Window, check_window


# Rotations (p, q) with the indices into [a01, a02, a12] of a_pq, a_rp and a_rq (r: the third axis)
_ROTATIONS = ((0, 1, 0, 1, 2), (0, 2, 1, 0, 2), (1, 2, 2, 0, 1))


def _sym3_eigenvalues(rows) -> tuple[float, float, float]:
    """Eigenvalues of a symmetric 3x3 matrix, given as nested lists, descending.

    Cyclic Jacobi rotations on Python floats: each pass zeroes the three
    off-diagonal entries in turn and converges quadratically.  Unlike the
    closed-form trigonometric solution, accuracy stays near machine epsilon
    even for repeated or near-repeated eigenvalues, which covariances of
    strongly correlated channels produce routinely.  The entries are solved
    in units of a power of two near the largest, which is exact and keeps
    every difference below from overflowing.
    """
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = rows
    scale = max(abs(a00), abs(a01), abs(a02), abs(a11), abs(a12), abs(a22))
    unit = math.ldexp(1.0, math.frexp(scale)[1] - 1)
    diag, off = [a00 / unit, a11 / unit, a22 / unit], [a01 / unit, a02 / unit, a12 / unit]
    floor = 4.0 * math.ulp(1.0) * (scale / unit)  # 4 eps * the largest entry
    for _ in range(20):
        if max(map(abs, off)) <= floor:
            break
        for p, q, pq, rp, rq in _ROTATIONS:
            apq = off[pq]
            if apq == 0.0:
                continue
            diff = diag[q] - diag[p]
            off[pq] = 0.0  # annihilated analytically; rounding residue could stall convergence
            if abs(apq) < 1e-300 * abs(diff):
                continue  # tan(2*angle) underflows; the rotation would be a no-op
            theta = 0.5 * diff / apq
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            diag[p], diag[q] = diag[p] - t * apq, diag[q] + t * apq
            off[rp], off[rq] = c * off[rp] - s * off[rq], s * off[rp] + c * off[rq]
    values = sorted((v * unit for v in diag), reverse=True)
    if math.isinf(values[0]) or math.isinf(values[2]):
        raise ValidationError(f"an eigenvalue exceeds the double range (entries up to {scale!r})")
    return tuple(values)


def _checked_symmetric(a, d: int, what: str, tol: float) -> np.ndarray:
    """``a`` as a finite d x d float array, symmetrized; asymmetry beyond
    ``tol`` relative to max(1, max|a|) is rejected."""
    arr = _finite_array(a, what, (d, d))
    largest = float(np.abs(arr).max())
    if largest >= 2.0**1022:
        # A sum or difference of entries this large can overflow; one of their exact halves cannot.
        return 2.0 * _checked_symmetric(arr / 2.0, d, what, tol)
    if float(np.abs(arr - arr.T).max()) > tol * max(1.0, largest):
        raise ValidationError(f"{what} is not symmetric")
    return (arr + arr.T) / 2.0


@dataclass(eq=False)
class Covariance3:
    """Symmetric positive semi-definite 3x3 covariance across channels."""

    entries: np.ndarray
    _eigenvalues: tuple[float, float, float] = field(init=False, repr=False)

    def __post_init__(self):
        arr = _checked_symmetric(self.entries, 3, "covariance", 1e-12)
        rows = arr.tolist()
        self._eigenvalues = _sym3_eigenvalues(rows)  # kept for eigenvalues_sym3
        smallest = self._eigenvalues[2]
        # smallest < -1e-9 * max(trace, 1e-30), in quarters of the trace, which cannot overflow
        if smallest < -4e-9 * max(sum(rows[i][i] * 0.25 for i in range(3)), 0.25e-30):
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
    centered = segment - np.add.reduce(segment, axis=1, keepdims=True) / window.length
    return Covariance3(entries=(centered @ centered.T) / window.length)


def eigenvalues_sym3(cov: Covariance3 | np.ndarray) -> EigenSignature:
    """Descending eigenvalues of a symmetric 3x3 matrix; a Covariance3
    returns those its PSD check solved for."""
    if isinstance(cov, Covariance3):
        return EigenSignature(*cov._eigenvalues)
    return EigenSignature(*_sym3_eigenvalues(_checked_symmetric(cov, 3, "matrix", 1e-9).tolist()))


def eigen_report_rows(series: TimeSeries, windows) -> list[tuple[int, EigenSignature, str | None]]:
    """(window index, signature, record label) for each window."""
    return [
        (idx, eigenvalues_sym3(covariance3(series, window)), series.label)
        for idx, window in enumerate(windows)
    ]
