"""Support vector classification trained by sequential minimal optimization.

Binary machines solve the soft-margin dual with the deterministic
second-order working-set rule of Fan, Chen & Lin (JMLR 2005), as in LIBSVM:
each step pairs the maximal violator with the partner of largest second-order
gain and takes the clipped two-variable step, until the two-sided optimality
gap closes to 2 tol.  Multiclass problems train one machine per unordered
class pair and vote; ties break by accumulated decision strength, then by
class order.  Feature columns are standardized once per multiclass fit and
queries are mapped through the stored standardizer.

All machines of a fit train in one loop, as batched array operations over a
(machines x rows) block in the manner of ThunderSVM (Wen et al., JMLR 2018),
instead of one machine after another as in LIBSVM.  Pairs with fewer rows
are padded to the largest pair with rows that can never be selected; a
machine leaves the active set when its gap closes or its iterations run
out, and the block shrinks only then.  Each machine takes exactly the steps
it would take alone, so the result does not depend on the batch.  A single
binary machine is a batch of one.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    EmptyInputError,
    LayoutMismatchError,
    ValidationError,
)
from .rng import Prng, derive_seed

KERNEL_NAMES = ("linear", "rbf")
DEFAULT_C = 10.0
DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 100000

# Grace added on top of the training tolerance when re-verifying optimality
# conditions from recomputed margins; absorbs kernel recomputation rounding.
_KKT_GRACE = 1e-9


def _as_matrix(x, name: str = "features") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-d matrix, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise EmptyInputError(f"{name} is empty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite values")
    return arr


@dataclass(eq=False)
class Standardizer:
    """Per-column affine map to zero mean and unit spread.

    Columns whose spread fell below 1e-12 keep std 1, so constant features
    pass through centered instead of dividing by zero.
    """

    means: np.ndarray
    stds: np.ndarray

    @property
    def n_features(self) -> int:
        return self.means.shape[0]


def fit_standardizer(x) -> Standardizer:
    arr = _as_matrix(x)
    means = arr.mean(axis=0)
    stds = arr.std(axis=0)
    return Standardizer(means=means, stds=np.where(stds < 1e-12, 1.0, stds))


def apply_standardizer(standardizer: Standardizer, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    width = arr.shape[-1] if arr.ndim in (1, 2) else -1
    if width != standardizer.n_features:
        raise LayoutMismatchError(
            f"expected {standardizer.n_features} feature columns, got "
            f"{width if width >= 0 else arr.shape}"
        )
    return (arr - standardizer.means) / standardizer.stds


@dataclass(frozen=True)
class Kernel:
    name: str
    gamma: float | None = None

    def __post_init__(self):
        if self.name not in KERNEL_NAMES:
            raise ValidationError(f"kernel must be one of {KERNEL_NAMES}, got {self.name!r}")
        if self.name == "rbf":
            if self.gamma is None or not np.isfinite(self.gamma) or self.gamma <= 0:
                raise ValidationError(f"rbf kernel needs gamma > 0, got {self.gamma}")
        elif self.gamma is not None:
            raise ValidationError("linear kernel takes no gamma")


def kernel_matrix(kernel: Kernel, a, b) -> np.ndarray:
    """Gram matrix K[i, j] = k(a_i, b_j)."""
    av = np.atleast_2d(np.asarray(a, dtype=np.float64))
    bv = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if av.shape[1] != bv.shape[1]:
        raise LayoutMismatchError(
            f"kernel operands disagree on dimension: {av.shape[1]} vs {bv.shape[1]}"
        )
    cross = av @ bv.T
    if kernel.name == "linear":
        return cross
    sq = np.sum(av * av, axis=1)[:, None] + np.sum(bv * bv, axis=1)[None, :] - 2.0 * cross
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-kernel.gamma * sq)


def median_heuristic_gamma(x) -> float:
    """1 / (d * median pairwise squared distance) on an evenly strided subset.

    At most 256 rows enter the median.  Falls back to the mean squared
    distance when the median is zero; raises when every sampled pair
    coincides.
    """
    arr = _as_matrix(x)
    m, d = arr.shape
    if m < 2:
        raise ValidationError("gamma heuristic needs at least 2 rows")
    step = -(-m // 256)  # ceil
    sub = arr[::step]
    cross = sub @ sub.T
    norms = np.sum(sub * sub, axis=1)
    sq = norms[:, None] + norms[None, :] - 2.0 * cross
    pairs = sq[np.triu_indices(sub.shape[0], k=1)]
    pairs = np.maximum(pairs, 0.0)
    scale = float(np.median(pairs))
    if scale == 0.0:
        scale = float(np.mean(pairs))
    if scale == 0.0:
        raise DegenerateInputError("all sampled training rows coincide; gamma undefined")
    return 1.0 / (d * scale)


@dataclass(eq=False)
class BinarySvm:
    """Trained binary machine; coefficients are alpha_i * y_i per support vector."""

    kernel: Kernel
    support_vectors: np.ndarray
    coefficients: np.ndarray
    bias: float
    c: float
    converged: bool = True
    # Training-row indices of the support vectors; not persisted.
    sv_indices: np.ndarray | None = None


def _as_queries(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValidationError("queries contain non-finite values")
    return arr


def _decision_values(svm: BinarySvm, xs: np.ndarray) -> np.ndarray:
    """Decision values of finite (possibly overflowed) queries.

    A query far from every support vector gets the bias, since its RBF
    kernel values underflow to 0; one whose kernel or standardized values
    overflow into NaN or infinity is rejected instead of voted.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = kernel_matrix(svm.kernel, xs, svm.support_vectors) @ svm.coefficients + svm.bias
    if not np.isfinite(values).all():
        raise ValidationError("queries overflow to non-finite decision values")
    return values


def decision_function(svm: BinarySvm, x) -> float | np.ndarray:
    """Signed decision value(s); positive means the +1 class."""
    arr = _as_queries(x)
    values = _decision_values(svm, np.atleast_2d(arr))
    return float(values[0]) if arr.ndim == 1 else values


def _train_machines(
    kernel: Kernel,
    full_k: np.ndarray,
    x: np.ndarray,
    rows: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float,
    max_iter: int,
    pair_names: list[tuple[str, str]] | None = None,
) -> list[BinarySvm]:
    """Solve a batch of soft-margin duals in one loop; keep rows with alpha > 0.

    Machine q trains on rows ``rows[q]`` of ``x`` and of the Gram matrix
    ``full_k`` with labels ``y[q]`` in {-1, +1}.  Machines with fewer rows
    are padded to the batch width with y = 0, which keeps the padding out
    of I_up and I_low and gives it a zero gradient step.

    Dual gradient G = Q alpha - 1 with Q_ij = y_i y_j K_ij; v = -y G.  Rows
    that may move up are I_up = {alpha < C, y = +1} | {alpha > 0, y = -1},
    rows that may move down are I_low, the mirror set.  Each step pairs
    i = argmax of v over I_up with the j in I_low minimizing -b^2 / a, where
    b = v_i - v_j > 0 and a = K_ii + K_jj - 2 K_ij (1e-12 when a <= 0), and
    takes the clipped two-variable step; a variable clipped to a bound is
    set to exactly 0 or C.  A machine stops when max v over I_up minus min v
    over I_low is at most 2 tol, or after max_iter steps; the bias is their
    midpoint, so every row meets its margin condition within tol.

    The loop keeps G and the signed multipliers s = y alpha, the machine's
    coefficients: I_up is s below its upper bound (C for y = +1, 0 for
    y = -1), I_low is s above its lower bound (0 or -C), and padding has
    bounds -inf and +inf.  It accumulates G rather than v so that v, and
    with it the bias, matches a machine trained alone down to the sign of
    a zero.  Each iteration steps every running machine at
    once, row by row of the block arrays, which are compacted only when a
    machine stops; kernel rows are gathered from ``full_k`` as needed, so
    no per-pair kernel block is copied.
    """
    if not np.isfinite(c) or c <= 0:
        raise ValidationError(f"c must be positive, got {c}")
    machines: list[BinarySvm | None] = [None] * y.shape[0]
    active = np.arange(y.shape[0])  # batch index of each block row
    at = np.arange(y.shape[0])
    k_diag = full_k[rows, rows]
    upper = np.select([y > 0.0, y < 0.0], [c, 0.0], -np.inf)
    lower = np.select([y > 0.0, y < 0.0], [0.0, -c], np.inf)
    signed = np.zeros(y.shape)
    grad = -np.ones(y.shape)
    for iteration in range(max_iter + 1):
        v = -y * grad
        up = signed < upper
        low = signed > lower
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = np.argmax(v_up, axis=1)
        v_max = v_up[at, i]
        v_min = v_low.min(axis=1)
        converged = v_max - v_min <= 2.0 * tol
        stop = converged | (iteration == max_iter)
        if stop.any():
            for q in np.flatnonzero(stop):
                bias = (v_max[q] + v_min[q]) / 2.0
                if not converged[q]:
                    remaining = np.count_nonzero(
                        (up[q] & (v[q] > bias + tol)) | (low[q] & (v[q] < bias - tol))
                    )
                    pair = "" if pair_names is None else " for {!r} vs {!r}".format(
                        *pair_names[active[q]]
                    )
                    warnings.warn(
                        f"binary svm{pair} left {remaining} margin violators after "
                        f"{max_iter} iterations",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                sv = signed[q] != 0.0
                machines[active[q]] = BinarySvm(
                    kernel=kernel,
                    support_vectors=x[rows[q, sv]],
                    coefficients=signed[q, sv],
                    bias=bias,
                    c=c,
                    converged=bool(converged[q]),
                    sv_indices=np.nonzero(sv)[0],
                )
            keep = ~stop
            if not keep.any():
                break
            active, rows, k_diag, y, upper, lower, signed, grad = (
                a[keep] for a in (active, rows, k_diag, y, upper, lower, signed, grad)
            )
            v_low, i, v_max = v_low[keep], i[keep], v_max[keep]
            at = at[: active.size]
        k_i = full_k[rows[at, i][:, None], rows]
        gap = v_max[:, None] - v_low
        curvature = k_diag[at, i][:, None] + k_diag - 2.0 * k_i
        curvature[curvature <= 0.0] = 1e-12
        j = np.argmin(np.where(gap > 0.0, -gap * gap / curvature, np.inf), axis=1)
        # Move s_i up by t and s_j down by t, which keeps sum(s) fixed; t
        # stops where either variable meets its box.
        old_i, old_j = signed[at, i], signed[at, j]
        room_i = upper[at, i] - old_i
        room_j = old_j - lower[at, j]
        t = np.minimum(np.minimum(gap[at, j] / curvature[at, j], room_i), room_j)
        new_i = np.where(t == room_i, upper[at, i], old_i + t)
        new_j = np.where(t == room_j, lower[at, j], old_j - t)
        signed[at, i] = new_i
        signed[at, j] = new_j
        step_i = (new_i - old_i)[:, None]
        step_j = (new_j - old_j)[:, None]
        grad += y * (step_i * k_i + step_j * full_k[rows[at, j][:, None], rows])
    return machines


def train_binary_svm(
    x,
    y,
    c: float = DEFAULT_C,
    kernel: Kernel = Kernel("linear"),
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BinarySvm:
    """Train one soft-margin machine on labels in {-1, +1}."""
    if not np.isfinite(tol) or tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_iter < 0:
        raise ValidationError(f"max_iter must be >= 0, got {max_iter}")
    arr = _as_matrix(x)
    yv = np.asarray(y, dtype=np.float64)
    if yv.ndim != 1 or yv.shape[0] != arr.shape[0]:
        raise ValidationError(
            f"labels must be one per row: {yv.shape} labels for {arr.shape[0]} rows"
        )
    if not np.all(np.isin(yv, (-1.0, 1.0))):
        raise ValidationError("binary labels must be -1 or +1")
    if not (np.any(yv == 1.0) and np.any(yv == -1.0)):
        raise ValidationError("both classes must be present")
    rows = np.arange(arr.shape[0])[None, :]
    return _train_machines(
        kernel, kernel_matrix(kernel, arr, arr), arr, rows, yv[None, :], c, tol, max_iter
    )[0]


@dataclass(frozen=True)
class KktReport:
    """Worst-case optimality residuals over a training set."""

    max_zero_set_violation: float
    max_interior_violation: float
    max_bound_set_violation: float
    dual_balance_residual: float
    satisfied: bool


def kkt_report(svm: BinarySvm, x, y, tol: float = DEFAULT_TOL) -> KktReport:
    """Check the trained machine's optimality conditions on its training data.

    Requires the machine's in-memory support-vector indices.  Conditions:
    alpha = 0 rows need margin >= 1 - tol, interior rows |margin - 1| <= tol,
    alpha = C rows margin <= 1 + tol, and sum(alpha * y) must vanish.
    """
    if svm.sv_indices is None:
        raise ValidationError("kkt_report needs a machine trained in this process")
    arr = _as_matrix(x)
    yv = np.asarray(y, dtype=np.float64)
    alphas = np.zeros(arr.shape[0])
    alphas[svm.sv_indices] = svm.coefficients * yv[svm.sv_indices]
    if np.any(alphas < 0.0) or np.any(alphas > svm.c):
        raise ValidationError("reconstructed multipliers fall outside [0, C]")
    margins = yv * _decision_values(svm, arr)
    zero_set = alphas == 0.0
    bound_set = alphas == svm.c
    interior = ~zero_set & ~bound_set
    max_zero = float(np.max((1.0 - tol) - margins[zero_set], initial=0.0))
    max_interior = float(np.max(np.abs(margins[interior] - 1.0) - tol, initial=0.0))
    max_bound = float(np.max(margins[bound_set] - (1.0 + tol), initial=0.0))
    dual = float(abs(np.sum(svm.coefficients)))
    satisfied = (
        max_zero <= _KKT_GRACE
        and max_interior <= _KKT_GRACE
        and max_bound <= _KKT_GRACE
        and dual <= 1e-6
    )
    return KktReport(
        max_zero_set_violation=max_zero,
        max_interior_violation=max_interior,
        max_bound_set_violation=max_bound,
        dual_balance_residual=dual,
        satisfied=satisfied,
    )


@dataclass(eq=False)
class PairwiseEntry:
    class_a: str
    class_b: str
    svm: BinarySvm


@dataclass(eq=False)
class SvmModel:
    """One-vs-one multiclass model over standardized features."""

    standardizer: Standardizer
    class_names: tuple[str, ...]
    pairwise: list[PairwiseEntry]
    feature_layout_id: str = ""


def _rows_by_class(arr: np.ndarray, labels, purpose: str) -> dict[str, np.ndarray]:
    """Row indices of each class, keyed by label in sorted order; needs one
    label per row and at least 2 classes."""
    label_list = [str(v) for v in labels]
    if len(label_list) != arr.shape[0]:
        raise ValidationError(
            f"labels must be one per row: {len(label_list)} labels for {arr.shape[0]} rows"
        )
    class_names = sorted(set(label_list))
    if len(class_names) < 2:
        raise ValidationError(f"need at least 2 classes to {purpose}")
    return {
        name: np.asarray([i for i, v in enumerate(label_list) if v == name])
        for name in class_names
    }


def fit_svm_model(
    x,
    labels,
    *,
    kernel_name: str = "rbf",
    c: float = DEFAULT_C,
    gamma: float | None = None,
    feature_layout_id: str = "",
) -> SvmModel:
    """Train one machine per class pair on standardized features.

    Class names are the sorted unique labels; pair (a, b) with a earlier
    in that order takes y = +1 for a.  With kernel_name == "rbf" and no
    explicit gamma, the median heuristic is evaluated once on the full
    standardized training matrix.
    """
    arr = _as_matrix(x)
    rows_by_class = _rows_by_class(arr, labels, "train a classifier")
    class_names = tuple(rows_by_class)
    standardizer = fit_standardizer(arr)
    xs = apply_standardizer(standardizer, arr)
    if kernel_name == "rbf" and gamma is None:
        gamma = median_heuristic_gamma(xs)
    kernel = Kernel(kernel_name, gamma if kernel_name == "rbf" else None)
    full_k = kernel_matrix(kernel, xs, xs)
    pair_names = list(itertools.combinations(class_names, 2))
    width = max(rows_by_class[a].size + rows_by_class[b].size for a, b in pair_names)
    rows = np.zeros((len(pair_names), width), dtype=np.intp)
    y = np.zeros((len(pair_names), width))
    for q, (a, b) in enumerate(pair_names):
        pair_rows = np.concatenate([rows_by_class[a], rows_by_class[b]])
        rows[q, : pair_rows.size] = pair_rows
        y[q, : rows_by_class[a].size] = 1.0
        y[q, rows_by_class[a].size : pair_rows.size] = -1.0
    machines = _train_machines(
        kernel, full_k, xs, rows, y, c, DEFAULT_TOL, DEFAULT_MAX_ITER, pair_names
    )
    pairwise = [PairwiseEntry(a, b, m) for (a, b), m in zip(pair_names, machines)]
    return SvmModel(
        standardizer=standardizer,
        class_names=class_names,
        pairwise=pairwise,
        feature_layout_id=feature_layout_id,
    )


def predict_batch(model: SvmModel, x) -> list[str]:
    """Majority vote over the pairwise machines for each row.

    Vote ties break by the larger sum of |decision value| over the pairs
    each tied class won, then by class order.
    """
    arr = _as_queries(x)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-d query matrix, got shape {arr.shape}")
    with np.errstate(over="ignore"):
        xs = apply_standardizer(model.standardizer, arr)
    n = xs.shape[0]
    k = len(model.class_names)
    index_of = {name: i for i, name in enumerate(model.class_names)}
    votes = np.zeros((n, k), dtype=np.int64)
    strength = np.zeros((n, k))
    for entry in model.pairwise:
        f = _decision_values(entry.svm, xs)
        ai = index_of[entry.class_a]
        bi = index_of[entry.class_b]
        wins_a = f > 0.0
        votes[wins_a, ai] += 1
        votes[~wins_a, bi] += 1
        strength[wins_a, ai] += f[wins_a]
        strength[~wins_a, bi] -= f[~wins_a]
    top = votes.max(axis=1, keepdims=True)
    tied_strength = np.where(votes == top, strength, -1.0)
    winners = np.argmax(tied_strength, axis=1)  # first index wins exact ties
    return [model.class_names[w] for w in winners]


def predict(model: SvmModel, x) -> str:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"expected a single feature vector, got shape {arr.shape}")
    return predict_batch(model, arr[None, :])[0]


@dataclass(eq=False)
class ConfusionMatrix:
    """Row = true class, column = predicted class."""

    class_names: tuple[str, ...]
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        total = self.total
        return float(np.trace(self.counts)) / total if total else 0.0


def evaluate_trials(
    x,
    labels,
    *,
    n_trials: int = 120,
    test_fraction: float = 0.2,
    seed: int = 0,
    kernel_name: str = "rbf",
    c: float = DEFAULT_C,
    gamma: float | None = None,
) -> tuple[float, ConfusionMatrix]:
    """Repeated stratified random split evaluation.

    Trial i uses seed ``master XOR i``; each class contributes
    clamp(round(test_fraction * n_class), 1, n_class - 1) test rows.
    Returns the mean of per-trial accuracies and the confusion matrix
    pooled over all trials.
    """
    arr = _as_matrix(x)
    label_list = [str(v) for v in labels]
    rows_by_class = _rows_by_class(arr, label_list, "evaluate")
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    class_names = tuple(rows_by_class)
    for name, rows in rows_by_class.items():
        if rows.size < 2:
            raise ValidationError(f"class {name!r} has {rows.size} rows; need at least 2")
    index_of = {name: i for i, name in enumerate(class_names)}
    labels_arr = np.asarray(label_list)
    counts = np.zeros((len(class_names), len(class_names)), dtype=np.int64)
    accuracies = np.empty(n_trials)
    for trial in range(n_trials):
        trial_seed = (int(seed) ^ trial) & 0xFFFFFFFFFFFFFFFF
        split_rng = Prng(derive_seed(trial_seed, "split"))
        test_parts = []
        train_parts = []
        for name in class_names:
            idx = rows_by_class[name].copy()
            split_rng.shuffle(idx)
            n_class = idx.size
            n_test = min(max(int(round(test_fraction * n_class)), 1), n_class - 1)
            test_parts.append(idx[:n_test])
            train_parts.append(idx[n_test:])
        test_rows = np.concatenate(test_parts)
        train_rows = np.concatenate(train_parts)
        model = fit_svm_model(
            arr[train_rows],
            labels_arr[train_rows],
            kernel_name=kernel_name,
            c=c,
            gamma=gamma,
        )
        predictions = predict_batch(model, arr[test_rows])
        correct = 0
        for row, pred in zip(test_rows, predictions):
            true_i = index_of[labels_arr[row]]
            counts[true_i, index_of[pred]] += 1
            correct += pred == labels_arr[row]
        accuracies[trial] = correct / test_rows.size
    return float(accuracies.mean()), ConfusionMatrix(class_names=class_names, counts=counts)
