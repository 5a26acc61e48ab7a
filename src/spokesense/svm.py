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
binary machine is a batch of one.  Selection and the gradient update are
array operations; each machine's clipped step is a few scalars, computed in
Python floats: the same IEEE arithmetic without a numpy call per operation,
at a cost per running machine, which pays while few run (10 for 5 classes).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    LayoutMismatchError,
    ValidationError,
    _count,
    _finite_array,
    _positive,
    _seed,
)
from .rng import Prng, derive_seed

KERNEL_NAMES = ("linear", "rbf")
DEFAULT_KERNEL = "rbf"
DEFAULT_C = 10.0
DEFAULT_TRIALS = 120
DEFAULT_TEST_FRACTION = 0.2
DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 100000

# Grace added on top of the training tolerance when re-verifying optimality
# conditions from recomputed margins; absorbs kernel recomputation rounding.
_KKT_GRACE = 1e-9


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
    arr = _finite_array(x, "features", (None, None))
    means = arr.mean(axis=0)
    stds = arr.std(axis=0)
    return Standardizer(means=means, stds=np.where(stds < 1e-12, 1.0, stds))


def apply_standardizer(standardizer: Standardizer, x) -> np.ndarray:
    arr = _finite_array(x, "features", None, min_len=0)
    if arr.ndim not in (1, 2) or arr.shape[-1] != standardizer.n_features:
        raise LayoutMismatchError(
            f"expected {standardizer.n_features} feature columns, got shape {arr.shape}"
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
            object.__setattr__(self, "gamma", _positive(self.gamma, "rbf kernel gamma"))
        elif self.gamma is not None:
            raise ValidationError("linear kernel takes no gamma")


def kernel_matrix(kernel: Kernel, a, b) -> np.ndarray:
    """Gram matrix K[i, j] = k(a_i, b_j)."""
    av = np.atleast_2d(_finite_array(a, "kernel operand", None, min_len=0))
    bv = np.atleast_2d(_finite_array(b, "kernel operand", None, min_len=0))
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[1]:
        raise LayoutMismatchError(f"kernel operands disagree: shapes {av.shape} and {bv.shape}")
    if kernel.name == "linear":
        return av @ bv.T
    return np.exp(-kernel.gamma * _squared_distances(av, bv))


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_j|^2 as |a_i|^2 + |b_j|^2 - 2 a_i.b_j, clamped at 0."""
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0, out=sq)


def median_heuristic_gamma(x) -> float:
    """1 / (d * median pairwise squared distance) on an evenly strided subset.

    At most 256 rows enter the median.  Falls back to the mean squared
    distance when the median is zero; raises when every sampled pair
    coincides.
    """
    arr = _finite_array(x, "features", (None, None))
    m, d = arr.shape
    _count(m, "rows for the gamma heuristic", 2)
    step = -(-m // 256)  # ceil
    sub = arr[::step]
    pairs = _squared_distances(sub, sub)[np.triu_indices(sub.shape[0], k=1)]
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
    arr = _finite_array(x, "queries", None, min_len=0)
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
    i = argmax of v over I_up with the j in I_low maximizing b^2 / a, where
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
    a zero.  Each iteration selects i and j and updates G for every running
    machine at once, row by row of the block arrays, which are compacted
    only when a machine stops; the clipped step between them runs machine by
    machine in Python floats.  Kernel rows are gathered from ``full_k`` as
    needed, so no per-pair kernel block is copied.
    """
    c = _positive(c, "c")
    machines: list[BinarySvm | None] = [None] * y.shape[0]
    active = np.arange(y.shape[0])  # batch index of each block row
    at = np.arange(y.shape[0])
    k_diag = full_k[rows, rows]
    neg_y = -y
    upper = np.select([y > 0.0, y < 0.0], [c, 0.0], -np.inf)
    lower = np.select([y > 0.0, y < 0.0], [0.0, -c], np.inf)
    signed = np.zeros(y.shape)
    grad = -np.ones(y.shape)
    for iteration in range(max_iter + 1):
        v = neg_y * grad
        v_up = np.where(signed < upper, v, -np.inf)
        v_low = np.where(signed > lower, v, np.inf)
        i = v_up.argmax(axis=1)
        v_max = v_up[at, i]
        v_min = v_low.min(axis=1)
        converged = v_max - v_min <= 2.0 * tol
        if converged.any() or iteration == max_iter:
            stop = converged | (iteration == max_iter)
            for q in np.flatnonzero(stop):
                bias = (v_max[q] + v_min[q]) / 2.0
                if not converged[q]:
                    remaining = np.count_nonzero((v_up[q] > bias + tol) | (v_low[q] < bias - tol))
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
            active, rows, k_diag, y, neg_y, upper, lower, signed, grad = (
                a[keep] for a in (active, rows, k_diag, y, neg_y, upper, lower, signed, grad)
            )
            v_low, i, v_max = v_low[keep], i[keep], v_max[keep]
            at = at[: active.size]
        k_i = full_k[rows[at, i][:, None], rows]
        gap = v_max[:, None] - v_low
        curvature = k_diag[at, i][:, None] + k_diag - 2.0 * k_i
        curvature[curvature <= 0.0] = 1e-12
        j = np.where(gap > 0.0, gap * gap / curvature, -np.inf).argmax(axis=1)
        # Move s_i up by t and s_j down by t, which keeps sum(s) fixed; t
        # stops where either variable meets its box.
        steps = []
        for q, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
            old_i, old_j = signed.item(q, a), signed.item(q, b)
            room_i = upper.item(q, a) - old_i
            room_j = old_j - lower.item(q, b)
            t = min(gap.item(q, b) / curvature.item(q, b), room_i, room_j)
            signed[q, a] = new_i = upper.item(q, a) if t == room_i else old_i + t
            signed[q, b] = new_j = lower.item(q, b) if t == room_j else old_j - t
            steps.append((new_i - old_i, new_j - old_j))
        step = np.array(steps)
        grad += y * (step[:, :1] * k_i + step[:, 1:] * full_k[rows[at, j][:, None], rows])
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
    tol = _positive(tol, "tol")
    max_iter = _count(max_iter, "max_iter", 0)
    arr = _finite_array(x, "features", (None, None))
    yv = _finite_array(y, "labels", arr.shape[:1])
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
    arr = _finite_array(x, "features", (None, None))
    yv = _finite_array(y, "labels", arr.shape[:1])
    # The stored support vectors are exactly these rows of the training set.
    if svm.sv_indices.size and (
        svm.sv_indices[-1] >= arr.shape[0]
        or arr[svm.sv_indices].tobytes() != svm.support_vectors.tobytes()
    ):
        raise ValidationError("kkt_report needs the machine's training rows, bit for bit")
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


def _class_index(arr: np.ndarray, labels, purpose: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted class names and each row's index into them; needs one
    label per row and at least 2 classes."""
    try:
        label_list = [str(v) for v in labels]
    except TypeError:
        raise ValidationError(f"labels must be a sequence, got {labels!r}") from None
    if len(label_list) != arr.shape[0]:
        raise ValidationError(
            f"labels must be one per row: {len(label_list)} labels for {arr.shape[0]} rows"
        )
    class_names = sorted(set(label_list))
    if len(class_names) < 2:
        raise ValidationError(f"need at least 2 classes to {purpose}")
    index_of = {name: i for i, name in enumerate(class_names)}
    class_of = np.array([index_of[v] for v in label_list], dtype=np.intp)
    return tuple(class_names), class_of


def fit_svm_model(
    x,
    labels,
    *,
    kernel_name: str = DEFAULT_KERNEL,
    c: float = DEFAULT_C,
    gamma: float | None = None,
    feature_layout_id: str = "",
) -> SvmModel:
    """Train one machine per class pair on standardized features.

    Class names are the sorted unique labels; pair (a, b) with a earlier
    in that order takes y = +1 for a.  With kernel_name == "rbf" and no
    explicit gamma, the median heuristic is evaluated once on the full
    standardized training matrix; the linear kernel takes no gamma.
    """
    arr = _finite_array(x, "features", (None, None))
    class_names, class_of = _class_index(arr, labels, "train a classifier")
    rows_by_class = {name: np.flatnonzero(class_of == i) for i, name in enumerate(class_names)}
    standardizer = fit_standardizer(arr)
    xs = apply_standardizer(standardizer, arr)
    if kernel_name == "rbf" and gamma is None:
        gamma = median_heuristic_gamma(xs)
    kernel = Kernel(kernel_name, gamma)
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
    arr = _finite_array(x, "queries", (None, None), min_len=0)
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
    return predict_batch(model, _finite_array(x, "query", (None,))[None, :])[0]


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
    n_trials: int = DEFAULT_TRIALS,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    seed: int = 0,
    kernel_name: str = DEFAULT_KERNEL,
    c: float = DEFAULT_C,
    gamma: float | None = None,
) -> tuple[float, ConfusionMatrix]:
    """Repeated stratified random split evaluation.

    Trial i uses seed ``master XOR i``; each class contributes
    clamp(round(test_fraction * n_class), 1, n_class - 1) test rows.
    Returns the mean of per-trial accuracies and the confusion matrix
    pooled over all trials.
    """
    arr = _finite_array(x, "features", (None, None))
    class_names, class_of = _class_index(arr, labels, "evaluate")
    n_trials = _count(n_trials, "n_trials", 1)
    test_fraction = _positive(test_fraction, "test_fraction")
    if test_fraction >= 1.0:
        raise ValidationError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    seed = _seed(seed)
    names = np.asarray(class_names, dtype=object)
    class_rows = [np.flatnonzero(class_of == i) for i in range(len(class_names))]
    for name, rows in zip(class_names, class_rows):
        if rows.size < 2:
            raise ValidationError(f"class {name!r} has {rows.size} rows; need at least 2")
    counts = np.zeros((len(class_names), len(class_names)), dtype=np.int64)
    accuracies = np.empty(n_trials)
    for trial in range(n_trials):
        split_rng = Prng(derive_seed(seed ^ trial, "split"))
        test_parts = []
        train_parts = []
        for rows in class_rows:
            idx = rows.copy()
            split_rng.shuffle(idx)
            n_class = idx.size
            n_test = min(max(int(round(test_fraction * n_class)), 1), n_class - 1)
            test_parts.append(idx[:n_test])
            train_parts.append(idx[n_test:])
        test_rows = np.concatenate(test_parts)
        train_rows = np.concatenate(train_parts)
        model = fit_svm_model(
            arr[train_rows],
            names[class_of[train_rows]],
            kernel_name=kernel_name,
            c=c,
            gamma=gamma,
        )
        predictions = np.asarray(predict_batch(model, arr[test_rows]), dtype=object)
        # Every class keeps a training row, so the model's classes are class_names.
        predicted = np.searchsorted(names, predictions)
        truth = class_of[test_rows]
        np.add.at(counts, (truth, predicted), 1)
        accuracies[trial] = np.count_nonzero(truth == predicted) / test_rows.size
    return float(accuracies.mean()), ConfusionMatrix(class_names=class_names, counts=counts)
