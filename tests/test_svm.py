"""Support-vector classifier tests.

Oracles: the optimality-condition report recomputed from the trained
machine's own decision function, enumeration of the 4-point XOR truth
table, duplicate-training invariance of the decision function, one-hot
datasets with a known perfect answer, chance-level accuracy under label
shuffling, the dual objective of scipy's SLSQP solution of the same
quadratic program, and the one-machine-at-a-time solver loop the batched
trainer replaced, which must agree with it bit for bit.
"""

import itertools
import re
import warnings

import numpy as np
import pytest

from spokesense import svm as svm_mod
from spokesense.errors import (
    DegenerateInputError,
    EmptyInputError,
    LayoutMismatchError,
    ValidationError,
)
from spokesense.features import FeatureConfig, extract_feature_matrix
from spokesense.svm import (
    BinarySvm,
    Kernel,
    apply_standardizer,
    decision_function,
    evaluate_trials,
    fit_standardizer,
    fit_svm_model,
    kernel_matrix,
    kkt_report,
    median_heuristic_gamma,
    predict,
    predict_batch,
    train_binary_svm,
)
from spokesense.synth import UNKNOWN_TERRAIN_NAME, builtin_profiles, generate_dataset


def assert_kkt(svm: BinarySvm, x, y, tol: float = 1e-3) -> None:
    """Every trained machine must pass the optimality-condition audit."""
    report = kkt_report(svm, x, y, tol=tol)
    assert report.satisfied, report
    assert report.dual_balance_residual <= 1e-6
    # multipliers reconstructed inside the report stay in [0, C]; repeat the
    # bound check directly on the stored coefficients as well
    assert np.all(np.abs(svm.coefficients) <= svm.c + 1e-12)
    assert np.all(np.abs(svm.coefficients) > 0.0)


def blob_data(rng: np.random.RandomState, n_per_class: int = 20, spread: float = 0.4):
    """Two 2-d blobs around (2, 2) and (-2, -2); margin comfortably over 1."""
    a = rng.randn(n_per_class, 2) * spread + 2.0
    b = rng.randn(n_per_class, 2) * spread - 2.0
    x = np.vstack([a, b])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return x, y


def binary_training_accuracy(svm: BinarySvm, x, y) -> float:
    values = np.asarray(decision_function(svm, x))
    predictions = np.where(values > 0.0, 1.0, -1.0)
    return float(np.mean(predictions == y))


# ---------------------------------------------------------------- standardizer


def test_standardizer_two_point_column():
    s = fit_standardizer([[0.0], [2.0]])
    assert s.means[0] == 1.0
    assert s.stds[0] == 1.0
    out = apply_standardizer(s, np.array([[0.0], [2.0]]))
    assert out.tolist() == [[-1.0], [1.0]]


def test_standardizer_constant_column_guard():
    s = fit_standardizer([[3.0, 0.0], [3.0, 2.0]])
    assert s.stds.tolist() == [1.0, 1.0]
    out = apply_standardizer(s, np.array([[3.0, 0.0], [3.0, 2.0]]))
    assert out[:, 0].tolist() == [0.0, 0.0]
    assert out[:, 1].tolist() == [-1.0, 1.0]


def test_standardizer_round_trip():
    rng = np.random.RandomState(11)
    for _ in range(10):
        x = rng.randn(40, 7) * rng.uniform(0.1, 50.0, size=7) + rng.uniform(-9, 9, size=7)
        s = fit_standardizer(x)
        back = apply_standardizer(s, x) * s.stds + s.means
        assert np.abs(back - x).max() <= 1e-12 * max(1.0, np.abs(x).max())


def test_standardizer_output_moments():
    rng = np.random.RandomState(12)
    for _ in range(10):
        x = rng.randn(60, 5) * 3.0 + 100.0
        out = apply_standardizer(fit_standardizer(x), x)
        assert np.abs(out.mean(axis=0)).max() <= 1e-9
        assert np.abs(out.std(axis=0) - 1.0).max() <= 1e-9


def test_standardizer_errors():
    with pytest.raises(EmptyInputError):
        fit_standardizer(np.empty((0, 3)))
    s = fit_standardizer([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(LayoutMismatchError):
        apply_standardizer(s, np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------- kernels


def test_kernel_matrix_values():
    lin = kernel_matrix(Kernel("linear"), [[1.0, 2.0]], [[3.0, 4.0]])
    assert lin[0, 0] == 11.0
    rbf = kernel_matrix(Kernel("rbf", 0.5), [[0.0, 0.0]], [[1.0, 1.0]])
    assert abs(rbf[0, 0] - np.exp(-0.5 * 2.0)) <= 1e-15
    same = kernel_matrix(Kernel("rbf", 2.0), [[5.0, -3.0]], [[5.0, -3.0]])
    assert same[0, 0] == 1.0


def test_kernel_validation():
    with pytest.raises(ValidationError):
        Kernel("poly")
    with pytest.raises(ValidationError):
        Kernel("rbf")
    with pytest.raises(ValidationError):
        Kernel("rbf", -1.0)
    with pytest.raises(ValidationError):
        Kernel("linear", 1.0)
    with pytest.raises(LayoutMismatchError):
        kernel_matrix(Kernel("linear"), [[1.0, 2.0]], [[1.0, 2.0, 3.0]])


def test_gamma_heuristic_small_case():
    # one pair at squared distance 1, dimension 2: gamma = 1 / (2 * 1)
    assert median_heuristic_gamma([[0.0, 0.0], [1.0, 0.0]]) == 0.5


def test_gamma_heuristic_scaling():
    rng = np.random.RandomState(5)
    x = rng.randn(50, 4)
    g1 = median_heuristic_gamma(x)
    g2 = median_heuristic_gamma(2.0 * x)
    assert abs(g2 - g1 / 4.0) <= 1e-12 * g1


def test_gamma_heuristic_zero_median_fallback():
    # 4 coincident rows + 1 distinct: median pairwise squared distance is 0,
    # the mean (4 pairs at distance 9 out of 10) takes over
    x = np.array([[0.0]] * 4 + [[3.0]])
    expected = 1.0 / (1 * (4 * 9.0 / 10.0))
    assert abs(median_heuristic_gamma(x) - expected) <= 1e-15


def test_gamma_heuristic_errors():
    with pytest.raises(DegenerateInputError):
        median_heuristic_gamma([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(ValidationError):
        median_heuristic_gamma([[1.0, 2.0]])


# ---------------------------------------------------------------- binary SVM


def test_separable_blobs_perfect_accuracy():
    rng = np.random.RandomState(21)
    for seed in range(3):
        x, y = blob_data(rng)
        svm = train_binary_svm(x, y)
        assert binary_training_accuracy(svm, x, y) == 1.0
        assert svm.converged
        assert_kkt(svm, x, y)


def test_separable_blobs_rbf():
    rng = np.random.RandomState(22)
    x, y = blob_data(rng)
    svm = train_binary_svm(x, y, kernel=Kernel("rbf", 0.5))
    assert binary_training_accuracy(svm, x, y) == 1.0
    assert_kkt(svm, x, y)


def test_xor_truth_table():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([-1.0, 1.0, 1.0, -1.0])
    linear = train_binary_svm(x, y, kernel=Kernel("linear"))
    assert binary_training_accuracy(linear, x, y) <= 0.75
    assert_kkt(linear, x, y)
    rbf = train_binary_svm(x, y, c=10.0, kernel=Kernel("rbf", 1.0))
    assert binary_training_accuracy(rbf, x, y) == 1.0
    assert_kkt(rbf, x, y)


def test_duplicate_training_points_invariance():
    rng = np.random.RandomState(23)
    x, y = blob_data(rng)
    grid = np.stack(
        np.meshgrid(np.linspace(-3, 3, 11), np.linspace(-3, 3, 11)), axis=-1
    ).reshape(-1, 2)
    for kernel in (Kernel("linear"), Kernel("rbf", 0.5)):
        # The optimum's decision function is what duplication leaves unchanged,
        # so both runs must converge well past the asserted 1e-6 agreement;
        # at the default stopping tolerance they only agree to ~1e-3.
        base = train_binary_svm(x, y, kernel=kernel, tol=1e-9)
        doubled = train_binary_svm(
            np.vstack([x, x]), np.concatenate([y, y]), kernel=kernel, tol=1e-9
        )
        f_base = np.asarray(decision_function(base, grid))
        f_doubled = np.asarray(decision_function(doubled, grid))
        assert np.abs(f_base - f_doubled).max() <= 1e-6


def test_superset_keeps_separable_accuracy():
    rng = np.random.RandomState(24)
    x, y = blob_data(rng, n_per_class=15)
    extra_x, extra_y = blob_data(rng, n_per_class=10)
    svm_small = train_binary_svm(x, y)
    assert binary_training_accuracy(svm_small, x, y) == 1.0
    svm_big = train_binary_svm(np.vstack([x, extra_x]), np.concatenate([y, extra_y]))
    assert binary_training_accuracy(svm_big, x, y) == 1.0
    assert_kkt(svm_big, np.vstack([x, extra_x]), np.concatenate([y, extra_y]))


def test_kkt_over_random_fixtures():
    rng = np.random.RandomState(25)
    for trial in range(8):
        n = int(rng.randint(12, 40))
        x = rng.randn(n, 3)
        shift = rng.uniform(0.5, 2.5)
        y = np.where(rng.rand(n) < 0.5, 1.0, -1.0)
        x += y[:, None] * shift  # partly overlapping classes
        kernel = Kernel("linear") if trial % 2 == 0 else Kernel("rbf", 0.7)
        svm = train_binary_svm(x, y, c=5.0, kernel=kernel)
        assert_kkt(svm, x, y)


def oracle_fixtures():
    """(x, y, c, kernel) of the blob, XOR and random KKT fixtures above."""
    x, y = blob_data(np.random.RandomState(21))
    yield x, y, 10.0, Kernel("linear")
    x, y = blob_data(np.random.RandomState(22))
    yield x, y, 10.0, Kernel("rbf", 0.5)
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([-1.0, 1.0, 1.0, -1.0])
    yield x, y, 10.0, Kernel("linear")
    yield x, y, 10.0, Kernel("rbf", 1.0)
    rng = np.random.RandomState(25)
    for trial in range(8):
        n = int(rng.randint(12, 40))
        x = rng.randn(n, 3)
        shift = rng.uniform(0.5, 2.5)
        y = np.where(rng.rand(n) < 0.5, 1.0, -1.0)
        x += y[:, None] * shift
        yield x, y, 5.0, Kernel("linear") if trial % 2 == 0 else Kernel("rbf", 0.7)


def dual_objective(alphas, q) -> float:
    return float(alphas.sum() - 0.5 * alphas @ q @ alphas)


def test_dual_objective_matches_scipy_oracle():
    optimize = pytest.importorskip("scipy.optimize")
    for x, y, c, kernel in oracle_fixtures():
        q = (y[:, None] * y[None, :]) * kernel_matrix(kernel, x, x)
        svm = train_binary_svm(x, y, c=c, kernel=kernel, tol=1e-9)
        assert svm.converged
        alphas = np.zeros(y.size)
        alphas[svm.sv_indices] = svm.coefficients * y[svm.sv_indices]
        oracle = optimize.minimize(
            lambda a: 0.5 * a @ q @ a - a.sum(),
            np.zeros(y.size),
            jac=lambda a: q @ a - 1.0,
            method="SLSQP",
            bounds=[(0.0, c)] * y.size,
            constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
            options={"ftol": 1e-12, "maxiter": 1000},
        )
        assert oracle.success, oracle.message
        expected = -oracle.fun
        assert abs(dual_objective(alphas, q) - expected) <= 1e-6 * abs(expected)


def test_opposite_labelled_duplicates_converge():
    # Each duplicated pair has zero curvature K_ii + K_jj - 2 K_ij along the
    # pair's feasible direction.
    x, y = blob_data(np.random.RandomState(28), n_per_class=10)
    x = np.vstack([x, x[:4], x[-4:]])
    y = np.concatenate([y, -y[:4], -y[-4:]])
    for kernel in (Kernel("linear"), Kernel("rbf", 0.5)):
        svm = train_binary_svm(x, y, c=5.0, kernel=kernel)
        assert svm.converged
        assert_kkt(svm, x, y)


def test_training_validation_errors():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValidationError):
        train_binary_svm(x, [1.0, 1.0])  # single class
    with pytest.raises(ValidationError):
        train_binary_svm(x, [1.0, 0.0])  # labels not in {-1, +1}
    with pytest.raises(ValidationError):
        train_binary_svm(x, [1.0])  # label count mismatch
    with pytest.raises(ValidationError):
        train_binary_svm(x, [1.0, -1.0], c=0.0)
    with pytest.raises(ValidationError):
        train_binary_svm(x, [1.0, -1.0], tol=-1.0)
    with pytest.raises(ValidationError):
        train_binary_svm(np.array([[np.nan, 0.0], [1.0, 1.0]]), [1.0, -1.0])
    with pytest.raises(EmptyInputError):
        train_binary_svm(np.empty((0, 2)), [])


def test_non_convergence_warns_and_reports():
    rng = np.random.RandomState(26)
    x = rng.randn(40, 2)
    y = np.where(rng.rand(40) < 0.5, 1.0, -1.0)  # pure noise labels
    with pytest.warns(RuntimeWarning, match="margin violators"):
        svm = train_binary_svm(x, y, kernel=Kernel("rbf", 1.0), max_iter=1)
    assert not svm.converged


def test_kkt_report_requires_in_process_model():
    rng = np.random.RandomState(27)
    x, y = blob_data(rng, n_per_class=5)
    svm = train_binary_svm(x, y)
    svm.sv_indices = None  # a deserialized machine has no training rows
    with pytest.raises(ValidationError):
        kkt_report(svm, x, y)


# ---------------------------------------------------------------- batched trainer

# The reference: the solver loop that trained one machine at a time, as it
# stood before the machines of a fit were batched.


def _train_machine(
    kernel: Kernel,
    kernel_mat: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float,
    max_iter: int,
) -> BinarySvm:
    """Solve one soft-margin dual and keep the rows with alpha > 0.

    Dual gradient G = Q alpha - 1 with Q_ij = y_i y_j K_ij; v = -y G.  Rows
    that may move up are I_up = {alpha < C, y = +1} | {alpha > 0, y = -1},
    rows that may move down are I_low, the mirror set.  Each step pairs
    i = argmax of v over I_up with the j in I_low minimizing -b^2 / a, where
    b = v_i - v_j > 0 and a = K_ii + K_jj - 2 K_ij (1e-12 when a <= 0), and
    takes the clipped two-variable step; a variable clipped to a bound is
    set to exactly 0 or C.  The solve stops when max v over I_up minus min v
    over I_low is at most 2 tol; the bias is their midpoint, so every row
    meets its margin condition within tol.
    """
    if not np.isfinite(c) or c <= 0:
        raise ValidationError(f"c must be positive, got {c}")
    k_diag = np.diag(kernel_mat)
    positive = y > 0.0
    alphas = np.zeros(y.shape[0])
    grad = -np.ones(y.shape[0])
    converged = False
    for iteration in range(max_iter + 1):
        v = -y * grad
        up = np.where(positive, alphas < c, alphas > 0.0)
        low = np.where(positive, alphas > 0.0, alphas < c)
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = int(np.argmax(v_up))
        v_max = v_up[i]
        v_min = v_low.min()
        if v_max - v_min <= 2.0 * tol:
            converged = True
            break
        if iteration == max_iter:
            break
        gap = v_max - v_low
        curvature = k_diag[i] + k_diag - 2.0 * kernel_mat[i]
        curvature[curvature <= 0.0] = 1e-12
        j = int(np.argmin(np.where(gap > 0.0, -gap * gap / curvature, np.inf)))
        # Move alpha_i by y_i t and alpha_j by -y_j t, which keeps
        # sum(alpha * y) fixed; t stops where either variable meets its box.
        room_i = c - alphas[i] if positive[i] else alphas[i]
        room_j = alphas[j] if positive[j] else c - alphas[j]
        t = min(gap[j] / curvature[j], room_i, room_j)
        old_i = alphas[i]
        old_j = alphas[j]
        if t == room_i:
            alphas[i] = c if positive[i] else 0.0
        else:
            alphas[i] += y[i] * t
        if t == room_j:
            alphas[j] = 0.0 if positive[j] else c
        else:
            alphas[j] -= y[j] * t
        step_i = y[i] * (alphas[i] - old_i)
        step_j = y[j] * (alphas[j] - old_j)
        grad += y * (step_i * kernel_mat[i] + step_j * kernel_mat[j])
    bias = (v_max + v_min) / 2.0
    if not converged:
        remaining = np.count_nonzero((up & (v > bias + tol)) | (low & (v < bias - tol)))
        warnings.warn(
            f"binary svm left {remaining} margin violators after {max_iter} iterations",
            RuntimeWarning,
            stacklevel=3,
        )
    sv = alphas > 0.0
    return BinarySvm(
        kernel=kernel,
        support_vectors=x[sv],
        coefficients=(alphas * y)[sv],
        bias=bias,
        c=c,
        converged=converged,
        sv_indices=np.nonzero(sv)[0],
    )



def assert_same_machine(got: BinarySvm, want: BinarySvm) -> None:
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert got.sv_indices.tobytes() == want.sv_indices.tobytes()
    assert got.support_vectors.tobytes() == want.support_vectors.tobytes()
    assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
    assert got.converged == want.converged


def oracle_machines(x, labels, max_iter: int = svm_mod.DEFAULT_MAX_ITER) -> list[BinarySvm]:
    """fit_svm_model's machines trained one pair after another."""
    xs = apply_standardizer(fit_standardizer(x), x)
    kernel = Kernel("rbf", median_heuristic_gamma(xs))
    full_k = kernel_matrix(kernel, xs, xs)
    label_arr = np.asarray(labels)
    machines = []
    for a, b in itertools.combinations(sorted(set(labels)), 2):
        rows = np.concatenate([np.flatnonzero(label_arr == a), np.flatnonzero(label_arr == b)])
        y = np.where(label_arr[rows] == a, 1.0, -1.0)
        k = full_k[np.ix_(rows, rows)]
        machines.append(
            _train_machine(kernel, k, xs[rows], y, svm_mod.DEFAULT_C, svm_mod.DEFAULT_TOL, max_iter)
        )
    return machines


def assert_fit_matches_oracle(x, labels, model=None) -> None:
    model = fit_svm_model(x, labels) if model is None else model
    oracle = oracle_machines(x, labels)
    pairs = list(itertools.combinations(sorted(set(labels)), 2))
    assert [(e.class_a, e.class_b) for e in model.pairwise] == pairs
    for entry, want in zip(model.pairwise, oracle):
        assert_same_machine(entry.svm, want)


def criterion_06_fixtures():
    """(x, y, c, kernel) of acceptance criterion 6: blobs and XOR."""
    for seed in (0, 1, 2):
        rng = np.random.RandomState(seed)
        x = np.vstack([rng.randn(20, 2) * 0.4 + (2, 2), rng.randn(20, 2) * 0.4 - (2, 2)])
        y = np.array([1.0] * 20 + [-1.0] * 20)
        yield x, y, 10.0, Kernel("linear")
        yield x, y, 10.0, Kernel("rbf", 0.5)
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([-1.0, 1.0, 1.0, -1.0])
    yield x, y, 10.0, Kernel("linear")
    yield x, y, 10.0, Kernel("rbf", 1.0)


def test_batch_of_one_matches_oracle():
    fixtures = itertools.chain(criterion_06_fixtures(), oracle_fixtures())
    for x, y, c, kernel in fixtures:
        for tol in (1e-3, 1e-9):
            got = train_binary_svm(x, y, c=c, kernel=kernel, tol=tol)
            want = _train_machine(kernel, kernel_matrix(kernel, x, x), x, y, c, tol, 100000)
            assert_same_machine(got, want)


def test_batched_fit_matches_oracle_on_criterion_01_trials(monkeypatch):
    known = [p for p in builtin_profiles() if p.name != UNKNOWN_TERRAIN_NAME]
    matrix, labels, _ = extract_feature_matrix(
        generate_dataset(known, 80, seed=42), FeatureConfig()
    )
    fits = []
    real_fit = svm_mod.fit_svm_model

    def recording_fit(x, fit_labels, **kwargs):
        model = real_fit(x, fit_labels, **kwargs)
        fits.append((x, [str(v) for v in fit_labels], model))
        return model

    monkeypatch.setattr(svm_mod, "fit_svm_model", recording_fit)
    evaluate_trials(matrix, labels, n_trials=12, seed=42)
    assert len(fits) == 12
    for x, fit_labels, model in fits:
        assert_fit_matches_oracle(x, fit_labels, model)


def test_batched_fit_matches_oracle_on_unequal_classes():
    # Pairs of 5 + 3 rows up to 14 + 9 rows: every shorter pair is padded.
    rng = np.random.RandomState(44)
    centers = {"a": (2.0, 0.0), "b": (-2.0, 0.0), "c": (0.0, 2.0), "d": (0.0, -1.0)}
    sizes = {"a": 5, "b": 9, "c": 14, "d": 3}
    x = np.vstack([rng.randn(sizes[k], 2) * 0.9 + v for k, v in centers.items()])
    labels = [k for k in centers for _ in range(sizes[k])]
    assert_fit_matches_oracle(x, labels)


def test_batched_fit_matches_oracle_with_one_row_class():
    rng = np.random.RandomState(45)
    x = np.vstack([rng.randn(1, 3) + 1.0, rng.randn(80, 3), rng.randn(80, 3) - 1.0])
    labels = ["lone"] + ["many"] * 80 + ["more"] * 80
    assert_fit_matches_oracle(x, labels)


def capped_fixture():
    """Four overlapping classes on which 5 iterations leave some pairs open."""
    rng = np.random.RandomState(38)
    centers = {"gravel": (4.0, 0.0), "mud": (-4.0, 0.0), "turf": (0.0, 4.0), "sand": (0.0, 3.0)}
    x = np.vstack([rng.randn(12, 2) * 0.8 + c for c in centers.values()])
    labels = [name for name in centers for _ in range(12)]
    return x, labels


def test_batched_fit_matches_oracle_when_capped(monkeypatch):
    x, labels = capped_fixture()
    monkeypatch.setattr(svm_mod, "DEFAULT_MAX_ITER", 5)
    with pytest.warns(RuntimeWarning, match="margin violators"):
        model = fit_svm_model(x, labels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        oracle = oracle_machines(x, labels, max_iter=5)
    converged = [e.svm.converged for e in model.pairwise]
    assert any(converged) and not all(converged)
    for entry, want in zip(model.pairwise, oracle):
        assert_same_machine(entry.svm, want)


def test_unconverged_fit_warning_names_the_pair(monkeypatch):
    x, labels = capped_fixture()
    monkeypatch.setattr(svm_mod, "DEFAULT_MAX_ITER", 5)
    with pytest.warns(RuntimeWarning, match="margin violators") as record:
        model = fit_svm_model(x, labels)
    pattern = r"binary svm for '(\w+)' vs '(\w+)' left \d+ margin violators after 5 iterations"
    named = [re.fullmatch(pattern, str(w.message)).groups() for w in record]
    assert named == [(e.class_a, e.class_b) for e in model.pairwise if not e.svm.converged]


# ---------------------------------------------------------------- multiclass


def multiclass_blobs(rng: np.random.RandomState, centers, n_per_class=12, spread=0.3):
    rows = []
    labels = []
    for name, center in centers.items():
        rows.append(rng.randn(n_per_class, len(center)) * spread + np.asarray(center))
        labels.extend([name] * n_per_class)
    return np.vstack(rows), labels


THREE_CENTERS = {"gravel": (4.0, 0.0), "mud": (-4.0, 0.0), "turf": (0.0, 4.0)}


def test_pairwise_model_structure():
    rng = np.random.RandomState(31)
    x, labels = multiclass_blobs(rng, THREE_CENTERS)
    model = fit_svm_model(x, labels, feature_layout_id="layout-x")
    assert model.class_names == ("gravel", "mud", "turf")
    assert len(model.pairwise) == 3  # k(k-1)/2
    assert model.feature_layout_id == "layout-x"
    pairs = {(e.class_a, e.class_b) for e in model.pairwise}
    assert pairs == {("gravel", "mud"), ("gravel", "turf"), ("mud", "turf")}
    for entry in model.pairwise:
        assert entry.class_a < entry.class_b


def test_training_points_predicted_correctly():
    rng = np.random.RandomState(32)
    x, labels = multiclass_blobs(rng, THREE_CENTERS)
    model = fit_svm_model(x, labels)
    assert predict_batch(model, x) == labels
    # scalar and batch entry points agree, and repeat calls are deterministic
    assert predict(model, x[0]) == labels[0]
    assert predict(model, x[0]) == predict(model, x[0])


def test_two_class_vote_equals_decision_sign():
    rng = np.random.RandomState(33)
    x, labels = multiclass_blobs(rng, {"hard": (3.0, 3.0), "soft": (-3.0, -3.0)})
    model = fit_svm_model(x, labels)
    assert len(model.pairwise) == 1
    entry = model.pairwise[0]
    queries = rng.randn(40, 2) * 3.0
    standardized = apply_standardizer(model.standardizer, queries)
    values = np.asarray(decision_function(entry.svm, standardized))
    for value, predicted in zip(values, predict_batch(model, queries)):
        expected = entry.class_a if value > 0.0 else entry.class_b
        assert predicted == expected


def test_feature_permutation_invariance():
    rng = np.random.RandomState(34)
    centers = {"a": (3.0, 0.0, -2.0, 1.0), "b": (-3.0, 1.0, 2.0, -1.0), "c": (0.0, -3.0, 0.0, 3.0)}
    x, labels = multiclass_blobs(rng, centers, n_per_class=10)
    queries = np.vstack([x, rng.randn(20, 4) * 2.0])
    perm = np.array([2, 0, 3, 1])
    model = fit_svm_model(x, labels)
    model_perm = fit_svm_model(x[:, perm], labels)
    assert predict_batch(model, queries) == predict_batch(model_perm, queries[:, perm])


def test_predict_layout_mismatch():
    rng = np.random.RandomState(35)
    x, labels = multiclass_blobs(rng, THREE_CENTERS)
    model = fit_svm_model(x, labels)
    with pytest.raises(LayoutMismatchError):
        predict(model, np.array([1.0, 2.0, 3.0]))


def test_nonfinite_queries_rejected():
    # A NaN row would compare False against every decision threshold and be
    # voted into the second class of every pair.
    rng = np.random.RandomState(37)
    x, labels = multiclass_blobs(rng, {"a": (3.0, 0.0), "b": (-3.0, 0.0)}, n_per_class=6)
    model = fit_svm_model(x, labels)
    machine = model.pairwise[0].svm
    for bad in (np.nan, np.inf, -np.inf):
        queries = np.array([[0.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValidationError, match="non-finite"):
            predict_batch(model, queries)
        with pytest.raises(ValidationError, match="non-finite"):
            predict(model, queries[1])
        with pytest.raises(ValidationError, match="non-finite"):
            decision_function(machine, queries)
        with pytest.raises(ValidationError, match="non-finite"):
            decision_function(machine, queries[1])
    assert predict_batch(model, x) == labels


def test_overflowing_queries_rejected():
    # Finite queries whose standardized values or kernel squares overflow
    # give NaN decision values, which no vote may count.
    rng = np.random.RandomState(37)
    x, labels = multiclass_blobs(rng, {"a": (3.0, 0.0), "b": (-3.0, 0.0)}, n_per_class=6)
    crafted = fit_svm_model(x, labels)
    crafted.standardizer.stds = np.array([5e-324, 1.0])
    queries = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError, match="non-finite"):
        predict_batch(crafted, queries)
    with pytest.raises(ValidationError, match="non-finite"):
        predict(crafted, queries[0])
    # Spread above the standardizer's 1e-12 guard, so 1e300 standardizes to
    # +-inf; at 1e-13 the guard keeps std 1 and the kernel only underflows.
    tiny = fit_svm_model(x * 1e-11, labels)
    with pytest.raises(ValidationError, match="non-finite"):
        predict_batch(tiny, np.array([[1e300, 1.0], [-1e300, 1.0]]))
    machine = tiny.pairwise[0].svm
    with pytest.raises(ValidationError, match="non-finite"):
        decision_function(machine, np.array([[np.finfo(float).max, 0.0]]))


def test_far_query_gets_the_bias():
    # 1e200 squared overflows, so every RBF kernel value underflows to 0 and
    # the decision value is the bias: a defined result, not an overflow.
    rng = np.random.RandomState(37)
    x, labels = multiclass_blobs(rng, {"a": (3.0, 0.0), "b": (-3.0, 0.0)}, n_per_class=6)
    model = fit_svm_model(x, labels)
    machine = model.pairwise[0].svm
    query = np.array([1e200, 1.0])
    assert decision_function(machine, apply_standardizer(model.standardizer, query)) == machine.bias
    expected = "a" if machine.bias > 0.0 else "b"
    assert predict(model, query) == expected
    assert predict_batch(model, np.vstack([query, -query])) == [expected, expected]


def test_fit_model_validation():
    with pytest.raises(ValidationError):
        fit_svm_model([[0.0], [1.0]], ["only", "only"])
    with pytest.raises(ValidationError):
        fit_svm_model([[0.0], [1.0]], ["a"])


def test_fit_model_rejects_bad_solver_settings():
    rng = np.random.RandomState(36)
    x, labels = multiclass_blobs(rng, THREE_CENTERS, n_per_class=4)
    with pytest.raises(ValidationError):
        fit_svm_model(x, labels, c=0.0)


# ---------------------------------------------------------------- evaluation


def test_one_hot_dataset_perfect():
    onehot = np.eye(5)
    x = np.repeat(onehot, 10, axis=0)
    labels = [f"class{i}" for i in range(5) for _ in range(10)]
    accuracy, confusion = evaluate_trials(x, labels, n_trials=10, seed=3)
    assert accuracy == 1.0
    assert np.all(confusion.counts == np.diag(np.diag(confusion.counts)))
    # 10 rows per class, test fraction 0.2: 2 test rows per class per trial
    assert confusion.counts.diagonal().tolist() == [20, 20, 20, 20, 20]
    assert confusion.accuracy == 1.0
    assert confusion.total == 100


def test_confusion_row_sums_match_test_counts():
    rng = np.random.RandomState(41)
    x, labels = multiclass_blobs(rng, THREE_CENTERS, n_per_class=10)
    # unequal class sizes: drop rows from the tail classes
    keep = list(range(10)) + list(range(10, 17)) + list(range(20, 25))
    x = x[keep]
    labels = [labels[i] for i in keep]
    n_trials = 15
    _, confusion = evaluate_trials(
        x, labels, n_trials=n_trials, test_fraction=0.3, seed=4
    )
    # class sizes 10, 7, 5 at fraction 0.3 give 3, 2, 2 test rows per trial
    assert confusion.counts.sum(axis=1).tolist() == [3 * n_trials, 2 * n_trials, 2 * n_trials]


def test_evaluate_deterministic():
    rng = np.random.RandomState(42)
    x, labels = multiclass_blobs(rng, THREE_CENTERS, n_per_class=8)
    first = evaluate_trials(x, labels, n_trials=6, seed=77)
    second = evaluate_trials(x, labels, n_trials=6, seed=77)
    assert first[0] == second[0]
    assert np.array_equal(first[1].counts, second[1].counts)
    assert first[1].class_names == second[1].class_names


def test_shuffled_labels_chance_level():
    rng = np.random.RandomState(43)
    n_per_class = 12
    x = rng.randn(5 * n_per_class, 2)
    labels = [f"t{i}" for i in range(5) for _ in range(n_per_class)]
    rng.shuffle(labels)  # labels now carry no information about the features
    accuracy, confusion = evaluate_trials(x, labels, n_trials=120, seed=5)
    assert abs(accuracy - 0.2) <= 0.05
    assert confusion.total == 120 * 5 * 2  # 2 test rows per class per trial


def test_evaluate_validation_errors():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    with pytest.raises(ValidationError, match="lonely"):
        evaluate_trials(x, ["a", "a", "a", "lonely"], n_trials=2)
    with pytest.raises(ValidationError):
        evaluate_trials(x, ["a", "a", "b", "b"], n_trials=0)
    with pytest.raises(ValidationError):
        evaluate_trials(x, ["a", "a", "b", "b"], test_fraction=1.0)
    with pytest.raises(ValidationError):
        evaluate_trials(x, ["a", "a", "a", "a"])
