"""Distance metrics, terrain library, and unknown-ranking tests.

Oracles: a dense explicit-inverse recomputation for the covariance-weighted
distance, factor reconstruction for the factorization, direct arithmetic
for library means and pooled covariance, and hand-built anisotropic
geometry with a known ranking disagreement.
"""

import math

import numpy as np
import pytest

from spokesense.errors import (
    EmptyInputError,
    LayoutMismatchError,
    NotPositiveDefiniteError,
    ValidationError,
)
from spokesense.features import FeatureConfig, extract_feature_matrix
from spokesense.similarity import (
    DistanceReport,
    build_library,
    cholesky_spd,
    euclidean_distance,
    mahalanobis_distance,
    rank_unknown,
)
from spokesense.svm import apply_standardizer
from spokesense.synth import (
    UNKNOWN_TERRAIN_NAME,
    builtin_profile,
    builtin_profiles,
    generate_dataset,
    mix_profiles,
)


def random_spd(rng: np.random.RandomState, d: int) -> np.ndarray:
    g = rng.randn(d, d)
    return g @ g.T + 0.5 * np.eye(d)


# ---------------------------------------------------------------- euclidean


def test_euclidean_examples():
    assert euclidean_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert abs(euclidean_distance([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]) - math.sqrt(3.0)) <= 1e-15


def test_euclidean_metric_axioms():
    rng = np.random.RandomState(50)
    for _ in range(200):
        d = int(rng.randint(1, 12))
        x, y, z = rng.randn(3, d) * rng.uniform(0.1, 10.0)
        assert euclidean_distance(x, y) == euclidean_distance(y, x)
        assert euclidean_distance(x, x) == 0.0
        assert euclidean_distance(x, y) >= 0.0
        assert euclidean_distance(x, z) <= (
            euclidean_distance(x, y) + euclidean_distance(y, z) + 1e-12
        )


def test_euclidean_errors():
    with pytest.raises(LayoutMismatchError):
        euclidean_distance([1.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        euclidean_distance([[1.0]], [[1.0]])
    with pytest.raises(ValidationError):
        euclidean_distance([np.nan], [0.0])
    with pytest.raises(EmptyInputError):
        euclidean_distance([], [])


# ---------------------------------------------------------------- cholesky


def test_cholesky_reconstructs():
    rng = np.random.RandomState(51)
    for _ in range(20):
        d = int(rng.randint(1, 31))
        a = random_spd(rng, d)
        lower = cholesky_spd(a)
        assert np.allclose(np.triu(lower, k=1), 0.0)
        scale = np.abs(a).max()
        assert np.abs(lower @ lower.T - a).max() <= 1e-12 * scale


def test_cholesky_names_failing_minor():
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky_spd(np.diag([1.0, 1.0, -1.0]))
    assert info.value.minor_index == 3
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky_spd(np.array([[-2.0]]))
    assert info.value.minor_index == 1
    # positive diagonal but indefinite: fails once the off-diagonal bites
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert info.value.minor_index == 2


def test_cholesky_validation():
    with pytest.raises(ValidationError):
        cholesky_spd(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        cholesky_spd(np.array([[np.inf]]))


# ---------------------------------------------------------------- mahalanobis


def test_mahalanobis_identity_covariance_is_euclidean():
    rng = np.random.RandomState(52)
    for _ in range(50):
        d = int(rng.randint(1, 10))
        x, y = rng.randn(2, d) * 5.0
        m = mahalanobis_distance(x, y, np.eye(d))
        e = euclidean_distance(x, y)
        assert abs(m - e) <= 1e-12 * max(1.0, e)


def test_mahalanobis_diagonal_example():
    # difference (2, 0) against diag(4, 1): 2 / sqrt(4) = 1
    assert abs(mahalanobis_distance([2.0, 5.0], [0.0, 5.0], np.diag([4.0, 1.0])) - 1.0) <= 1e-15


def test_mahalanobis_against_explicit_inverse():
    rng = np.random.RandomState(53)
    for _ in range(25):
        d = int(rng.randint(2, 31))
        s = random_spd(rng, d)
        x, y = rng.randn(2, d) * 3.0
        diff = x - y
        oracle = math.sqrt(diff @ np.linalg.inv(s) @ diff)
        mine = mahalanobis_distance(x, y, s)
        assert abs(mine - oracle) <= 1e-9 * max(1.0, oracle)


def test_mahalanobis_linear_map_invariance():
    rng = np.random.RandomState(54)
    for _ in range(20):
        d = int(rng.randint(2, 8))
        s = random_spd(rng, d)
        # well-conditioned invertible map: orthogonal bases, singular values in [0.5, 2]
        q1, _ = np.linalg.qr(rng.randn(d, d))
        q2, _ = np.linalg.qr(rng.randn(d, d))
        a = q1 @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ q2
        x, y = rng.randn(2, d)
        base = mahalanobis_distance(x, y, s)
        mapped = mahalanobis_distance(a @ x, a @ y, a @ s @ a.T)
        assert abs(mapped - base) <= 1e-8 * max(1.0, base)


def test_mahalanobis_regularization_monotonic():
    rng = np.random.RandomState(55)
    for _ in range(30):
        d = int(rng.randint(2, 10))
        s = random_spd(rng, d)
        x, y = rng.randn(2, d) * 2.0
        epsilons = np.sort(rng.uniform(0.0, 5.0, size=4))
        values = [mahalanobis_distance(x, y, s + e * np.eye(d)) for e in epsilons]
        for smaller, larger in zip(values[1:], values[:-1]):
            assert smaller <= larger + 1e-12


def test_mahalanobis_errors():
    with pytest.raises(LayoutMismatchError):
        mahalanobis_distance([1.0, 2.0], [1.0], np.eye(2))
    with pytest.raises(LayoutMismatchError):
        mahalanobis_distance([1.0, 2.0], [0.0, 0.0], np.eye(3))
    with pytest.raises(ValidationError):
        mahalanobis_distance([1.0, 2.0], [0.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        mahalanobis_distance([1.0, 2.0], [0.0, 0.0], np.diag([1.0, -1.0]))
    with pytest.raises(EmptyInputError):
        mahalanobis_distance([], [], np.zeros((0, 0)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="non-finite"):
            mahalanobis_distance([1.0, bad], [0.0, 0.0], np.eye(2))
        with pytest.raises(ValidationError, match="non-finite"):
            mahalanobis_distance([1.0, 2.0], [0.0, 0.0], np.diag([1.0, bad]))


# ---------------------------------------------------------------- library


def test_library_means_match_arithmetic():
    a = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
    b = np.array([[10.0, 0.0], [14.0, 2.0]])
    library = build_library({"a": a, "b": b})
    # the arithmetic class means, mapped into standardized space
    pooled = np.vstack([a, b])
    mean, std = pooled.mean(axis=0), pooled.std(axis=0)
    assert library.class_names == ("a", "b")
    assert np.abs(library.class_means[0] - ([2.0, 2.0] - mean) / std).max() <= 1e-12
    assert np.abs(library.class_means[1] - ([12.0, 1.0] - mean) / std).max() <= 1e-12


def test_library_pooled_covariance_oracle():
    rng = np.random.RandomState(56)
    groups = {
        "one": rng.randn(7, 4) * 2.0 + 5.0,
        "two": rng.randn(5, 4) * 0.5 - 3.0,
        "three": rng.randn(9, 4) * 1.5,
    }
    library = build_library(groups)
    # independent recomputation in standardized space
    pooled_raw = np.vstack(list(groups.values()))
    mean_all = pooled_raw.mean(axis=0)
    std_all = pooled_raw.std(axis=0)
    total = pooled_raw.shape[0]
    scatter = np.zeros((4, 4))
    for index, mat in enumerate(groups.values()):
        std_mat = (mat - mean_all) / std_all
        mu = std_mat.mean(axis=0)
        assert np.abs(library.class_means[index] - mu).max() <= 1e-12
        for row in std_mat:
            dev = row - mu
            scatter += np.outer(dev, dev)
    expected = scatter / total
    assert np.abs(library.pooled_covariance - expected).max() <= 1e-12
    expected_eps = 1e-6 * np.trace(expected) / 4
    assert abs(library.epsilon - expected_eps) <= 1e-15
    assert np.abs(
        library.regularized_covariance - (library.pooled_covariance + library.epsilon * np.eye(4))
    ).max() == 0.0


def test_library_symmetry_and_positive_definiteness():
    rng = np.random.RandomState(57)
    groups = {f"c{i}": rng.randn(6, 5) for i in range(3)}
    library = build_library(groups)
    cov = library.pooled_covariance
    assert np.abs(cov - cov.T).max() <= 1e-12
    # the cached factor reconstructs the regularized covariance
    factor = library.cholesky_factor
    assert np.abs(factor @ factor.T - library.regularized_covariance).max() <= 1e-12


def test_library_identical_windows_epsilon_floor():
    windows = np.tile([3.0, -1.0], (4, 1))
    with pytest.warns(RuntimeWarning, match="zero trace"):
        library = build_library({"only": windows})
    # constant columns keep std 1, so the class mean [3, -1] centers onto 0
    assert np.abs(library.standardizer.means - [3.0, -1.0]).max() == 0.0
    assert np.abs(library.class_means[0] - [0.0, 0.0]).max() == 0.0
    assert np.abs(library.pooled_covariance).max() == 0.0
    assert library.epsilon == 1e-12


def test_library_deterministic():
    rng = np.random.RandomState(58)
    groups = {"x": rng.randn(5, 3), "y": rng.randn(6, 3)}
    first = build_library(groups)
    second = build_library(groups)
    assert first.class_names == second.class_names
    assert np.array_equal(first.class_means, second.class_means)
    assert np.array_equal(first.pooled_covariance, second.pooled_covariance)
    assert np.array_equal(first.regularized_covariance, second.regularized_covariance)
    assert np.array_equal(first.cholesky_factor, second.cholesky_factor)
    assert first.epsilon == second.epsilon


def test_library_names_classes_by_str_of_key():
    # each class was once looked up by its str(key), so an int key raised KeyError
    rng = np.random.RandomState(61)
    library = build_library({1: rng.randn(4, 3), 2: rng.randn(4, 3) + 1.0})
    assert library.class_names == ("1", "2")


def test_library_validation_errors():
    with pytest.raises(EmptyInputError):
        build_library({})
    with pytest.raises(ValidationError):
        build_library({"a": np.zeros((1, 3)), "b": np.ones((2, 3))})
    with pytest.raises(LayoutMismatchError):
        build_library({"a": np.zeros((2, 3)), "b": np.ones((2, 4))})
    with pytest.raises(ValidationError):
        build_library({"a": np.full((2, 3), np.nan)})
    # a zero scale once fell back to the zero-trace floor and its warning
    for scale in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="epsilon_scale"):
            build_library({"a": np.eye(3)[:2], "b": np.eye(3)[1:]}, epsilon_scale=scale)


# ---------------------------------------------------------------- ranking


def test_rank_copy_of_class_mean():
    rng = np.random.RandomState(59)
    groups = {"near": rng.randn(6, 3) + 4.0, "far": rng.randn(6, 3) - 4.0}
    library = build_library(groups)
    # the raw class mean standardizes onto the stored standardized mean
    unknown = groups["near"].mean(axis=0)
    report = rank_unknown(unknown, library)
    index = report.class_names.index("near")
    assert report.euclidean[index] <= 1e-12
    assert report.mahalanobis[index] <= 1e-9
    assert report.nearest_euclidean == "near"
    assert report.nearest_mahalanobis == "near"
    assert not report.metric_divergence
    assert report.ranked("euclidean")[0] == "near"
    assert report.ranked("mahalanobis")[0] == "near"


def test_rank_reports_all_classes_and_axioms():
    rng = np.random.RandomState(60)
    groups = {f"t{i}": rng.randn(5, 4) + 3.0 * i for i in range(4)}
    library = build_library(groups)
    report = rank_unknown(rng.randn(7, 4), library)
    assert report.class_names == library.class_names
    assert report.euclidean.shape == (4,)
    assert report.mahalanobis.shape == (4,)
    assert np.isfinite(report.euclidean).all() and (report.euclidean >= 0).all()
    assert np.isfinite(report.mahalanobis).all() and (report.mahalanobis >= 0).all()
    assert report.nearest_euclidean == report.class_names[int(np.argmin(report.euclidean))]
    assert report.nearest_mahalanobis == report.class_names[int(np.argmin(report.mahalanobis))]
    assert report.ranked("euclidean") == [
        report.class_names[i] for i in np.argsort(report.euclidean, kind="stable")
    ]
    with pytest.raises(ValidationError):
        report.ranked("manhattan")


def test_rank_matches_single_pair_distances():
    rng = np.random.RandomState(62)
    groups = {f"t{i}": rng.randn(12, 18) * (1.0 + i) + 2.0 * i for i in range(5)}
    library = build_library(groups)
    unknown = rng.randn(9, 18) + 3.0
    report = rank_unknown(unknown, library)
    query = apply_standardizer(library.standardizer, unknown.mean(axis=0))
    for i, mean in enumerate(library.class_means):
        euclid = euclidean_distance(query, mean)
        mahal = mahalanobis_distance(query, mean, library.regularized_covariance)
        assert abs(report.euclidean[i] - euclid) <= 1e-12 * euclid
        assert abs(report.mahalanobis[i] - mahal) <= 1e-12 * mahal


def test_rank_metric_divergence_constructed():
    # within-class scatter is tight along x and wide along y, so the
    # covariance-weighted metric forgives y offsets the euclidean one punishes;
    # the query sits at xtight's x, far out along y toward ywide
    def cross(center, dx, dy):
        cx, cy = center
        return np.array(
            [[cx + dx, cy], [cx - dx, cy], [cx, cy + dy], [cx, cy - dy]]
        )

    groups = {
        "xtight": cross((2.0, 0.0), 0.2, 4.0),
        "ywide": cross((0.0, 3.0), 0.2, 4.0),
    }
    library = build_library(groups)
    report = rank_unknown(np.array([1.9, 12.0]), library)
    assert report.nearest_euclidean == "ywide"
    assert report.nearest_mahalanobis == "xtight"
    assert report.metric_divergence


def test_rank_validation_errors():
    rng = np.random.RandomState(61)
    library = build_library({"a": rng.randn(4, 3), "b": rng.randn(4, 3)})
    with pytest.raises(LayoutMismatchError):
        rank_unknown(np.zeros((2, 5)), library)
    with pytest.raises(EmptyInputError):
        rank_unknown(np.zeros((0, 3)), library)
    with pytest.raises(ValidationError):
        rank_unknown(np.array([[1.0, np.nan, 0.0]]), library)


def test_mixture_recording_ranks_its_parents():
    # a blend of two known profiles must land nearest those profiles under
    # at least one metric; mirrors ranking a recording of mixed ground
    config = FeatureConfig()
    knowns = [p for p in builtin_profiles() if p.name != UNKNOWN_TERRAIN_NAME]
    known_names = [p.name for p in knowns]
    records = generate_dataset(knowns, 40, seed=42)
    mat, labels, _ = extract_feature_matrix(records, config)
    by_class = {
        name: mat[[i for i, label in enumerate(labels) if label == name]]
        for name in known_names
    }
    library = build_library(by_class)
    mixture = mix_profiles(
        builtin_profile("fine_sand"), builtin_profile("small_stone"), UNKNOWN_TERRAIN_NAME
    )
    unknown_records = generate_dataset([mixture], 40, seed=42 ^ 0xABCDEF)
    unknown_mat, _, _ = extract_feature_matrix(unknown_records, config)
    report = rank_unknown(unknown_mat, library)
    top2 = {
        frozenset(report.ranked("euclidean")[:2]),
        frozenset(report.ranked("mahalanobis")[:2]),
    }
    assert frozenset(("fine_sand", "small_stone")) in top2
