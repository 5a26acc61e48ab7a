"""Fixtures shared across test modules."""

from types import SimpleNamespace

import pytest

from spokesense.features import FeatureConfig, extract_feature_matrix
from spokesense.synth import KNOWN_TERRAIN_NAMES, builtin_profile, generate_dataset


@pytest.fixture(scope="session")
def criterion_01_data():
    """Criterion 1's data, built once: the five known terrains' records at
    seed 42 with 80 windows each, and their default-layout feature matrix.

    Every array is read-only, so no test can change what the next one reads.
    Criterion 1 itself keeps its own build, because its time bound covers it.
    """
    records = generate_dataset([builtin_profile(n) for n in KNOWN_TERRAIN_NAMES], 80, seed=42)
    matrix, labels, names = extract_feature_matrix(records, FeatureConfig())
    for array in (*(record.channels for record in records), matrix):
        array.flags.writeable = False
    return SimpleNamespace(
        records=tuple(records), matrix=matrix, labels=tuple(labels), names=names
    )
