"""Terrain identification from wheel-spoke vibration signals.

The pipeline: synthesize or load three-channel vibration records, window
them, extract band-specific statistics, classify with one-vs-one support
vector machines, and rank unknown terrains against known classes under
Euclidean and Mahalanobis distances.  Import each name from its module.
"""

from . import eigen, errors, features, rng, signals, similarity, svm, synth
