"""Deterministic PRNG: reference-vector, chunking, and distribution tests.

Block draws are also checked bit for bit against the out-of-place forms
they replaced (``out_of_place_*``).
"""

import tracemalloc

import numpy as np
import pytest

from spokesense.errors import ValidationError
from spokesense.rng import Prng, derive_seed, mix64

MASK = (1 << 64) - 1


def splitmix64_reference(seed: int, n: int) -> list[int]:
    """Independent scalar implementation of the classic splitmix64 stream."""
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_frozen_reference_vectors():
    # First outputs of the published splitmix64 stream for seed 0.
    assert splitmix64_reference(0, 3) == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    assert list(Prng(0).u64_block(3)) == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_matches_reference_for_many_seeds():
    rng = np.random.RandomState(1)
    for _ in range(25):
        seed = int(rng.randint(0, 1 << 62)) * 4 + int(rng.randint(0, 4))
        n = int(rng.randint(1, 40))
        assert list(Prng(seed).u64_block(n)) == splitmix64_reference(seed, n)


def test_wraparound_seed():
    assert list(Prng(MASK).u64_block(2)) == splitmix64_reference(MASK, 2)


def test_chunk_invariance():
    whole = list(Prng(99).u64_block(64))
    rng = np.random.RandomState(2)
    for _ in range(10):
        p = Prng(99)
        pieces = []
        while len(pieces) < 64:
            k = int(rng.randint(1, 9))
            pieces.extend(p.u64_block(min(k, 64 - len(pieces))))
        assert pieces == whole


def test_scalar_and_block_agree():
    p1, p2 = Prng(7), Prng(7)
    assert [p1.u64() for _ in range(10)] == list(p2.u64_block(10))


def test_scalar_draws_interleaved_with_blocks_match_block_stream():
    # 10^5 scalar draws over four seeds, in runs interleaved with block
    # draws on the same generator, against one block stream per seed.
    plan = np.random.RandomState(3)
    for seed in (0, 7, 2**63 + 5, MASK):
        mixed, blocks = Prng(seed), Prng(seed)
        scalars = 0
        while scalars < 25_000:
            kind, k = int(plan.randint(4)), int(plan.randint(1, 50))
            if kind == 0:
                got = [mixed.u64() for _ in range(k)]
                assert got == [int(v) for v in blocks.u64_block(k)]
            elif kind == 1:
                got = [mixed.uniform() for _ in range(k)]
                want = blocks.uniform_block(k)
                assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64))
            elif kind == 2:
                bound = int(plan.randint(1, 1 << 30))
                got = [mixed.below(bound) for _ in range(k)]
                assert got == [int(v) % bound for v in blocks.u64_block(k)]
            else:
                assert np.array_equal(mixed.u64_block(k), blocks.u64_block(k))
                continue
            scalars += k
            assert mixed.counter == blocks.counter


def test_uniform_range_and_determinism():
    u = Prng(3).uniform_block(10000)
    assert u.min() > 0.0 and u.max() <= 1.0
    assert np.array_equal(u, Prng(3).uniform_block(10000))
    # mean of U(0,1] over 10k draws: within 5 sigma of 1/2
    assert abs(u.mean() - 0.5) < 5 * (1.0 / np.sqrt(12 * 10000))


def test_gaussian_moments():
    g = Prng(5).gaussian_block(200000)
    assert abs(g.mean()) < 0.02
    assert abs(g.std() - 1.0) < 0.02
    # fourth standardized moment of a Gaussian is 3
    assert abs(np.mean(g**4) - 3.0) < 0.15


def test_gaussian_counter_advance_is_size_only():
    p = Prng(11)
    p.gaussian_block(3)  # consumes 2 * ceil(3/2) = 4 raw draws
    after_odd = p.u64()
    p2 = Prng(11)
    p2.gaussian_block(4)  # also 4 raw draws
    assert p2.u64() == after_odd


def test_below_bounds():
    p = Prng(17)
    draws = [p.below(7) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 6
    with pytest.raises(ValidationError):
        p.below(0)


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(30))
    Prng(23).shuffle(items)
    assert sorted(items) == list(range(30))
    items2 = list(range(30))
    Prng(23).shuffle(items2)
    assert items == items2
    assert items != list(range(30))  # astronomically unlikely to be identity


def loop_shuffle(rng, items):
    """Prng.shuffle as it was before the block draw: one below() per place."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("n", [0, 1, 2, 400, 10_000])
def test_shuffle_matches_one_draw_per_place(n):
    for seed in (0, 7, 23, 1 << 63):
        for make in (list, np.array):
            got, want = make(range(n)), make(range(n))
            rng, oracle = Prng(seed), Prng(seed)
            rng.u64(), oracle.u64()  # a stream already under way
            rng.shuffle(got)
            loop_shuffle(oracle, want)
            assert list(got) == list(want)
            assert rng.counter == oracle.counter == 1 + max(n - 1, 0)


def test_rejected_shuffle_draws_nothing():
    # Only a list or a 1-D array is shuffled in place; anything else is
    # refused before the first draw, so the stream is where it was.
    for items in ({3, 1, 2}, (1, 2, 3), "abc", {0: 1, 1: 2, 5: 3}, np.zeros((2, 3))):
        rng = Prng(31)
        with pytest.raises(ValidationError):
            rng.shuffle(items)
        assert rng.u64() == Prng(31).u64()


def test_permutation_covers_all_indices():
    perm = Prng(29).permutation(50)
    assert sorted(perm.tolist()) == list(range(50))


def test_mix64_matches_reference_finalizer():
    rng = np.random.RandomState(3)
    for _ in range(50):
        v = int(rng.randint(0, 1 << 62))
        z = (v + 0x9E3779B97F4A7C15) & MASK
        # mix64 applied to the incremented state reproduces draw 0
        assert Prng(v).u64() == mix64(z)


def test_mix64_on_uint64_array_matches_scalar():
    # Block draws run mix64 on uint64 arrays, whose arithmetic wraps.
    rng = np.random.RandomState(4)
    values = [0, 1, MASK, MASK - 1, 1 << 63, *(int(v) for v in rng.randint(0, 1 << 62, size=60))]
    mixed = mix64(np.array(values, dtype=np.uint64))
    assert mixed.dtype == np.uint64
    assert [int(v) for v in mixed] == [mix64(v) for v in values]


def test_mix64_on_random_full_width_arrays_matches_masked_ints():
    # Full-width values: the array and the int forms agree on the top bits.
    values = np.random.default_rng(5).integers(0, 1 << 64, size=2000, dtype=np.uint64)
    assert [int(v) for v in mix64(values)] == [mix64(int(v)) for v in values]


def test_derive_seed_separates_substreams():
    base = 1234
    a = derive_seed(base, "band", 0)
    b = derive_seed(base, "band", 1)
    c = derive_seed(base, "impulse")
    assert len({a, b, c}) == 3
    assert derive_seed(base, "band", 0) == a  # stable
    # different base seeds give different derivations
    assert derive_seed(base + 1, "band", 0) != a


def test_derive_seed_order_matters():
    assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)


def test_negative_block_size_rejected():
    with pytest.raises(ValidationError):
        Prng(0).u64_block(-1)


# ------------------------------------------- the out-of-place block draws


def out_of_place_mix64(value):
    """mix64 as it was, building a fresh array at each step."""
    z = value & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def out_of_place_u64_block(seed: int, base: int, n: int) -> np.ndarray:
    idx = np.arange(base + 1, base + n + 1, dtype=np.uint64)
    return out_of_place_mix64(np.uint64(seed) + idx * np.uint64(0x9E3779B97F4A7C15))


def out_of_place_uniform_block(seed: int, base: int, n: int) -> np.ndarray:
    bits = out_of_place_u64_block(seed, base, n)
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * (1.0 / (1 << 53))


def out_of_place_gaussian_block(seed: int, base: int, n: int) -> np.ndarray:
    pairs = (n + 1) // 2
    u1 = out_of_place_uniform_block(seed, base, pairs)
    u2 = out_of_place_uniform_block(seed, base + pairs, pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


BLOCK_SIZES = [0, 1, 2, 3, 7, 44_280, 86_400]


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_in_place_block_draws_match_out_of_place_bit_for_bit(n):
    for seed in (0, 7, 2**63 + 5, MASK):
        for kind, oracle in (
            ("u64_block", out_of_place_u64_block),
            ("uniform_block", out_of_place_uniform_block),
            ("gaussian_block", out_of_place_gaussian_block),
        ):
            rng = Prng(seed)
            rng.u64_block(5)  # a stream already under way
            got = getattr(rng, kind)(n)
            want = oracle(seed, 5, n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (kind, seed)
            advance = 2 * ((n + 1) // 2) if kind == "gaussian_block" else n
            assert rng.counter == 5 + advance


def test_mix64_leaves_its_array_argument_unchanged():
    values = np.random.default_rng(6).integers(0, 1 << 64, size=1000, dtype=np.uint64)
    kept = values.copy()
    mixed = mix64(values)
    assert np.array_equal(values, kept)
    assert mixed.tobytes() == out_of_place_mix64(kept).tobytes()
    assert [mix64(int(v)) for v in kept[:50]] == [out_of_place_mix64(int(v)) for v in kept[:50]]


def test_gaussian_block_peak_below_two_and_a_half_outputs():
    # Box-Muller runs in place on its two uniform arrays, so a block's
    # traced peak stays near twice its output (it was 3.5 times).
    rng = Prng(1)
    rng.gaussian_block(86_400)
    tracemalloc.start()
    try:
        out = rng.gaussian_block(86_400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * out.nbytes, (peak, out.nbytes)
