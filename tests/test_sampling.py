import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

from helpers import dense_sample_without_replacement
from varbatch import (
    Batch,
    EnumerationCapError,
    Scheme,
    SeededRng,
    batch_probability,
    count_batches,
    enumerate_batches,
    make_batch,
    sample_with_replacement,
    sample_without_replacement,
)

WITH = Scheme.WITH_REPLACEMENT
WITHOUT = Scheme.WITHOUT_REPLACEMENT


def test_batch_canonical_form_enforced():
    with pytest.raises(ValueError):
        Batch((2, 1), WITHOUT)
    with pytest.raises(ValueError):
        Batch((1, 1), WITHOUT)
    with pytest.raises(ValueError):
        Batch((2, 1), WITH)
    with pytest.raises(ValueError):
        Batch((), WITHOUT)
    with pytest.raises(ValueError):
        Batch((-1, 2), WITHOUT)
    assert Batch((1, 1, 3), WITH).size == 3


def test_make_batch_sorts():
    assert make_batch([4, 0, 2], WITHOUT).indices == (0, 2, 4)
    assert make_batch([3, 1, 3], WITH).indices == (1, 3, 3)


def test_sample_with_replacement_single_item_population():
    rng = SeededRng(0)
    batch = sample_with_replacement(rng, 1, 6)
    assert batch.indices == (0,) * 6


def test_sample_without_replacement_full_population():
    rng = SeededRng(0)
    batch = sample_without_replacement(rng, 7, 7)
    assert batch.indices == tuple(range(7))


def test_sparse_sampler_stream_matches_dense_reference():
    # Same batches and, through the interleaved with-replacement draws, the
    # same generator state after every call; 2**32 + 5 takes numpy's 64-bit
    # bounded path, the others its 32-bit one.
    cases = ((1, 1), (2, 2), (9, 3), (50, 50), (1000, 37), (10**5, 500), (2**32 + 5, 40))
    for seed in range(200):
        sparse, dense = SeededRng(seed), SeededRng(seed)
        for n, size in cases:
            expected = dense_sample_without_replacement(dense, n, size)
            assert sample_without_replacement(sparse, n, size) == expected
            assert sample_with_replacement(sparse, n, 3) == sample_with_replacement(dense, n, 3)
        assert sparse.integers(0, 2**62) == dense.integers(0, 2**62)


def test_sample_without_replacement_huge_population():
    # A pool of 10**12 indices cannot be built; the sparse draw needs O(k).
    indices = sample_without_replacement(SeededRng(0), 10**12, 5).indices
    assert len(indices) == 5
    assert 0 <= indices[0] and indices[-1] < 10**12
    assert all(a < b for a, b in zip(indices, indices[1:]))


def test_seeded_rng_integers_array_bounds():
    low = np.arange(6)
    for high in (7, 2**40):
        vector, scalar = SeededRng(11), SeededRng(11)
        out = vector.integers(low, high)
        assert isinstance(out, np.ndarray)
        expected = [scalar.integers(j, high) for j in range(6)]
        assert all(type(value) is int for value in expected)
        assert out.tolist() == expected
        assert vector.integers(0, high) == scalar.integers(0, high)


def test_samplers_validate_sizes():
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        sample_with_replacement(rng, 5, 0)
    with pytest.raises(ValueError):
        sample_without_replacement(rng, 5, 6)
    with pytest.raises(ValueError):
        sample_without_replacement(rng, 5, 0)


def test_same_seed_reproduces_draw_sequence():
    a = SeededRng(123456)
    b = SeededRng(123456)
    for _ in range(50):
        assert sample_with_replacement(a, 9, 4) == sample_with_replacement(b, 9, 4)
        assert sample_without_replacement(a, 9, 3) == sample_without_replacement(b, 9, 3)


def test_with_replacement_slot_frequencies():
    # 1e5 draws of size 2 from 5 items: each index fills a fifth of the slots.
    rng = SeededRng(77)
    counts = Counter()
    draws = 100_000
    for _ in range(draws):
        counts.update(sample_with_replacement(rng, 5, 2).indices)
    for i in range(5):
        assert counts[i] / (2 * draws) == pytest.approx(0.2, abs=0.01)


def test_count_batches_small_values():
    assert count_batches(5, 2, WITHOUT) == 10
    assert count_batches(5, 2, WITH) == 15
    assert count_batches(5, 5, WITHOUT) == 1
    assert count_batches(4, 6, WITH) == math.comb(9, 6)


def test_count_batches_validates():
    with pytest.raises(ValueError):
        count_batches(5, 6, WITHOUT)
    with pytest.raises(ValueError):
        count_batches(5, 0, WITH)
    with pytest.raises(ValueError):
        count_batches(0, 1, WITH)


def test_enumerate_without_replacement_listing():
    batches = list(enumerate_batches(3, 2, WITHOUT))
    assert [b.indices for b in batches] == [(0, 1), (0, 2), (1, 2)]


def test_enumerate_with_replacement_listing():
    batches = list(enumerate_batches(3, 2, WITH))
    assert [b.indices for b in batches] == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
    ]


def test_enumeration_cap_raised_eagerly():
    with pytest.raises(EnumerationCapError):
        enumerate_batches(100, 10, WITHOUT, cap=1000)


@pytest.mark.parametrize("scheme", [WITHOUT, WITH])
def test_enumeration_cardinality_matches_count(scheme):
    for n in range(1, 13):
        top = n if scheme is WITHOUT else n
        for size in range(1, top + 1):
            expected = count_batches(n, size, scheme)
            observed = sum(1 for _ in enumerate_batches(n, size, scheme, cap=None))
            assert observed == expected


def test_membership_identity_without_replacement():
    # Each index appears in C(n-1, k-1) of the size-k subsets.
    for n in range(2, 13):
        for size in range(1, n + 1):
            counts = Counter()
            for batch in enumerate_batches(n, size, WITHOUT, cap=None):
                counts.update(batch.indices)
            expected = math.comb(n - 1, size - 1)
            assert all(counts[i] == expected for i in range(n))


def test_membership_identity_worked_value():
    counts = Counter()
    for batch in enumerate_batches(5, 2, WITHOUT):
        counts.update(batch.indices)
    assert all(counts[i] == 4 for i in range(5))


@pytest.mark.parametrize("scheme", [WITHOUT, WITH])
def test_batch_probabilities_sum_to_one(scheme):
    for n, size in ((1, 1), (4, 2), (5, 3), (6, 6)):
        total = sum(batch_probability(b, n) for b in enumerate_batches(n, size, scheme))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_batch_probability_validates_range():
    with pytest.raises(ValueError):
        batch_probability(make_batch([0, 5], WITHOUT), 5)


def test_multiset_weights_match_ordered_tuple_enumeration():
    # Any statistic averaged over weighted canonical multisets must agree
    # with the plain average over all n**k ordered draws.
    n, size = 4, 3
    values = np.array([0.5, -1.5, 2.0, 3.25])

    def batch_mean(indices):
        return sum(values[i] for i in indices) / len(indices)

    weighted = sum(
        batch_probability(b, n) * batch_mean(b.indices)
        for b in enumerate_batches(n, size, WITH)
    )
    brute = np.mean([batch_mean(t) for t in product(range(n), repeat=size)])
    assert weighted == pytest.approx(brute, abs=1e-14)

    weighted_sq = sum(
        batch_probability(b, n) * batch_mean(b.indices) ** 2
        for b in enumerate_batches(n, size, WITH)
    )
    brute_sq = np.mean([batch_mean(t) ** 2 for t in product(range(n), repeat=size)])
    assert weighted_sq == pytest.approx(brute_sq, abs=1e-14)


def test_without_replacement_inclusion_probability():
    rng = SeededRng(5)
    draws = 20_000
    counts = Counter()
    for _ in range(draws):
        counts.update(sample_without_replacement(rng, 6, 2).indices)
    for i in range(6):
        assert counts[i] / draws == pytest.approx(2 / 6, abs=0.02)


def test_trusted_batches_pass_the_public_checks():
    # Enumeration and both samplers skip Batch's checks; every batch they
    # build must be one that Batch(...) accepts and compares equal to.
    rng = SeededRng(17)
    for n in range(1, 7):
        for size in range(1, n + 1):
            built = [
                *enumerate_batches(n, size, WITHOUT),
                *enumerate_batches(n, size, WITH),
                *(sample_without_replacement(rng, n, size) for _ in range(20)),
                *(sample_with_replacement(rng, n, size) for _ in range(20)),
            ]
            for batch in built:
                assert type(batch) is Batch
                assert all(type(i) is int for i in batch.indices)
                assert batch == Batch(batch.indices, batch.scheme)
