"""Batch index sampling for finite component populations.

Two schemes are supported: independent draws with replacement, and uniform
subsets without replacement. Batches are kept in canonical sorted form so
multiset/subset equality is structural. ``Batch(...)`` and
:func:`make_batch` check indices once, as an array, and hold a read-only
copy of it; a sampler's batch holds the sorted array it computed, which
gradient evaluation reads as it is; an enumerated batch holds its tuple.
For small populations the full batch space can be enumerated together
with each batch's exact probability. The exact-expectation oracles in
:mod:`varbatch.variance` read the same space, in the same order, without
building batches: :func:`~varbatch.variance.exact_batch_variance` a wide,
large one by a walk of its prefix tree, and otherwise as numpy index
blocks whose rows are decoded from their int64 lexicographic ranks
(:func:`_subset_blocks`). Either way they refuse a space of more than
``(2**63 - 1) // M`` batches, M as in :func:`_subset_population`.

Every module checks its counts with :func:`_check_count`, which batch
sizes a scheme admits with :func:`_subset_population`, index arrays with
:func:`_integer_array` and a batch's upper bound with :func:`_check_in_range`.
"""
from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from enum import Enum
from functools import cached_property
from itertools import combinations, combinations_with_replacement, groupby, repeat
from typing import Iterator, Sequence

import numpy as np

DEFAULT_ENUMERATION_CAP = 1_000_000
# Subset draws of at least this many indices take the one-sort kernel, the
# rest the dict loop (about 8 us + 0.22-0.25 us per index). A sparse draw, which
# mostly takes the kernel's early exit, costs 13-14 us in the kernel from 20
# to 100 indices, so the kernel wins there from about 20 indices; a dense one
# (N = 100) costs 16-32 us at 10-100 indices and wins at none. At 60, sparse
# draws below it lose up to 9 us on the loop and dense ones above it up to
# 7 us on the kernel (2-vCPU VM, whole draws, best of 18 runs).
_LOOP_FREE_MIN_SIZE = 60


class Scheme(Enum):
    """How batch indices are drawn from the component population."""

    WITH_REPLACEMENT = "with"
    WITHOUT_REPLACEMENT = "without"

    @classmethod
    def from_flag(cls, value: str) -> "Scheme":
        for scheme in cls:
            if value == scheme.value:
                return scheme
        raise ValueError(
            f"unknown sampling scheme {value!r}; expected 'with' or 'without'"
        )


class EnumerationCapError(Exception):
    """Batch space too large to enumerate; fall back to Monte Carlo."""


_INTEGERS = (int, np.integer)  # built once: the samplers check on every draw
_INTP = np.dtype(np.intp)


def _integer_array(indices) -> np.ndarray:
    """``indices`` as an array of integers that fit ``np.intp``, else ``ValueError``.

    The one index-type rule of batches and gradient evaluation: boolean is
    refused, not read as a mask or as 0/1, and float is not truncated. An
    empty sequence, which numpy reads as float, gives an empty ``np.intp`` array.
    """
    array = np.asarray(indices)
    dtype = array.dtype
    if dtype.kind in "iu" and dtype <= _INTP:  # <=: casts safely, so not uint64
        return array
    if not array.size:
        return array.astype(np.intp)
    raise ValueError(f"component indices must be integers that fit {_INTP}, got {dtype}")


def _check_in_range(last, n_components: int) -> None:
    """Refuse a batch whose largest index, ``last``, is not below ``n_components``."""
    if last >= n_components:
        raise ValueError(f"batch index {last} out of range for {n_components} components")


def _check_count(value, name: str, least: int) -> None:
    """Refuse ``value`` unless it is a Python or numpy integer >= ``least``.

    The one check of every count; ``2.0`` is refused, not truncated, and
    ``True`` is not read as 1.
    """
    if not isinstance(value, _INTEGERS) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


class SeededRng:
    """Deterministic random source for samplers and experiment scripts.

    Wraps numpy's PCG64 bit generator. The generator choice is part of the
    reproducibility contract: a given 64-bit seed yields the same draw
    sequence on every platform and every run. Subset draws use an in-library
    sparse partial Fisher-Yates shuffle (see :func:`sample_without_replacement`)
    so results do not depend on numpy's internal selection algorithms; it
    takes all its offsets from one vectorised bounded draw, which yields the
    same values and leaves the same generator state as one scalar draw per
    step. Small draws replay the swaps in a dict loop; the rest compute the
    same batch with one sort, of int64 keys or, where those would overflow,
    a stable argsort, and most sparse draws end right after it. Batch
    streams are bit-identical whichever path a draw takes.

    The seed is a count (see :func:`_check_count`) of at least 0. Instances
    own mutable generator state; use one per thread.
    """

    def __init__(self, seed: int):
        _check_count(seed, "seed", 0)
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def integers(self, low, high=None, size: int | None = None):
        """Uniform integers in ``[low, high)``; numpy argument semantics.

        Scalar bounds without ``size`` give a Python ``int``; array bounds or
        a ``size`` give an array, elementwise as numpy broadcasts them.
        """
        out = self._gen.integers(low, high=high, size=size)
        return out if isinstance(out, np.ndarray) else int(out)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc=loc, scale=scale, size=size)


class Batch:
    """Canonical (sorted) collection of component indices.

    Without replacement the indices form a strictly increasing set; with
    replacement they form a nondecreasing multiset where repeats are
    meaningful. Upper-bound validation against the population size happens
    where the population is known (gradient evaluation, probabilities).

    A batch is immutable and has two views of its indices: ``indices``, a
    tuple of Python ints, and ``array``, the same indices as a sorted,
    read-only ``np.intp`` array. A missing view is built on first read and
    kept. There are three routes to a batch: ``Batch(...)`` (and
    :func:`make_batch`) checks a sequence or 1-D array of indices, once, as
    an array, and holds a copy as its array; a sampler's batch holds the
    array it computed, which gradient evaluation reads; an enumerated batch
    holds its tuple. Equality, hashing and repr use ``indices`` and
    ``scheme``.
    """

    def __init__(self, indices: Sequence[int] | np.ndarray, scheme: Scheme):
        if not isinstance(scheme, Scheme):
            raise ValueError(f"a batch's scheme must be a Scheme, got {scheme!r}")
        array = _integer_array(indices).astype(np.intp)  # a copy: the caller's is not kept
        if array.ndim != 1 or not array.size:
            raise ValueError(f"a batch needs a nonempty 1-D sequence of indices, got {indices!r}")
        if array[0] < 0:
            raise ValueError(f"negative component index {array[0]}")
        steps = np.diff(array)
        if scheme is Scheme.WITHOUT_REPLACEMENT and not (steps > 0).all():
            raise ValueError("without-replacement batch requires strictly increasing indices")
        if not (steps >= 0).all():
            raise ValueError("with-replacement batch requires nondecreasing indices")
        array.setflags(write=False)
        self.__dict__.update(array=array, scheme=scheme)

    # Cached properties, not __getattr__, which would slow every attribute
    # read of the millions of batches that enumeration builds.
    @cached_property
    def indices(self) -> tuple[int, ...]:
        """The indices as a tuple of Python ints."""
        return tuple(self.array.tolist())

    @cached_property
    def array(self) -> np.ndarray:
        """The indices as a sorted, read-only ``np.intp`` array."""
        array = np.array(self.indices, np.intp)
        array.setflags(write=False)
        return array

    @property
    def size(self) -> int:
        """Number of indices, repeats included."""
        fields = self.__dict__
        return len(fields["array"] if "array" in fields else fields["indices"])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.indices, self.scheme) == (other.indices, other.scheme)

    def __hash__(self):
        return hash((self.indices, self.scheme))

    def __repr__(self):
        return f"Batch(indices={self.indices!r}, scheme={self.scheme!r})"


def _canonical(indices: tuple[int, ...], scheme: Scheme) -> Batch:
    """A batch from indices that are canonical by construction, built unchecked.

    The caller guarantees what ``Batch(...)`` would check: a
    nonempty tuple of nonnegative Python ints in the order ``scheme``
    requires. The enumerator produces such tuples; the batch builds its
    array on first read. Samplers use :func:`_sampled`, and anything else
    goes through ``Batch(...)`` or :func:`make_batch`.
    """
    batch = object.__new__(Batch)
    fields = batch.__dict__
    fields["indices"] = indices
    fields["scheme"] = scheme
    return batch


def _sampled(array: np.ndarray, scheme: Scheme) -> Batch:
    """A batch holding a sampler's index array, built unchecked.

    As :func:`_canonical`, for a sorted ``np.intp`` array, which it makes
    read-only; the batch builds its tuple on first read.
    """
    array.setflags(write=False)
    batch = object.__new__(Batch)
    fields = batch.__dict__
    fields["array"] = array
    fields["scheme"] = scheme
    return batch


def make_batch(indices: Sequence[int] | np.ndarray, scheme: Scheme) -> Batch:
    """``Batch`` of a sequence or 1-D array of indices in any order, sorted."""
    return Batch(np.sort(indices) if np.ndim(indices) == 1 else indices, scheme)


def sample_with_replacement(rng: SeededRng, n_components: int, batch_size: int) -> Batch:
    """Draw ``batch_size`` independent uniform indices from ``[0, n_components)``."""
    _subset_population(n_components, batch_size, Scheme.WITH_REPLACEMENT)
    draws = rng.integers(0, n_components, size=batch_size)
    draws.sort()
    return _sampled(draws, Scheme.WITH_REPLACEMENT)


def sample_without_replacement(rng: SeededRng, n_components: int, batch_size: int) -> Batch:
    """Draw a uniformly distributed ``batch_size``-subset of ``[0, n_components)``.

    Uses a sparse partial Fisher-Yates shuffle: step j swaps pool slot j with
    a uniform slot r_j in ``[j, n_components)``, and after ``batch_size``
    steps the pool's prefix is a uniform random subset. The offsets r_j come
    from one vectorised bounded draw that matches ``batch_size`` scalar draws
    value for value and in generator state, so batch streams are
    bit-identical to a dense shuffle over ``list(range(n_components))``.

    The pool is the identity except at displaced slots, so a draw costs
    O(batch_size) memory whatever the population size. Below
    ``_LOOP_FREE_MIN_SIZE`` indices a dict of the displaced slots replays
    the swaps one step at a time; otherwise :func:`_fisher_yates_batch`
    computes the same prefix around one sort: of packed int64 keys, or of a
    stable argsort where N * k passes 2**63 - 1. If no two offsets are equal
    the batch is the sorted offsets, and the kernel stops after its sort.
    """
    _subset_population(n_components, batch_size, Scheme.WITHOUT_REPLACEMENT)
    steps = np.arange(batch_size)
    offsets = rng.integers(steps, n_components)
    if batch_size >= _LOOP_FREE_MIN_SIZE:
        packed = n_components <= (2**63 - 1) // batch_size
        return _sampled(_fisher_yates_batch(offsets, steps, packed), Scheme.WITHOUT_REPLACEMENT)
    moved: dict[int, int] = {}
    chosen = []
    for j, r in enumerate(offsets.tolist()):
        chosen.append(moved.get(r, r))
        # Slot j is never read again, so only slot r needs the swapped value.
        moved[r] = moved.get(j, j)
    return _sampled(np.array(sorted(chosen), np.intp), Scheme.WITHOUT_REPLACEMENT)


def _fisher_yates_batch(
    offsets: np.ndarray, steps: np.ndarray, packed: bool = True
) -> np.ndarray:
    """Sorted pool prefix after the partial Fisher-Yates swaps ``offsets``, loop-free.

    With ``steps`` = ``np.arange(k)``, used up as scratch, and r_j =
    ``offsets[j]`` in ``[j, N)``, the pairs (r_j, j) are put in order once:
    ``packed``, which needs N * k <= 2**63 - 1, as the unique int64 keys
    r_j * k + j, sorted whatever the sort algorithm; otherwise by a stable
    argsort of the offsets, several times slower. Either lists each hit slot
    with its last step. Step j reads slot r_j >= j, which only an earlier
    step with the same offset can have written; so if no two offsets are
    equal, slot j ends holding r_j and the batch is the sorted offsets,
    returned at once (most sparse draws). Otherwise slot t < k is written
    only by steps j <= t, so the value it holds just before step t, root(t),
    is root(j) for the last step j < t with r_j == t, or t if there is none;
    pointer doubling follows these links, each to a smaller slot, in at most
    ceil(log2 k) + 1 rounds, if there are any. Every outer slot s >= k that
    some r_j hits joins the batch, after the kept prefix slots, which lose
    root(j) for the last step j that hits s. A self-hit r_t == t leaves
    root(t) unread, so t keeps t.
    """
    size = steps.size
    if packed:
        keys = offsets * size + steps
        keys.sort()
        targets = keys // size
    else:
        keys = offsets.argsort(kind="stable")
        targets = offsets[keys]
    last = np.ones(size, bool)  # a slot's last key holds the last step that hits it
    np.not_equal(targets[1:], targets[:-1], out=last[:-1])
    if last.all():
        return targets
    targets = targets[last]
    hits = keys[last]
    if packed:
        hits -= targets * size
    inner = targets.searchsorted(size)
    root = steps
    if (hits[:inner] != targets[:inner]).any():
        root[targets[:inner]] = hits[:inner]
        hop = root[root]
        while not np.array_equal(hop, root):
            root, hop = hop, hop[hop]
    kept = np.ones(size, bool)
    kept[root[hits[inner:]]] = False
    return np.concatenate((np.flatnonzero(kept), targets[inner:]))


def count_batches(n_components: int, batch_size: int, scheme: Scheme) -> int:
    """Exact number of distinct batches, as an arbitrary-precision integer.

    With replacement this counts canonical multisets, C(n+k-1, k); without
    replacement it counts subsets, C(n, k).
    """
    return math.comb(_subset_population(n_components, batch_size, scheme), batch_size)


def _subset_population(
    n_components: int, batch_size: int, scheme: Scheme, cap: int | None = None, ranked=False
) -> int:
    """The M whose k-subsets the batch space maps onto, checked against ``cap`` if given.

    The one check of which sizes a scheme admits: any k >= 1 with
    replacement, 1 <= k <= N without; a ``cap`` given is a count of at
    least 1 (see :func:`_check_count`). With replacement M = N + k - 1:
    ``a_j = b_j + j`` maps a canonical multiset b of ``range(N)`` onto a
    k-subset a of ``range(M)``. A ``ranked`` space, one the oracles may
    read through :func:`_subset_blocks`, is also refused above
    ``(2**63 - 1) // M`` batches, whatever the cap: its ranks are int64,
    and the margin of M keeps a decode table row, M - k + 1 values, below
    2.7 million.
    """
    _check_count(n_components, "population size", 1)
    _check_count(batch_size, "batch size", 1)
    population = n_components
    if scheme is Scheme.WITH_REPLACEMENT:
        population += batch_size - 1
    elif batch_size > n_components:
        raise ValueError(f"batch size must be in [1, {n_components}], got {batch_size}")
    if cap is not None:
        _check_count(cap, "enumeration cap", 1)
    elif not ranked:
        return population
    reason, limit = "the enumeration cap", (2**63 - 1) // population
    if ranked and (cap is None or cap > limit):
        cap, reason = limit, "the most that int64 ranks can index"
    # C(M, k) multiplied up as C(M - j + i, i) for i = 1..j, j = min(k, M - k).
    # Each partial count is an integer no smaller than the last, so the loop
    # stops once one passes the cap, without the exact count, whose digits
    # alone can pass Python's limit for turning an int into a string.
    j = min(batch_size, population - batch_size)
    count, i = 1, 0
    while count <= cap and i < j:
        i += 1
        count = count * (population - j + i) // i
    if count > cap:
        raise EnumerationCapError(
            f"batch space holds more than {cap} batches, {reason}"
        )
    return population


def enumerate_batches(
    n_components: int,
    batch_size: int,
    scheme: Scheme,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> Iterator[Batch]:
    """Yield every canonical batch exactly once, in lexicographic order.

    Raises :class:`EnumerationCapError` up front when the batch space holds
    more than ``cap`` batches (pass ``cap=None`` to disable the guard).
    """
    # Each batch holds its itertools tuple: building tuples from numpy rows
    # costs more than itertools does.
    _subset_population(n_components, batch_size, scheme, cap)
    if scheme is Scheme.WITHOUT_REPLACEMENT:
        source = combinations(range(n_components), batch_size)
    else:
        source = combinations_with_replacement(range(n_components), batch_size)
    return map(_canonical, source, repeat(scheme))


def _subset_blocks(population: int, size: int, rows: int) -> Iterator[np.ndarray]:
    """The ``size``-subsets of ``range(population)`` in lexicographic order.

    Yields fresh ``(rows, size)`` ``np.intp`` blocks, the last one shorter,
    laid out column-major: each is the transpose of a ``(size, rows)``
    array filled a column at a time, so every column is contiguous. Each
    row is decoded from its int64 rank; the caller checks the space with
    ``_subset_population(..., ranked=True)``.
    """
    # The combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3): subset a
    # has rank r = total - 1 - sum_j C(population - 1 - a_j, size - j). A row
    # is decoded from rest = r - (total - 1) a column at a time: column j
    # takes the smallest a_j whose term is at most -rest, and adds the term.
    # Only a_j = j + t, t = 0 .. spread, can occur, so tables[j, t] holds
    # that term negated, -C(spread - t + size - j - 1, size - j), which rises
    # with t; row j is the reversed cumulative sum of row j + 1, and no entry
    # is below -total. The last column is a_j = population - 1 + rest, so a
    # one-column space builds no table.
    total = math.comb(population, size)
    spread = population - size
    tables = np.empty((size - 1, spread + 1), np.int64)
    if size > 1:
        term = np.arange(-spread, 1, dtype=np.int64)  # -C(spread - t, 1)
        for table in tables[::-1]:
            np.cumsum(term[::-1], out=table[::-1])
            term = table
    for start in range(0, total, rows):
        rest = np.arange(start + 1 - total, min(start + rows, total) + 1 - total)
        columns = np.empty((size, len(rest)), np.intp)
        for j, table in enumerate(tables):
            t = table.searchsorted(rest)
            rest -= table.take(t)
            np.add(t, j, out=columns[j])
        np.add(rest, population - 1, out=columns[-1])
        yield columns.T


def batch_probability(batch: Batch, n_components: int) -> float:
    """Probability of drawing ``batch`` under its scheme's sampling measure.

    Without replacement every size-k subset is equally likely: 1 / C(n, k).
    With replacement the k draws are independent, so a canonical multiset is
    observed with probability (number of orderings) / n**k, where the number
    of orderings is the multinomial coefficient k! / prod(multiplicity!).
    Weighting canonical batches this way reproduces the independent-draw
    measure exactly without materializing all n**k ordered draws.
    """
    _check_count(n_components, "population size", 1)
    return _index_probability(batch.indices, batch.scheme, n_components)


def _index_probability(indices, scheme: Scheme, n_components: int) -> float:
    """:func:`batch_probability` of the canonical index sequence ``indices``."""
    _check_in_range(indices[-1], n_components)
    k = len(indices)
    if scheme is Scheme.WITHOUT_REPLACEMENT:
        return 1 / math.comb(n_components, k)
    orderings = math.factorial(k)
    # Sorted indices sit in runs, one per distinct value, as long as its multiplicity.
    for _, run in groupby(indices):
        orderings //= math.factorial(len(list(run)))
    # A Python int power: a numpy integer N would wrap around in int64.
    return orderings / int(n_components) ** k
