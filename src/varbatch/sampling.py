"""Batch index sampling for finite component populations.

Two schemes are supported: independent draws with replacement, and uniform
subsets without replacement. Batches are kept in canonical sorted form so
multiset/subset equality is structural. For small populations the full batch
space can be enumerated together with each batch's exact probability, which
is what the exact-expectation oracles in :mod:`varbatch.variance` consume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, combinations_with_replacement, groupby, repeat
from typing import Iterable, Iterator

import numpy as np

DEFAULT_ENUMERATION_CAP = 1_000_000


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


class SeededRng:
    """Deterministic random source for samplers and experiment scripts.

    Wraps numpy's PCG64 bit generator. The generator choice is part of the
    reproducibility contract: a given 64-bit seed yields the same draw
    sequence on every platform and every run. Subset draws use an in-library
    sparse partial Fisher-Yates shuffle (see :func:`sample_without_replacement`)
    so results do not depend on numpy's internal selection algorithms; it
    takes all its offsets from one vectorised bounded draw, which yields the
    same values and leaves the same generator state as one scalar draw per
    step.

    Instances own mutable generator state; use one per thread.
    """

    def __init__(self, seed: int):
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


@dataclass(frozen=True)
class Batch:
    """Canonical (sorted) collection of component indices.

    Without replacement the indices form a strictly increasing set; with
    replacement they form a nondecreasing multiset where repeats are
    meaningful. Upper-bound validation against the population size happens
    where the population is known (gradient evaluation, probabilities).
    """

    indices: tuple[int, ...]
    scheme: Scheme

    def __post_init__(self):
        if not self.indices:
            raise ValueError("batch must contain at least one index")
        if self.indices[0] < 0:
            raise ValueError(f"negative component index {self.indices[0]}")
        pairs = zip(self.indices, self.indices[1:])
        if self.scheme is Scheme.WITHOUT_REPLACEMENT:
            if not all(a < b for a, b in pairs):
                raise ValueError(
                    "without-replacement batch requires strictly increasing indices"
                )
        elif not all(a <= b for a, b in pairs):
            raise ValueError("with-replacement batch requires nondecreasing indices")

    @property
    def size(self) -> int:
        return len(self.indices)


def _canonical(indices: tuple[int, ...], scheme: Scheme) -> Batch:
    """A batch from indices that are canonical by construction, built unchecked.

    The caller guarantees what ``Batch.__post_init__`` would check: a
    nonempty tuple of nonnegative Python ints in the order ``scheme``
    requires. The enumerator and the samplers produce such tuples; anything
    else goes through ``Batch(...)`` or :func:`make_batch`.
    """
    batch = object.__new__(Batch)
    fields = batch.__dict__
    fields["indices"] = indices
    fields["scheme"] = scheme
    return batch


def make_batch(indices: Iterable[int], scheme: Scheme) -> Batch:
    """Build a batch from indices in any order, canonicalizing as needed."""
    return Batch(tuple(sorted(int(i) for i in indices)), scheme)


def sample_with_replacement(rng: SeededRng, n_components: int, batch_size: int) -> Batch:
    """Draw ``batch_size`` independent uniform indices from ``[0, n_components)``."""
    if n_components < 1:
        raise ValueError("population must contain at least one component")
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    draws = rng.integers(0, n_components, size=batch_size)
    return _canonical(tuple(np.sort(draws).tolist()), Scheme.WITH_REPLACEMENT)


def sample_without_replacement(rng: SeededRng, n_components: int, batch_size: int) -> Batch:
    """Draw a uniformly distributed ``batch_size``-subset of ``[0, n_components)``.

    Uses a sparse partial Fisher-Yates shuffle: step j swaps pool slot j with
    a uniform slot r in ``[j, n_components)``, and after ``batch_size`` steps
    the pool's prefix is a uniform random subset. The pool is the identity
    except at displaced slots, which a dict holds, so a draw costs
    O(batch_size) time and memory whatever the population size. The offsets
    r come from one vectorised bounded draw that matches ``batch_size``
    scalar draws value for value and in generator state, so batch streams
    are bit-identical to a dense shuffle over ``list(range(n_components))``.
    """
    if n_components < 1:
        raise ValueError("population must contain at least one component")
    if not 1 <= batch_size <= n_components:
        raise ValueError(
            f"batch size must be in [1, {n_components}], got {batch_size}"
        )
    moved: dict[int, int] = {}
    chosen = []
    for j, r in enumerate(rng.integers(range(batch_size), n_components).tolist()):
        chosen.append(moved.get(r, r))
        # Slot j is never read again, so only slot r needs the swapped value.
        moved[r] = moved.get(j, j)
    return _canonical(tuple(np.sort(chosen).tolist()), Scheme.WITHOUT_REPLACEMENT)


def count_batches(n_components: int, batch_size: int, scheme: Scheme) -> int:
    """Exact number of distinct batches, as an arbitrary-precision integer.

    With replacement this counts canonical multisets, C(n+k-1, k); without
    replacement it counts subsets, C(n, k).
    """
    if n_components < 1:
        raise ValueError("population must contain at least one component")
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    if scheme is Scheme.WITH_REPLACEMENT:
        return math.comb(n_components + batch_size - 1, batch_size)
    if batch_size > n_components:
        raise ValueError(
            f"cannot draw {batch_size} distinct indices from {n_components} components"
        )
    return math.comb(n_components, batch_size)


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
    total = count_batches(n_components, batch_size, scheme)
    if cap is not None and total > cap:
        raise EnumerationCapError(
            f"batch space holds {total} batches, above the enumeration cap {cap}"
        )
    if scheme is Scheme.WITHOUT_REPLACEMENT:
        source = combinations(range(n_components), batch_size)
    else:
        source = combinations_with_replacement(range(n_components), batch_size)
    return map(_canonical, source, repeat(scheme))


def batch_probability(batch: Batch, n_components: int) -> float:
    """Probability of drawing ``batch`` under its scheme's sampling measure.

    Without replacement every size-k subset is equally likely: 1 / C(n, k).
    With replacement the k draws are independent, so a canonical multiset is
    observed with probability (number of orderings) / n**k, where the number
    of orderings is the multinomial coefficient k! / prod(multiplicity!).
    Weighting canonical batches this way reproduces the independent-draw
    measure exactly without materializing all n**k ordered draws.
    """
    if batch.indices[-1] >= n_components:
        raise ValueError(
            f"batch index {batch.indices[-1]} out of range for {n_components} components"
        )
    k = batch.size
    if batch.scheme is Scheme.WITHOUT_REPLACEMENT:
        return 1.0 / math.comb(n_components, k)
    orderings = math.factorial(k)
    # Sorted indices sit in runs, one per distinct value, as long as its multiplicity.
    for _, run in groupby(batch.indices):
        orderings //= math.factorial(sum(1 for _ in run))
    return orderings / n_components**k
