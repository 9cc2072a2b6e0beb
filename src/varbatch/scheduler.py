"""Tolerance schedules and the minimal batch sizes that satisfy them.

A summable tolerance sequence eps_k caps the allowed batch-gradient variance
at every iteration. Inverting the variance formulas under a component
variance bound C gives the smallest admissible batch size per scheme: with
replacement the requirement ceil(C / eps) grows without bound as eps shrinks,
while without replacement ceil(N * C / ((N - 1) * eps + C)) approaches N from
below and never exceeds it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Iterator

from .sampling import Scheme, _check_count, _subset_population
from .variance import analytic_variance_without_replacement

GEOMETRIC = "geometric"
POWER_LAW = "power-law"

# Schedules underflow to exactly 0.0 (geometric) or overflow their
# denominator (power law) for very large k; clamp far below any practical
# tolerance so downstream size ratios stay finite.
_EPSILON_FLOOR = 1e-300


@dataclass(frozen=True)
class EpsilonSchedule:
    """Summable positive tolerance sequence.

    ``geometric``: eps_k = eps0 * rho**k with rho in (0, 1).
    ``power-law``: eps_k = eps0 / (k + 1)**exponent with exponent > 1.
    Both are nonincreasing with bounded partial sums.
    """

    kind: str
    eps0: float
    rho: float | None = None
    exponent: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.eps0) and self.eps0 > 0):
            raise ValueError("eps0 must be a positive finite number")
        if self.kind == GEOMETRIC:
            if self.rho is None or not 0.0 < self.rho < 1.0:
                raise ValueError("geometric schedule needs rho in (0, 1)")
        elif self.kind == POWER_LAW:
            if self.exponent is None or not self.exponent > 1.0:  # NaN fails too
                raise ValueError(
                    "power-law schedule needs exponent > 1 for a summable sequence"
                )
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    @classmethod
    def geometric(cls, eps0: float = 1.0, rho: float = 0.9) -> "EpsilonSchedule":
        return cls(GEOMETRIC, eps0, rho=rho)

    @classmethod
    def power_law(cls, eps0: float, exponent: float) -> "EpsilonSchedule":
        return cls(POWER_LAW, eps0, exponent=exponent)


def epsilon_at(schedule: EpsilonSchedule, k: int) -> float:
    """Tolerance eps_k; always strictly positive."""
    _check_count(k, "iteration index", 0)
    if schedule.kind == GEOMETRIC:
        return max(schedule.eps0 * schedule.rho**k, _EPSILON_FLOOR)
    try:
        return max(schedule.eps0 / (k + 1) ** schedule.exponent, _EPSILON_FLOOR)
    except OverflowError:  # (k + 1)**exponent is past the float range
        return _EPSILON_FLOOR


@dataclass(frozen=True)
class VarianceCap:
    """Upper bound C imposed on the component-gradient variance."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value <= 0:
            raise ValueError("variance cap must be a positive finite number")


@dataclass(frozen=True)
class BatchSizeRule:
    """Policy turning (cap, population size, eps_k) into a batch size.

    Emitted sizes always lie in [floor, n_components], so the floor is
    checked as a without-replacement batch size in both schemes, and the
    sequence never shrinks even if eps_k plateaus numerically.
    """

    scheme: Scheme
    cap: VarianceCap
    n_components: int
    floor: int = 1

    def __post_init__(self):
        _subset_population(self.n_components, self.floor, Scheme.WITHOUT_REPLACEMENT)


# Thresholds that are mathematically integral can land a hair past the
# integer after float division (eps entered as C/N, say); values this close
# (relative) to an integer snap back to it, so the emitted size is the
# intended one.
_SNAP_REL = 1e-9


def _snap_ceil(value: float) -> int:
    nearest = round(value)
    if abs(value - nearest) <= _SNAP_REL * max(1.0, abs(value)):
        return int(nearest)
    return math.ceil(value)


def batch_bound_with_replacement(cap: VarianceCap | float, eps: float) -> float:
    """Real-valued lower bound C / eps on the with-replacement batch size."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not isinstance(cap, VarianceCap):
        cap = VarianceCap(cap)
    return cap.value / eps


def batch_bound_without_replacement(
    cap: VarianceCap | float, n_components: int, eps: float
) -> float:
    """Real-valued lower bound N*C / ((N-1)*eps + C); always below N for eps > 0.

    Where N*C overflows, the equal N / ((N-1)*(eps/C) + 1) is used instead.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    _check_count(n_components, "population size", 1)
    if not isinstance(cap, VarianceCap):
        cap = VarianceCap(cap)
    bound = n_components * cap.value / ((n_components - 1) * eps + cap.value)
    if math.isfinite(bound):
        return bound
    return n_components / ((n_components - 1) * (eps / cap.value) + 1)


def min_batch_with_replacement(
    cap: VarianceCap | float, eps: float, n_components: int, truncate: bool = True
) -> int:
    """Smallest integer batch size meeting the with-replacement variance bound.

    The requirement diverges as eps shrinks; with ``truncate`` the result is
    clamped to the population size for plotting and rule use. Without it, a
    bound C / eps past the float range has no integer size and raises.
    """
    _check_count(n_components, "population size", 1)
    bound = batch_bound_with_replacement(cap, eps)
    if truncate and bound >= n_components:
        return n_components
    if math.isinf(bound):
        raise ValueError(f"batch bound C / eps overflows at eps = {eps!r}")
    return max(1, _snap_ceil(bound))


def min_batch_without_replacement(
    cap: VarianceCap | float, n_components: int, eps: float
) -> int:
    """Smallest integer batch size meeting the without-replacement bound.

    Stays within [1, N] for every eps > 0 and reaches N only in the eps -> 0
    limit. Near N one unit of size moves the variance by far more than the
    size's relative snap allows for, so a size snapped down onto an integer
    is kept only while its variance stays within the snap tolerance of eps.
    """
    if not isinstance(cap, VarianceCap):
        cap = VarianceCap(cap)
    bound = batch_bound_without_replacement(cap, n_components, eps)
    size = min(n_components, max(1, _snap_ceil(bound)))
    if size < bound and analytic_variance_without_replacement(
        cap.value, n_components, size
    ) > eps * (1 + _SNAP_REL):
        return math.ceil(bound)
    return size


def next_batch_size(
    rule: BatchSizeRule, schedule: EpsilonSchedule, k: int, previous: int
) -> int:
    """Batch size for iteration ``k`` under ``rule`` and the eps schedule."""
    n = rule.n_components
    _check_count(previous, "previous size", rule.floor)
    if previous > n:
        raise ValueError(f"previous size must be in [{rule.floor}, {n}], got {previous}")
    eps = epsilon_at(schedule, k)
    if rule.scheme is Scheme.WITH_REPLACEMENT:
        size = min_batch_with_replacement(rule.cap, eps, n, truncate=True)
    else:
        size = min_batch_without_replacement(rule.cap, n, eps)
    # previous is at least the floor, so this also applies the floor.
    return max(previous, size)


def batch_sizes(rule: BatchSizeRule, schedule: EpsilonSchedule) -> Iterator[int]:
    """The nondecreasing sizes n_0, n_1, ... of ``rule`` under ``schedule``.

    The sequence depends on the rule and the schedule alone, never on an
    iterate. It is lazy and endless: size k is computed by
    ``next_batch_size`` from size k - 1 (the floor before k = 0) only when
    it is read, so bound it with ``zip`` or ``itertools.islice``.
    """
    size = rule.floor
    for k in count():
        size = next_batch_size(rule, schedule, k, size)
        yield size
