import math

import numpy as np
import pytest

from varbatch import (
    BatchSizeRule,
    EpsilonSchedule,
    Scheme,
    VarianceCap,
    analytic_variance_with_replacement,
    analytic_variance_without_replacement,
    batch_bound_with_replacement,
    batch_bound_without_replacement,
    epsilon_at,
    min_batch_with_replacement,
    min_batch_without_replacement,
    next_batch_size,
)

C10 = VarianceCap(10.0)


def test_geometric_epsilon_values():
    schedule = EpsilonSchedule.geometric(1.0, 0.5)
    assert epsilon_at(schedule, 3) == 0.125
    assert epsilon_at(schedule, 0) == 1.0


def test_power_law_epsilon_values():
    schedule = EpsilonSchedule.power_law(1.0, 2.0)
    assert epsilon_at(schedule, 0) == 1.0
    assert epsilon_at(schedule, 3) == pytest.approx(1 / 16)


def test_geometric_partial_sum_bounded():
    schedule = EpsilonSchedule.geometric(1.0, 0.5)
    partial = sum(epsilon_at(schedule, k) for k in range(21))
    assert partial <= 1.0 / (1.0 - 0.5)


def test_epsilon_positive_for_huge_k():
    for schedule in (EpsilonSchedule.geometric(1.0, 0.9), EpsilonSchedule.power_law(1.0, 400.0)):
        for k in (0, 10, 1000, 10**6):
            assert epsilon_at(schedule, k) > 0.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        EpsilonSchedule.geometric(1.0, 1.0)
    with pytest.raises(ValueError):
        EpsilonSchedule.geometric(0.0, 0.5)
    for exponent in (1.0, float("nan")):
        with pytest.raises(ValueError):
            EpsilonSchedule.power_law(1.0, exponent)
    for eps0 in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            EpsilonSchedule.geometric(eps0, 0.5)
    with pytest.raises(ValueError):
        epsilon_at(EpsilonSchedule.geometric(1.0, 0.9), -1)


def test_variance_cap_validation():
    with pytest.raises(ValueError):
        VarianceCap(0.0)
    with pytest.raises(ValueError):
        VarianceCap(float("inf"))


def test_with_replacement_rule_worked_values():
    assert min_batch_with_replacement(C10, 0.001, 30000, truncate=False) == 10000
    assert min_batch_with_replacement(C10, 1e-5, 30000) == 30000
    assert min_batch_with_replacement(C10, 10.0, 30000) == 1
    assert min_batch_with_replacement(C10, 25.0, 30000) == 1
    for eps in (0.0, math.nan):
        with pytest.raises(ValueError, match="eps must be positive"):
            min_batch_with_replacement(C10, eps, 30000)
        with pytest.raises(ValueError, match="eps must be positive"):
            batch_bound_with_replacement(C10, eps)
    # C / eps overflows to inf: the truncated size is N, the raw one has none.
    assert min_batch_with_replacement(VarianceCap(1e10), 1e-300, 30000) == 30000
    with pytest.raises(ValueError, match="overflows"):
        min_batch_with_replacement(VarianceCap(1e10), 1e-300, 30000, truncate=False)


def test_without_replacement_rule_worked_values():
    assert min_batch_without_replacement(C10, 30000, 0.001) == 7501
    assert min_batch_without_replacement(C10, 1, 0.5) == 1
    # The requirement crosses the population size only in the eps -> 0 limit.
    assert min_batch_without_replacement(C10, 30000, 1e-300) == 30000
    # N * C overflows in both, yet the bound lies in (0, N].
    assert min_batch_without_replacement(1e305, 30000, 1.0) == 30000
    assert min_batch_without_replacement(1e308, 5, 1e308) == 1
    for eps in (-1.0, math.nan):
        with pytest.raises(ValueError, match="eps must be positive"):
            min_batch_without_replacement(C10, 30000, eps)
        with pytest.raises(ValueError, match="eps must be positive"):
            batch_bound_without_replacement(C10, 100, eps)


def test_without_replacement_snap_keeps_variance_within_eps():
    # The bound is 999999.0005, within the 1e-9 snap of 999999, but at
    # 999999 the variance is eps * (1 + 5.0e-4): only N meets eps.
    eps = 9.99501998579084e-09
    assert min_batch_without_replacement(1e4, 10**6, eps) == 10**6


def test_rule_pair_at_crossover_tolerance():
    # At eps = C/N the with-replacement requirement is exactly N while the
    # without-replacement one is ceil(N**2 / (2N - 1)).
    eps = 10.0 / 30000.0
    assert min_batch_with_replacement(C10, eps, 30000, truncate=False) == 30000
    assert min_batch_with_replacement(C10, eps, 30000) == 30000
    assert min_batch_without_replacement(C10, 30000, eps) == 15001


def test_without_bound_below_population_and_with_bound():
    # The raw requirements order as without <= with exactly when eps <= C;
    # past that both fall below one item and the floor clamp takes over.
    for n in (2, 10, 1000, 30000):
        for eps in np.logspace(-6, 4, 41):
            eps = float(eps)
            bound = batch_bound_without_replacement(C10, n, eps)
            assert bound < n
            if eps <= 10.0:
                assert bound <= batch_bound_with_replacement(C10, eps)
            else:
                assert bound < 1.0 and batch_bound_with_replacement(C10, eps) < 1.0


def test_integer_rules_ordered_everywhere():
    for n in (10, 1000, 30000):
        for eps in np.logspace(-6, 4, 51):
            eps = float(eps)
            without = min_batch_without_replacement(C10, n, eps)
            with_trunc = min_batch_with_replacement(C10, eps, n)
            with_raw = min_batch_with_replacement(C10, eps, n, truncate=False)
            assert without <= with_trunc <= n
            assert without <= min(n, with_raw)


def test_bounds_agree_in_large_population_limit():
    ratio = batch_bound_without_replacement(C10, 10**8, 1.0) / batch_bound_with_replacement(C10, 1.0)
    assert abs(ratio - 1.0) < 1e-6


def test_without_rule_monotone_in_eps_and_cap():
    eps_grid = np.logspace(-4, 1, 30)
    sizes = [min_batch_without_replacement(C10, 1000, float(e)) for e in eps_grid]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    # Strict decrease somewhere away from the clamps.
    assert any(a > b for a, b in zip(sizes, sizes[1:]))
    caps = [0.5, 2.0, 10.0, 80.0]
    by_cap = [min_batch_without_replacement(VarianceCap(c), 1000, 0.01) for c in caps]
    assert all(a <= b for a, b in zip(by_cap, by_cap[1:]))
    assert by_cap[0] < by_cap[-1]


def test_without_rule_scale_invariance():
    # Scaling (C, eps) jointly leaves the requirement unchanged.
    for scale in (0.5, 10.0, 300.0):
        for eps in np.logspace(-5, 2, 20):
            eps = float(eps)
            base = min_batch_without_replacement(C10, 30000, eps)
            scaled = min_batch_without_replacement(
                VarianceCap(10.0 * scale), 30000, eps * scale
            )
            assert base == scaled


@pytest.mark.parametrize("scheme", [Scheme.WITH_REPLACEMENT, Scheme.WITHOUT_REPLACEMENT])
def test_emitted_size_keeps_variance_under_eps(scheme):
    # The defining property of the rules: at component variance equal to the
    # cap, the emitted size drives the estimator variance down to eps. The
    # 1e-9 headroom covers the documented integrality snap in the ceiling.
    for c in (0.5, 10.0, 123.0):
        for n in (2, 17, 30000):
            for eps in np.logspace(-6, 3, 28):
                eps = float(eps)
                if scheme is Scheme.WITH_REPLACEMENT:
                    size = min_batch_with_replacement(c, eps, n, truncate=False)
                    variance = analytic_variance_with_replacement(c, size)
                else:
                    size = min_batch_without_replacement(c, n, eps)
                    variance = analytic_variance_without_replacement(c, n, size)
                assert variance <= eps * (1.0 + 1e-9)


def test_next_batch_size_monotone_sequence():
    rule = BatchSizeRule(Scheme.WITHOUT_REPLACEMENT, VarianceCap(2.0), 5)
    schedule = EpsilonSchedule.geometric(1.0, 0.9)
    sizes = []
    previous = rule.floor
    for k in range(200):
        previous = next_batch_size(rule, schedule, k, previous)
        sizes.append(previous)
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert max(sizes) <= 5
    assert sizes[-1] == 5


def test_next_batch_size_never_exceeds_population_with_replacement():
    rule = BatchSizeRule(Scheme.WITH_REPLACEMENT, VarianceCap(10.0), 50)
    schedule = EpsilonSchedule.geometric(1.0, 0.5)
    previous = rule.floor
    for k in range(80):
        previous = next_batch_size(rule, schedule, k, previous)
        assert 1 <= previous <= 50


def test_next_batch_size_monotone_flag_and_floor():
    schedule = EpsilonSchedule.geometric(1.0, 0.9)
    sticky = BatchSizeRule(Scheme.WITHOUT_REPLACEMENT, VarianceCap(2.0), 20)
    assert next_batch_size(sticky, schedule, 0, 15) == 15
    floored = BatchSizeRule(Scheme.WITHOUT_REPLACEMENT, VarianceCap(2.0), 20, floor=6)
    assert next_batch_size(floored, schedule, 0, 6) == 6
    with pytest.raises(ValueError):
        next_batch_size(sticky, schedule, 0, 21)


def test_next_batch_size_cap_override():
    rule = BatchSizeRule(Scheme.WITHOUT_REPLACEMENT, VarianceCap(1.0), 100)
    schedule = EpsilonSchedule.geometric(0.1, 0.9)
    small = next_batch_size(rule, schedule, 0, 1)
    large = next_batch_size(rule, schedule, 0, 1, cap_override=50.0)
    assert large > small


def test_without_rule_never_above_untruncated_with_rule():
    for n in (10, 1000, 30000):
        for exponent in range(-5, 5):
            eps = 10.0**exponent
            assert min_batch_without_replacement(C10, n, eps) <= min_batch_with_replacement(
                C10, eps, n, truncate=False
            )


def test_rule_validation():
    with pytest.raises(ValueError):
        BatchSizeRule(Scheme.WITHOUT_REPLACEMENT, VarianceCap(1.0), 5, floor=0)
    with pytest.raises(ValueError):
        BatchSizeRule(Scheme.WITHOUT_REPLACEMENT, VarianceCap(1.0), 5, floor=6)
    with pytest.raises(ValueError):
        BatchSizeRule(Scheme.WITHOUT_REPLACEMENT, VarianceCap(1.0), 0)
