from unittest.mock import Mock

import numpy as np
import pytest

import varbatch.optimizer as optimizer
from varbatch import (
    BatchSizeRule,
    EpsilonSchedule,
    FiniteSumProblem,
    LearningRateSchedule,
    RunConfig,
    Scheme,
    VarianceCap,
    epsilon_at,
    full_gradient,
    learning_rate_at,
    make_least_squares,
    next_batch_size,
    run,
)

WITHOUT = Scheme.WITHOUT_REPLACEMENT


def make_config(n, cap=2.0, **overrides):
    defaults = dict(
        rule=BatchSizeRule(WITHOUT, VarianceCap(cap), n),
        epsilon_schedule=EpsilonSchedule.geometric(1.0, 0.9),
        learning_rate=LearningRateSchedule.constant(0.1),
        max_iters=500,
        tolerance=1e-2,
        seed=7,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_learning_rate_constant():
    config = make_config(5, learning_rate=LearningRateSchedule.constant(0.1))
    assert all(learning_rate_at(config, k) == 0.1 for k in (0, 5, 999))


def test_learning_rate_decaying():
    config = make_config(5, learning_rate=LearningRateSchedule.decaying(1.0))
    assert learning_rate_at(config, 3) == 0.25
    assert learning_rate_at(config, 0) == 1.0
    for k in (0, 10, 10**6):
        assert learning_rate_at(config, k) > 0.0


def test_learning_rate_validation():
    with pytest.raises(ValueError):
        LearningRateSchedule.constant(0.0)
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            LearningRateSchedule.constant(alpha)
    with pytest.raises(ValueError):
        learning_rate_at(make_config(5), -1)


def test_run_converges_on_least_squares(ls5):
    record = run(ls5, make_config(5))
    assert record.termination == "converged"
    assert len(record.rows) <= 500
    assert abs(record.final_x[0] - 3.0) <= 1e-2


def test_run_batch_sizes_monotone_and_capped(ls5):
    record = run(ls5, make_config(5))
    sizes = [row.batch_size for row in record.rows]
    assert all(1 <= s <= 5 for s in sizes)
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_run_deterministic_given_seed(ls5):
    config = make_config(5, seed=99)
    first = run(ls5, config)
    second = run(ls5, config)
    assert first.rows == second.rows
    assert np.array_equal(first.final_x, second.final_x)
    assert first.termination == second.termination


def test_run_telemetry_matches_offline_scheduler_replay(ls5):
    config = make_config(5)
    record = run(ls5, config)
    previous = config.rule.floor
    for row in record.rows:
        previous = next_batch_size(config.rule, config.epsilon_schedule, row.k, previous)
        assert row.batch_size == previous
        assert row.epsilon == epsilon_at(config.epsilon_schedule, row.k)


def test_full_batch_run_reproduces_gradient_descent(random_ls):
    problem = random_ls(6, d=2, seed=31)
    config = make_config(
        6,
        rule=BatchSizeRule(WITHOUT, VarianceCap(5.0), 6, floor=6),
        max_iters=40,
        tolerance=0.0,
    )
    record = run(problem, config)
    x = np.zeros(2)
    for _ in range(40):
        x = x - 0.1 * full_gradient(problem, x)
    assert np.max(np.abs(record.final_x - x)) < 1e-12
    assert all(row.batch_size == 6 for row in record.rows)


def test_run_with_replacement_scheme(ls5):
    config = make_config(5, rule=BatchSizeRule(Scheme.WITH_REPLACEMENT, VarianceCap(2.0), 5))
    record = run(ls5, config)
    assert record.termination == "converged"
    assert abs(record.final_x[0] - 3.0) <= 1e-2


def test_run_batch_monitor_mode(ls5):
    config = make_config(5, monitor_full_gradient=False, tolerance=1e-3, max_iters=300)
    record = run(ls5, config)
    assert all(row.full_grad_norm is None for row in record.rows)
    assert all(row.objective is None for row in record.rows)
    if record.termination == "converged":
        assert record.rows[-1].batch_grad_norm <= 1e-3


def test_run_full_monitor_rows_are_populated(ls5):
    record = run(ls5, make_config(5, max_iters=3, tolerance=0.0))
    for row in record.rows:
        assert row.full_grad_norm is not None
        assert row.objective is not None
        assert row.component_variance == pytest.approx(2.0, abs=1e-12)
        assert row.batch_gradient_variance is not None


def test_run_logs_zero_variance_when_using_exact_gradient(ls5):
    # From k = 2 the with-replacement size C / eps_k = 8 is truncated to N = 5,
    # where run takes the exact full gradient instead of sampling.
    config = make_config(
        5,
        rule=BatchSizeRule(Scheme.WITH_REPLACEMENT, VarianceCap(2.0), 5),
        epsilon_schedule=EpsilonSchedule.geometric(1.0, 0.5),
        max_iters=6,
        tolerance=0.0,
    )
    rows = run(ls5, config).rows
    assert [row.batch_size for row in rows] == [2, 4, 5, 5, 5, 5]
    assert rows[0].batch_gradient_variance == pytest.approx(1.0)
    assert all(row.batch_gradient_variance == 0.0 for row in rows[2:])


def test_run_aborts_with_partial_record_on_evaluator_error(ls5):
    calls = {"n": 0}

    def failing_gradient(i, x):
        calls["n"] += 1
        if calls["n"] > 12:
            raise RuntimeError("component blew up")
        return ls5.component_gradient(i, x)

    problem = FiniteSumProblem(1, 5, ls5.component_value, failing_gradient)
    record = run(problem, make_config(5, max_iters=50, tolerance=0.0))
    assert record.termination == "error"
    assert "component blew up" in record.error
    assert 0 < len(record.rows) < 50


def test_run_propagates_programming_errors(ls5, monkeypatch):
    # Only evaluator failures become termination="error"; a bug in the driver
    # itself must surface.
    real = optimizer.next_batch_size
    monkeypatch.setattr(
        optimizer, "next_batch_size", lambda *args, **kwargs: real(*args, bad=1, **kwargs)
    )
    with pytest.raises(TypeError, match="bad"):
        run(ls5, make_config(5))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_stops_as_diverged_on_non_finite_step(ls5, random_ls):
    fast = LearningRateSchedule.constant(50.0)
    # With auto_cap the measured variance overflows before the iterate does.
    for problem, auto_cap in ((ls5, False), (random_ls(20, seed=0), True)):
        n = problem.n_components
        record = run(problem, make_config(n, learning_rate=fast, auto_cap=auto_cap))
        assert record.termination == "diverged"
        assert record.error is None
        assert 0 < len(record.rows) < 500
        assert np.all(np.isfinite(record.final_x))
        assert np.max(np.abs(record.final_x)) > 1e300


@pytest.mark.parametrize("scheme", list(Scheme))
def test_run_calls_samplers_and_stats_through_module_names(ls5, monkeypatch, scheme):
    # The benchmark paces and counts a run by patching these module attributes.
    names = ("gradient_stats", "sample_with_replacement", "sample_without_replacement")
    spies = {name: Mock(wraps=getattr(optimizer, name)) for name in names}
    for name, spy in spies.items():
        monkeypatch.setattr(optimizer, name, spy)
    config = make_config(
        5,
        rule=BatchSizeRule(scheme, VarianceCap(2.0), 5),
        epsilon_schedule=EpsilonSchedule.geometric(1.0, 0.5),
        max_iters=12,
        tolerance=0.0,
    )
    rows = run(ls5, config).rows
    sampled = sum(row.batch_size < 5 for row in rows)
    assert 0 < sampled < len(rows)
    expected = dict.fromkeys(names, 0)
    expected["gradient_stats"] = len(rows)
    expected[f"sample_{scheme.name.lower()}"] = sampled
    assert {name: spy.call_count for name, spy in spies.items()} == expected


def test_run_auto_cap_tracks_measured_variance(ls5):
    # At cap 1e-6 the rule alone would keep batches tiny; the auto cap lifts
    # it to the measured component variance (2.0), demanding larger batches.
    fixed = run(ls5, make_config(5, cap=1e-6, max_iters=30, tolerance=0.0))
    lifted = run(
        ls5, make_config(5, cap=1e-6, max_iters=30, tolerance=0.0, auto_cap=True)
    )
    assert max(r.batch_size for r in lifted.rows) > max(r.batch_size for r in fixed.rows)


def test_run_config_validation(ls5):
    with pytest.raises(ValueError):
        make_config(5, max_iters=0)
    with pytest.raises(ValueError):
        make_config(5, tolerance=-1.0)
    with pytest.raises(ValueError):
        make_config(5, tolerance=float("nan"))
    with pytest.raises(ValueError):
        make_config(5, auto_cap=True, monitor_full_gradient=False)
    with pytest.raises(ValueError):
        run(ls5, make_config(4))
    with pytest.raises(ValueError):
        run(ls5, make_config(5, x0=np.zeros(3)))


def test_run_custom_start_point(ls5):
    record = run(ls5, make_config(5, x0=np.array([10.0])))
    assert record.termination == "converged"
    assert abs(record.final_x[0] - 3.0) <= 1e-2
