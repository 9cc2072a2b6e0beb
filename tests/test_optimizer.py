from unittest.mock import Mock

import numpy as np
import pytest

import varbatch.optimizer as optimizer
import varbatch.scheduler as scheduler
from helpers import enumerate_run, fancy_index_least_squares
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
    gradient_stats,
    learning_rate_at,
    make_least_squares,
    make_logistic,
    next_batch_size,
    objective_value,
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
    config = make_config(5, learning_rate=LearningRateSchedule.decaying(1.0))
    assert learning_rate_at(config, np.int64(3)) == 0.25
    for k in (1.5, 3.0):
        with pytest.raises(ValueError, match="iteration index must be an integer >= 0"):
            learning_rate_at(config, k)


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


@pytest.mark.parametrize("tolerance", [1e-2, 0.0])
def test_run_computes_one_batch_size_per_row(ls5, monkeypatch, tolerance):
    # The first run converges long before max_iters, the second reaches it:
    # either way run reads no size past its last row.
    spy = Mock(wraps=scheduler.next_batch_size)
    monkeypatch.setattr(scheduler, "next_batch_size", spy)
    record = run(ls5, make_config(5, max_iters=100, tolerance=tolerance))
    expected = "converged" if tolerance else "max_iterations"
    assert record.termination == expected
    assert spy.call_count == len(record.rows)
    assert [call.args[2] for call in spy.call_args_list] == [row.k for row in record.rows]


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
    real = optimizer.learning_rate_at
    monkeypatch.setattr(
        optimizer, "learning_rate_at", lambda *args, **kwargs: real(*args, bad=1, **kwargs)
    )
    with pytest.raises(TypeError, match="bad"):
        run(ls5, make_config(5))


def test_run_stops_as_diverged_on_non_finite_step(ls5, random_ls):
    fast = LearningRateSchedule.constant(50.0)
    for problem in (ls5, random_ls(20, seed=0)):
        n = problem.n_components
        record = run(problem, make_config(n, learning_rate=fast))
        assert record.termination == "diverged"
        assert record.error is None
        assert 0 < len(record.rows) < 500
        assert np.all(np.isfinite(record.final_x))
        assert np.max(np.abs(record.final_x)) > 1e300


@pytest.mark.parametrize("scheme", list(Scheme))
def test_run_calls_samplers_and_stats_through_module_names(ls5, monkeypatch, scheme):
    # The benchmark paces and counts a run by patching these module attributes.
    # A built-in problem is monitored in one pass: one call per row.
    names = ("_one_pass_stats", "gradient_stats", "sample_with_replacement",
             "sample_without_replacement")
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
    expected["_one_pass_stats"] = len(rows)
    expected[f"sample_{scheme.name.lower()}"] = sampled
    assert {name: spy.call_count for name, spy in spies.items()} == expected


@pytest.mark.parametrize("builtin_gradient", [False, True])
def test_callable_problem_is_monitored_by_gradient_stats(ls5, monkeypatch, builtin_gradient):
    # Per-component callables keep the block statistics and objective_value,
    # one call of each per row, at the iterate the row describes; so does a
    # built-in gradient paired with another value, whose objective one pass
    # over the table would not give.
    gradient = ls5.component_gradient
    if not builtin_gradient:
        gradient = lambda i, x: ls5.component_gradient(i, x)  # noqa: E731
    problem = FiniteSumProblem(1, 5, lambda i, x: 2.0 * ls5.component_value(i, x), gradient)
    spies = {name: Mock(wraps=getattr(optimizer, name))
             for name in ("_one_pass_stats", "gradient_stats", "objective_value")}
    for name, spy in spies.items():
        monkeypatch.setattr(optimizer, name, spy)
    rows = run(problem, make_config(5, x0=np.array([7.5]), max_iters=8, tolerance=0.0)).rows
    assert {name: spy.call_count for name, spy in spies.items()} == {
        "_one_pass_stats": 0, "gradient_stats": len(rows), "objective_value": len(rows)}
    for row, call in zip(rows, spies["gradient_stats"].call_args_list):
        x = call.args[1]
        stats = gradient_stats(problem, x)
        assert row.full_grad_norm == float(np.linalg.norm(stats.full_gradient))
        assert row.component_variance == stats.component_variance
        assert row.objective == objective_value(problem, x)


def monitored_iterates(monkeypatch, problem, config):
    """The rows of ``run(problem, config)`` and the iterate each row monitored."""
    spy = Mock(wraps=optimizer._one_pass_stats)
    monkeypatch.setattr(optimizer, "_one_pass_stats", spy)
    rows = run(problem, config).rows
    assert spy.call_count == len(rows)
    return rows, [call.args[1] for call in spy.call_args_list]


@pytest.mark.parametrize("kind", ["least-squares", "logistic"])
def test_one_pass_monitor_matches_the_public_aggregates(monkeypatch, random_ls, kind):
    rng = np.random.default_rng(6)
    if kind == "logistic":
        problem = make_logistic(rng.normal(size=(200, 3)), rng.choice([-1.0, 1.0], size=200))
    else:
        problem = random_ls(200, d=3, seed=5)
    config = make_config(200, cap=1.0, max_iters=12, tolerance=0.0)
    rows, iterates = monitored_iterates(monkeypatch, problem, config)
    for row, x in zip(rows, iterates):
        variance = gradient_stats(problem, x).component_variance
        assert row.full_grad_norm == float(np.linalg.norm(full_gradient(problem, x)))
        assert row.objective == objective_value(problem, x)
        assert abs(row.component_variance - variance) <= 1e-12 * variance
        assert row.full_grad_norm ** 2 <= row.component_variance  # the one-pass variance


def test_monitor_takes_the_block_variance_far_from_the_optimum(ls5, monkeypatch):
    # Var is 2 at every x, and ||g||**2 = (x - 3)**2 is about 1e6 here; the
    # one-pass difference of squares loses 11 digits (2 - 1.2e-10 at the start).
    config = make_config(5, x0=np.array([1000.1]), max_iters=4, tolerance=0.0)
    rows, iterates = monitored_iterates(monkeypatch, ls5, config)
    for row, x in zip(rows, iterates):
        assert row.full_grad_norm ** 2 > 1e5 * row.component_variance
        assert row.component_variance == gradient_stats(ls5, x).component_variance


@pytest.mark.parametrize(
    "scheme, sizes, paths",
    [(WITHOUT, [2, 3, 4, 4, 5], 2500), (Scheme.WITH_REPLACEMENT, [2, 4, 5, 5, 5], 1050)],
)
def test_run_mean_over_every_sampling_path_is_gradient_descent(ls5, scheme, sizes, paths):
    # Least-squares gradients are affine, so an unbiased batch gradient keeps
    # E[x_k] on the full-batch path at every k; a biased draw would leave it.
    config = make_config(
        5,
        rule=BatchSizeRule(scheme, VarianceCap(2.0), 5),
        epsilon_schedule=EpsilonSchedule.geometric(1.0, 0.5),
        learning_rate=LearningRateSchedule.constant(0.3),
        max_iters=5,
        tolerance=0.0,
    )
    outcomes = enumerate_run(ls5, config)
    assert len(outcomes) == paths
    assert [row.batch_size for row in outcomes[0][1].rows] == sizes
    assert abs(sum(p for p, _ in outcomes) - 1.0) <= 1e-13
    x = np.zeros(1)
    for _ in range(5):
        x = x - 0.3 * full_gradient(ls5, x)
    mean = sum(p * record.final_x for p, record in outcomes)
    assert np.abs(mean - x).max() <= 1e-12


@pytest.mark.parametrize("scheme", [WITHOUT, Scheme.WITH_REPLACEMENT])
def test_run_evaluates_each_sampled_batch_through_module_name(random_ls, monkeypatch, scheme):
    # The benchmark counts batch evaluations by patching optimizer.batch_gradient.
    spy = Mock(wraps=optimizer.batch_gradient)
    monkeypatch.setattr(optimizer, "batch_gradient", spy)
    config = make_config(
        300,
        rule=BatchSizeRule(scheme, VarianceCap(2.0), 300),
        epsilon_schedule=EpsilonSchedule.geometric(0.5, 0.5),
        max_iters=16,
        tolerance=0.0,
    )
    rows = run(random_ls(300, d=3, seed=4), config).rows
    sampled = [row.batch_size for row in rows if row.batch_size < 300]
    assert 0 < len(sampled) < len(rows) and max(sampled) >= 100
    batches = [call.args[2] for call in spy.call_args_list]
    assert [batch.size for batch in batches] == sampled
    for batch in batches:
        assert "indices" not in vars(batch)  # no index tuple was built
        assert not batch.array.flags.writeable
        with pytest.raises(ValueError):
            batch.array[0] = 0


@pytest.mark.parametrize("scheme", [WITHOUT, Scheme.WITH_REPLACEMENT])
def test_unmonitored_run_matches_fancy_index_formulas(scheme):
    # The large-population mode: every step is one sampled batch gradient.
    n, d = 20_000, 10
    rng = np.random.default_rng(8)
    matrix, targets = rng.normal(size=(n, d)), rng.normal(size=n)
    config = make_config(
        n,
        rule=BatchSizeRule(scheme, VarianceCap(1.0), n),
        epsilon_schedule=EpsilonSchedule.power_law(0.1, 1.1),
        learning_rate=LearningRateSchedule.decaying(0.5),
        max_iters=60,
        tolerance=0.0,
        monitor_full_gradient=False,
    )
    record = run(make_least_squares(matrix, targets), config)
    expected = run(fancy_index_least_squares(matrix, targets), config)
    assert max(row.batch_size for row in record.rows) >= 100
    assert record.rows == expected.rows
    assert record.final_x.tobytes() == expected.final_x.tobytes()


def test_run_config_validation(ls5):
    with pytest.raises(ValueError):
        make_config(5, max_iters=0)
    with pytest.raises(ValueError):
        make_config(5, tolerance=-1.0)
    with pytest.raises(ValueError):
        make_config(5, tolerance=float("nan"))
    with pytest.raises(ValueError):
        make_config(5, tolerance=float("inf"))
    with pytest.raises(ValueError):
        run(ls5, make_config(4))
    with pytest.raises(ValueError):
        run(ls5, make_config(5, x0=np.zeros(3)))


def test_run_custom_start_point(ls5):
    record = run(ls5, make_config(5, x0=np.array([10.0])))
    assert record.termination == "converged"
    assert abs(record.final_x[0] - 3.0) <= 1e-2
