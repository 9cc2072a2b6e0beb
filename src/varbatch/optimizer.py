"""SGD driver with scheduler-controlled batch sizes and per-iteration telemetry."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .finite_sum import (
    EvaluationError,
    FiniteSumProblem,
    _one_pass_stats,
    _row_norms,
    batch_gradient,
    full_gradient,
    gradient_stats,
    objective_value,
)
from .sampling import (
    Scheme,
    SeededRng,
    _check_count,
    sample_with_replacement,
    sample_without_replacement,
)
from .scheduler import BatchSizeRule, EpsilonSchedule, batch_sizes, epsilon_at
from .variance import analytic_variance

CONSTANT = "constant"
DECAYING = "decaying"


@dataclass(frozen=True)
class LearningRateSchedule:
    """Step-size sequence: fixed alpha0, or alpha0 / (k + 1)."""

    kind: str
    alpha0: float

    def __post_init__(self):
        if self.kind not in (CONSTANT, DECAYING):
            raise ValueError(f"unknown learning-rate kind {self.kind!r}")
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0):
            raise ValueError("learning rate must be a positive finite number")

    @classmethod
    def constant(cls, alpha: float = 0.1) -> "LearningRateSchedule":
        return cls(CONSTANT, alpha)

    @classmethod
    def decaying(cls, alpha0: float = 1.0) -> "LearningRateSchedule":
        return cls(DECAYING, alpha0)


def _check_run_limits(max_iters: int, tolerance: float) -> None:
    """The checks of a run's iteration cap and stopping tolerance."""
    _check_count(max_iters, "max_iters", 1)
    if not 0 <= tolerance < math.inf:
        raise ValueError("tolerance must be a nonnegative finite number")


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything a run needs besides the problem itself.

    ``monitor_full_gradient`` keeps desk-scale telemetry (full gradient norm,
    objective, measured component variance) and stops on the true gradient
    norm; switching it off stops on the batch-gradient norm instead, which is
    a documented heuristic for larger populations. The batch sizes are
    ``batch_sizes(rule, epsilon_schedule)``, fixed before the run starts.
    """

    rule: BatchSizeRule
    epsilon_schedule: EpsilonSchedule
    learning_rate: LearningRateSchedule
    max_iters: int = 500
    tolerance: float = 1e-6
    seed: int = 0
    x0: np.ndarray | None = None
    monitor_full_gradient: bool = True

    def __post_init__(self):
        _check_run_limits(self.max_iters, self.tolerance)


@dataclass
class IterationRow:
    """One telemetry row; fields past ``batch_grad_norm`` need full monitoring."""

    k: int
    epsilon: float
    batch_size: int
    alpha: float
    batch_grad_norm: float
    full_grad_norm: float | None = None
    objective: float | None = None
    component_variance: float | None = None
    batch_gradient_variance: float | None = None


@dataclass(eq=False)
class RunRecord:
    """Outcome of a run: telemetry rows, final iterate, termination reason.

    ``termination`` is ``"converged"``, ``"max_iterations"``, ``"diverged"``
    (the next step would have left a non-finite iterate; ``final_x`` is the
    last finite one), or ``"error"`` (a component evaluator failed; ``error``
    carries the message). Rows collected before the run stopped are kept;
    on a diverging run the monitored values, which square the iterate, can
    read ``inf`` for many rows before the iterate overflows.
    When a run converges, the final row describes the iteration at which the
    monitored norm was already within tolerance (no step was applied there).
    """

    rows: list[IterationRow] = field(default_factory=list)
    final_x: np.ndarray | None = None
    termination: str = "max_iterations"
    error: str | None = None


def learning_rate_at(config: RunConfig, k: int) -> float:
    """Step size alpha_k for iteration ``k``; always positive."""
    _check_count(k, "iteration index", 0)
    schedule = config.learning_rate
    if schedule.kind == CONSTANT:
        return schedule.alpha0
    return schedule.alpha0 / (k + 1)


def run(problem: FiniteSumProblem, config: RunConfig) -> RunRecord:
    """Iterate SGD with the batch sizes ``batch_sizes`` reads off the eps schedule.

    Deterministic given the seed. Stops at ``max_iters`` or once the monitored
    gradient norm is within tolerance. When the scheduler asks for the whole
    population the exact full gradient is used directly (no sampling, no
    random draws are consumed, and the logged batch-gradient variance is 0).
    A step to a non-finite iterate ends the run as diverged, and an
    :class:`EvaluationError` ends it with an error note; both return the
    partial record.

    Monitoring a built-in problem costs one pass per iteration: one residual
    or margin evaluation gives the full gradient and the objective, bit for
    bit those of ``full_gradient`` and ``objective_value``, and the component
    variance as mean(s_i**2 ||a_i||**2) - ||g||**2, where ||g||**2 <= Var
    bounds its rounding (the centred block otherwise). Problems built from
    per-component callables call ``gradient_stats`` and ``objective_value``.
    """
    rule = config.rule
    n = rule.n_components
    if n != problem.n_components:
        raise ValueError(
            f"rule covers {n} components but the problem has {problem.n_components}"
        )
    if config.x0 is None:
        x = np.zeros(problem.dim)
    else:
        x = np.array(config.x0, dtype=float)
        if x.shape != (problem.dim,):
            raise ValueError(
                f"x0 has shape {x.shape}, problem dimension is {problem.dim}"
            )
    rng = SeededRng(config.seed)
    record = RunRecord(final_x=x)
    norms = _row_norms(problem) if config.monitor_full_gradient else None
    # A diverging run overflows in its monitoring before the step check
    # below ends it; those values are logged as inf, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        # range comes first, so no size past the last iteration is computed.
        for k, size in zip(range(config.max_iters), batch_sizes(rule, config.epsilon_schedule)):
            try:
                eps_k = epsilon_at(config.epsilon_schedule, k)
                alpha_k = learning_rate_at(config, k)
                stats = objective = None
                if norms is not None:
                    stats, objective = _one_pass_stats(problem, x, norms)
                elif config.monitor_full_gradient:
                    stats = gradient_stats(problem, x)
                if size == n:
                    gradient = stats.full_gradient if stats is not None else full_gradient(problem, x)
                elif rule.scheme is Scheme.WITH_REPLACEMENT:
                    gradient = batch_gradient(problem, x, sample_with_replacement(rng, n, size))
                else:
                    gradient = batch_gradient(problem, x, sample_without_replacement(rng, n, size))
                row = IterationRow(
                    k=k,
                    epsilon=eps_k,
                    batch_size=size,
                    alpha=alpha_k,
                    batch_grad_norm=float(np.linalg.norm(gradient)),
                )
                monitored = row.batch_grad_norm
                if stats is not None:
                    row.full_grad_norm = monitored = float(np.linalg.norm(stats.full_gradient))
                    row.objective = objective_value(problem, x) if objective is None else objective
                    row.component_variance = stats.component_variance
                    # At size N the step used the exact gradient: no sampling variance.
                    row.batch_gradient_variance = 0.0 if size == n else analytic_variance(
                        rule.scheme, stats.component_variance, n, size
                    )
                record.rows.append(row)
                if monitored <= config.tolerance:
                    record.termination = "converged"
                    break
                step = x - alpha_k * gradient
                if not np.isfinite(step).all():
                    record.termination = "diverged"
                    break
                x = step
            except EvaluationError as exc:
                record.termination = "error"
                record.error = str(exc)  # names the original exception type
                break
    record.final_x = x
    return record
