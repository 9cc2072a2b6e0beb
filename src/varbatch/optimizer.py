"""SGD driver with scheduler-controlled batch sizes and per-iteration telemetry."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .finite_sum import (
    EvaluationError,
    FiniteSumProblem,
    batch_gradient,
    full_gradient,
    gradient_stats,
    objective_value,
)
from .sampling import (
    Scheme,
    SeededRng,
    sample_with_replacement,
    sample_without_replacement,
)
from .scheduler import BatchSizeRule, EpsilonSchedule, epsilon_at, next_batch_size
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


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything a run needs besides the problem itself.

    ``monitor_full_gradient`` keeps desk-scale telemetry (full gradient norm,
    objective, measured component variance) and stops on the true gradient
    norm; switching it off stops on the batch-gradient norm instead, which is
    a documented heuristic for larger populations. ``auto_cap`` is an
    extension that replaces the fixed variance cap with the running maximum
    of the measured component variance.
    """

    rule: BatchSizeRule
    epsilon_schedule: EpsilonSchedule
    learning_rate: LearningRateSchedule
    max_iters: int = 500
    tolerance: float = 1e-6
    seed: int = 0
    x0: np.ndarray | None = None
    monitor_full_gradient: bool = True
    auto_cap: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be a nonnegative number")
        if self.auto_cap and not self.monitor_full_gradient:
            raise ValueError("auto_cap needs monitor_full_gradient for measurements")


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
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    schedule = config.learning_rate
    if schedule.kind == CONSTANT:
        return schedule.alpha0
    return schedule.alpha0 / (k + 1)


def run(problem: FiniteSumProblem, config: RunConfig) -> RunRecord:
    """Iterate SGD with the batch size recomputed from the eps schedule each step.

    Deterministic given the seed. Stops at ``max_iters`` or once the monitored
    gradient norm is within tolerance. When the scheduler asks for the whole
    population the exact full gradient is used directly (no sampling, no
    random draws are consumed, and the logged batch-gradient variance is 0).
    A step to a non-finite iterate ends the run as diverged, and an
    :class:`EvaluationError` ends it with an error note; both return the
    partial record.
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
    previous = rule.floor
    running_cap = rule.cap.value
    for k in range(config.max_iters):
        try:
            eps_k = epsilon_at(config.epsilon_schedule, k)
            alpha_k = learning_rate_at(config, k)
            stats = gradient_stats(problem, x) if config.monitor_full_gradient else None
            cap_override = None
            if config.auto_cap:
                # An overflowed measurement is no cap; the step check below ends
                # such a run as diverged.
                if math.isfinite(stats.component_variance):
                    running_cap = max(running_cap, stats.component_variance)
                cap_override = running_cap
            size = next_batch_size(
                rule, config.epsilon_schedule, k, previous, cap_override=cap_override
            )
            previous = size
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
                row.objective = objective_value(problem, x)
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
