"""Finite-sum objectives with per-component gradient access.

The central object is :class:`FiniteSumProblem`: an average of N component
functions whose values and gradients are evaluated for a batch of component
indices at once. Built-in least-squares and logistic test problems come with
analytic gradients written as numpy formulas over the rows of their data, and
small delimited-text datasets can be loaded from disk.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import Batch


class DatasetFormatError(ValueError):
    """Raised when a dataset file cannot be parsed; the message names the line."""


class EvaluationError(RuntimeError):
    """A component evaluator raised, or returned a result of the wrong size.

    Chained to the original exception, whose type and text the message keeps.
    """


@dataclass(frozen=True)
class FiniteSumProblem:
    """Objective F(x) = (1/N) * sum_i f_i(x) with per-component evaluators.

    Evaluators must be pure functions of ``(i, x)``: the same arguments yield
    bit-identical results. Instances are immutable and safe to share across
    threads. Every aggregate reads the components through :meth:`gradients`
    and :meth:`values`.
    """

    dim: int
    n_components: int
    component_value: Callable[[int, np.ndarray], float]
    component_gradient: Callable[[int, np.ndarray], np.ndarray]
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("problem dimension must be at least 1")
        if self.n_components < 1:
            raise ValueError("problem needs at least one component")

    def gradients(self, indices, x: np.ndarray) -> np.ndarray:
        """Component gradients at ``x``, one row per index: a new (k, d) array.

        ``indices`` is an integer array (repeats allowed) or a slice of the
        population; ``slice(None)`` selects every component in index order.
        Evaluator failures raise :class:`EvaluationError`.
        """
        return self._evaluate(self.component_gradient, indices, x, self.dim)

    def values(self, indices, x: np.ndarray) -> np.ndarray:
        """Component values at ``x``, one entry per index: a new (k,) array."""
        return self._evaluate(self.component_value, indices, x)

    def _evaluate(self, evaluate, indices, x: np.ndarray, *row_shape) -> np.ndarray:
        try:
            if isinstance(evaluate, _RowFormula):
                rows = evaluate.rows(indices, x)
            else:
                # Per-component callables: the one loop over components.
                selected = np.arange(self.n_components)[indices].tolist()
                rows = np.array([evaluate(i, x) for i in selected], dtype=float)
            return rows.reshape(len(rows), *row_shape)  # raises on a wrong size
        except Exception as exc:
            raise EvaluationError(f"{type(exc).__name__}: {exc}") from exc


# Every component, in index order. A basic slice, so the built-in formulas
# read their data without copying it.
_ALL = slice(None)


@dataclass(frozen=True)
class _RowFormula:
    """Numpy formula over the components ``indices`` of a built-in problem.

    Calling it with one index is the per-component evaluator, so the single
    and the batched evaluations share one formula.
    """

    rows: Callable[[object, np.ndarray], np.ndarray]

    def __call__(self, i: int, x: np.ndarray):
        return self.rows([i], x)[0]


@dataclass(frozen=True)
class GradientStats:
    """Full gradient plus the population spread of the component gradients."""

    full_gradient: np.ndarray
    component_variance: float


def _as_point(problem: FiniteSumProblem, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (problem.dim,):
        raise ValueError(
            f"point has shape {arr.shape}, problem dimension is {problem.dim}"
        )
    return arr


def full_gradient(problem: FiniteSumProblem, x) -> np.ndarray:
    """Average of all component gradients.

    Shares its reduction with :func:`batch_gradient`, so a whole-population
    batch reproduces it bit for bit.
    """
    return problem.gradients(_ALL, _as_point(problem, x)).mean(axis=0)


def batch_gradient(problem: FiniteSumProblem, x, batch: Batch) -> np.ndarray:
    """Average gradient over a batch; repeated indices count with multiplicity."""
    x = _as_point(problem, x)
    if batch.indices[-1] >= problem.n_components:
        raise ValueError(
            f"batch index {batch.indices[-1]} out of range for "
            f"{problem.n_components} components"
        )
    indices = np.fromiter(batch.indices, np.intp, batch.size)
    return problem.gradients(indices, x).mean(axis=0)


def gradient_stats(problem: FiniteSumProblem, x) -> GradientStats:
    """Full gradient and component-gradient variance from one evaluation pass.

    The variance is the population mean of the squared deviations (divisor N,
    not N-1). The gradient block is centred in place, so only one (N, d)
    array is held.
    """
    grads = problem.gradients(_ALL, _as_point(problem, x))
    mean = grads.mean(axis=0)
    grads -= mean
    return GradientStats(mean, float(np.vdot(grads, grads)) / problem.n_components)


def component_gradient_variance(problem: FiniteSumProblem, x) -> float:
    """Population variance of the component gradients at ``x`` (divisor N)."""
    return gradient_stats(problem, x).component_variance


def gradient_matrix(problem: FiniteSumProblem, x) -> np.ndarray:
    """All component gradients stacked row-wise; used by enumeration oracles."""
    return problem.gradients(_ALL, _as_point(problem, x))


def objective_value(problem: FiniteSumProblem, x) -> float:
    """F(x): the mean of the component values."""
    return float(problem.values(_ALL, _as_point(problem, x)).mean())


def _data(matrix, column, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Float copies of an N x d data matrix and its length-N ``name`` column."""
    A = np.array(matrix, dtype=float)
    y = np.array(column, dtype=float)
    if A.ndim != 2:
        raise ValueError("matrix must be two-dimensional (N rows, d columns)")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError("matrix needs at least one row and one column")
    if y.shape != A.shape[:1]:
        raise ValueError(
            f"{name} have shape {y.shape}, expected ({A.shape[0]},) to match the matrix"
        )
    return A, y


def make_least_squares(matrix, targets) -> FiniteSumProblem:
    """Problem with components f_i(x) = 0.5 * (a_i @ x - b_i)**2.

    ``matrix`` is N x d (one row per component), ``targets`` length N. The
    analytic component gradient is a_i * (a_i @ x - b_i).
    """
    A, b = _data(matrix, targets, "targets")
    n, d = A.shape

    def values(indices, x: np.ndarray) -> np.ndarray:
        residual = A[indices] @ x - b[indices]
        return 0.5 * residual * residual

    def gradients(indices, x: np.ndarray) -> np.ndarray:
        rows = A[indices]
        return rows * (rows @ x - b[indices])[:, None]

    return FiniteSumProblem(
        d, n, _RowFormula(values), _RowFormula(gradients),
        label=f"least-squares(N={n}, d={d})",
    )


def make_logistic(matrix, labels) -> FiniteSumProblem:
    """Problem with components f_i(x) = log(1 + exp(-y_i * a_i @ x)).

    Labels must be -1 or +1. Value and gradient use the numerically stable
    branches for large positive/negative margins.
    """
    A, y = _data(matrix, labels, "labels")
    n, d = A.shape
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("logistic labels must all be -1 or +1")

    def margins(indices, x: np.ndarray):
        # exp(-|m|) never overflows; it is exp(-m) for m > 0 and exp(m) otherwise.
        margin = y[indices] * (A[indices] @ x)
        return margin, np.exp(-np.abs(margin))

    def values(indices, x: np.ndarray) -> np.ndarray:
        margin, e = margins(indices, x)
        return np.where(margin > 0, 0.0, -margin) + np.log1p(e)

    def gradients(indices, x: np.ndarray) -> np.ndarray:
        margin, e = margins(indices, x)
        slope = np.where(margin > 0, e, 1.0) / (1.0 + e)
        return (-y[indices] * slope)[:, None] * A[indices]

    return FiniteSumProblem(
        d, n, _RowFormula(values), _RowFormula(gradients),
        label=f"logistic(N={n}, d={d})",
    )


def load_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a delimited numeric text file into (matrix, labels).

    One row per component; the label/target sits in the last column. Fields
    are separated by commas, if the first data line has one, or else by
    whitespace. Blank lines and lines starting with ``#`` are skipped. Parse
    problems and non-finite cells (``nan``, ``inf``) raise
    :class:`DatasetFormatError` naming the offending line.
    """
    cells = array("d")  # row-major doubles, not a Python float per cell
    width = None
    separator = None
    # Undecodable bytes become unparsable cells, so a binary file is a format error.
    with open(path, errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if width is None:
                separator = "," if "," in line else None
            parts = line.split(separator)
            try:
                values = [float(part) for part in parts]
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: could not parse {line!r} as numbers"
                ) from None
            if not all(map(math.isfinite, values)):
                raise DatasetFormatError(f"{path}: line {lineno}: non-finite value in {line!r}")
            if width is None:
                width = len(values)
                if width < 2:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: need at least one feature column "
                        "plus a label column"
                    )
            elif len(values) != width:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(values)}"
                )
            cells.extend(values)
    if width is None:
        raise DatasetFormatError(f"{path}: no data rows")
    data = np.frombuffer(cells).reshape(-1, width)
    return data[:, :-1], data[:, -1]
