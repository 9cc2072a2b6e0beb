"""Finite-sum objectives with per-component gradient access.

The central object is :class:`FiniteSumProblem`: an average of N component
functions whose values and gradients are evaluated for a batch of component
indices at once. Built-in least-squares and logistic test problems come with
analytic gradients written as numpy formulas over the rows of their data, and
delimited-text datasets are read from disk in one pass by numpy's C parser,
whose cells are ASCII decimal floats.

Component indices are integer arrays or slices. Every gradient aggregate
reads one primitive, ``FiniteSumProblem._gradient_rows``, and adds rows with
one reduction, ``_row_sum``. A built-in problem holds its data as one
C-ordered (N, d + 1) float table, row i being a_i followed by its target or
label, and its gradient is a per-row scale times the features,
g_i(x) = s_i(x) * a_i, so the primitive gives one gather of feature rows and
their scales, and means need no (k, d) gradient block. The gather is the
enumeration oracles' helper: a slice is a view, and an index array goes
through ``ndarray.take``, the bytes of ``table[indices]`` in less time.
Values and scales share one residual or margin, so ``run`` monitors a
built-in problem in one pass (``_one_pass_stats``).
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import Batch, _check_count, _check_in_range, _integer_array


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
    threads. Every gradient aggregate, :meth:`gradients` included, reads the
    components through ``_gradient_rows``; objective values go through
    :meth:`values`.
    """

    dim: int
    n_components: int
    component_value: Callable[[int, np.ndarray], float]
    component_gradient: Callable[[int, np.ndarray], np.ndarray]
    label: str = ""

    def __post_init__(self):
        _check_count(self.dim, "problem dimension", 1)
        _check_count(self.n_components, "population size", 1)

    def gradients(self, indices, x: np.ndarray) -> np.ndarray:
        """Component gradients at ``x``, one row per index: a new (k, d) array.

        ``indices`` is an array of integers that fit ``np.intp`` (repeats
        allowed, negative indices wrap) or a slice of the population;
        ``slice(None)`` selects every component in index order. Any other
        array, boolean or uint64 included, raises ``ValueError`` before
        anything is evaluated; an empty sequence is accepted. Built-in
        problems gather the rows with ``ndarray.take``. Evaluator failures,
        and an index past either end, raise :class:`EvaluationError` chained
        to the original error.
        """
        rows, s = self._gradient_rows(indices, x)
        # A multiply, not einsum, which would turn a -0.0 product into +0.0.
        return rows if s is None else rows * s[:, None]

    def values(self, indices, x: np.ndarray) -> np.ndarray:
        """Component values at ``x``, one entry per index: a new (k,) array."""
        return self._evaluate(self.component_value, indices, x)

    def _gradient_rows(self, indices, x: np.ndarray):
        """``(rows, s)``: component gradients at ``x`` as rows and per-row scales.

        For a built-in problem, ``rows`` are its gathered feature rows, a
        view of one ``take`` of its table, and ``s`` the per-row gradient
        scales, g_i = s_i * a_i. For per-component callables, ``rows`` is
        the new (k, d) gradient block and ``s`` is None.
        """
        gradient = self.component_gradient
        if isinstance(gradient, _RowFormula) and gradient.scaled:
            return _guarded(gradient.rows, indices, x)
        return self._evaluate(gradient, indices, x, self.dim), None

    def _evaluate(self, evaluate, indices, x: np.ndarray, *row_shape) -> np.ndarray:
        def batched(indices, x):
            if isinstance(evaluate, _RowFormula):
                rows = evaluate.rows(indices, x)
            else:
                # Per-component callables: the one loop over components. The
                # range selects like an index array, wrapping negative indices
                # and raising IndexError past the end, at O(k) cost.
                population = range(self.n_components)
                if isinstance(indices, slice):
                    selected = population[indices]
                else:
                    selected = [population[i] for i in indices.tolist()]
                rows = np.array([evaluate(i, x) for i in selected], dtype=float)
            return rows.reshape(len(rows), *row_shape)  # raises on a wrong size

        return _guarded(batched, indices, x)


def _guarded(batched, indices, x: np.ndarray):
    """``batched(indices, x)`` on checked indices; any failure raises :class:`EvaluationError`."""
    if not isinstance(indices, slice):
        indices = _integer_array(indices)
    try:
        return batched(indices, x)
    except Exception as exc:
        raise EvaluationError(f"{type(exc).__name__}: {exc}") from exc


# Every component, in index order. A basic slice, so the built-in formulas
# read their data without copying it.
_ALL = slice(None)


def _rows(data: np.ndarray, indices) -> np.ndarray:
    """Rows ``indices`` of a 2-D array: ``data[indices]``, bit for bit.

    A slice is basic indexing, a view. An integer index array of any shape
    (a batch, or an oracle's ``(m, k)`` chunk) goes through ``take`` along
    the rows, which returns the same C-contiguous copy as fancy indexing
    with less work per row.
    """
    if isinstance(indices, slice):
        return data[indices]
    return data.take(indices, axis=0)


@dataclass(frozen=True)
class _RowFormula:
    """Numpy formula over the components ``indices`` of a built-in problem.

    Calling it with one index is the per-component evaluator, so the single
    and the batched evaluations share one formula and one index rule. A
    ``scaled`` formula, a built-in gradient, returns the gathered feature
    rows and per-row scales that its one-index call multiplies.
    """

    rows: Callable[[object, np.ndarray], object]
    scaled: bool = False

    def __call__(self, i: int, x: np.ndarray):
        rows = self.rows(_integer_array([i]), x)
        if self.scaled:
            features, s = rows
            return features[0] * s[0]
        return rows[0]


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


def _row_sum(rows: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
    """``(rows * s[..., None]).sum(axis=-2)``, or ``rows.sum(axis=-2)``, bit for bit.

    ``einsum`` adds the rows, or the products ``s_i * rows[i]``, one at a
    time in index order, as numpy's sum does with two or more entries per
    row, with less work per row and no block of products. With one entry
    numpy sums the column pairwise, and that case keeps its own sum, over a
    contiguous copy: along a strided batch axis numpy adds row by row.
    ``rows`` may be a strided view, such as a table's feature columns or
    the transpose of an oracle's column-major gather.
    """
    if rows.shape[-1] == 1:
        rows = rows if s is None else rows * s[..., None]
        return np.ascontiguousarray(rows).sum(axis=-2)
    if s is None:
        return np.einsum("...ij->...j", rows)
    return np.einsum("...ij,...i->...j", rows, s)


def _gradient_mean(problem: FiniteSumProblem, indices, x: np.ndarray, shape=(-1,)) -> np.ndarray:
    """``gradients(indices, x).reshape(*shape, d).mean(axis=-2)``, bit for bit.

    ``shape`` splits the gathered rows into batches.
    """
    rows, s = problem._gradient_rows(indices, x)
    rows = rows.reshape(*shape, problem.dim)
    return _row_sum(rows, None if s is None else s.reshape(shape)) / rows.shape[-2]


def full_gradient(problem: FiniteSumProblem, x) -> np.ndarray:
    """Average of all component gradients.

    Shares its reduction with :func:`batch_gradient`, so a whole-population
    batch reproduces it bit for bit.
    """
    return _gradient_mean(problem, _ALL, _as_point(problem, x))


def batch_gradient(problem: FiniteSumProblem, x, batch: Batch) -> np.ndarray:
    """Average gradient over a batch; repeated indices count with multiplicity.

    Reads the batch's index array, so a sampled batch, which holds one, is
    evaluated without converting its indices. The rows are averaged in
    index order, as in :func:`full_gradient`.
    """
    x = _as_point(problem, x)
    indices = batch.array
    _check_in_range(indices[-1], problem.n_components)
    return _gradient_mean(problem, indices, x)


def gradient_stats(problem: FiniteSumProblem, x) -> GradientStats:
    """Full gradient and component-gradient variance from one evaluation pass.

    The variance is the population mean of the squared deviations (divisor N,
    not N-1). The gradient block is centred in place, so only one (N, d)
    array is held.
    """
    x = _as_point(problem, x)
    return _block_stats(*problem._gradient_rows(_ALL, x), problem.n_components)


def _block_stats(rows: np.ndarray, s: np.ndarray | None, n: int) -> GradientStats:
    """:func:`gradient_stats` of the gradient rows and scales of all ``n`` components."""
    # The gradient block by einsum, faster than a multiply over the table's
    # strided feature columns. It adds each product into a zeroed output, so
    # a -0.0 product comes out +0.0: the mean and the sum of squares below do
    # not see the sign of a zero.
    grads = rows if s is None else np.einsum("ij,i->ij", rows, s)
    mean = _row_sum(grads) / n
    grads -= mean
    return GradientStats(mean, float(np.vdot(grads, grads)) / n)


def _row_norms(problem: FiniteSumProblem) -> np.ndarray | None:
    """Each ||a_i||**2 if one :class:`_Table` gives the value and gradient, else None."""
    table = getattr(getattr(problem.component_gradient, "rows", None), "__self__", None)
    if not isinstance(table, _Table) or problem.component_value != _RowFormula(table.values):
        return None
    features = table.data[:, :-1]
    return np.einsum("ij,ij->i", features, features)


def _one_pass_stats(problem: FiniteSumProblem, x: np.ndarray, norms: np.ndarray):
    """``(gradient_stats(problem, x), objective_value(problem, x))`` from one table pass.

    The full gradient and the objective are those of :func:`full_gradient`
    and :func:`objective_value`, bit for bit. The variance is
    mean(s_i**2 ||a_i||**2) - ||g||**2 where ||g||**2 <= Var, which bounds its
    rounding to a few ulps of Var; elsewhere, or past an overflow, it is the
    centred block's, as in :func:`gradient_stats`. ``norms`` is :func:`_row_norms`.
    """
    table = problem.component_gradient.rows.__self__
    rows, s, values = _guarded(table.rows_and_values, _ALL, x)
    n = problem.n_components
    mean = _row_sum(rows, s) / n
    square = np.einsum("j,j->", mean, mean)
    variance = np.einsum("i,i,i->", s, s, norms) / n - square
    if not square <= variance < np.inf:
        variance = _block_stats(rows, s, n).component_variance
    return GradientStats(mean, float(variance)), float(values.mean())


def component_gradient_variance(problem: FiniteSumProblem, x) -> float:
    """Population variance of the component gradients at ``x`` (divisor N)."""
    return gradient_stats(problem, x).component_variance


def gradient_matrix(problem: FiniteSumProblem, x) -> np.ndarray:
    """All component gradients stacked row-wise; used by enumeration oracles."""
    return problem.gradients(_ALL, _as_point(problem, x))


def objective_value(problem: FiniteSumProblem, x) -> float:
    """F(x): the mean of the component values."""
    return float(problem.values(_ALL, _as_point(problem, x)).mean())


# Rows per block of the table build (about 360 kB of table at d = 10): a
# block's rows are still cached when its target column is written. On a
# 2-vCPU VM (min of 5, 3 alternating rounds), a 1e6 x 10 float fill took
# 37-40 ms blocked and 44-49 ms unblocked; a 3e5 x 10 int one, 7-8 and 10-11 ms.
_BUILD_ROWS = 4096


def _data(matrix, column, name: str) -> np.ndarray:
    """The (N, d + 1) float table of an N x d data matrix and its ``name`` column.

    Row i holds a_i, then its target or label. The table is C-ordered
    whatever the input's order, so a problem built from a transposed or
    Fortran-ordered array evaluates the same rows, and gives the same bytes,
    as one built from a C-ordered copy. It is filled in blocks of rows,
    converting as it copies, so no second N x d array is made.
    """
    A = np.asarray(matrix)
    y = np.asarray(column, dtype=float)
    if A.ndim != 2:
        raise ValueError("matrix must be two-dimensional (N rows, d columns)")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError("matrix needs at least one row and one column")
    if y.shape != A.shape[:1]:
        raise ValueError(
            f"{name} have shape {y.shape}, expected ({A.shape[0]},) to match the matrix"
        )
    n, d = A.shape
    table = np.empty((n, d + 1))
    for start in range(0, n, _BUILD_ROWS):
        block = slice(start, start + _BUILD_ROWS)
        table[block, :d] = A[block]
        table[block, d] = y[block]
    return table


class _Table:
    """A built-in formula over the rows of an (N, d + 1) table, and its problem.

    ``link(features, column, x)`` is the rows' residual or margin, which
    ``value(t, column)`` and ``scale(t, column)`` map to the component values
    and the gradient scales s_i, g_i(x) = s_i(x) * a_i: values, gradients
    and both at once share one evaluation of it. A plain class: a dataclass
    would cost every import of the package about 0.5 ms to build.
    """

    __slots__ = ("data", "link", "value", "scale")

    def __init__(self, data: np.ndarray, link, value, scale):
        self.data, self.link, self.value, self.scale = data, link, value, scale

    def _linked(self, indices, x: np.ndarray):
        rows = _rows(self.data, indices)
        features, column = rows[:, :-1], rows[:, -1]
        return features, column, self.link(features, column, x)

    def values(self, indices, x: np.ndarray) -> np.ndarray:
        _, column, t = self._linked(indices, x)
        return self.value(t, column)

    def gradient_rows(self, indices, x: np.ndarray):
        features, column, t = self._linked(indices, x)
        return features, self.scale(t, column)

    def rows_and_values(self, indices, x: np.ndarray):
        features, column, t = self._linked(indices, x)
        return features, self.scale(t, column), self.value(t, column)

    def problem(self, label: str) -> FiniteSumProblem:
        n, d = self.data.shape[0], self.data.shape[1] - 1
        return FiniteSumProblem(
            d, n, _RowFormula(self.values), _RowFormula(self.gradient_rows, scaled=True),
            label=f"{label}(N={n}, d={d})",
        )


def make_least_squares(matrix, targets) -> FiniteSumProblem:
    """Problem with components f_i(x) = 0.5 * (a_i @ x - b_i)**2.

    ``matrix`` is N x d (one row per component), ``targets`` length N. The
    analytic component gradient is a_i * (a_i @ x - b_i).
    """
    return _least_squares(_data(matrix, targets, "targets"))


def _least_squares(table: np.ndarray) -> FiniteSumProblem:
    """:func:`make_least_squares` over its (N, d + 1) table, held without a copy."""

    def residual(rows, b, x: np.ndarray) -> np.ndarray:
        return rows @ x - b

    squares = _Table(table, residual, lambda r, b: 0.5 * r * r, lambda r, b: r)
    return squares.problem("least-squares")


def make_logistic(matrix, labels) -> FiniteSumProblem:
    """Problem with components f_i(x) = log(1 + exp(-y_i * a_i @ x)).

    Labels must be -1 or +1. Value and gradient use the numerically stable
    branches for large positive/negative margins.
    """
    table = _data(matrix, labels, "labels")
    if not np.all(np.isin(table[:, -1], (-1.0, 1.0))):
        raise ValueError("logistic labels must all be -1 or +1")

    def margins(rows, labels, x: np.ndarray):
        # exp(-|m|) never overflows; it is exp(-m) for m > 0 and exp(m) otherwise.
        margin = labels * (rows @ x)
        return margin, np.exp(-np.abs(margin))

    def value(margins, labels) -> np.ndarray:
        margin, e = margins
        return np.where(margin > 0, 0.0, -margin) + np.log1p(e)

    def scale(margins, labels) -> np.ndarray:
        margin, e = margins
        return -labels * (np.where(margin > 0, e, 1.0) / (1.0 + e))

    return _Table(table, margins, value, scale).problem("logistic")


def load_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a delimited numeric text file into (matrix, labels).

    One row per component; the label/target sits in the last column. Fields
    are separated by commas, if the first data line has one, or else by
    whitespace. Blank lines and lines starting with ``#`` are skipped; a
    ``#`` later in a line is not a comment. Cells are ASCII decimal floats as
    numpy's ``loadtxt`` reads them, so digit-group underscores (``1_0``) and
    non-ASCII digits are rejected. Parse problems, ragged rows and non-finite
    cells (``nan``, ``inf``) raise :class:`DatasetFormatError` naming the
    first offending line. Both results are views of one (N, d + 1) array.
    """
    table = _load_table(path)
    return table[:, :-1], table[:, -1]


def _load_table(path) -> np.ndarray:
    """The C-ordered (N, d + 1) float table that :func:`load_dataset` splits."""
    # Undecodable bytes become unparsable cells, so a binary file is a format error.
    with open(path, errors="surrogateescape") as fh:
        if not fh.seekable():
            # A stream that cannot be read twice (a pipe) is read once, and
            # its bytes are then read as a file is. Held as bytes, not in an
            # io.StringIO, which keeps four bytes per character.
            fh = io.TextIOWrapper(io.BytesIO(fh.buffer.read()), errors="surrogateescape")
        skipped = 0
        for line in fh:
            first = line.strip()
            if first and not first.startswith("#"):
                break
            skipped += 1
        else:
            raise DatasetFormatError(f"{path}: no data rows")
        separator = "," if "," in first else None
        # numpy reads the file itself, past the leading skipped lines, and
        # skips later empty lines and the whitespace around cells. A later
        # '#' or whitespace-only line makes it raise; only then are the
        # stripped data lines parsed alone.
        fh.seek(0)
        try:
            data = _parse_rows(fh, separator, skipped)
        except ValueError:
            fh.seek(0)
            lines = (line for line in map(str.strip, fh) if line and not line.startswith("#"))
            try:
                data = _parse_rows(lines, separator)
            except ValueError:
                data = None
        if data is None or data.shape[1] < 2 or not np.isfinite(data).all():
            fh.seek(0)
            raise _first_format_error(path, separator, fh)
    return data


def _parse_rows(lines, separator, skip=0) -> np.ndarray:
    """Parse data lines, after the first ``skip``, in C into a float64 (rows, fields) array.

    ``comments=None``: a ``#`` after the first character of a line stays part
    of its cell, and so an error.
    """
    return np.loadtxt(lines, delimiter=separator, comments=None, ndmin=2, skiprows=skip)


def _first_format_error(path, separator, lines) -> DatasetFormatError:
    """Error naming the first bad line of a file the one-pass parse rejected.

    ``lines`` are the file's raw lines from line 1 on. Each is
    parsed alone, with the same parser, and checked in turn: parse, finite
    cells, then width.
    """
    width = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = _parse_rows((line,), separator)[0]
        except ValueError:
            return DatasetFormatError(
                f"{path}: line {lineno}: could not parse {line!r} as numbers"
            )
        if not np.isfinite(row).all():
            return DatasetFormatError(f"{path}: line {lineno}: non-finite value in {line!r}")
        if width is None:
            width = len(row)
            if width < 2:
                return DatasetFormatError(
                    f"{path}: line {lineno}: need at least one feature column "
                    "plus a label column"
                )
        elif len(row) != width:
            return DatasetFormatError(
                f"{path}: line {lineno}: expected {width} fields, got {len(row)}"
            )
    # The file changed between the two reads, or the parses disagree.
    return DatasetFormatError(f"{path}: could not read the file as a numeric table")
