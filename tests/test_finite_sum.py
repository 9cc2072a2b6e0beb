import math

import numpy as np
import pytest

from helpers import (
    brute_force_component_variance,
    central_difference_gradient,
    reference_load_dataset,
)
from varbatch import (
    DatasetFormatError,
    EvaluationError,
    FiniteSumProblem,
    Scheme,
    batch_gradient,
    component_gradient_variance,
    full_gradient,
    gradient_matrix,
    gradient_stats,
    load_dataset,
    make_batch,
    make_least_squares,
    make_logistic,
    objective_value,
)
from varbatch import finite_sum

X0 = np.array([0.0])


def test_full_gradient_worked_value(ls5):
    assert full_gradient(ls5, X0) == pytest.approx([-3.0], abs=1e-15)


def test_full_gradient_single_component():
    problem = make_least_squares(np.array([[2.0]]), np.array([5.0]))
    x = np.array([1.0])
    expected = problem.component_gradient(0, x)
    assert np.array_equal(full_gradient(problem, x), expected)


def test_full_gradient_matches_population_batch_exactly(ls5):
    # Built-in formulas and the per-component adapter, each checked for the
    # shared reduction and row by row against the per-component callables.
    rng = np.random.default_rng(17)
    matrix = rng.normal(size=(7, 3))
    logistic = make_logistic(matrix, np.where(rng.normal(size=7) >= 0, 1.0, -1.0))
    cases = [
        (ls5, np.array([0.7])),
        (make_least_squares(matrix, rng.normal(size=7)), np.array([0.3, -1.2, 0.5])),
        (logistic, np.array([0.3, -1.2, 0.5])),
        # Margins of +800 and -800.
        (make_logistic(np.array([[1.0], [-1.0]]), np.ones(2)), np.array([800.0])),
        (FiniteSumProblem(1, 5, ls5.component_value, ls5.component_gradient), np.array([0.7])),
    ]
    for problem, x in cases:
        n = problem.n_components
        batch = make_batch(range(n), Scheme.WITHOUT_REPLACEMENT)
        assert np.array_equal(full_gradient(problem, x), batch_gradient(problem, x, batch))
        indices = np.array([n - 1, 0, n - 1, 0, n // 2])
        grads = problem.gradients(indices, x)
        values = problem.values(indices, x)
        assert grads.shape == (5, problem.dim) and values.shape == (5,)
        for row, i in enumerate(indices.tolist()):
            assert np.max(np.abs(grads[row] - problem.component_gradient(i, x))) <= 1e-15
            assert abs(values[row] - problem.component_value(i, x)) <= 1e-15
    extreme, x = cases[3]
    assert extreme.values(np.array([0, 1]), x).tolist() == [0.0, 800.0]


def test_evaluator_failures_raise_evaluation_error(ls5):
    def broken(i, x):
        raise KeyError("row missing")

    def pair(i, x):
        return np.zeros(2)

    cases = (
        (FiniteSumProblem(1, 5, ls5.component_value, broken), full_gradient, KeyError),
        (FiniteSumProblem(1, 5, ls5.component_value, pair), full_gradient, ValueError),
        (FiniteSumProblem(1, 5, pair, ls5.component_gradient), objective_value, ValueError),
    )
    for problem, aggregate, cause in cases:
        with pytest.raises(EvaluationError, match=cause.__name__) as excinfo:
            aggregate(problem, X0)
        assert isinstance(excinfo.value.__cause__, cause)


def test_full_gradient_dimension_mismatch(ls5):
    with pytest.raises(ValueError):
        full_gradient(ls5, np.zeros(2))


def test_batch_gradient_pair(ls5):
    batch = make_batch([0, 4], Scheme.WITHOUT_REPLACEMENT)
    assert batch_gradient(ls5, X0, batch) == pytest.approx([-3.0], abs=1e-15)


def test_batch_gradient_counts_multiplicity(ls5):
    batch = make_batch([2, 2], Scheme.WITH_REPLACEMENT)
    assert batch_gradient(ls5, X0, batch) == pytest.approx([-3.0], abs=1e-15)


def test_batch_gradient_rejects_out_of_range(ls5):
    batch = make_batch([0, 7], Scheme.WITHOUT_REPLACEMENT)
    with pytest.raises(ValueError, match="out of range"):
        batch_gradient(ls5, X0, batch)


def test_batch_gradient_matches_gradient_matrix_mean(random_ls):
    problem = random_ls(9, d=3, seed=5)
    x = np.linspace(-1.0, 1.0, 3)
    grads = gradient_matrix(problem, x)
    for indices in ([0, 3, 8], [2, 2, 5], [4]):
        scheme = (
            Scheme.WITH_REPLACEMENT
            if len(set(indices)) < len(indices)
            else Scheme.WITHOUT_REPLACEMENT
        )
        batch = make_batch(indices, scheme)
        direct = batch_gradient(problem, x, batch)
        cached = grads[list(batch.indices)].mean(axis=0)
        assert np.max(np.abs(direct - cached)) < 1e-14


@pytest.mark.parametrize("x", [0.0, -2.5, 11.0])
def test_component_variance_constant_for_unit_features(ls5, x):
    # Deviations are 3 - a_i regardless of x: squares 4, 1, 0, 1, 4.
    assert component_gradient_variance(ls5, np.array([x])) == pytest.approx(2.0, abs=1e-14)


def test_component_variance_zero_for_identical_components():
    problem = make_least_squares(np.ones((4, 1)), np.full(4, 2.0))
    assert component_gradient_variance(problem, np.array([0.3])) == 0.0


def test_component_variance_matches_brute_force(random_ls):
    problem = random_ls(7, d=1, seed=11)
    x = np.array([0.37])
    expected = brute_force_component_variance(problem, x)
    assert component_gradient_variance(problem, x) == pytest.approx(expected, abs=1e-12)


def test_gradient_stats_consistent_with_separate_ops(random_ls):
    problem = random_ls(6, d=2, seed=2)
    x = np.array([0.5, -1.0])
    stats = gradient_stats(problem, x)
    assert np.array_equal(stats.full_gradient, full_gradient(problem, x))
    assert stats.component_variance == component_gradient_variance(problem, x)


def test_least_squares_unit_feature_variance_everywhere():
    problem = make_least_squares(np.ones((5, 1)), np.arange(1.0, 6.0))
    for x in (np.array([-4.0]), np.array([0.0]), np.array([9.5])):
        assert component_gradient_variance(problem, x) == pytest.approx(2.0, abs=1e-14)


def test_least_squares_zero_targets_zero_gradient():
    problem = make_least_squares(np.eye(3), np.zeros(3))
    assert np.array_equal(full_gradient(problem, np.zeros(3)), np.zeros(3))


def test_least_squares_gradient_matches_finite_differences(random_ls):
    problem = random_ls(6, d=3, seed=7)
    rng = np.random.default_rng(123)
    for _ in range(10):
        x = rng.normal(size=3)
        i = int(rng.integers(6))
        fd = central_difference_gradient(lambda z, i=i: problem.component_value(i, z), x)
        assert np.max(np.abs(problem.component_gradient(i, x) - fd)) < 1e-6


def test_least_squares_shape_mismatch():
    with pytest.raises(ValueError):
        make_least_squares(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ValueError):
        make_least_squares(np.ones(3), np.ones(3))


def test_logistic_value_at_origin_is_log_two():
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(6, 2))
    labels = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    problem = make_logistic(matrix, labels)
    for i in range(6):
        assert problem.component_value(i, np.zeros(2)) == pytest.approx(math.log(2.0))


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    matrix = rng.normal(size=(8, 3))
    labels = np.where(rng.normal(size=8) >= 0, 1.0, -1.0)
    problem = make_logistic(matrix, labels)
    for _ in range(10):
        x = rng.normal(size=3)
        i = int(rng.integers(8))
        fd = central_difference_gradient(lambda z, i=i: problem.component_value(i, z), x)
        grad = problem.component_gradient(i, x)
        assert np.max(np.abs(grad - fd)) < 1e-5 * max(1.0, float(np.max(np.abs(fd))))


def test_logistic_label_flip_negates_gradient_at_origin():
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(5, 2))
    labels = np.ones(5)
    flipped = make_logistic(matrix, -labels)
    original = make_logistic(matrix, labels)
    x = np.zeros(2)
    assert np.allclose(
        full_gradient(original, x), -full_gradient(flipped, x), atol=1e-15
    )


def test_logistic_rejects_bad_labels():
    with pytest.raises(ValueError, match="-1 or \\+1"):
        make_logistic(np.ones((2, 1)), np.array([0.5, 1.0]))


def test_logistic_stable_at_extreme_margins():
    problem = make_logistic(np.array([[1.0]]), np.array([1.0]))
    assert problem.component_value(0, np.array([800.0])) == 0.0
    assert problem.component_value(0, np.array([-800.0])) == pytest.approx(800.0)
    assert np.isfinite(problem.component_gradient(0, np.array([-800.0]))).all()


def test_objective_value_is_component_mean(ls5):
    x = np.array([1.5])
    expected = sum(ls5.component_value(i, x) for i in range(5)) / 5
    assert objective_value(ls5, x) == pytest.approx(expected, abs=1e-15)


def test_load_dataset_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2,1\n0,1,-1\n2,0,1\n")
    matrix, labels = load_dataset(path)
    assert matrix.shape == (3, 2)
    assert np.array_equal(labels, [1.0, -1.0, 1.0])


def test_load_dataset_whitespace_and_comments(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("# header comment\n1 2 1\n\n0 1 -1\n")
    matrix, labels = load_dataset(path)
    assert matrix.shape == (2, 2)
    assert labels.tolist() == [1.0, -1.0]


def test_load_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only a comment\n")
    with pytest.raises(DatasetFormatError, match="no data rows"):
        load_dataset(path)


def test_load_dataset_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,1\n0,1\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


def test_load_dataset_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,1\nx,1,1\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_dataset_non_finite_names_line(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"# header\n1,2,1\n0,{cell},1\n")
    with pytest.raises(DatasetFormatError, match="line 3: non-finite"):
        load_dataset(path)


def test_load_dataset_needs_label_column(tmp_path):
    path = tmp_path / "narrow.csv"
    path.write_text("1\n2\n")
    with pytest.raises(DatasetFormatError, match="label column"):
        load_dataset(path)


# Files that both parsers reject, each with its first bad line.
MALFORMED_FILES = {
    "ragged-short": b"1,2,1\n0,1\n",
    "ragged-long": b"1,2\n0,1,3\n",
    "nan": b"# header\n1,2,1\n0,nan,1\n",
    "inf-first-line": b"inf 1\n2 3\n",
    "overflow": b"1,2\n1e999,3\n",
    "non-finite-before-width": b"1,2,3\n4,-inf\n",
    "width-1": b"1\n2\n",
    "width-1-nan": b"nan\n",
    "width-1-then-text": b"5\nx\n",
    "empty": b"",
    "only-skipped-lines": b"# a\n\n   \n  # b, c\n",
    "binary": b"\x00\xff\xfe\x01\x89PNG\n",
    "binary-later": b"1,2\n\xff\xfe,3\n",
    "trailing-comma": b"1,2,\n",
    "empty-cell": b"1,,2\n",
    "mid-line-comment": b"1,2\n3,4 # note\n",
    "comma-then-spaces": b"1,2,3\n4 5 6\n",
    "spaces-then-comma": b"1 2 3\n4,5,6\n",
    "mixed-in-line": b"1,2 3\n",
    "header-row": b"x,y\n1,2\n",
    "quoted": b'"1",2\n',
    "hex": b"0x1,2\n",
    "crlf-ragged": b"1,2\r\n\r\n3\r\n",
    "spaces-around-commas-ragged": b" 1 , 2 \n 3 , 4 , 5\n",
    "late-after-skipped-lines": b"1,2\n\n# c\n" * 20 + b"1,x\n",
}


@pytest.mark.parametrize("content", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_load_dataset_errors_match_float_loop(tmp_path, content):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    with pytest.raises(DatasetFormatError) as want:
        reference_load_dataset(path)
    with pytest.raises(DatasetFormatError) as got:
        load_dataset(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("cell", ["1_0", "\u0661"])
def test_load_dataset_rejects_cells_only_float_reads(tmp_path, cell):
    # float() reads digit-group underscores and non-ASCII digits; numpy does not.
    path = tmp_path / "data.csv"
    path.write_text(f"1,2\n{cell},3\n", encoding="utf-8")
    assert reference_load_dataset(path)[0][1, 0] == float(cell)
    with pytest.raises(DatasetFormatError, match="line 2: could not parse"):
        load_dataset(path)


def test_load_dataset_rescan_without_a_bad_line_names_the_file(tmp_path, monkeypatch):
    # The one-pass parse fails, and every line passes alone: as if the file
    # had been mended between the two reads.
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3,4\n")
    parse = finite_sum._parse_rows

    def fail_first_call(lines, separator):
        monkeypatch.setattr(finite_sum, "_parse_rows", parse)
        raise ValueError("injected")

    monkeypatch.setattr(finite_sum, "_parse_rows", fail_first_call)
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: could not read the file as a numeric table"
