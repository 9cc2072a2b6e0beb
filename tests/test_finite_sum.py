import math
import os
import tracemalloc

import numpy as np
import pytest

from helpers import (
    brute_force_component_variance,
    central_difference_gradient,
    fancy_index_least_squares,
    fancy_index_logistic,
    reference_load_dataset,
    tuple_batch_gradient,
)
from varbatch import (
    DatasetFormatError,
    EvaluationError,
    FiniteSumProblem,
    Scheme,
    SeededRng,
    batch_gradient,
    component_gradient_variance,
    empirical_batch_variance,
    full_gradient,
    gradient_matrix,
    gradient_stats,
    load_dataset,
    make_batch,
    make_least_squares,
    make_logistic,
    objective_value,
    sample_with_replacement,
    sample_without_replacement,
)
from varbatch import finite_sum
from varbatch.sampling import _LOOP_FREE_MIN_SIZE

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


@pytest.mark.parametrize("d", [1, 2, 10])
@pytest.mark.parametrize("sample", [sample_with_replacement, sample_without_replacement])
def test_sampled_batch_gradient_matches_tuple_path(random_ls, sample, d):
    # The array path must give the bytes of the index tuple path it replaced,
    # on both sides of the sampler's loop-free threshold.
    problem = random_ls(1000, d=d, seed=d)
    x = np.linspace(-1.0, 2.0, d)
    rng = SeededRng(29)
    for size in (1, 7, _LOOP_FREE_MIN_SIZE - 1, _LOOP_FREE_MIN_SIZE, 600):
        batch = sample(rng, problem.n_components, size)
        expected = tuple_batch_gradient(problem, x, batch)
        assert batch_gradient(problem, x, batch).tobytes() == expected.tobytes()


def _recording_problem(n):
    """A problem of per-component callables that records the indices it evaluates."""
    seen = []

    def gradient(i, x):
        seen.append(i)
        return np.array([float(i)])

    return FiniteSumProblem(1, n, lambda i, x: float(i), gradient), seen


def test_callable_adapter_wraps_negative_indices():
    problem, seen = _recording_problem(5)
    grads = problem.gradients(np.array([-1, 0, -5, 2]), X0)
    assert grads.ravel().tolist() == [4.0, 0.0, 0.0, 2.0]
    assert seen == [4, 0, 0, 2]
    assert problem.gradients(slice(None), X0).ravel().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_callable_adapter_out_of_range_names_index_error():
    problem, seen = _recording_problem(5)
    for indices in ([0, 5], [-6]):
        with pytest.raises(EvaluationError, match="IndexError") as excinfo:
            problem.gradients(np.array(indices), X0)
        assert isinstance(excinfo.value.__cause__, IndexError)
    # Selection is O(k): a population far too large to materialize still works.
    huge, seen = _recording_problem(10**15)
    assert huge.gradients(np.array([3, 10**15 - 1, -1]), X0).ravel().tolist() == [
        3.0, 1e15 - 1, 1e15 - 1
    ]
    assert seen == [3, 10**15 - 1, 10**15 - 1]


def _random_data(n, d, seed):
    """A standard normal (n, d) matrix, least-squares targets and +-1 labels."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, d))
    return matrix, rng.normal(size=n), np.where(rng.normal(size=n) >= 0, 1.0, -1.0)


@pytest.mark.parametrize("d", [1, 2, 10])
def test_take_gather_matches_fancy_index_formulas(d):
    n = 300
    matrix, targets, labels = _random_data(n, d, seed=d)
    x = np.linspace(-1.5, 1.0, d)
    rng = np.random.default_rng(d)
    index_arrays = (
        rng.permutation(n)[:120],  # unsorted
        rng.integers(0, n, 500),  # repeated
        np.array([-1, -n, 3, -2, 3]),  # negative
        np.arange(n),  # whole population
    )
    for problem, reference in (
        (make_least_squares(matrix, targets), fancy_index_least_squares(matrix, targets)),
        (make_logistic(matrix, labels), fancy_index_logistic(matrix, labels)),
    ):
        for indices in index_arrays:
            for name in ("gradients", "values"):
                got = getattr(problem, name)(indices, x)
                expected = getattr(reference, name)(indices, x)
                assert got.tobytes() == expected.tobytes()
            batch = make_batch(indices % n, Scheme.WITH_REPLACEMENT)
            got, expected = (batch_gradient(p, x, batch) for p in (problem, reference))
            assert got.tobytes() == expected.tobytes()
        _assert_aggregates_equal_bytes(problem, reference, x)


def _assert_aggregates_equal_bytes(problem, reference, x):
    for aggregate in (full_gradient, objective_value):
        got, expected = aggregate(problem, x), aggregate(reference, x)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    got, expected = gradient_stats(problem, x), gradient_stats(reference, x)
    assert got.full_gradient.tobytes() == expected.full_gradient.tobytes()
    assert got.component_variance.hex() == expected.component_variance.hex()
    # Monte Carlo draws: one gather split into (m, k) batches.
    size = max(1, problem.n_components // 2)
    for scheme in Scheme:
        got, expected = (
            empirical_batch_variance(p, x, size, scheme, 50, SeededRng(3))
            for p in (problem, reference)
        )
        assert got.hex() == expected.hex()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_signed_zero_gradients_keep_their_bytes(d):
    # Negative features at an exact fit (every residual +0.0), and logistic
    # margins of +-800, whose slopes underflow to 0.0: gradient entries of
    # -0.0, which a block built by einsum would turn into +0.0.
    matrix = -np.abs(_random_data(6, d, seed=d)[0])
    x = np.ones(d)
    edge = np.vstack([np.ones(d), -np.ones(d)])
    for problem, reference, point in (
        (make_least_squares(matrix, matrix @ x), fancy_index_least_squares(matrix, matrix @ x), x),
        (make_logistic(edge, np.ones(2)), fancy_index_logistic(edge, np.ones(2)), 800.0 * x),
    ):
        grads = gradient_matrix(problem, point)
        assert np.signbit(grads[grads == 0.0]).any()
        assert grads.tobytes() == gradient_matrix(reference, point).tobytes()
        _assert_aggregates_equal_bytes(problem, reference, point)


@pytest.mark.parametrize("maker", [make_least_squares, make_logistic])
def test_built_in_problem_holds_one_table(maker):
    # The table is N x (d + 1) floats; a build that copied the matrix first
    # would peak N * d * 8 bytes higher. The slack is O(N): the label check.
    n, d = 10**5, 10
    matrix, targets, labels = _random_data(n, d, seed=5)
    column = targets if maker is make_least_squares else labels
    tracemalloc.start()
    try:
        problem = maker(matrix, column)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * (d + 1) * 8 + 16 * n
    x = np.linspace(-1.0, 1.0, d)
    batch = make_batch(range(0, n, 7), Scheme.WITHOUT_REPLACEMENT)
    before = gradient_stats(problem, x), batch_gradient(problem, x, batch)
    matrix[:] = 1.0
    column[:] = 1.0
    after = gradient_stats(problem, x), batch_gradient(problem, x, batch)
    assert before[0].full_gradient.tobytes() == after[0].full_gradient.tobytes()
    assert before[0].component_variance == after[0].component_variance
    assert before[1].tobytes() == after[1].tobytes()


def test_built_in_out_of_range_names_index_error(ls5):
    logistic = make_logistic(np.ones((5, 1)), np.ones(5))
    for problem in (ls5, logistic):
        for indices in ([0, 5], [-6]):
            for evaluate in (problem.gradients, problem.values):
                with pytest.raises(EvaluationError, match="IndexError") as excinfo:
                    evaluate(np.array(indices), X0)
                assert isinstance(excinfo.value.__cause__, IndexError)


def test_non_integer_index_arrays_refused_on_both_paths(ls5):
    adapter, seen = _recording_problem(5)
    mask = np.array([True, False, True, False, False])
    for problem in (ls5, adapter):
        for indices in (mask, mask.tolist(), np.array([0.0, 2.0])):
            for evaluate in (problem.gradients, problem.values):
                with pytest.raises(ValueError, match="must be integers"):
                    evaluate(indices, X0)
        # An empty list is an empty batch.
        assert problem.gradients([], X0).shape == (0, 1)
        assert problem.values([], X0).shape == (0,)
    assert seen == []
    # A built-in problem's one-component evaluator follows the same rule.
    for i in (True, 1.5):
        with pytest.raises(ValueError, match="must be integers"):
            ls5.component_gradient(i, X0)


@pytest.mark.parametrize("maker", [make_least_squares, make_logistic])
def test_results_do_not_depend_on_matrix_memory_order(maker):
    n, d = 1000, 3
    matrix, targets, labels = _random_data(n, d, seed=11)
    column = targets if maker is make_least_squares else labels
    x = np.array([0.4, -0.3, 0.8])
    c_ordered = maker(matrix, column)
    transposed = maker(np.ascontiguousarray(matrix.T).T, column)  # Fortran order
    whole = make_batch(range(n), Scheme.WITHOUT_REPLACEMENT)
    for problem in (c_ordered, transposed):
        assert full_gradient(problem, x).tobytes() == batch_gradient(problem, x, whole).tobytes()
        assert full_gradient(problem, x).tobytes() == full_gradient(c_ordered, x).tobytes()
        assert (
            gradient_stats(problem, x).component_variance
            == gradient_stats(c_ordered, x).component_variance
        )


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


@pytest.mark.parametrize(
    ("content", "matrix", "labels"),
    [
        ("1,\x1c2\n", [[1.0]], [2.0]),
        ("1,2\x1f,3\n", [[1.0, 2.0]], [3.0]),
        ("\x1d1 , 2\x1e\n", [[1.0]], [2.0]),
        ("1\x1c2\x1d3\n4\x1e5\x1f6\n", [[1.0, 2.0], [4.0, 5.0]], [3.0, 6.0]),
    ],
)
def test_load_dataset_separator_controls_are_whitespace(tmp_path, content, matrix, labels):
    # The ASCII separator controls \x1c-\x1f are whitespace to str.split():
    # they separate cells in a whitespace-separated file and pad a cell in a
    # comma-separated one.
    path = tmp_path / "data.txt"
    path.write_text(content)
    got_matrix, got_labels = load_dataset(path)
    assert got_matrix.tolist() == matrix
    assert got_labels.tolist() == labels


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


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_dataset_reads_a_pipe(tmp_path):
    # A stream that cannot be read twice, as from `--problem <(...)`, is
    # read as its file is, skipped lines included, and gives the bytes of the file.
    content = b"# header\n\n1,2,1\n# note\n0,1,-1\n  \n2,0,1\n"
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, content)
        os.close(write_end)
        piped = load_dataset(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert [a.tobytes() for a in piped] == [a.tobytes() for a in load_dataset(path)]
    assert piped[0].shape == (3, 2)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "content",
    [b"1,2,1\n0,x,-1\n", b"# header\n\n0,x,-1\n1,2,1\n"],
    ids=["second-row", "after-skipped-lines"],
)
def test_load_dataset_names_the_bad_line_of_a_pipe(tmp_path, content):
    # A bad line read through a pipe is named as the file names it: the
    # same message, the line numbered as in the file.
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    with pytest.raises(DatasetFormatError) as from_file:
        load_dataset(path)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, content)
        os.close(write_end)
        name = f"/dev/fd/{read_end}"
        with pytest.raises(DatasetFormatError) as from_pipe:
            load_dataset(name)
    finally:
        os.close(read_end)
    lineno = content.split(b"\n").index(b"0,x,-1") + 1
    message = f"line {lineno}: could not parse '0,x,-1' as numbers"
    assert str(from_pipe.value) == f"{name}: {message}"
    assert str(from_file.value) == f"{path}: {message}"


# Files both parsers read: one the C pass takes whole, and one whose later
# '#' and blank lines send it to the stripped-line parse.
CLEAN_FILES = {
    "clean-spaces": b"1 2 1\n0 1 -1\n2 0 1\n",
    "clean-skipped-lines": b"# header\n\n1,2,1\n# note\n0,1,-1\n  \n2,0,1\n",
}


def _table_or_message(name):
    """The bytes of ``load_dataset(name)``, or its error message after the name."""
    try:
        return [a.tobytes() for a in load_dataset(name)]
    except DatasetFormatError as exc:
        return str(exc).removeprefix(f"{name}: ")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "content",
    [*MALFORMED_FILES.values(), *CLEAN_FILES.values()],
    ids=[*MALFORMED_FILES, *CLEAN_FILES],
)
def test_load_dataset_reads_a_pipe_as_its_file(tmp_path, content):
    # Through a pipe, every file gives the table, or the message, that it
    # gives by its path.
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, content)
        os.close(write_end)
        piped = _table_or_message(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert piped == _table_or_message(path)


def test_load_dataset_rescan_without_a_bad_line_names_the_file(tmp_path, monkeypatch):
    # The parse of the open file and that of its stripped lines both fail,
    # and every line passes alone: as if the file had been mended between
    # the reads.
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3,4\n")
    parse = finite_sum._parse_rows
    calls = []

    def fail_first_two_calls(lines, separator, skip=0):
        calls.append(lines)
        if len(calls) == 2:
            monkeypatch.setattr(finite_sum, "_parse_rows", parse)
        raise ValueError("injected")

    monkeypatch.setattr(finite_sum, "_parse_rows", fail_first_two_calls)
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: could not read the file as a numeric table"
