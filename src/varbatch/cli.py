"""Command-line front end: formula verification sweeps, growth curves, training runs.

Every subcommand writes self-describing CSV (header row, '.' decimals, LF
line endings) that is byte-stable for a fixed flag set and seed. Exit codes:
0 success, 1 verification/run failure, 2 usage or configuration error,
3 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .finite_sum import (
    DatasetFormatError,
    component_gradient_variance,
    load_dataset,
    make_least_squares,
    make_logistic,
)
from .optimizer import IterationRow, LearningRateSchedule, RunConfig, run
from .sampling import DEFAULT_ENUMERATION_CAP, EnumerationCapError, Scheme, SeededRng
from .scheduler import (
    BatchSizeRule,
    EpsilonSchedule,
    VarianceCap,
    batch_bound_with_replacement,
    batch_bound_without_replacement,
    epsilon_at,
    min_batch_with_replacement,
    min_batch_without_replacement,
)
from .svgplot import render_line_chart
from .variance import analytic_variance, exact_batch_variance

VERIFY_TOLERANCE = 1e-10

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3

GROWTH_HEADER = (
    "k",
    "epsilon",
    "size_with_replacement_truncated",
    "size_without_replacement",
    "bound_with_replacement_truncated",
    "bound_without_replacement",
)
# One train.csv column per telemetry field, in declaration order.
TRAIN_HEADER = tuple(column.name for column in fields(IterationRow))


@dataclass(frozen=True)
class _Option:
    flag: str
    type: Callable
    default: object
    help: str
    choices: tuple = ()

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


VERIFY_OPTIONS = (
    _Option("--n-max", int, 10, "largest population size in the sweep"),
    _Option("--cap", int, DEFAULT_ENUMERATION_CAP, "enumeration cap on the batch space"),
    _Option("--seed", int, 0, "seed for the randomly generated check problems"),
    _Option("--out", str, ".", "output directory"),
)

GROWTH_OPTIONS = (
    _Option("--C", float, 10.0, "variance cap imposed on the component gradients"),
    _Option("--N", int, 30000, "population size"),
    _Option("--eps0", float, 1.0, "initial tolerance of the geometric schedule"),
    _Option("--rho", float, 0.9, "decay factor of the geometric schedule"),
    _Option("--kmax", int, 200, "last iteration index plotted"),
    _Option("--out", str, ".", "output directory"),
)

TRAIN_OPTIONS = (
    _Option(
        "--problem",
        str,
        "least-squares",
        "built-in problem ('least-squares', 'logistic') or a dataset file path",
    ),
    _Option("--scheme", str, "without", "sampling scheme", choices=("with", "without")),
    _Option("--C", float, 10.0, "variance cap for the batch-size rule"),
    _Option("--eps0", float, 1.0, "initial tolerance of the geometric schedule"),
    _Option("--rho", float, 0.9, "decay factor of the geometric schedule"),
    _Option("--alpha", float, 0.1, "learning rate (alpha0 for the decaying schedule)"),
    _Option(
        "--lr-schedule",
        str,
        "constant",
        "learning-rate schedule",
        choices=("constant", "decaying"),
    ),
    _Option("--max-iters", int, 500, "iteration cap"),
    _Option("--tol", float, 1e-6, "stopping tolerance on the monitored gradient norm"),
    _Option("--seed", int, 0, "sampler seed"),
    _Option("--out", str, ".", "output directory"),
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(value) for value in row])


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config(args: argparse.Namespace, options: Sequence[_Option]) -> None:
    # Precedence: command-line flags, then config-file values, then defaults.
    file_values: dict[str, str] = {}
    if args.config is not None:
        file_values = _read_config_file(args.config)
        known = {option.dest for option in options}
        unknown = sorted(set(file_values) - known)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    for option in options:
        value = getattr(args, option.dest)
        if value is None:
            if option.dest in file_values:
                raw = file_values[option.dest]
                try:
                    value = option.type(raw)
                except ValueError:
                    raise ValueError(
                        f"{args.config}: cannot parse {option.dest} value {raw!r}"
                    ) from None
            else:
                value = option.default
        if option.choices and value not in option.choices:
            raise ValueError(
                f"{option.flag} must be one of {', '.join(option.choices)}; got {value!r}"
            )
        setattr(args, option.dest, value)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    """Check the closed-form variances against exhaustive enumeration."""
    if args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    if args.cap < 1:
        raise ValueError("--cap must be at least 1")
    out = _out_dir(args)
    rng = SeededRng(args.seed)
    rows: list[tuple] = []
    failures = 0
    skipped = 0
    for n in range(1, args.n_max + 1):
        problem = make_least_squares(rng.normal(size=(n, 2)), rng.normal(size=n))
        x = rng.normal(size=2)
        var_comp = component_gradient_variance(problem, x)
        for scheme in (Scheme.WITHOUT_REPLACEMENT, Scheme.WITH_REPLACEMENT):
            for batch_size in range(1, n + 1):
                analytic = analytic_variance(scheme, var_comp, n, batch_size)
                try:
                    oracle = exact_batch_variance(problem, x, batch_size, scheme, cap=args.cap)
                except EnumerationCapError:
                    skipped += 1
                    print(
                        f"verify: N={n} N_S={batch_size} scheme={scheme.value}: "
                        "enumeration cap exceeded, row skipped",
                        file=sys.stderr,
                    )
                    rows.append((n, batch_size, scheme.value, analytic, None, None))
                    continue
                abs_err = abs(analytic - oracle)
                if abs_err > VERIFY_TOLERANCE:
                    failures += 1
                rows.append((n, batch_size, scheme.value, analytic, oracle, abs_err))
    path = out / "verify.csv"
    _write_csv(path, ("N", "N_S", "scheme", "analytic", "oracle", "abs_err"), rows)
    checked = len(rows) - skipped
    print(
        f"verify: {checked} rows checked, {failures} failures, {skipped} skipped; "
        f"wrote {path}"
    )
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_growth_curve(args: argparse.Namespace) -> int:
    """Tabulate and plot both batch-size rules along a tolerance schedule."""
    if args.N < 2:
        raise ValueError("--N must be at least 2")
    if args.kmax < 0:
        raise ValueError("--kmax must be nonnegative")
    cap = VarianceCap(args.C)
    schedule = EpsilonSchedule.geometric(args.eps0, args.rho)
    out = _out_dir(args)
    rows = []
    for k in range(args.kmax + 1):
        eps = epsilon_at(schedule, k)
        rows.append(
            (
                k,
                eps,
                min_batch_with_replacement(cap, eps, args.N, truncate=True),
                min_batch_without_replacement(cap, args.N, eps),
                min(float(args.N), batch_bound_with_replacement(cap, eps)),
                batch_bound_without_replacement(cap, args.N, eps),
            )
        )
    csv_path = out / "growth_curve.csv"
    _write_csv(csv_path, GROWTH_HEADER, rows)
    ks = [row[0] for row in rows]
    svg = render_line_chart(
        [
            ("without replacement", ks, [row[3] for row in rows]),
            ("with replacement (truncated)", ks, [row[2] for row in rows]),
        ],
        xlabel="k",
        ylabel="batch size",
        title=f"Batch size growth (C={format(args.C, 'g')}, N={args.N})",
    )
    svg_path = out / "growth_curve.svg"
    svg_path.write_text(svg)
    print(f"growth-curve: wrote {csv_path} and {svg_path}")
    return EXIT_OK


def _resolve_problem(source: str):
    if source == "least-squares":
        return make_least_squares(np.ones((5, 1)), np.arange(1.0, 6.0))
    if source == "logistic":
        gen = SeededRng(2024)
        matrix = gen.normal(size=(40, 2))
        labels = np.where(matrix @ np.array([1.5, -2.0]) >= 0.0, 1.0, -1.0)
        return make_logistic(matrix, labels)
    matrix, labels = load_dataset(source)
    print(f"train: loaded {source}: N={matrix.shape[0]}, d={matrix.shape[1]}")
    return make_least_squares(matrix, labels)


def cmd_train(args: argparse.Namespace) -> int:
    """Run SGD with the scheduled batch sizes and dump the telemetry."""
    problem = _resolve_problem(args.problem)
    rule = BatchSizeRule(
        scheme=Scheme.from_flag(args.scheme),
        cap=VarianceCap(args.C),
        n_components=problem.n_components,
    )
    if args.lr_schedule == "constant":
        learning_rate = LearningRateSchedule.constant(args.alpha)
    else:
        learning_rate = LearningRateSchedule.decaying(args.alpha)
    config = RunConfig(
        rule=rule,
        epsilon_schedule=EpsilonSchedule.geometric(args.eps0, args.rho),
        learning_rate=learning_rate,
        max_iters=args.max_iters,
        tolerance=args.tol,
        seed=args.seed,
    )
    record = run(problem, config)
    out = _out_dir(args)
    path = out / "train.csv"
    _write_csv(path, TRAIN_HEADER, (astuple(row) for row in record.rows))
    print(
        f"train: {problem.label}: {len(record.rows)} iterations, "
        f"termination={record.termination}"
    )
    if record.error is not None:
        print(f"train: aborted: {record.error}")
    if problem.dim <= 4:
        print(f"train: final x = {np.array2string(record.final_x, precision=6)}")
    print(f"train: wrote {path}")
    return EXIT_FAILURE if record.termination in ("diverged", "error") else EXIT_OK


_SUBCOMMANDS = {
    "verify": (cmd_verify, VERIFY_OPTIONS, "verify variance formulas against enumeration"),
    "growth-curve": (cmd_growth_curve, GROWTH_OPTIONS, "tabulate and plot batch-size growth"),
    "train": (cmd_train, TRAIN_OPTIONS, "run SGD with scheduled batch sizes"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varbatch",
        description="Variance-controlled batch sizing for finite-sum SGD.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, help_text) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--config",
            type=str,
            default=None,
            help="key = value file; command-line flags override file values",
        )
        for option in options:
            sub.add_argument(
                option.flag,
                type=option.type,
                default=None,
                choices=option.choices or None,
                help=f"{option.help} (default: {option.default})",
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, options, _ = _SUBCOMMANDS[args.command]
    try:
        _apply_config(args, options)
        return handler(args)
    except (DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
