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
from dataclasses import astuple, fields
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .finite_sum import (
    DatasetFormatError,
    _least_squares,
    _load_table,
    component_gradient_variance,
    make_least_squares,
    make_logistic,
)
from .optimizer import IterationRow, LearningRateSchedule, RunConfig, _check_run_limits, run
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
from .variance import analytic_variance, exact_batch_variance, exact_batch_variances

VERIFY_TOLERANCE = 1e-10
# Largest accepted values of the flags that size a command's work, checked
# before any work starts. On a 2-vCPU x86 VM, verify --n-max 100 at the
# default cap took 28 s (median of 5; 48 s when the limit was set), and
# growth-curve --kmax 1000000 took 7.5 s and 0.3 GB.
N_MAX_LIMIT = 100
KMAX_LIMIT = 1_000_000
# growth-curve rows computed and written at a time.
_GROWTH_BLOCK = 4096

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
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} is not valid UTF-8") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_defaults(sub: argparse.ArgumentParser, path: str) -> dict[str, object]:
    """A config file's values, each parsed and checked as its flag would be."""
    # Every flag but --help and --config is a key; those two default to SUPPRESS.
    actions = {a.dest: a for a in sub._actions if a.default is not argparse.SUPPRESS}
    values = _read_config_file(path)
    unknown = sorted(set(values) - set(actions))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    defaults = {}
    for key, raw in values.items():
        action = actions[key]
        try:
            value = (action.type or str)(raw)
        except ValueError:
            raise ValueError(f"{path}: cannot parse {key} value {raw!r}") from None
        if action.choices and value not in action.choices:
            raise ValueError(
                f"{path}: {key} must be one of {', '.join(action.choices)}; got {value!r}"
            )
        defaults[key] = value
    return defaults


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    """Check the closed-form variances against exhaustive enumeration."""
    if not 1 <= args.n_max <= N_MAX_LIMIT:
        raise ValueError(f"--n-max must be between 1 and {N_MAX_LIMIT}")
    if not 1 <= args.cap <= DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"--cap must be between 1 and {DEFAULT_ENUMERATION_CAP}")
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
            # One walk gives the sizes up to the first it cannot take; the
            # rest, narrow spaces near N or spaces over the cap, go one by one.
            walked = exact_batch_variances(problem, x, scheme, cap=args.cap)
            for batch_size in range(1, n + 1):
                analytic = analytic_variance(scheme, var_comp, n, batch_size)
                try:
                    if batch_size <= len(walked):
                        oracle = walked[batch_size - 1]
                    else:
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
    # The bounds compute in floats, so an N past the float range has none.
    if not 2 <= args.N <= sys.float_info.max:
        raise ValueError(f"--N must be between 2 and {sys.float_info.max!r}, the largest float")
    if not 0 <= args.kmax <= KMAX_LIMIT:
        raise ValueError(f"--kmax must be between 0 and {KMAX_LIMIT}")
    cap = VarianceCap(args.C)
    schedule = EpsilonSchedule.geometric(args.eps0, args.rho)
    out = _out_dir(args)
    # Rows go to the CSV a block at a time, each block computed in one loop
    # before it is written (alternating row by row cost about 4% of a
    # default run); only the plotted sizes are kept.
    ks = range(args.kmax + 1)
    sizes_with, sizes_without = [], []

    def blocks():
        for start in range(0, len(ks), _GROWTH_BLOCK):
            block = []
            for k in ks[start : start + _GROWTH_BLOCK]:
                eps = epsilon_at(schedule, k)
                block.append(
                    (
                        k,
                        eps,
                        min_batch_with_replacement(cap, eps, args.N, truncate=True),
                        min_batch_without_replacement(cap, args.N, eps),
                        min(float(args.N), batch_bound_with_replacement(cap, eps)),
                        batch_bound_without_replacement(cap, args.N, eps),
                    )
                )
            sizes_with.extend([row[2] for row in block])
            sizes_without.extend([row[3] for row in block])
            yield block

    csv_path = out / "growth_curve.csv"
    _write_csv(csv_path, GROWTH_HEADER, chain.from_iterable(blocks()))
    svg = render_line_chart(
        [
            ("without replacement", ks, sizes_without),
            ("with replacement (truncated)", ks, sizes_with),
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
    table = _load_table(source)
    print(f"train: loaded {source}: N={table.shape[0]}, d={table.shape[1] - 1}")
    return _least_squares(table)


def cmd_train(args: argparse.Namespace) -> int:
    """Run SGD with the scheduled batch sizes and dump the telemetry."""
    # Every setting that does not need N is checked before a dataset is read.
    cap = VarianceCap(args.C)
    epsilon_schedule = EpsilonSchedule.geometric(args.eps0, args.rho)
    learning_rate = LearningRateSchedule(args.lr_schedule, args.alpha)
    _check_run_limits(args.max_iters, args.tol)
    problem = _resolve_problem(args.problem)
    rule = BatchSizeRule(Scheme.from_flag(args.scheme), cap, problem.n_components)
    config = RunConfig(
        rule=rule,
        epsilon_schedule=epsilon_schedule,
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
    "verify": (cmd_verify, "verify variance formulas against enumeration"),
    "growth-curve": (cmd_growth_curve, "tabulate and plot batch-size growth"),
    "train": (cmd_train, "run SGD with scheduled batch sizes"),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="varbatch", description="Variance-controlled batch sizing for finite-sum SGD."
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text,
                                    formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sub.add_argument("--config", default=argparse.SUPPRESS,
                         help="key = value file; command-line flags override file values")
    verify, growth, train = (sub.add_argument for sub in subparsers.choices.values())
    verify("--n-max", type=int, default=10,
           help=f"largest population size in the sweep, at most {N_MAX_LIMIT}")
    verify("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
           help=f"enumeration cap on the batch space, at most {DEFAULT_ENUMERATION_CAP}")
    verify("--seed", type=int, default=0, help="seed for the randomly generated check problems")
    growth("--C", type=float, default=10.0, help="variance cap imposed on the component gradients")
    growth("--N", type=int, default=30000, help="population size")
    growth("--eps0", type=float, default=1.0, help="initial tolerance of the geometric schedule")
    growth("--rho", type=float, default=0.9, help="decay factor of the geometric schedule")
    growth("--kmax", type=int, default=200,
           help=f"last iteration index plotted, at most {KMAX_LIMIT}")
    train("--problem", default="least-squares",
          help="built-in problem ('least-squares', 'logistic') or a dataset file path")
    train("--scheme", default="without", choices=("with", "without"), help="sampling scheme")
    train("--C", type=float, default=10.0, help="variance cap for the batch-size rule")
    train("--eps0", type=float, default=1.0, help="initial tolerance of the geometric schedule")
    train("--rho", type=float, default=0.9, help="decay factor of the geometric schedule")
    train("--alpha", type=float, default=0.1,
          help="learning rate (alpha0 for the decaying schedule)")
    train("--lr-schedule", default="constant", choices=("constant", "decaying"),
          help="learning-rate schedule")
    train("--max-iters", type=int, default=500, help="iteration cap")
    train("--tol", type=float, default=1e-6,
          help="stopping tolerance on the monitored gradient norm")
    train("--seed", type=int, default=0, help="sampler seed")
    for add in (verify, growth, train):
        add("--out", default=".", help="output directory")
    return parser, subparsers.choices


def main(argv: Sequence[str] | None = None) -> int:
    # Precedence: command-line flags, then config-file values, then defaults.
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    try:
        if "config" in args:
            sub = subparsers[args.command]
            sub.set_defaults(**_config_defaults(sub, args.config))
            args = parser.parse_args(argv)
        return _SUBCOMMANDS[args.command][0](args)
    except (DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
