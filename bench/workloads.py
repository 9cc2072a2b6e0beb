"""The four benchmark workloads.

Each workload generates its inputs from the seed, builds the library objects
its op consumes (timed as set-up), runs one op (the timed call into
varbatch, the way a user makes it), checks every output, and turns the op
times and outcomes into its end-to-end metrics. ``full`` sizes are the
benchmark's; ``smoke`` sizes run in well under a second per op.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

VERIFY_TOLERANCE = 1e-10
NOISE = 0.5


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(vb, argv: list[str]) -> int:
    """``varbatch.cli.main(argv)`` in-process, with its console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return vb.cli.main(argv)


def least_squares_data(seed: int, tag: int, n: int, d: int):
    """``A`` (n x d) and ``b = A x* + NOISE * noise``, all standard normal draws."""
    rng = np.random.default_rng([seed, tag])
    matrix = rng.standard_normal((n, d))
    x_star = rng.standard_normal(d)
    targets = matrix @ x_star + NOISE * rng.standard_normal(n)
    return matrix, targets


def least_squares_objective(matrix, targets, x) -> float:
    residual = matrix @ x - targets
    return 0.5 * float(np.mean(residual * residual))


class Workload:
    """Base class; subclasses fill in sizes and the five hooks."""

    name = ""
    sizes: dict[str, dict] = {}  # "full" and "smoke" presets
    warmup_ops = 0
    min_ops = 2  # the later ops' outputs are compared with the first's
    probe_ops = 5
    # Library names an op calls every fraction of a second, where an untraced
    # run also measures the speed reference (run_bench.install_pacers).
    pace_at: tuple[str, ...] = ()
    # Speed reference of an untraced run, set by the runner; None when traced.
    reference = None

    def __init__(self, seed: int, preset: str, workdir: Path):
        self.seed = seed
        self.size = dict(self.sizes[preset])
        self.workdir = workdir
        self.out = workdir / "out"
        self.first = None

    def generate(self) -> None:
        """Make the inputs from the seed (not part of set-up time)."""
        self.out.mkdir(parents=True, exist_ok=True)

    def setup(self, vb) -> None:
        """Build the library objects the op takes as input (timed)."""

    def op(self, vb):
        """The timed call into varbatch; returns what ``collect`` needs."""
        raise NotImplementedError

    def collect(self, raw):
        """Turn the op's return value into the outcome checks read (untimed)."""
        return raw

    def clear_outputs(self) -> None:
        """Delete the op's output files once read (untimed).

        Every op then creates its files afresh. Rewriting an existing file
        truncates it first, which on some file systems (ext4) forces a flush
        on close and puts disk latency into the op's time.
        """
        for path in self.out.iterdir():
            path.unlink()

    def check(self, outcome) -> list[str]:
        """Failure messages for one op's outcome; empty when it is correct."""
        raise NotImplementedError

    def summary(self, outcome):
        """What ``metrics`` needs from one op besides its time (kept per op)."""
        return None

    def metrics(self, times: list[float], summaries: list, factors: list[float]) -> dict[str, float]:
        """End-to-end metrics from op times already rescaled by ``factors``."""
        raise NotImplementedError

    def digests(self) -> dict[str, str]:
        return {}

    def record_sizes(self) -> dict:
        return dict(self.size)


class OracleSweep(Workload):
    name = "oracle-sweep"
    pace_at = ("cli.exact_batch_variance",)  # once per cell, 110 cells
    sizes = {"full": {"n_max": 10}, "smoke": {"n_max": 4}}
    probe_ops = 10

    def generate(self):
        super().generate()
        self.argv = ["verify", "--n-max", str(self.size["n_max"]), "--seed", str(self.seed),
                     "--out", str(self.out)]

    def op(self, vb):
        return run_cli(vb, self.argv)

    def collect(self, raw):
        return raw, (self.out / "verify.csv").read_bytes()

    def check(self, outcome) -> list[str]:
        code, data = outcome
        if code != 0:
            return [f"verify exited {code}"]
        n_max = self.size["n_max"]
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        failures = []
        if len(rows) != n_max * (n_max + 1):
            failures.append(f"verify.csv has {len(rows)} rows, expected {n_max * (n_max + 1)}")
        skipped = [r for r in rows if r["oracle"] == ""]
        if skipped:
            failures.append(f"{len(skipped)} verify.csv rows skipped")
        worst = max((float(r["abs_err"]) for r in rows if r["abs_err"]), default=0.0)
        if not worst <= VERIFY_TOLERANCE:
            failures.append(f"verify.csv abs_err {worst!r} above {VERIFY_TOLERANCE}")
        if self.first is not None and data != self.first[1]:
            failures.append("verify.csv differs from the run's first op")
        return failures

    def metrics(self, times, summaries, factors):
        return {"sweep_s": statistics.median(times)}

    def digests(self):
        return {"verify.csv": sha256(self.first[1])}

    def record_sizes(self):
        n_max = self.size["n_max"]
        return {
            "n_max": n_max,
            "rows": n_max * (n_max + 1),
            "batches_with_replacement": sum(
                math.comb(n + k - 1, k) for n in range(1, n_max + 1) for k in range(1, n + 1)
            ),
            "batches_without_replacement": sum(
                math.comb(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)
            ),
        }


class Train30k(Workload):
    name = "train-30k"
    pace_at = ("optimizer.gradient_stats",)  # once per iteration, about 0.3 s
    sizes = {"full": {"n": 30000, "d": 10}, "smoke": {"n": 300, "d": 10}}
    tol = 1e-3
    objective_tol = 1e-6
    # Ops cycle through this many sampler seeds. One seed's iteration count
    # moves by whole iterations (about 15% of the evaluations each), so the
    # counts are averaged over the seeds; each op's own count is exact.
    sampler_seeds = 3
    min_ops = sampler_seeds

    def generate(self):
        super().generate()
        self.matrix, self.targets = least_squares_data(self.seed, 1, self.size["n"], self.size["d"])
        self.dataset = self.workdir / "dataset.csv"
        np.savetxt(self.dataset, np.column_stack([self.matrix, self.targets]),
                   delimiter=",", fmt="%.17g")
        x_hat = np.linalg.lstsq(self.matrix, self.targets, rcond=None)[0]
        self.best_objective = least_squares_objective(self.matrix, self.targets, x_hat)
        self.argvs = [
            ["train", "--problem", str(self.dataset), "--scheme", "without", "--C", "10",
             "--rho", "0.5", "--alpha", "0.5", "--tol", repr(self.tol), "--max-iters", "100",
             "--seed", str(self.sampler_seeds * self.seed + slot), "--out", str(self.out)]
            for slot in range(self.sampler_seeds)
        ]
        self.started = 0
        self.by_slot: dict[int, bytes] = {}

    def op(self, vb):
        self.slot = self.started % self.sampler_seeds
        self.started += 1
        return run_cli(vb, self.argvs[self.slot])

    def collect(self, raw):
        return raw, (self.out / "train.csv").read_bytes(), self.slot

    def check(self, outcome):
        code, data, slot = outcome
        if code != 0:
            return [f"train exited {code}"]
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if not rows:
            return ["train.csv has no rows"]
        failures = []
        norm = float(rows[-1]["full_grad_norm"])
        if not norm <= self.tol:
            failures.append(f"final full_grad_norm {norm!r} above {self.tol}")
        gap = abs(float(rows[-1]["objective"]) - self.best_objective)
        if not gap <= self.objective_tol:
            failures.append(f"final objective is {gap!r} from the least-squares optimum")
        if self.by_slot.setdefault(slot, data) != data:
            failures.append("train.csv differs from the run's earlier op with the same seed")
        return failures

    def _sizes(self, slot: int) -> list[int]:
        return [int(r["batch_size"]) for r in csv.DictReader(io.StringIO(self.by_slot[slot].decode()))]

    def metrics(self, times, summaries, factors):
        sizes = [self._sizes(slot) for slot in sorted(self.by_slot)]
        return {
            "time_to_tol_s": statistics.median(times),
            "iters_to_tol": statistics.mean(len(s) for s in sizes),
            "batch_evals_to_tol": statistics.mean(sum(s) for s in sizes),
        }

    def digests(self):
        return {f"batch_sizes_seed{self.argvs[slot][-3]}":
                sha256(",".join(map(str, self._sizes(slot))).encode())
                for slot in sorted(self.by_slot)}


class Stream1m(Workload):
    name = "stream-1m"
    # Speed reference kernel per scheme (see reference.py): the
    # with-replacement run is the batch_gradient loop over small numpy rows.
    kernels = {"with": "numpy", "without": "python"}
    pace_at = ("optimizer.sample_without_replacement",)  # once per iteration
    sizes = {"full": {"n": 1_000_000, "d": 10, "iters": 100},
             "smoke": {"n": 10_000, "d": 10, "iters": 30}}
    probe_ops = 3
    # One op: the without-replacement run, then the with-replacement run this
    # many times. The second is about 15 times shorter, and the repeats give
    # its metric as many samples per window as the first, about.
    runs = ("without",) + ("with",) * 5

    def generate(self):
        super().generate()
        self.matrix, self.targets = least_squares_data(self.seed, 2, self.size["n"], self.size["d"])
        self.start_objective = least_squares_objective(
            self.matrix, self.targets, np.zeros(self.size["d"]))

    def setup(self, vb):
        self.problem = None  # release the previous copy before building the next
        self.problem = vb.make_least_squares(self.matrix, self.targets)
        self.configs = {
            flag: vb.RunConfig(
                rule=vb.BatchSizeRule(vb.Scheme.from_flag(flag), vb.VarianceCap(1.0),
                                      self.size["n"]),
                epsilon_schedule=vb.EpsilonSchedule.power_law(0.1, 1.1),
                learning_rate=vb.LearningRateSchedule.decaying(0.5),
                max_iters=self.size["iters"],
                tolerance=0.0,
                seed=self.seed,
                monitor_full_gradient=False,
            )
            for flag in set(self.runs)
        }

    def op(self, vb):
        out = []
        for flag in self.runs:
            # An op lasts several seconds, longer than the machine holds one
            # speed, so the reference is measured between the runs too (and,
            # when paced, inside them; that measuring time is not run time).
            spent = 0.0
            if self.reference is not None:
                self.reference.maybe_measure()
                spent = self.reference.spent_s
            start = perf_counter()
            record = vb.run(self.problem, self.configs[flag])
            end = perf_counter()
            if self.reference is not None:
                spent = self.reference.spent_s - spent
            out.append((flag, record, start, end, spent))
        return out

    def _first(self, flag):
        return next(record for f, record, *_ in self.first if f == flag)

    def check(self, outcome):
        failures = []
        reference = {}
        if self.first is not None:
            reference = {flag: self._first(flag).final_x for flag in set(self.runs)}
        for flag, record, *_ in outcome:
            x = np.asarray(record.final_x, dtype=float)
            if record.termination != "max_iterations" or len(record.rows) != self.size["iters"]:
                failures.append(f"{flag}: {record.termination} after {len(record.rows)} rows")
            if not np.all(np.isfinite(x)):
                failures.append(f"{flag}: final x is not finite")
            elif not least_squares_objective(self.matrix, self.targets, x) < self.start_objective:
                failures.append(f"{flag}: objective did not drop below its value at x0")
            # Every run after the first of its scheme repeats it with the same seed.
            expected = reference.setdefault(flag, x)
            if x.tobytes() != np.asarray(expected, dtype=float).tobytes():
                failures.append(f"{flag}: final x differs from the first run with the same seed")
        return failures

    def summary(self, outcome):
        return [(flag, len(record.rows), start, end, spent)
                for flag, record, start, end, spent in outcome]

    def metrics(self, times, summaries, factors):
        # Median over the window of each run's iterations per second, per
        # scheme. A run takes the speed measured inside it (paced runs) or
        # within 0.3 s of it. Over three sets of five to ten seeds,
        # with_iters_per_s then spread (IQR/median) by 0.02-0.04; with 1 s it
        # spread by 0.04-0.05, and with only the two measurements around the
        # run by 0.02-0.14.
        rates = {flag: [] for flag in set(self.runs)}
        for summary in summaries:
            for flag, iterations, start, end, spent in summary:
                factor = self.reference.factor(start, end, self.kernels[flag], smooth=0.3)
                rates[flag].append(iterations / ((end - start - spent) * factor))
        self.rates = rates
        return {f"{flag}_iters_per_s": statistics.median(r) for flag, r in rates.items()}

    def digests(self):
        return {
            f"batch_sizes_{flag}": sha256(
                ",".join(str(row.batch_size) for row in self._first(flag).rows).encode())
            for flag in set(self.runs)
        }


class GrowthCurve(Workload):
    name = "growth-curve"
    sizes = {"full": {"C": 10, "N": 30000, "kmax": 200}, "smoke": {"C": 10, "N": 30000, "kmax": 20}}
    warmup_ops = 20
    probe_ops = 200
    # The ladder stops at 95: on an ext4 disk about 1% of ops stall on file
    # creation for several milliseconds, so p99 and beyond measure those
    # stalls and move by about 25-30% between identical runs.
    tail_percentiles = (90.0, 95.0)

    def generate(self):
        super().generate()
        self.argv = ["growth-curve", "--C", str(self.size["C"]), "--N", str(self.size["N"]),
                     "--kmax", str(self.size["kmax"]), "--out", str(self.out)]

    def op(self, vb):
        return run_cli(vb, self.argv)

    def collect(self, raw):
        return (raw, (self.out / "growth_curve.csv").read_bytes(),
                (self.out / "growth_curve.svg").read_bytes())

    def check(self, outcome):
        code = outcome[0]
        if code != 0:
            return [f"growth-curve exited {code}"]
        if self.first is not None:
            # Identical bytes pass every content check the first op passed.
            return [] if outcome[1:] == self.first[1:] else ["output differs from the run's first op"]
        rows = list(csv.DictReader(io.StringIO(outcome[1].decode())))
        if not rows:
            return ["growth_curve.csv has no rows"]
        without = [int(r["size_without_replacement"]) for r in rows]
        truncated = [int(r["size_with_replacement_truncated"]) for r in rows]
        failures = []
        if len(rows) != self.size["kmax"] + 1:
            failures.append(f"growth_curve.csv has {len(rows)} rows")
        if any(a > b for a, b in zip(without, without[1:])) or max(without) > self.size["N"]:
            failures.append("without-replacement sizes decrease or exceed N")
        if any(w < s for w, s in zip(truncated, without)):
            failures.append("a with-replacement size is below the without-replacement size")
        if not outcome[2].startswith(b"<svg"):
            failures.append("growth_curve.svg is not an SVG document")
        return failures

    def tail(self, count: int) -> float:
        """Highest percentile of the ladder with at least ten samples beyond it."""
        eligible = [p for p in self.tail_percentiles if count * (100.0 - p) / 100.0 >= 10.0]
        return eligible[-1] if eligible else 50.0

    def metrics(self, times, summaries, factors):
        ms = np.asarray(times) * 1000.0
        # The tail is taken from wall times as measured, not rescaled ones.
        # Op times cluster around a fast and a slow machine speed; the p95 of
        # wall times sits inside the slow cluster and holds still, while
        # rescaling spreads the ops caught between two speed measurements
        # into the tail.
        wall_ms = ms / np.asarray(factors)
        percentile = self.tail(len(ms))
        self.tail_record = {"percentile": percentile, "samples": len(ms)}
        return {
            "op_ms_p50": float(np.percentile(ms, 50.0)),
            "op_ms_tail": float(np.percentile(wall_ms, percentile)),
        }

    def digests(self):
        return {"growth_curve.csv": sha256(self.first[1]), "growth_curve.svg": sha256(self.first[2])}


WORKLOADS = {cls.name: cls for cls in (OracleSweep, Train30k, Stream1m, GrowthCurve)}
