"""varbatch benchmark: four seeded workloads, correctness checks, optional trace.

Run from the root of a checkout:

    python3 bench/run_bench.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics untraced,
per-layer metrics with ``--trace 1``). Untraced times are rescaled to a
reference machine speed (see ``reference.py``). Metric names and units come
from ``BENCHMARK.json``. A full record (environment, sizes, digests, per-op
times, failures) is written under ``.bench_work/``. See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Cap BLAS threads at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    _current = os.environ.get(_var, "")
    if not (_current.isdigit() and 0 < int(_current) <= NPROC):
        os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

from reference import NOMINAL_S, SpeedReference  # noqa: E402
from tracer import FULL_PASSES, ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT_DIR = Path(__file__).resolve().parent.parent
SETUP_REPS = 15
# Each traced op's time outside every layer span (benchmark glue, plus any
# stall of the machine that lands there) must stay within this share of its
# wall time, or within UNACCOUNTED_FLOOR_S: on a shared virtual machine a
# stall of a few milliseconds can hit the few microseconds of glue in a
# millisecond-long op.
UNACCOUNTED_BOUND = 0.05
UNACCOUNTED_FLOOR_S = 0.01
PROBE_SHARE = 0.25  # share of an untraced run's window spent on probe ops


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


def load_spec() -> dict:
    path = ROOT_DIR / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def require_source() -> None:
    init = ROOT_DIR / "src" / "varbatch" / "__init__.py"
    if not init.is_file():
        raise SetupError("src/varbatch is missing: run from the root of a varbatch checkout")
    sys.path.insert(0, str(ROOT_DIR / "src"))


def fresh_import():
    """Import varbatch (and its CLI) from scratch; numpy stays loaded."""
    for key in [k for k in sys.modules if k == "varbatch" or k.startswith("varbatch.")]:
        del sys.modules[key]
    vb = importlib.import_module("varbatch")
    importlib.import_module("varbatch.cli")
    if not Path(vb.__file__).resolve().is_relative_to(ROOT_DIR / "src"):
        raise SetupError(f"imported varbatch from {vb.__file__}, not from this checkout")
    return vb


def measure_setup(workload, reference: SpeedReference):
    """Median of SETUP_REPS fresh imports plus the workload's set-up.

    Each round is rescaled by the ``python`` kernel timed just before and
    just after it: set-up is mostly importing the library.
    """
    windows = []
    for _ in range(SETUP_REPS):
        reference.measure()
        start = perf_counter()
        vb = fresh_import()
        workload.setup(vb)
        windows.append((start, perf_counter()))
    reference.measure()
    times = [(end - start) * reference.factor(start, end, "python", smooth=0.0)
             for start, end in windows]
    return statistics.median(times), vb


class OpLog:
    """Times, summaries and failures of the ops one loop ran."""

    def __init__(self):
        self.times: list[float] = []
        self.windows: list[tuple[float, float]] = []  # (start, end) of each timed op
        self.summaries: list = []
        self.attempted = 0
        self.failures: list[str] = []


def run_op(workload, vb, log: OpLog, tracer: Tracer | None, timed: bool = True,
           reference: SpeedReference | None = None) -> None:
    if reference is not None:
        reference.maybe_measure()
    log.attempted += 1
    call = lambda: workload.op(vb)  # noqa: E731
    spent = reference.spent_s if reference is not None else 0.0
    start = perf_counter()
    try:
        outcome = tracer.op(call) if tracer is not None else call()
    except (Exception, SystemExit) as exc:
        log.failures.append(f"{workload.name}: op raised {type(exc).__name__}: {exc}")
        return
    end = perf_counter()
    # Speed measurements taken inside the op (see install_pacers) are not op time.
    elapsed = end - start - (reference.spent_s - spent if reference is not None else 0.0)
    try:
        outcome = workload.collect(outcome)
    except OSError as exc:
        log.failures.append(f"{workload.name}: output unreadable: {exc}")
        return
    workload.clear_outputs()
    problems = workload.check(outcome)
    if problems:
        log.failures.append(f"{workload.name}: " + "; ".join(problems))
        return
    if workload.first is None:
        workload.first = outcome
    if timed:
        log.times.append(elapsed)
        log.windows.append((start, end))
        log.summaries.append(workload.summary(outcome))


def install_pacers(workload, vb, reference: SpeedReference) -> list[str]:
    """Measure the speed reference inside the workload's long ops too.

    A CLI op of several seconds spans more than one machine speed, and
    measurements taken only between ops miss the speeds inside it. Each
    function named in ``workload.pace_at`` (a library name that the op calls
    every fraction of a second) is replaced at that name by one that first
    lets the reference measure, if its interval has passed. ``run_op``
    subtracts the measuring time from the op's time. Returns the names not
    found, which then go unpaced.
    """
    absent = []
    for path in workload.pace_at:
        module_name, _, name = path.rpartition(".")
        module = getattr(vb, module_name, None)
        original = getattr(module, name, None)
        if original is None:
            absent.append(path)
            continue

        def paced(*args, _original=original, **kwargs):
            reference.maybe_measure()
            return _original(*args, **kwargs)

        setattr(module, name, paced)
    return absent


class Probe:
    """Smoke-size copy of another workload, for the end-to-end metrics it owns."""

    def __init__(self, name: str, seed: int, vb, workdir: Path):
        self.workload = WORKLOADS[name](seed, "smoke", workdir / "probe" / name)
        self.workload.generate()
        self.workload.setup(vb)
        self.log = OpLog()
        self.spent = 0.0

    def run(self, vb, reference: SpeedReference | None) -> None:
        start = perf_counter()
        run_op(self.workload, vb, self.log, None, reference=reference)
        self.spent += perf_counter() - start


def run_probes(probes: list[Probe], vb, budget: float, reference: SpeedReference | None) -> None:
    """Run probe ops, least-served first, until their total time reaches ``budget``."""
    while probes and sum(p.spent for p in probes) < budget:
        min(probes, key=lambda p: p.spent).run(vb, reference)


def op_loop(workload, vb, seconds: float, min_ops: int, tracer: Tracer | None = None,
            probes: list[Probe] = (), reference: SpeedReference | None = None) -> OpLog:
    """Closed loop: the next op starts only after the previous one returned.

    Probe ops run between home ops and take PROBE_SHARE of the elapsed
    window, so they sample the same stretch of machine time as the home op
    rather than one short burst of it.
    """
    log = OpLog()
    for _ in range(workload.warmup_ops):
        run_op(workload, vb, log, tracer, timed=False)
    for p in probes:
        for _ in range(p.workload.warmup_ops):
            run_op(p.workload, vb, p.log, None, timed=False)
    start, attempts = perf_counter(), 0
    # A new op starts only if it should end within half an op of the window's
    # end, so multi-second ops do not stretch the run by a whole op.
    while len(log.times) < min_ops or (
        perf_counter() - start + 0.5 * statistics.median(log.times) < seconds
    ):
        if attempts >= 4 * min_ops and not log.times:
            break  # every op fails; stop instead of spinning
        run_op(workload, vb, log, tracer, reference=reference)
        attempts += 1
        run_probes(probes, vb, PROBE_SHARE * (perf_counter() - start), reference)
    for p in probes:
        while len(p.log.times) < p.workload.probe_ops and p.log.attempted < 4 * p.workload.probe_ops:
            p.run(vb, reference)
    if reference is not None:
        reference.measure()  # brackets the last op
    return log


def scaled_metrics(workload, log: OpLog, reference: SpeedReference) -> tuple[dict, list]:
    """The workload's metrics from its op times rescaled to reference speed."""
    factors = [reference.factor(start, end, "python") for start, end in log.windows]
    times = [t * f for t, f in zip(log.times, factors)]
    return workload.metrics(times, log.summaries, factors), factors


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(op: dict, names: list[str]) -> dict[str, float]:
    """Per-layer metric values for one traced op."""
    functions, counts = op["functions"], op["counts"]

    def fn(name: str, measure: str) -> float:
        return functions.get(name, {}).get(measure, 0)

    evals = counts.get("finite_sum.evals", 0)
    eval_busy = sum(fn(n, "busy_s") for n in FULL_PASSES + ("finite_sum.batch_gradient",))
    batches = counts.get("sampling.enumerate_batches.batches", 0)
    iterations = counts.get("optimizer.iterations", 0)
    derived = {
        "finite_sum.evals_per_s": ratio(evals, eval_busy),
        "variance.batches_per_s": ratio(batches, fn("variance.exact_batch_variance", "busy_s")),
        "optimizer.iter_ms": ratio(1000.0 * fn("optimizer.run", "busy_s"), iterations),
        "optimizer.batch_eval_share": ratio(counts.get("finite_sum.batch_evals", 0), evals),
        "trace.unaccounted_share": ratio(fn(ROOT_SPAN, "self_s"), op["wall_s"]),
        "trace.errors": sum(v for k, v in counts.items() if k.endswith(".errors")),
    }
    values = {}
    for name in names:
        function, _, measure = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif measure in ("calls", "busy_s", "self_s"):
            values[name] = fn(function, measure)
        else:  # counts taken at call boundaries, including "<function>.errors"
            values[name] = counts.get(name, 0)
    return values


def git_record() -> dict:
    if not (ROOT_DIR / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT_DIR.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT_DIR), *args], capture_output=True,
                              text=True, env=env, timeout=30, check=True).stdout

    try:
        sha = git("rev-parse", "HEAD").strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    except (OSError, subprocess.SubprocessError) as exc:
        return {"sha": None, "dirty": None, "note": f"git failed: {exc}"}
    return {"sha": sha, "dirty": dirty}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "nproc": NPROC,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git": git_record(),
        "load": "one process, one Python thread, closed loop",
    }


def run_workload(args, spec: dict) -> int:
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_specs}
    workdir = ROOT_DIR / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    preset = "smoke" if args.smoke else "full"
    home = WORKLOADS[args.workload](args.seed, preset, workdir)
    home.generate()
    setup_reference = SpeedReference()
    setup_s, vb = measure_setup(home, setup_reference)
    reference = SpeedReference()

    logs = []
    record = {"workload": args.workload, "seed": args.seed, "preset": preset,
              "trace": args.trace, "seconds": args.seconds, "sizes": home.record_sizes(),
              "setup_reps": SETUP_REPS}
    if args.trace:
        untraced = op_loop(home, vb, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install(vb)
        try:
            traced = op_loop(home, vb, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        logs += [untraced, traced]
        per_op = tracer.per_op()
        names = list(units)
        op_values = [layer_values(op, names) for op in per_op]
        values = {n: statistics.median(v[n] for v in op_values) for n in names if op_values}
        outside = [(op["functions"][ROOT_SPAN]["self_s"], op["wall_s"]) for op in per_op]
        for glue, wall in outside:
            if glue > max(UNACCOUNTED_BOUND * wall, UNACCOUNTED_FLOOR_S):
                traced.failures.append(
                    f"trace: {glue:.6f} s of a {wall:.6f} s op lies outside layer spans")
        record["unaccounted_s_max"] = max((glue for glue, _ in outside), default=0.0)
        if untraced.times and traced.times:
            values["trace.overhead_s"] = (statistics.median(traced.times)
                                          - statistics.median(untraced.times))
        spans_path = workdir / f"spans-seed{args.seed}.npz"
        tracer.save(spans_path)
        record.update(absent=tracer.absent, spans=str(spans_path.relative_to(ROOT_DIR)),
                      untraced_op_s=untraced.times, traced_op_s=traced.times,
                      functions=[{"op": i, **op} for i, op in enumerate(per_op)])
    else:
        probes = [Probe(name, args.seed, vb, workdir) for name in WORKLOADS if name != args.workload]
        for workload in [home] + [p.workload for p in probes]:
            workload.reference = reference
        record["unpaced"] = install_pacers(home, vb, reference)
        log = op_loop(home, vb, args.seconds, home.min_ops, probes=probes, reference=reference)
        logs += [log] + [p.log for p in probes]
        values, factors = scaled_metrics(home, log, reference) if log.times else ({}, [])
        values["setup_s"] = setup_s
        record.update(op_s=log.times, op_factors=factors, op_summaries=log.summaries,
                      reference={"nominal_s": NOMINAL_S, "kernel_s": reference.kernel_s,
                                 "at_s": reference.times},
                      op_windows=log.windows, setup_reference_kernel_s=setup_reference.kernel_s,
                      probes={})
        for p in probes:
            if p.log.times:
                probe_values, probe_factors = scaled_metrics(p.workload, p.log, reference)
                values.update(probe_values)
                record["probes"][p.workload.name] = {
                    "metrics": probe_values, "op_s": p.log.times, "op_factors": probe_factors,
                    "op_windows": p.log.windows, "op_summaries": p.log.summaries,
                    "op_ms_tail": getattr(p.workload, "tail_record", None)}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if hasattr(home, "tail_record"):
            record["op_ms_tail"] = home.tail_record
        if hasattr(home, "rates"):
            record["run_rates"] = home.rates

    attempted = sum(log.attempted for log in logs)
    failures = [f for log in logs for f in log.failures]
    missing = [name for name in units if name not in values]
    if missing:
        failures.append(f"no value for {', '.join(missing)}")
    correct = not failures
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    if home.first is not None:
        record["digests"] = home.digests()
    record.update(env=environment(), attempted=attempted, failed=len(failures),
                  error_rate=ratio(len(failures), attempted), failures=failures,
                  metrics=metrics)
    result_path = workdir / f"result-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"varbatch bench: {args.workload} seed={args.seed} preset={preset} "
          f"trace={args.trace} attempted={attempted} failed={len(failures)} "
          f"error_rate={record['error_rate']}")
    for failure in failures:
        print(f"  FAIL {failure}")
    if record.get("absent"):
        print(f"  absent (not found, reported as 0): {', '.join(record['absent'])}")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  record: {result_path.relative_to(ROOT_DIR)}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT_DIR, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1]).get("correct"):
            status = 1
    print(f"varbatch bench: all workloads {'passed' if status == 0 else 'FAILED'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: n-max 4, N=300 train, N=10000 stream "
                             "(30 iterations), kmax 20")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        require_source()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
