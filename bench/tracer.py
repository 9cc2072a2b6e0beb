"""Span tracer that wraps varbatch's public functions from outside the package.

Each wrapped call records one span: function name, start, end, parent span
and the op it belongs to. Spans live in flat in-memory arrays while the run
goes on and are written out once, when the run ends. Wrappers replace the
function at every name the package binds it to (``varbatch.optimizer.
gradient_stats``, ``varbatch.cli.run``, ``varbatch.run``, ...), so calls
between modules, calls inside one module and calls from users are all seen.

A few boundaries also count work from their arguments or results; those
counts (component evaluations, indices drawn, batches enumerated,
iterations) are the machine-independent side of the per-layer metrics.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("finite_sum", "sampling", "variance", "scheduler", "optimizer", "cli", "svgplot")

# Entry points outside ``varbatch.__all__`` that users call directly.
ENTRY_POINTS = ("cli.main", "svgplot.render_line_chart")

# Functions whose every call evaluates all N components (one full pass).
FULL_PASSES = (
    "finite_sum.full_gradient",
    "finite_sum.gradient_stats",
    "finite_sum.gradient_matrix",
    "finite_sum.objective_value",
)

ROOT_SPAN = "bench.op"


def _arg(args, kwargs, position, name):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _count_full_pass(counts, args, kwargs, result):
    counts["finite_sum.evals"] += _arg(args, kwargs, 0, "problem").n_components
    return result


def _count_batch_gradient(counts, args, kwargs, result):
    size = _arg(args, kwargs, 2, "batch").size
    counts["finite_sum.evals"] += size
    counts["finite_sum.batch_evals"] += size
    return result


def _count_draw(counts, args, kwargs, result):
    counts["sampling.indices_drawn"] += _arg(args, kwargs, 2, "batch_size")
    return result


def _count_run(counts, args, kwargs, result):
    counts["optimizer.iterations"] += len(result.rows)
    return result


def _count_cli_output(counts, args, kwargs, result):
    # Sized once the op's root span has closed, so the stat calls stay out
    # of the op's traced wall time.
    counts.after_op.append(_arg(args, kwargs, 0, "argv"))
    return result


def _bytes_written(argv) -> int:
    argv = list(argv or ())
    if "--out" not in argv[:-1]:
        return 0
    out = Path(argv[argv.index("--out") + 1])
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


class OpCounts(Counter):
    """Counts of one op, plus the CLI calls whose output is sized after it ends."""

    def __init__(self):
        super().__init__()
        self.after_op: list = []


def _count_enumeration(counts, args, kwargs, result):
    def counted():
        for batch in result:
            counts["sampling.enumerate_batches.batches"] += 1
            yield batch

    return counted()


COUNTERS = {
    **{name: _count_full_pass for name in FULL_PASSES},
    "finite_sum.batch_gradient": _count_batch_gradient,
    "sampling.sample_with_replacement": _count_draw,
    "sampling.sample_without_replacement": _count_draw,
    "sampling.enumerate_batches": _count_enumeration,
    "optimizer.run": _count_run,
    "cli.main": _count_cli_output,
}


def traced_names(package) -> list[str]:
    """``<module>.<function>`` for every public function the tracer wraps."""
    names = set(ENTRY_POINTS)
    for public in getattr(package, "__all__", ()):
        obj = getattr(package, public, None)
        module = getattr(obj, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if inspect.isfunction(obj) and module.startswith("varbatch.") and layer in LAYERS:
            names.add(f"{layer}.{public}")
    return sorted(names)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = [ROOT_SPAN]
        self._ids = {ROOT_SPAN: 0}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_counts: list[OpCounts] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_op.append(self._op)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.span_start[index] = start
        self.span_end[index] = end

    def op(self, call):
        """Run ``call()`` as one op under a root span; returns its result."""
        self._op = len(self.op_counts)
        counts = OpCounts()
        self.op_counts.append(counts)
        index = self._open(0)
        start = perf_counter()
        try:
            return call()
        finally:
            self._close(index, start, perf_counter())
            for argv in counts.after_op:
                counts["cli.bytes_written"] += _bytes_written(argv)

    def _wrap(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        errors_key = f"{name}.errors"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.op_counts[self._op][errors_key] += 1
                raise
            finally:
                self._close(index, start, perf_counter())
            if counter is not None:
                result = counter(self.op_counts[self._op], args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------
    def install(self, package) -> None:
        """Wrap every traced function at each name the package binds it to.

        A function missing from its module (renamed or removed by a later
        change) is listed in ``absent`` instead of failing the run.
        """
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == "varbatch" or key.startswith("varbatch."))
        ]
        for name in traced_names(package):
            layer, _, func = name.partition(".")
            home = sys.modules.get(f"varbatch.{layer}")
            original = getattr(home, func, None)
            if not inspect.isfunction(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def per_op(self) -> list[dict]:
        """Per op: wall time, and calls/busy/self seconds for each span name.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap because one thread makes every call.
        """
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child_time = np.bincount(
            spans["parent"][has_parent],
            weights=duration[has_parent],
            minlength=duration.size,
        )
        self_time = duration - child_time
        # One bin per (op, name) pair, so every op is summed in one pass.
        n_names, n_ops = len(self.names), len(self.op_counts)
        key = spans["op"] * n_names + spans["name"]
        shape = (n_ops, n_names)
        calls = np.bincount(key, minlength=n_ops * n_names).reshape(shape)
        busy = np.bincount(key, weights=duration, minlength=n_ops * n_names).reshape(shape)
        own = np.bincount(key, weights=self_time, minlength=n_ops * n_names).reshape(shape)
        out = []
        for op, counts in enumerate(self.op_counts):
            stats = {
                name: {"calls": int(calls[op, i]), "busy_s": float(busy[op, i]),
                       "self_s": float(own[op, i])}
                for i, name in enumerate(self.names)
                if calls[op, i]
            }
            out.append({"wall_s": stats[ROOT_SPAN]["busy_s"], "functions": stats,
                        "counts": dict(counts)})
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
