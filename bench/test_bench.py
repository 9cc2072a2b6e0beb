"""Smoke test of the benchmark: every workload, its checks and the traced run.

Run from the repository root:

    python -m pytest -q bench/test_bench.py

Each case copies the library, the benchmark and BENCHMARK.json into a
temporary directory and runs the benchmark there at smoke sizes, so nothing
is written inside the repository.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IGNORE = shutil.ignore_patterns("__pycache__", ".bench_work")


def copy_checkout(dest: Path, with_source: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=IGNORE)
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=IGNORE)
    return dest


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return copy_checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_and_reports_every_metric(checkout, workload, trace):
    proc = run_bench(checkout, "--workload", workload, "--seed", "1", "--seconds", "0.5",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(
        (checkout / ".bench_work" / workload / f"result-seed1-trace{trace}.json").read_text()
    )
    assert record["env"]["nproc"] >= 1 and record["env"]["blas_threads"]
    assert record["digests"]


def test_refuses_to_run_without_the_library(tmp_path):
    bare = copy_checkout(tmp_path, with_source=False)
    proc = run_bench(bare, "--workload", "growth-curve", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_self_times_add_up_and_missing_functions_are_absent(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import varbatch
    import varbatch.cli
    import varbatch.scheduler
    from tracer import ROOT_SPAN
    from tracer import Tracer

    original_main = varbatch.cli.main
    monkeypatch.delattr(varbatch.scheduler, "epsilon_at")
    tracer = Tracer()
    tracer.install(varbatch)
    try:
        assert varbatch.cli.main is not original_main
        code = tracer.op(lambda: varbatch.cli.main(
            ["growth-curve", "--kmax", "5", "--out", str(tmp_path)]))
    finally:
        tracer.uninstall()
    assert code == 0
    assert varbatch.cli.main is original_main
    assert tracer.absent == ["scheduler.epsilon_at"]
    (op,) = tracer.per_op()
    functions = op["functions"]
    assert functions["cli.main"]["calls"] == 1
    assert functions["scheduler.min_batch_without_replacement"]["calls"] == 6
    assert functions["svgplot.render_line_chart"]["calls"] == 1
    total_self = sum(f["self_s"] for f in functions.values())
    assert total_self == pytest.approx(functions[ROOT_SPAN]["busy_s"], rel=1e-9)
    assert op["counts"]["cli.bytes_written"] == sum(
        p.stat().st_size for p in tmp_path.iterdir())


def test_speed_reference_uses_kernel_times_near_the_op(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from reference import KERNELS, NOMINAL_S, SpeedReference

    reference = SpeedReference()
    reference.times = [0.0, 10.0, 10.5, 20.0]
    reference.kernel_s = {
        "numpy": [NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S, NOMINAL_S],
        "python": [NOMINAL_S, 4 * NOMINAL_S, 4 * NOMINAL_S, NOMINAL_S],
    }
    assert reference.factor(0.2, 0.5, "numpy") == pytest.approx(1.0)
    assert reference.factor(10.1, 10.3, "numpy") == pytest.approx(0.5)
    assert reference.factor(10.1, 10.3, "python") == pytest.approx(0.25)
    # Nothing within a second: the nearest measurement on each side counts.
    assert reference.factor(3.0, 8.0, "numpy") == pytest.approx(1 / 1.5)
    # smooth=0: only the measurements just before and just after count.
    assert reference.factor(10.6, 10.7, "numpy") == pytest.approx(0.5)
    assert reference.factor(10.6, 10.7, "numpy", smooth=0.0) == pytest.approx(1 / 1.5)
    # A paced op with at least three measurements inside takes their mean.
    reference.times = [1.0, 2.0, 3.0, 4.0]
    reference.kernel_s["numpy"] = [NOMINAL_S, NOMINAL_S, 4 * NOMINAL_S, NOMINAL_S]
    assert reference.factor(0.5, 4.5, "numpy") == pytest.approx(4 / 7)
    assert reference.factor(2.5, 3.5, "numpy") == pytest.approx(1.0)
    reference.measure()
    assert len(reference.times) == 5
    for kernel in KERNELS:
        assert len(reference.kernel_s[kernel]) == 5 and reference.kernel_s[kernel][-1] > 0
