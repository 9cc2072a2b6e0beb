import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import varbatch.cli as cli
from varbatch.cli import main


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_growth_curve_default_output(tmp_path):
    assert main(["growth-curve", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "growth_curve.csv")
    assert len(rows) == 201
    assert list(rows[0]) == list(cli.GROWTH_HEADER)
    sizes_with = [int(r["size_with_replacement_truncated"]) for r in rows]
    sizes_without = [int(r["size_without_replacement"]) for r in rows]
    assert all(so <= sw <= 30000 for so, sw in zip(sizes_without, sizes_with))
    assert all(a <= b for a, b in zip(sizes_with, sizes_with[1:]))
    assert all(a <= b for a, b in zip(sizes_without, sizes_without[1:]))
    svg = (tmp_path / "growth_curve.svg").read_text()
    assert svg.startswith("<svg")
    assert "batch size" in svg and ">k<" in svg
    assert svg.count("<polyline") == 2


def test_growth_curve_bound_columns_bracket_sizes(tmp_path):
    main(["growth-curve", "--kmax", "50", "--out", str(tmp_path)])
    for row in read_csv(tmp_path / "growth_curve.csv"):
        bound = float(row["bound_without_replacement"])
        size = int(row["size_without_replacement"])
        # Ceiling of the bound, allowing for the documented integrality snap.
        assert size >= bound - 1e-3
        assert size <= bound + 1.0


def test_growth_curve_large_cap_past_epsilon_floor(tmp_path):
    # eps_k reaches its 1e-300 floor near k = 6550, where C / eps overflows.
    assert main(["growth-curve", "--C", "1e10", "--kmax", "7000", "--out", str(tmp_path)]) == 0
    last = read_csv(tmp_path / "growth_curve.csv")[-1]
    assert int(last["size_with_replacement_truncated"]) == 30000


def test_growth_curve_rejects_bad_population(tmp_path):
    assert main(["growth-curve", "--N", "1", "--out", str(tmp_path)]) == 2


def test_growth_curve_rejects_bad_schedule(tmp_path):
    assert main(["growth-curve", "--rho", "1.5", "--out", str(tmp_path)]) == 2


def test_verify_small_sweep_passes(tmp_path, capsys):
    assert main(["verify", "--n-max", "6", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "verify.csv")
    # One row per (N, N_S, scheme): 2 * sum(1..6).
    assert len(rows) == 42
    for row in rows:
        assert float(row["abs_err"]) <= 1e-10
        if row["N"] == "1":
            assert float(row["analytic"]) == 0.0
            assert float(row["oracle"]) == 0.0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_verify_reports_cap_skips_without_failing(tmp_path, capsys):
    assert main(["verify", "--n-max", "6", "--cap", "10", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "cap exceeded" in captured.err
    rows = read_csv(tmp_path / "verify.csv")
    skipped = [r for r in rows if r["oracle"] == ""]
    assert skipped and all(r["abs_err"] == "" for r in skipped)


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "analytic_variance", lambda *args: 123.0)
    assert main(["verify", "--n-max", "3", "--out", str(tmp_path)]) == 1


def test_train_builtin_demo_converges(tmp_path, capsys):
    rc = main(
        ["train", "--problem", "least-squares", "--C", "2", "--tol", "1e-2",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "termination=converged" in out
    rows = read_csv(tmp_path / "train.csv")
    assert list(rows[0]) == list(cli.TRAIN_HEADER)
    assert int(rows[-1]["batch_size"]) <= 5


def test_train_logistic_builtin_runs(tmp_path):
    rc = main(
        ["train", "--problem", "logistic", "--C", "1", "--max-iters", "50",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "train.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverging_run_is_failure(tmp_path, capsys):
    assert main(["train", "--alpha", "50", "--out", str(tmp_path)]) == 1
    assert "termination=diverged" in capsys.readouterr().out
    assert "nan" not in (tmp_path / "train.csv").read_text()


def test_train_from_dataset_file(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    data.write_text("1,1\n1,2\n1,3\n1,4\n1,5\n")
    rc = main(
        ["train", "--problem", str(data), "--C", "2", "--tol", "1e-2",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    assert "N=5, d=1" in capsys.readouterr().out


def test_train_missing_dataset_is_io_error(tmp_path, capsys):
    rc = main(["train", "--problem", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_train_malformed_dataset_is_io_error(tmp_path):
    data = tmp_path / "bad.csv"
    for content in (b"1,2\n1\n", b"1,2\n1,nan\n", b"1,2\ninf,1\n", b"1,2\n\xff\xfe,1\n"):
        data.write_bytes(content)
        assert main(["train", "--problem", str(data), "--out", str(tmp_path)]) == 3


def test_train_bad_cap_is_usage_error(tmp_path):
    assert main(["train", "--C", "-1", "--out", str(tmp_path)]) == 2


def test_malformed_flag_is_usage_exit():
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--alpha", "not-a-number"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# growth settings\nkmax = 10\nN = 100\n")
    assert main(["growth-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "growth_curve.csv")
    assert len(rows) == 11
    assert int(rows[-1]["size_without_replacement"]) <= 100


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kmax = 10\n")
    assert main(["growth-curve", "--config", str(cfg), "--kmax", "3",
                 "--out", str(tmp_path)]) == 0
    assert len(read_csv(tmp_path / "growth_curve.csv")) == 4


def test_config_file_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["growth-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    ("command", "line", "named"),
    [
        ("growth-curve", "kmax = ten", "ten"),
        ("train", "scheme = sideways", "sideways"),
        ("train", "lr-schedule = cosine", "cosine"),
        ("verify", "help = 1", "help"),
        ("growth-curve", "config = other.cfg", "config"),
        ("train", "command = verify", "command"),
    ],
)
def test_config_file_errors_name_the_file(tmp_path, capsys, command, line, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and named in err


def test_config_file_not_utf8_names_file_and_offset(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"kmax = 3\n\xff = 1\n")
    assert main(["growth-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "byte 9" in err


@pytest.mark.parametrize(
    ("command", "settings", "outputs"),
    [
        ("verify", {"n-max": "3", "cap": "40", "seed": "4"}, ("verify.csv",)),
        (
            "growth-curve",
            {"C": "3.5", "N": "700", "eps0": "2", "rho": "0.7", "kmax": "25"},
            ("growth_curve.csv", "growth_curve.svg"),
        ),
        (
            "train",
            {"problem": "logistic", "scheme": "with", "C": "1.5", "eps0": "0.5",
             "rho": "0.8", "alpha": "0.4", "lr-schedule": "decaying", "max-iters": "30",
             "tol": "1e-3", "seed": "7"},
            ("train.csv",),
        ),
    ],
)
def test_config_file_matches_flags(tmp_path, capsys, command, settings, outputs):
    # The settings cover every flag of the subcommand, so each flag is a config key.
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage_flags = set(re.findall(r"\[--([\w-]+)", capsys.readouterr().out))
    assert usage_flags == set(settings) | {"config", "out"}
    by_flag, by_file = tmp_path / "flag", tmp_path / "file"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items())
                   + f"out = {by_file}\n")
    flags = [token for key, value in settings.items() for token in (f"--{key}", value)]
    assert main([command, *flags, "--out", str(by_flag)]) == 0
    assert main([command, "--config", str(cfg)]) == 0
    for name in outputs:
        assert read_bytes(by_flag / name) == read_bytes(by_file / name)


def test_growth_curve_huge_cap_does_not_overflow(tmp_path):
    # N * C overflows at C = 1e305; the without-replacement size is then N.
    assert main(["growth-curve", "--C", "1e305", "--kmax", "5", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "growth_curve.csv")
    assert {int(r["size_without_replacement"]) for r in rows} == {30000}


def _run_module(*args, cwd):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "varbatch.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
    )


def test_module_entry_point_runs(tmp_path):
    done = _run_module("growth-curve", "--kmax", "3", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert len(read_csv(tmp_path / "growth_curve.csv")) == 4
    for command in ("verify", "growth-curve", "train"):
        done = _run_module(command, "--help", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(f"usage: varbatch {command}")


def test_config_file_missing_is_io_error(tmp_path):
    rc = main(["growth-curve", "--config", str(tmp_path / "none.cfg"),
               "--out", str(tmp_path)])
    assert rc == 3


def test_growth_curve_byte_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["growth-curve", "--kmax", "40", "--out", str(out)]) == 0
    assert read_bytes(a / "growth_curve.csv") == read_bytes(b / "growth_curve.csv")
    assert read_bytes(a / "growth_curve.svg") == read_bytes(b / "growth_curve.svg")


def test_train_byte_stable_for_fixed_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["train", "--problem", "least-squares", "--C", "2",
                   "--seed", "11", "--tol", "1e-2", "--out", str(out)])
        assert rc == 0
    assert read_bytes(a / "train.csv") == read_bytes(b / "train.csv")
