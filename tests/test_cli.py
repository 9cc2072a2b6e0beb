import csv

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
    for content in ("1,2\n1\n", "1,2\n1,nan\n", "1,2\ninf,1\n"):
        data.write_text(content)
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
