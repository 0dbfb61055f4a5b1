"""End-to-end checks of the command-line front end.

Everything but the cold-start import check goes through main(argv)
in-process; JSON side effects land in tmp_path.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hermitia
from hermitia import ConfigError, acceptance, cli
from hermitia.cli import main
from hermitia.report import encode_matrix, fmt_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    return code, json.loads(out.read_text())


# ---------------------------------------------------------------------------
# the pinned examples


def test_adjoint_degenerate_demo(capsys):
    code, out, _ = run(capsys, "adjoint", "--dimV", "2", "--dimW", "1",
                       "--demo", "degenerate")
    assert code == 0
    assert "(1; 0)" in out
    assert "torsor_dimension" in out


def test_hsc_round_line(tmp_path):
    code, report = report_of(tmp_path, "hsc", "--model", "fs:1",
                             "--samples", "100", "--seed", "7")
    assert code == 0
    assert report["schema"] == "hermitia-report/1"
    by_name = {r["name"]: r for r in report["records"]}
    assert abs(by_name["min_H"]["value"] - 2.0) < 1e-5
    assert abs(by_name["max_H"]["value"] - 2.0) < 1e-5


def test_sum_check_five_instances(tmp_path):
    code, report = report_of(tmp_path, "sum-check", "--seed", "11",
                             "--instances", "5")
    assert code == 0
    records = [r for r in report["records"] if r["name"].startswith("instance_")]
    assert len(records) == 5
    assert all(r["residual"] <= 1e-4 for r in records)
    assert records[0]["name"] == "instance_011"


# ---------------------------------------------------------------------------
# the other commands, smoke level


def test_purge_reports_quotient(tmp_path):
    code, report = report_of(tmp_path, "purge", "--dim", "4", "--rank", "2",
                             "--seed", "3")
    assert code == 0
    by_name = {r["name"]: r for r in report["records"]}
    assert by_name["purged_dim"]["value"] == 2
    assert by_name["kernel_annihilation"]["residual"] < 1e-9


def test_curvature_finite_difference_mode(capsys):
    code, out, _ = run(capsys, "curvature", "--model", "fs:1", "--samples", "1",
                       "--derivatives", "fd")
    assert code == 0
    assert "pair_symmetry" in out


def test_grassmannian_routes_agree(tmp_path):
    code, report = report_of(tmp_path, "grassmannian", "--samples", "5")
    assert code == 0
    by_name = {r["name"]: r for r in report["records"]}
    assert by_name["route_agreement"]["residual"] < 1e-8
    assert by_name["einstein_constant"]["value"] == 4.0


def test_codazzi_and_demailly_checks(capsys):
    code, _, _ = run(capsys, "codazzi-check", "--instances", "2")
    assert code == 0
    code, _, _ = run(capsys, "demailly-check", "--instances", "1")
    assert code == 0


def test_fibration_scan_finds_threshold(tmp_path):
    code, report = report_of(tmp_path, "fibration-scan", "--model", "hirz:1",
                             "--samples", "100", "--lambda-max", "3")
    assert code == 0
    by_name = {r["name"]: r for r in report["records"]}
    assert by_name["lambda0"]["value"] == 0.0


def test_acceptance_subset(capsys):
    code, out, _ = run(capsys, "acceptance", "--criteria", "1,9")
    assert code == 0
    assert "criterion_01" in out and "criterion_09" in out


def test_acceptance_records_hold_their_run_time_as_elapsed_s(tmp_path):
    code, report = report_of(tmp_path, "acceptance", "--criteria", "1")
    assert code == 0
    (record,) = report["records"]
    assert "value" not in record
    assert isinstance(record["elapsed_s"], float) and record["elapsed_s"] >= 0.0
    assert record["failures"] == []
    assert sorted(record["details"]) == ["analytic_worst", "finite_difference_worst"]


def test_a_nan_identity_line_fails_demailly_check(monkeypatch, capsys):
    table = {"first": 1e-9, "second": float("nan")}
    monkeypatch.setattr(acceptance, "identity_table_instance", lambda seed: table)
    code, out, _ = run(capsys, "demailly-check", "--instances", "1")
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# configuration layering and exit codes


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = fs:2\nsamples = 40\nseed = 3\n")
    code, report = report_of(tmp_path, "hsc", "--config", str(cfg), "--seed", "9")
    assert code == 0
    assert report["config"]["model"] == "fs:2"
    assert report["config"]["samples"] == 40
    assert report["config"]["seed"] == 9  # flag wins over the file


def test_unknown_model_is_config_error(capsys):
    code, _, err = run(capsys, "hsc", "--model", "nosuch:3")
    assert code == 2
    assert "config error" in err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run(capsys, "hsc", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_removed_threads_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hsc", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_an_unread_flag_is_reported_with_its_command_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["acceptance", "--criteria", "4", "--seed", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hermitia acceptance") and "unrecognized arguments: --seed 7" in err


def test_the_degenerate_adjoint_demo_reads_no_seed(tmp_path, capsys):
    """The degenerate demo's report holds no seed, and a seed given to it,
    as a flag or a config key, is a config error; the random demo
    records the seed it falls back to."""
    code, report = report_of(tmp_path, "adjoint", "--demo", "degenerate")
    assert code == 0 and "seed" not in report["config"]
    code, _, err = run(capsys, "adjoint", "--demo", "degenerate", "--seed", "5")
    assert code == 2 and "reads no seed" in err
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 5\n")
    code, _, err = run(capsys, "adjoint", "--config", str(cfg))
    assert code == 2 and "reads no seed" in err
    code, report = report_of(tmp_path, "adjoint", "--demo", "random", "--dimV", "3")
    assert code == 0 and report["config"]["seed"] == 0


def test_removed_threads_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("threads = 2\n")
    code, _, err = run(capsys, "acceptance", "--config", str(cfg), "--criteria", "1")
    assert code == 2
    assert "threads" in err


def test_rank_above_dim_is_config_error(capsys):
    code, _, _ = run(capsys, "purge", "--dim", "2", "--rank", "3")
    assert code == 2


def test_bad_criteria_list_is_config_error(capsys):
    code, _, _ = run(capsys, "acceptance", "--criteria", "1,99")
    assert code == 2


def test_failed_check_exits_one(capsys):
    # finite-difference curvature misses the declared window edges by
    # about 1e-6, so a 1e-9 tolerance cannot pass
    code, out, _ = run(capsys, "hsc", "--model", "gr:2:4", "--samples", "40",
                       "--derivatives", "fd", "--tol", "1e-9")
    assert code == 1
    assert "FAIL" in out


def test_report_is_deterministic(tmp_path):
    _, first = report_of(tmp_path, "hsc", "--model", "fs:1", "--samples", "40")
    _, second = report_of(tmp_path, "hsc", "--model", "fs:1", "--samples", "40")
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


# ---------------------------------------------------------------------------
# report encoding helpers


def test_matrix_encoding():
    assert encode_matrix(np.array([[1 + 2j]])) == [[[1.0, 2.0]]]
    assert fmt_matrix(np.array([[1.0], [0.0]])) == "(1; 0)"
    assert fmt_matrix(np.array([[0.5 + 0.25j]])) == "(0.5+0.25i)"


@pytest.mark.parametrize(
    "argv",
    [
        ["hsc", "--seed", "-1"],
        ["purge", "--seed", "-1"],
        ["purge", "--dim", "-1"],
        ["purge", "--dim", "3", "--rank", "-1"],
        ["adjoint", "--demo", "random", "--dimV", "0"],
        ["adjoint", "--dimW", "0"],
        ["sum-check", "--instances", "0"],
        ["codazzi-check", "--instances", "-2"],
        ["hsc", "--samples", "-3"],
        ["curvature", "--samples", "0"],
        ["hsc", "--region", "-0.5"],
        ["hsc", "--region", "0"],
        ["hsc", "--region", "nan"],
        ["fibration-scan", "--lambda-max", "-1"],
        ["fibration-scan", "--lambda-max", "inf"],
        ["fibration-scan", "--lambda-max", "1e300"],
        ["hsc", "--tol", "-1"],
        ["hsc", "--tol", "0"],
        ["hsc", "--tol", "nan"],
        ["adjoint", "--tol", "inf"],
    ],
)
def test_value_out_of_range_is_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "config error" in err and out == ""


def test_config_file_values_are_range_checked(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples = -3\n")
    code, _, err = run(capsys, "hsc", "--config", str(cfg))
    assert code == 2
    assert "samples" in err


@pytest.mark.parametrize(
    "command, line, key",
    [
        ("curvature", "derivatives = fdd", "derivatives"),
        ("hsc", "derivatives = FD", "derivatives"),
        ("adjoint", "demo = singular", "demo"),
        ("hsc", "tol = -1", "tol"),
        ("demailly-check", "tol = nan", "tol"),
    ],
)
def test_config_file_words_and_tolerances_are_checked(tmp_path, capsys, command, line, key):
    """A config file bypasses argparse's choices and type checks: a
    misspelt derivatives mode would otherwise run the analytic field under
    the finite-difference tolerance."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert "config error" in err and key in err and out == ""


@pytest.mark.parametrize("argv", [["curvature", "--derivatives", "fdd"], ["adjoint", "--demo", "x"]])
def test_flag_words_are_checked_by_the_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# each command takes exactly the options it reads


# The options each command's body reads; every command also takes --out,
# which main reads, and --config.
READS = {
    "purge": {"dim", "rank", "seed"},
    "adjoint": {"dimv", "dimw", "demo", "seed", "tol"},
    "curvature": {"model", "samples", "seed", "derivatives", "region", "tol"},
    "hsc": {"model", "samples", "seed", "tol", "derivatives", "region"},
    "grassmannian": {"model", "samples", "seed", "tol", "region"},
    "codazzi-check": {"instances", "seed", "tol"},
    "demailly-check": {"instances", "seed", "tol"},
    "sum-check": {"instances", "seed", "tol"},
    "fibration-scan": {"model", "samples", "seed", "lambda_max", "region"},
    "acceptance": {"criteria"},
}
# Cheap runs whose bodies reach every option they read.
READ_RUNS = {
    "purge": [],
    "adjoint": ["--demo", "random"],
    "curvature": ["--samples", "1"],
    "hsc": ["--samples", "2"],
    "grassmannian": ["--samples", "1"],
    "codazzi-check": ["--instances", "1"],
    "demailly-check": ["--instances", "1"],
    "sum-check": ["--instances", "1"],
    "fibration-scan": ["--samples", "2", "--lambda-max", "0"],
    "acceptance": ["--criteria", "4"],
}
# A valid value of every option, by its flag.
FLAG_VALUES = {
    "--seed": "1", "--rank": "1", "--dim": "2", "--dimV": "2", "--dimW": "1",
    "--samples": "1", "--instances": "1", "--lambda-max": "1", "--region": "0.5",
    "--tol": "1e-3", "--derivatives": "fd", "--demo": "random", "--model": "fs:1",
    "--criteria": "1", "--out": "report.json",
}


def config_key(flag):
    return flag[2:].lower().replace("-", "_")


class ReadLog(dict):
    """A configuration that records every key read from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.reads = set()

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("command", sorted(READ_RUNS))
def test_each_command_declares_the_options_it_reads(command, monkeypatch, capsys):
    logs = []
    effective = cli._effective_config

    def logged(args):
        logs.append(ReadLog(effective(args)))
        return logs[-1]

    monkeypatch.setattr(cli, "_effective_config", logged)
    code, _, _ = run(capsys, command, *READ_RUNS[command])
    assert code == 0
    assert logs[0].reads == READS[command] | {"out"} == set(cli.COMMANDS[command].options) | {"out"}


def takes_flag(command, flag, value):
    try:
        cli._build_parser().parse_args([command, flag, value])
    except SystemExit:
        return False
    return True


def takes_config_key(tmp_path, command, flag):
    path = tmp_path / "one.cfg"
    path.write_text("%s = %s\n" % (config_key(flag), FLAG_VALUES[flag]))
    try:
        cli._effective_config(cli._build_parser().parse_args([command, "--config", str(path)]))
    except ConfigError:
        return False
    return True


def test_the_ten_commands_take_60_flags_and_50_config_keys(tmp_path, capsys):
    flags = keys = 0
    for command, reads in READS.items():
        taken = {config_key(f) for f, v in FLAG_VALUES.items() if takes_flag(command, f, v)}
        assert taken == reads | {"out"} and takes_flag(command, "--config", "run.cfg")
        flags += len(taken) + 1
        taken = {config_key(f) for f in FLAG_VALUES if takes_config_key(tmp_path, command, f)}
        assert taken == reads | {"out"}
        keys += len(taken)
    assert (len(cli.COMMANDS), flags, keys) == (10, 60, 50)


UNREAD = [(c, f) for c, reads in READS.items() for f in FLAG_VALUES if config_key(f) not in reads | {"out"}]


@pytest.mark.parametrize("command, flag", UNREAD)
def test_an_option_the_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    cfg = tmp_path / "unread.cfg"
    cfg.write_text("%s = %s\n" % (config_key(flag), FLAG_VALUES[flag]))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert "config error" in err and config_key(flag) in err and out == ""


def test_curvature_solves_each_sample_once(gate_points, capsys):
    code, _, _ = run(capsys, "curvature", "--model", "fs:2", "--samples", "5")
    assert code == 0
    assert len(gate_points) == len(set(gate_points)) == 5


def test_importing_the_package_and_its_cli_loads_no_scipy():
    """A fresh interpreter that imports hermitia and its command line has
    not loaded scipy: every command starts on numpy alone."""
    src = os.path.dirname(os.path.dirname(hermitia.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, hermitia, hermitia.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
