"""Command-line interface: config handling, subcommands, exit codes."""

import math

import pytest

from pidga import cli
from pidga.experiment import ExperimentConfig, SweepReport, SweepRow
from pidga.metrics import PerformanceIndices, StandardMeasures
from pidga.tuners import PidGains

TINY_CONFIG = """\
# comments and blank lines are ignored

delays = 0.5              # single-cell experiment
objectives = ise
pop_size = 12
generations = 10
seed = 3
"""


def write_config(tmp_path, text=TINY_CONFIG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


# --------------------------------------------------------------- config files

def test_read_config_file_parses_values(tmp_path):
    values = cli.read_config_file(write_config(tmp_path))
    assert values == {"delays": (0.5,), "objectives": ("ise",),
                      "pop_size": 12, "generations": 10, "seed": 3}


def test_read_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, "population = 80\n")
    with pytest.raises(cli.ConfigError, match="unknown key"):
        cli.read_config_file(path)


def test_read_config_rejects_malformed_line(tmp_path):
    path = write_config(tmp_path, "pop_size 80\n")
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.read_config_file(path)


def test_read_config_rejects_bad_value(tmp_path):
    path = write_config(tmp_path, "pop_size = many\n")
    with pytest.raises(cli.ConfigError, match="bad pop_size"):
        cli.read_config_file(path)


def test_missing_config_file_exits_2(capsys):
    rc = cli.main(["baseline", "--config", "/nonexistent/run.cfg"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_value_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "delays = 0.5, 0.1\n")  # not ascending
    rc = cli.main(["baseline", "--config", path])
    assert rc == 2


def test_nonpositive_dt_exits_2_with_the_sampling_message(tmp_path, capsys):
    path = write_config(tmp_path, "dt = 0\n")
    rc = cli.main(["baseline", "--config", path])
    assert rc == 2
    assert "dt must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--pop-size", "1"],
                                   ["--generations", "0"]])
def test_invalid_ga_flags_exit_2(flags, capsys):
    rc = cli.main(["tune", "--delay", "0.1", "--objective", "ise", *flags])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [("selection_q = 1.5", "selection_q"),
                                           ("bounds_factor = 1", "factor")])
def test_invalid_ga_config_value_exits_2(tmp_path, capsys, line, message):
    path = write_config(tmp_path, TINY_CONFIG + line + "\n")
    rc = cli.main(["tune", "--config", path, "--delay", "0.5",
                   "--objective", "ise"])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [["baseline"],
                                     ["tune", "--delay", "0.1",
                                      "--objective", "ise"]])
@pytest.mark.parametrize("gain", ["-1", "0"])
def test_nonpositive_plant_gain_exits_2(tmp_path, capsys, command, gain):
    path = write_config(tmp_path, f"gain = {gain}\n")
    rc = cli.main([*command, "--config", path])
    assert rc == 2
    assert "plant gain must be positive" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    path = write_config(tmp_path)

    class Args:
        config = path
        seed = 99
        pop_size = None
        generations = None
        out = "elsewhere"

    config, out = cli.build_config(Args())
    assert config.master_seed == 99
    assert config.pop_size == 12
    assert out == "elsewhere"


# ---------------------------------------------------------------- subcommands

def test_baseline_command_prints_rows(tmp_path, capsys):
    path = write_config(tmp_path, "delays = 0.1, 1.0\n")
    rc = cli.main(["baseline", "--config", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "delay 0.1:" in out and "delay 1:" in out
    assert "kd=0.600000" in out


def test_tune_command_runs_single_cell(tmp_path, capsys):
    path = write_config(tmp_path)
    rc = cli.main(["tune", "--config", path, "--delay", "0.5",
                   "--objective", "ise"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "zn" in out and "ga-ise" in out
    assert "indices:" in out and "measures:" in out


def test_sweep_command_emits_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_CONFIG)
    outdir = tmp_path / "results"
    rc = cli.main(["sweep", "--config", cfg, "--out", str(outdir),
                   "--generations", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert (outdir / "measures.csv").exists()
    assert (outdir / "indices.csv").exists()
    assert (outdir / "details.csv").exists()
    assert not list(outdir.glob("*.svg"))  # single delay: no charts
    assert "wrote" in out


def test_sweep_plots_need_two_delays(tmp_path):
    cfg = write_config(tmp_path, "delays = 0.25, 0.5\nobjectives = ise\n"
                                 "pop_size = 10\ngenerations = 6\nseed = 3\n")
    outdir = tmp_path / "results"
    rc = cli.main(["sweep", "--config", cfg, "--out", str(outdir)])
    assert rc == 0
    assert len(list(outdir.glob("*.svg"))) == 10


def test_sweep_invalid_rows_exit_3(tmp_path, monkeypatch, capsys):
    config = ExperimentConfig(delays=(0.1, 0.2), objectives=("ise",))
    nan5 = (math.nan,) * 5
    rows = []
    for tau in config.delays:
        rows.append(SweepRow(tau, "zn", PidGains(0.6, 1.2, 0.6),
                             PerformanceIndices(0.1, 0.2, 0.3, 0.4, 0.5),
                             StandardMeasures(1.0, 2.0, 3.0, 4.0, 0.0, 1.5),
                             True, 0))
        rows.append(SweepRow(tau, "ga-ise", PidGains(1.0, 2.0, 3.0),
                             PerformanceIndices(*nan5),
                             StandardMeasures(*nan5), False, 1, valid=False))
    report = SweepReport(config, tuple(rows))
    monkeypatch.setattr(cli, "run_sweep", lambda cfg, progress=None: report)
    rc = cli.main(["sweep", "--out", str(tmp_path / "bad")])
    assert rc == 3
    assert "invalid row" in capsys.readouterr().err


def test_tune_rejects_unknown_objective(tmp_path, capsys):
    rc = cli.main(["tune", "--delay", "0.5", "--objective", "ise",
                   "--config", write_config(tmp_path, "objectives = mape\n")])
    assert rc == 2


# ------------------------------------------------------------------- validate

def test_validate_passes_all_checks(capsys):
    rc = cli.main(["validate"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 8
    assert all(ln.startswith("PASS") for ln in lines)
