import argparse
import dataclasses
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bafsim import cli
from bafsim.capacity import c_eps_baf_no_feedback, c_eps_cutset
from bafsim.channel import LinkVariances
from bafsim.cli import CSV_HEADER, MAX_GRID_POINTS, MAX_RELAYS, SUBCOMMANDS, _build_parser, main

UNIT = LinkVariances(1.0, (1.0,), (1.0,))

EXPECTED_HEADER = "snr_db,rate,epsilon,k_relays,metric_name,value,stderr,n_trials,seed"

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"


def benchmark_script():
    """The benchmark script ``perfbench/run.py`` as a module; importing it runs no benchmark."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module through sys.modules
    spec.loader.exec_module(module)
    return module


def run_csv(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    assert code == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == EXPECTED_HEADER
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(dict(zip(CSV_HEADER, cells)))
    return text, rows


class TestAnalytic:
    def test_unit_variance_row_values(self, tmp_path):
        _, rows = run_csv(tmp_path, [
            "analytic", "--snr-db", "-10", "--rate", "0.01", "--epsilon", "0.01", "--pathloss", "0",
        ])
        by_metric = {r["metric_name"]: r for r in rows}
        snr = 10 ** (-10 / 10)
        assert float(by_metric["c_baf_no_fb"]["value"]) == c_eps_baf_no_feedback(UNIT, snr, 0.01)
        assert float(by_metric["c_csb"]["value"]) == c_eps_cutset(UNIT, snr, 0.01)
        assert by_metric["c_baf_no_fb"]["stderr"] == ""
        assert by_metric["c_baf_no_fb"]["seed"] == ""
        assert by_metric["c_baf_k"]["value"] == by_metric["c_baf_no_fb"]["value"]
        assert by_metric["c_csb_k"]["value"] == by_metric["c_csb"]["value"]

    def test_zero_epsilon_zeroes_capacities(self, tmp_path):
        _, rows = run_csv(tmp_path, [
            "analytic", "--snr-db", "0", "--rate", "0.01", "--epsilon", "0", "--pathloss", "0",
        ])
        for row in rows:
            if row["metric_name"].startswith("c_"):
                assert float(row["value"]) == 0.0

    def test_two_relays_emit_only_k_bounds(self, tmp_path):
        _, rows = run_csv(tmp_path, [
            "analytic", "--snr-db", "0", "--rate", "0.01", "--relay-pos", "0.3,0.6", "--pathloss", "3",
        ])
        assert {r["metric_name"] for r in rows} == {"c_baf_k", "c_csb_k"}

    def test_sweep_row_count(self, tmp_path):
        _, rows = run_csv(tmp_path, [
            "analytic", "--snr-db=-4:0:2", "--rate", "0.01,0.02", "--pathloss", "0",
        ])
        assert len(rows) == 3 * 2 * 7
        assert [r["snr_db"] for r in rows[:7]] == ["-4.0"] * 7


class TestSweepGuards:
    @pytest.mark.parametrize("sweep", ["0:1e308:1e307", "0:1e9:1", "0:1e308:1e-300"])
    def test_unusable_sweep_exits_one(self, tmp_path, capsys, sweep):
        code = main(["analytic", f"--snr-db={sweep}", "--pathloss", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("bafsim: error: snr_db") and err.count("\n") == 1

    def test_a_sweep_of_the_most_points_parses(self):
        assert len(cli._parse_sweep("snr_db", "0:99999:1")) == cli.MAX_SWEEP_POINTS == 100_000

    def test_nan_x_factor_exits_one(self, tmp_path, capsys):
        code = main([
            "lemma1", "--x-factor", "nan", "--trials", "10000", "--pathloss", "0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "x_factor" in capsys.readouterr().err


class TestRatio:
    def test_fig_preset_shape_and_anchor(self, tmp_path):
        _, rows = run_csv(tmp_path, ["ratio", "--preset", "fig2"])
        assert len(rows) == 3 * 21
        anchor = [r for r in rows if r["rate"] == "0.009" and r["snr_db"] == "0.0"]
        assert len(anchor) == 1
        assert float(anchor[0]["value"]) == pytest.approx(0.9881693567254438, abs=1e-12)
        for r in rows:
            assert float(r["value"]) <= 1.0

    def test_preset_is_ratio_only(self, tmp_path, capsys):
        for command in SUBCOMMANDS:
            if command != "ratio":
                capsys.readouterr()
                assert main([command, "--preset", "fig2", "--out", str(tmp_path / "x.csv")]) == 1
                assert len(capsys.readouterr().err.splitlines()) == 1, command

    def test_flags_override_preset(self, tmp_path):
        _, rows = run_csv(tmp_path, ["ratio", "--preset", "fig2", "--rate", "0.009"])
        assert len(rows) == 21


class TestOutage:
    def test_zero_rate_row(self, tmp_path):
        _, rows = run_csv(tmp_path, [
            "outage", "--snr-db", "0", "--rate", "0", "--trials", "10000", "--pathloss", "0",
        ])
        assert len(rows) == 1
        assert rows[0]["metric_name"] == "outage_prob"
        assert float(rows[0]["value"]) == 0.0
        assert float(rows[0]["stderr"]) == 0.0
        assert rows[0]["n_trials"] == "10000"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_benchmark_sweep_bytes_equal_the_reference(self, tmp_path, monkeypatch, workers):
        # the draws and counts are bit-reproducible, so the benchmark checks its outage output byte for byte
        argv = list(benchmark_script().WORKLOADS["outage-sweep"].argv)
        references = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))
        monkeypatch.setenv("BAF_WORKERS", workers)
        text, _ = run_csv(tmp_path, argv + ["--seed", "7"])
        assert text == references["outage-sweep"]["7"]

    def test_rare_event_refusal_is_convergence_failure(self, tmp_path, capsys):
        code = main([
            "outage", "--snr-db", "30", "--rate", "0.0001", "--trials", "10000",
            "--pathloss", "0", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "rare-event" in capsys.readouterr().err


class TestCapacity:
    def test_insufficient_events_is_invalid(self, tmp_path, capsys):
        code = main([
            "capacity", "--snr-db", "-20", "--epsilon", "0.001", "--trials", "10000",
            "--pathloss", "0", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "epsilon" in capsys.readouterr().err

    def test_capacity_rows(self, tmp_path):
        _, rows = run_csv(tmp_path, [
            "capacity", "--snr-db", "-13", "--epsilon", "0.02", "--trials", "20000", "--pathloss", "0",
        ])
        metrics = {r["metric_name"]: r for r in rows}
        assert set(metrics) == {"eps_outage_capacity", "achieved_outage"}
        assert float(metrics["achieved_outage"]["value"]) < 0.02
        assert float(metrics["eps_outage_capacity"]["value"]) > 0.0
        assert metrics["eps_outage_capacity"]["rate"] == ""

    def test_benchmark_sweep_is_split_invariant_and_passes_the_benchmark_check(self, tmp_path, monkeypatch):
        # 31 batches: one part at one worker, two parts in forked workers at two
        benchmark = benchmark_script()
        argv = list(benchmark.WORKLOADS["capacity-sweep"].argv) + ["--seed", "7"]
        references = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        texts = []
        for workers in ("1", "2"):
            monkeypatch.setenv("BAF_WORKERS", workers)
            texts.append(run_csv(tmp_path, argv, name=f"w{workers}.csv")[0])
        assert texts[0] == texts[1]
        assert benchmark.check_capacity(texts[1], references["capacity-sweep"]["7"]) is None

    def test_every_point_is_checked_before_any_draw(self, tmp_path, capsys, monkeypatch):
        # -20 dB alone would run; 3100 dB is beyond the float range
        draws = []
        monkeypatch.setattr("bafsim.montecarlo.gains_batch", lambda *args: draws.append(args))
        code = main([
            "capacity", "--snr-db=-20:3100:3120", "--trials", "4000000", "--pathloss", "0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("bafsim: error: snr_db") and err.count("\n") == 1
        assert draws == []


class TestLemma:
    def test_rows_carry_threshold_in_rate_column(self, tmp_path):
        _, rows = run_csv(tmp_path, [
            "lemma1", "--trials", "200000", "--g-list", "0.1,0.05", "--pathloss", "0", "--seed", "9",
        ])
        assert [r["rate"] for r in rows] == ["0.1", "0.05"]
        assert all(r["metric_name"] == "lemma1_ratio" for r in rows)
        assert all(r["snr_db"] == "" for r in rows)
        for r in rows:
            assert 0.5 < float(r["value"]) < 2.0

    def test_policy_offset_selected_by_keyword(self, tmp_path):
        _, rows = run_csv(tmp_path, [
            "lemma1", "--trials", "200000", "--g-list", "0.1", "--x-factor", "policy",
            "--pathloss", "0", "--seed", "9",
        ])
        # the duty-cycle offset suppresses the relay term more than x = g/10,
        # so the event is likelier and the ratio larger
        _, factor_rows = run_csv(tmp_path, [
            "lemma1", "--trials", "200000", "--g-list", "0.1", "--x-factor", "0.1",
            "--pathloss", "0", "--seed", "9",
        ], name="factor.csv")
        assert float(rows[0]["value"]) > float(factor_rows[0]["value"])


class TestPlacement:
    def test_analytic_argmax_and_rows(self, tmp_path):
        _, rows = run_csv(tmp_path, [
            "placement", "--snr-db", "-20", "--epsilon", "0.05", "--trials", "20000",
            "--pathloss", "3", "--grid", "101", "--seed", "4",
        ])
        metrics = {r["metric_name"]: r for r in rows}
        assert float(metrics["placement_argmax_analytic"]["value"]) == 0.5
        d_emp = float(metrics["placement_argmax_empirical"]["value"])
        assert 0.0 < d_emp < 1.0

    def test_sweep_is_rejected(self, tmp_path, capsys):
        code = main([
            "placement", "--snr-db=-20:0:10", "--pathloss", "3",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1


class TestConfigHandling:
    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep setup\nsnr_db=-10\nrate=0.02\nepsilon=0.005\npathloss=0\n")
        _, rows = run_csv(tmp_path, ["analytic", "--config", str(cfg), "--epsilon", "0.01"])
        assert rows[0]["epsilon"] == "0.01"
        assert rows[0]["rate"] == "0.02"

    def test_unknown_config_key_is_invalid(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snr=0\n")
        assert main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_explicit_variances_route(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma_sd2=1\nsigma_sr2=1\nsigma_rd2=1\n")
        _, rows = run_csv(tmp_path, [
            "analytic", "--config", str(cfg), "--snr-db", "-10", "--rate", "0.01", "--epsilon", "0.01",
        ])
        by_metric = {r["metric_name"]: r for r in rows}
        assert float(by_metric["c_baf_no_fb"]["value"]) == c_eps_baf_no_feedback(UNIT, 0.1, 0.01)

    def test_undecodable_config_file_is_invalid(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"snr_db=\xff\n")
        assert main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("bafsim: error: cannot read config file")

    def test_variances_conflict_with_geometry(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma_sd2=1\nsigma_sr2=1\nsigma_rd2=1\npathloss=3\n")
        assert main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_numeric_flag_exits_one(self, tmp_path, capsys):
        assert main(["analytic", "--epsilon", "lots", "--out", str(tmp_path / "x.csv")]) == 1

    def test_k_replicates_single_position(self, tmp_path):
        _, rows = run_csv(tmp_path, [
            "analytic", "--snr-db", "0", "--rate", "0.01", "--k", "3", "--relay-pos", "0.5", "--pathloss", "3",
        ])
        assert all(r["k_relays"] == "3" for r in rows)


def _flags(command):
    """The flags the parser of ``command`` takes, without --help."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    return {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}


_COMMON_FLAGS = {
    "--snr-db", "--rate", "--epsilon", "--k", "--relay-pos", "--pathloss", "--trials", "--seed", "--mode",
    "--out", "--format", "--config",
}
_EXTRA_FLAGS = {
    "analytic": set(),
    "outage": set(),
    "capacity": set(),
    "ratio": {"--preset"},
    "lemma1": {"--g-list", "--x-factor"},
    "placement": {"--grid"},
}
# a cheap run of every subcommand, as config keys and values
_CHEAP = {
    "analytic": {"snr_db": "-10", "pathloss": "2"},
    "outage": {"snr_db": "-10", "rate": "0.05", "trials": "20000", "pathloss": "2"},
    "capacity": {"snr_db": "-10", "epsilon": "0.05", "trials": "20000", "pathloss": "2"},
    "ratio": {"snr_db": "0"},
    "lemma1": {"g_list": "0.4,0.3", "trials": "20000", "pathloss": "2"},
    "placement": {"snr_db": "-20", "epsilon": "0.3", "trials": "10000", "grid": "101", "pathloss": "2"},
}
# for every key a flag sets, a value that runs every subcommand and differs from the cheap run's
_OTHER = {
    "snr_db": "-5", "rate": "0.04", "epsilon": "0.2", "k": "1", "relay_pos": "0.3", "pathloss": "3",
    "trials": "30000", "seed": "7", "mode": "linearized", "out": "out.txt", "format": "jsonl",
    "grid": "103", "g_list": "0.5,0.35", "x_factor": "policy",
}


class TestOptionTable:
    def test_flag_sets(self):
        assert tuple(_EXTRA_FLAGS) == SUBCOMMANDS
        for command, extra in _EXTRA_FLAGS.items():
            assert _flags(command) == _COMMON_FLAGS | extra, command

    def test_config_key_gives_the_bytes_of_its_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BAF_WORKERS", "1")
        monkeypatch.chdir(tmp_path)
        cfg, written = tmp_path / "run.cfg", tmp_path / _OTHER["out"]

        def run(command, flags, file_values):
            cfg.write_text("".join(f"{k}={v}\n" for k, v in file_values.items()))
            argv = [command, "--config", str(cfg)] + [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
            capsys.readouterr()
            code = main(argv)
            out, err = capsys.readouterr()
            if written.exists():
                out += written.read_text()
                written.unlink()
            return code, out, err

        for command in SUBCOMMANDS:
            for flag in sorted(_flags(command) - {"--config", "--preset"}):
                key = flag[2:].replace("-", "_")
                rest = {k: v for k, v in _CHEAP[command].items() if k != key}
                from_flag = run(command, {**rest, key: _OTHER[key]}, {})
                assert from_flag == run(command, rest, {key: _OTHER[key]}), (command, key)
                assert from_flag[1], (command, key)

    def test_config_fields_are_the_parsed_options(self):
        # an option with a parser and its ExperimentConfig field are added and removed together
        resolved = ("command", "k", "variances", "geometry")
        fields = [f.name for f in dataclasses.fields(cli.ExperimentConfig) if f.name not in resolved]
        assert fields == [key for key, (*_, parse) in cli._OPTIONS.items() if parse is not None]


_VARIANCES = "sigma_sd2=1\nsigma_sr2=1\nsigma_rd2=1\n"
# argv, the config file's text (None for no file), the message; "{cfg}" stands for the file's path
_MESSAGES = [
    (["analytic", "--snr-db=5:0:1"], None, "snr_db stop must be >= start, got '5:0:1'"),
    (["analytic", "--snr-db=0:1:0"], None, "snr_db step must be > 0, got 0.0"),
    (["analytic", "--snr-db=1:2"], None, "snr_db sweep must be start:stop:step, got '1:2'"),
    (["analytic", "--snr-db=0:1e9:1"], None, "snr_db sweep '0:1e9:1' exceeds 100000 points"),
    (["analytic", "--rate=,"], None, "rate must be a comma-separated list of numbers"),
    (["analytic", "--rate=x"], None, "rate must be a number, got 'x'"),
    (["analytic", "--epsilon=1.5"], None, "epsilon must lie in [0, 1), got 1.5"),
    (["outage", "--trials=x"], None, "trials must be an integer, got 'x'"),
    (["outage", "--seed=-1"], None, "seed must be an unsigned 64-bit integer, got -1"),
    (["outage", f"--seed={2**64}"], None, f"seed must be an unsigned 64-bit integer, got {2**64}"),
    (["outage", "--mode=bogus"], None, "mode must be exact or linearized, got 'bogus'"),
    (["analytic", "--format=xml"], None, "format must be csv or jsonl, got 'xml'"),
    (["placement", "--grid=10002"], None, "grid must be at most 10001 points, got 10002"),
    (["lemma1", "--g-list=x"], None, "g_list must be a number, got 'x'"),
    (["lemma1", "--x-factor=x"], None, "x_factor must be a number, got 'x'"),
    (["analytic", "--k=x"], None, "k must be an integer, got 'x'"),
    (["analytic", "--k=33"], None, "k must be at most 32, got 33"),
    (["analytic", "--k=2", "--relay-pos=0.3,0.5,0.7"], None, "--k 2 conflicts with 3 relay positions"),
    (["analytic"], "noequals\n", "{cfg}:1: expected key=value, got 'noequals'"),
    (["analytic"], "bogus=1\n", "{cfg}:1: unknown config key 'bogus'"),
    (["analytic"], "sigma_sd2=1\n", "explicit variances need all of sigma_sd2, sigma_sr2, sigma_rd2"),
    (["analytic", "--pathloss=3"], _VARIANCES,
     "give either geometry (--relay-pos/--pathloss) or explicit variances, not both"),
    (["analytic", "--k=2"], _VARIANCES, "--k 2 conflicts with 1 explicit relay variance pairs"),
    (["placement"], _VARIANCES, "placement sweeps positions, so it needs --pathloss, not explicit variances"),
    (["placement", "--snr-db=0:1:1"], None, "placement takes a single --snr-db point, not a sweep"),
    (["ratio", "--k=2"], None, "the cut-set-bound ratio is defined for exactly one relay, got k=2"),
    (["lemma1", "--k=2"], None, "the small-threshold ratio experiment is defined for exactly one relay, got k=2"),
    (["placement", "--k=2"], None, "relay placement is defined for exactly one relay, got k=2"),
    # several invalid values: the relay rules first, then the first invalid value in option order
    (["outage", "--epsilon=1.5", "--seed=-1", "--k=33"], None, "k must be at most 32, got 33"),
    (["outage", "--epsilon=1.5", "--seed=-1", "--mode=bogus"], None, "epsilon must lie in [0, 1), got 1.5"),
    # a sweep bound that is not a finite number
    (["analytic", "--snr-db=nan:0:1"], None, "snr_db start must be a finite number, got nan"),
    (["analytic", "--snr-db=0:nan:1"], None, "snr_db stop must be a finite number, got nan"),
    (["analytic", "--snr-db=0:1:nan"], None, "snr_db step must be a finite number, got nan"),
    (["analytic", "--snr-db=-inf:0:1"], None, "snr_db start must be a finite number, got -inf"),
    # a span just below 100000 steps that still counts 100001 points
    (["analytic", "--snr-db=0:99999.9999999995:1"], None,
     "snr_db sweep '0:99999.9999999995:1' exceeds 100000 points"),
]


class TestErrorMessages:
    @pytest.mark.parametrize("argv, config, message", _MESSAGES)
    def test_exact_message(self, tmp_path, capsys, argv, config, message):
        cfg = tmp_path / "run.cfg"
        if config is not None:
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr() == ("", f"bafsim: error: {message.replace('{cfg}', str(cfg))}\n")
        assert not (tmp_path / "x.csv").exists()


class TestOutputFormats:
    def test_jsonl_rows(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        assert main([
            "analytic", "--snr-db", "0", "--rate", "0.01", "--pathloss", "0",
            "--format", "jsonl", "--out", str(out),
        ]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows[0]["metric_name"] == "c_baf_no_fb"
        assert rows[0]["stderr"] is None
        assert isinstance(rows[0]["value"], float)

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["outage", "--snr-db", "-5", "--rate", "0.05", "--trials", "20000", "--pathloss", "0"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_output(self, capsys):
        assert main(["analytic", "--snr-db", "0", "--rate", "0.01", "--pathloss", "0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == EXPECTED_HEADER


class TestOperatingPointRange:
    @pytest.mark.parametrize("command", ["outage", "analytic"])
    def test_threshold_beyond_float_range_is_certain_outage(self, tmp_path, command):
        # (K+1)*sqrt(R/SNR) = 2000: 2^2000 overflows, so the exact threshold is inf
        _, rows = run_csv(tmp_path, [
            command, "--snr-db=-60", "--rate", "1", "--pathloss", "0", "--trials", "20000",
        ])
        by_metric = {r["metric_name"]: float(r["value"]) for r in rows}
        if command == "outage":
            assert by_metric["outage_prob"] == 1.0
        else:
            assert by_metric["expected_n_exact"] == 2.0

    @pytest.mark.parametrize("argv", [
        # rate*snr underflows, so the duty cycle sqrt(rate*snr) cannot be resolved
        ["capacity", "--snr-db=-1600", "--epsilon", "0.01", "--trials", "20000", "--pathloss", "0"],
        ["capacity", "--snr-db=-2000", "--epsilon", "0.01", "--trials", "20000", "--pathloss", "0"],
        ["capacity", "--snr-db=-3000", "--epsilon", "0.01", "--trials", "20000", "--pathloss", "0"],
        ["capacity", "--snr-db=-3070", "--epsilon", "0.01", "--trials", "20000", "--pathloss", "0"],
        ["analytic", "--snr-db=-3000", "--rate", "1e-300", "--pathloss", "0"],
        # snr or 1/snr is not a normal float
        ["capacity", "--snr-db=-3200", "--epsilon", "0.01", "--trials", "20000", "--pathloss", "0"],
        ["capacity", "--snr-db=3080", "--epsilon", "0.05", "--trials", "20000", "--k", "2"],
        ["placement", "--snr-db=3080", "--epsilon", "0.05", "--trials", "20000", "--grid", "101",
         "--mode", "linearized"],
    ])
    def test_point_outside_float_range_exits_one(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bafsim: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("snr_db", ["203", "3000"])
    def test_capacity_at_extreme_snr(self, tmp_path, snr_db):
        _, rows = run_csv(tmp_path, [
            "capacity", f"--snr-db={snr_db}", "--epsilon", "0.01", "--trials", "20000", "--pathloss", "0",
        ])
        metrics = {r["metric_name"]: float(r["value"]) for r in rows}
        assert metrics["achieved_outage"] < 0.01
        assert math.isfinite(metrics["eps_outage_capacity"])

    @pytest.mark.parametrize("k", ["2", "3"])
    @pytest.mark.parametrize("point", [["--snr-db", "nan"], ["--rate", "inf"]])
    def test_invalid_point_exits_one_at_every_k(self, tmp_path, capsys, k, point):
        assert main(["analytic", "--k", k, "--pathloss", "0", "--out", str(tmp_path / "x.csv")] + point) == 1
        assert capsys.readouterr().err.count("\n") == 1


class TestContractHoles:
    @pytest.mark.parametrize("g_list", ["0.1,nan", "inf"])
    def test_non_finite_threshold_exits_one(self, tmp_path, capsys, g_list):
        code = main([
            "lemma1", "--g-list", g_list, "--trials", "10000", "--pathloss", "0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "g_sequence" in capsys.readouterr().err

    def test_policy_offset_at_thresholds_beyond_the_old_bracket(self, tmp_path):
        # the root of y*(2^(2y) - 1) = g lies above 64 for g above about 2e40
        _, rows = run_csv(tmp_path, [
            "lemma1", "--g-list", "1e150,1e50", "--x-factor", "policy", "--trials", "10000", "--pathloss", "0",
        ])
        # every trial is in outage, so each ratio is 1/g^2
        assert [float(r["value"]) for r in rows] == [1.0 / (1e150 * 1e150), 1.0 / (1e50 * 1e50)]

    def test_overflowing_pathloss_exits_one(self, tmp_path, capsys):
        assert main(["analytic", "--pathloss", "1e308", "--out", str(tmp_path / "x.csv")]) == 1
        assert "pathloss_exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, target):
        assert main(["analytic", "--pathloss", "0", "--out", str(tmp_path / target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bafsim: error: cannot write") and err.count("\n") == 1

    def test_ratio_warns_only_after_a_written_output(self, tmp_path, capsys):
        # at rate 0 every point is infeasible, so each one has a warning to print
        args = ["ratio", "--rate=0.0", "--snr-db=0:2:1", "--pathloss", "0"]
        assert main(args + ["--out", str(tmp_path / "missing/x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bafsim: error: cannot write") and err.count("\n") == 1
        _, rows = run_csv(tmp_path, args)
        assert len(rows) == 3
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 3 and all(w.startswith("warning: epsilon=0.001 exceeds") for w in warnings)

    @pytest.mark.parametrize("sigmas", [
        ("1e-100", "1e-100", "1"),  # the start rate was far above the answer
        ("1e150", "1e150", "1e150"),  # the closed-form start rate overflows to inf
    ])
    def test_capacity_search_brackets_from_any_start(self, tmp_path, capsys, sigmas):
        cfg = tmp_path / "variances.cfg"
        cfg.write_text("sigma_sd2={}\nsigma_sr2={}\nsigma_rd2={}\n".format(*sigmas))
        _, rows = run_csv(tmp_path, [
            "capacity", "--config", str(cfg), "--snr-db=0", "--trials", "20000", "--epsilon", "0.01",
        ])
        metrics = {r["metric_name"]: float(r["value"]) for r in rows}
        assert metrics["achieved_outage"] < 0.01
        assert 0.0 < metrics["eps_outage_capacity"] < math.inf
        assert capsys.readouterr().err == ""

    def test_invalid_point_wins_over_a_convergence_failure(self, tmp_path, capsys):
        # 60 dB sees no outage events at 10000 trials; 3100 dB is beyond the float range
        code = main([
            "outage", "--snr-db=60:3100:3040", "--rate", "0.01", "--trials", "10000", "--pathloss", "0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("bafsim: error: snr_db") and err.count("\n") == 1


class TestWorkersEnv:
    @pytest.mark.parametrize("value", ["0", "abc"])
    @pytest.mark.parametrize("argv", [
        ["outage", "--snr-db", "-10", "--rate", "0.05"],
        ["capacity", "--snr-db", "-10", "--epsilon", "0.01"],
        ["lemma1", "--g-list", "0.1"],
        ["placement", "--snr-db", "-20", "--epsilon", "0.3", "--pathloss", "3", "--grid", "101"],
    ])
    def test_invalid_worker_cap_exits_one_before_any_draw(self, tmp_path, capsys, monkeypatch, argv, value):
        draws = []
        monkeypatch.setattr("bafsim.montecarlo.gains_batch", lambda *args: draws.append(args))
        monkeypatch.setenv("BAF_WORKERS", value)
        code = main(argv + ["--trials", "20000", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"bafsim: error: BAF_WORKERS must be a positive integer, got {value!r}\n"
        assert draws == []


class TestBenchmarkChild:
    """The benchmark's child interpreter (``perfbench/child.py``) runs against this package."""

    def test_main_probe_and_tracer_run(self, tmp_path):
        bench = benchmark_script()
        seed = 7
        out = tmp_path / "capacity.csv"
        result = bench.spawn({"mode": "main", "argv": bench.bafsim_argv("capacity-sweep", seed, out)})
        assert result["rc"] == 0 and result["wall_s"] > 0.0
        references = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))
        assert bench.check_capacity(out.read_text(encoding="utf-8"), references["capacity-sweep"][str(seed)]) is None

        spans_out = tmp_path / "spans.json"
        argv = ["placement", "--snr-db=-20", "--epsilon", "0.3", "--pathloss", "3", "--grid", "101",
                "--trials", "20000", "--seed", str(seed), "--out", str(tmp_path / "placement.csv")]
        # the tracer sees no span inside a worker process, so the traced run takes one worker
        result = bench.spawn({"mode": "main", "argv": argv, "trace": True, "spans_out": str(spans_out)}, workers=1)
        assert result["rc"] == 0
        names = {span[0] for span in json.loads(spans_out.read_text(encoding="utf-8"))}
        assert {"cli.main", "channel.gains_batch", "montecarlo.empirical_placement_argmax"} <= names

        result = bench.spawn({"mode": "probe", "trials": [20_000], "workers": [1, 2], "repeats": 1, "seed": seed})
        assert sorted(result["times"]) == ["20000:1", "20000:2"]
        assert all(t > 0.0 for t in result["times"].values())


class TestImport:
    def test_cli_import_leaves_scipy_out(self):
        # SciPy costs about 0.6 s of import; only the quadrature oracle needs it
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        code = "import bafsim.cli, sys; assert 'scipy' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_cli_import_leaves_the_process_pool_out(self):
        # concurrent.futures.process and multiprocessing cost about 0.02 s of import
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        code = "import bafsim.cli, sys; assert 'concurrent.futures.process' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_a_two_part_pass_forks_without_a_process_pool(self, tmp_path, monkeypatch):
        # 22 K=2 points at 8 batches, 14.2 M of work: two parts at two workers, each in a forked child
        argv = ["outage", "--snr-db=-20:-10:1", "--rate", "0.02,0.05", "--k", "2", "--pathloss", "0",
                "--trials", str(8 * 65536), "--seed", "3"]
        code = f"""
import os, sys
from bafsim.cli import main
forks, fork = [], os.fork
def counted():
    pid = fork()
    forks.append(pid)
    return pid
os.fork, os.cpu_count = counted, lambda: 2
assert main({argv!r} + ["--out", sys.argv[1]]) == 0
assert len(forks) == 2, forks
assert not {{"concurrent.futures.process", "multiprocessing"}} & set(sys.modules), sorted(sys.modules)
"""
        env = {**os.environ, "BAF_WORKERS": "2",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", code, str(tmp_path / "w2.csv")], env=env, check=True, timeout=120)
        monkeypatch.setenv("BAF_WORKERS", "1")
        assert run_csv(tmp_path, argv, name="w1.csv")[0] == (tmp_path / "w2.csv").read_text()


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """``python -m bafsim`` with ``args`` in a fresh interpreter, on the package under ``src/``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "bafsim", *args], env=env, capture_output=True, timeout=60)


class TestModuleEntry:
    def test_module_prints_the_bytes_main_prints(self, capsys):
        args = ["analytic", "--snr-db=-20", "--rate", "0.01", "--pathloss", "0"]
        run = _run_module(*args)
        assert main(args) == 0
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout == capsys.readouterr().out.encode()

    def test_invalid_seed_exits_one_with_one_line(self):
        run = _run_module("analytic", "--seed", "-1")
        assert run.returncode == 1
        assert run.stderr.decode().splitlines() == ["bafsim: error: seed must be an unsigned 64-bit integer, got -1"]

    def test_clamped_duty_cycle_is_a_note_not_a_python_warning(self):
        # 20 dB at rate 1: the policy sqrt(rate*snr) = 10 is clamped to 1
        run = _run_module("analytic", "--snr-db=20", "--rate", "1", "--pathloss", "0")
        assert run.returncode == 0 and run.stdout.count(b"\n") == 8
        assert run.stderr.decode().splitlines() == [
            "warning: duty cycle sqrt(rate*snr) clamped to 1 at snr_db=20, rate=1; outside the bursty low-SNR regime"
        ]

    def test_failed_run_prints_only_its_error(self):
        # two clamped points, then an SNR beyond the float range
        run = _run_module("analytic", "--snr-db=20:4000:1990", "--rate", "1", "--pathloss", "0")
        assert (run.returncode, run.stdout) == (1, b"")
        assert run.stderr.decode().splitlines() == ["bafsim: error: snr_db 4000.0 is out of range"]


def _write_variances(path, sigmas):
    path.write_text("sigma_sd2={!r}\nsigma_sr2={!r}\nsigma_rd2={!r}\n".format(*sigmas))
    return str(path)


class TestVarianceDomain:
    @pytest.mark.parametrize("command", ["capacity", "outage"])
    @pytest.mark.parametrize("sigmas", [
        (1.0, 1e300, 1e300),  # the relay-gain product overflowed
        (1e300, 1.0, 1.0),
        (1e-300, 1e-300, 1e-300),
        (1.0, 1.0, 1e-151),
    ])
    def test_variance_outside_range_exits_one(self, tmp_path, capsys, command, sigmas):
        cfg = _write_variances(tmp_path / "v.cfg", sigmas)
        argv = [command, "--config", cfg, "--trials", "20000", "--epsilon", "0.01", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("bafsim: error: ") and "must lie in [1e-150, 1e+150]" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["analytic", "--pathloss", "500"],  # 2**500 > 1e150 at the midpoint
        ["placement", "--pathloss", "66", "--grid", "201", "--epsilon", "0.3"],  # 202**66 > 1e150 at the first grid point
    ])
    def test_pathloss_beyond_variance_range_exits_one(self, tmp_path, capsys, argv):
        assert main(argv + ["--trials", "20000", "--out", str(tmp_path / "x.csv")]) == 1
        assert "relay link variance must lie in" in capsys.readouterr().err

    def test_range_corners_run_cleanly(self, tmp_path, capsys, monkeypatch):
        # every corner of the range at -100, 0 and 100 dB: a result or a
        # rare-event refusal, never a traceback or a NumPy warning
        monkeypatch.setenv("BAF_WORKERS", "1")
        cfg = tmp_path / "v.cfg"
        for sigmas in itertools.product([1e-150, 1.0, 1e150], repeat=3):
            _write_variances(cfg, sigmas)
            for command, snr_db in itertools.product(["capacity", "outage"], ["-100", "0", "100"]):
                code = main([command, "--config", str(cfg), f"--snr-db={snr_db}", "--trials", "20000",
                             "--epsilon", "0.01", "--out", str(tmp_path / "x.csv")])
                err = capsys.readouterr().err
                assert code in (0, 2), (command, sigmas, snr_db, err)
                assert err.count("\n") == (code == 2), (command, sigmas, snr_db, err)


class TestCaps:
    @pytest.mark.parametrize("argv", [
        ["analytic", "--k", str(MAX_RELAYS + 1)],
        ["analytic", "--k", "1000000000000"],
        ["analytic", "--relay-pos", ",".join(["0.5"] * (MAX_RELAYS + 1))],
        ["placement", "--grid", str(MAX_GRID_POINTS + 1)],
        ["placement", "--grid", "1000000000000"],
        ["outage", "--trials", str(10**20)],
        ["capacity", "--trials", str(10**20)],
        ["lemma1", "--trials", str(10**20)],
    ])
    def test_over_cap_exits_one(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("bafsim: error: ") and "at most" in err and err.count("\n") == 1

    def test_relay_cap_is_inclusive(self, tmp_path):
        _, rows = run_csv(tmp_path, ["analytic", "--k", str(MAX_RELAYS), "--snr-db", "0", "--pathloss", "0"])
        assert {r["k_relays"] for r in rows} == {str(MAX_RELAYS)}


# --- fuzzing main over every subcommand ---------------------------------------

_BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "1e-320", "x", ""]
_number = st.one_of(st.sampled_from(_BAD_NUMBERS), st.floats(allow_nan=True, allow_infinity=True).map(repr))


@st.composite
def _snr_db(draw):
    start = draw(st.floats(-3300.0, 3300.0))
    kind = draw(st.sampled_from(["value", "sweep", "bad"]))
    if kind == "value":
        return repr(start)
    if kind == "sweep":  # at most 5 points
        step = draw(st.floats(0.5, 100.0))
        return f"{start!r}:{start + draw(st.integers(0, 4)) * step!r}:{step!r}"
    return draw(st.sampled_from(["nan", "inf", "x", "0:1e9:1", "5:0:1", "0:1:0", "1:2", "0:1e308:1e307"]))


def _list_of(element):
    return st.lists(element, min_size=1, max_size=3).map(",".join)


_OPTIONS = {
    "--snr-db": _snr_db(),
    "--rate": _list_of(st.one_of(_number, st.sampled_from(["0.01", "1", "1e-300"]))),
    "--epsilon": st.one_of(_number, st.sampled_from(["0.001", "0.05", "0.3"])),
    "--k": st.sampled_from(["1", "2", "3", "0", "-1", "x", "1.5", str(MAX_RELAYS + 1)]),
    "--relay-pos": _list_of(st.one_of(_number, st.sampled_from(["0.5", "0.3"]))),
    "--pathloss": st.one_of(_number, st.sampled_from(["0", "2", "3"])),
    "--seed": st.sampled_from(["0", "1234", str(2**64 - 1), str(2**64), "-1", "x", "1.5"]),
    "--mode": st.sampled_from(["exact", "linearized", "bogus", ""]),
    "--format": st.sampled_from(["csv", "jsonl", "xml"]),
    "--out": st.sampled_from(["out.csv", "missing/out.csv", ".", "-"]),
}
_EXTRA = {
    "placement": {"--grid": st.sampled_from(["101", "51", "0", "x", str(MAX_GRID_POINTS + 1)])},
    "lemma1": {
        "--g-list": _list_of(st.one_of(_number, st.sampled_from(["0.1", "0.05"]))),
        "--x-factor": st.one_of(_number, st.just("policy")),
    },
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(SUBCOMMANDS))
    # always given: the default of a million trials would make the test slow
    argv = [command, "--trials=" + draw(st.sampled_from(["10000", "20000", "9999", "0", "-5", "1e4", "x"]))]
    for flag, values in {**_OPTIONS, **_EXTRA.get(command, {})}.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


class TestFuzz:
    @given(argv=_argv())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_main_exits_cleanly(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("BAF_WORKERS", "1")
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code = main(argv)
        assert code in (0, 1, 2)
        lines = capsys.readouterr().err.splitlines()
        if code:
            assert len(lines) == 1 and lines[0].startswith("bafsim"), lines
        else:
            assert all(line.startswith("warning: ") for line in lines), lines
