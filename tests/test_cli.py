import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bafsim.capacity import c_eps_baf_no_feedback, c_eps_cutset
from bafsim.channel import LinkVariances
from bafsim.cli import CSV_HEADER, SUBCOMMANDS, main

UNIT = LinkVariances(1.0, (1.0,), (1.0,))

EXPECTED_HEADER = "snr_db,rate,epsilon,k_relays,metric_name,value,stderr,n_trials,seed"


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
        assert main(["analytic", "--preset", "fig2", "--out", str(tmp_path / "x.csv")]) == 1

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

    def test_overflowing_pathloss_exits_one(self, tmp_path, capsys):
        assert main(["analytic", "--pathloss", "1e308", "--out", str(tmp_path / "x.csv")]) == 1
        assert "pathloss_exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, target):
        assert main(["analytic", "--pathloss", "0", "--out", str(tmp_path / target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bafsim: error: cannot write") and err.count("\n") == 1


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
    "--k": st.sampled_from(["1", "2", "3", "0", "-1", "x", "1.5"]),
    "--relay-pos": _list_of(st.one_of(_number, st.sampled_from(["0.5", "0.3"]))),
    "--pathloss": st.one_of(_number, st.sampled_from(["0", "2", "3"])),
    "--seed": st.sampled_from(["0", "1234", str(2**64 - 1), str(2**64), "-1", "x", "1.5"]),
    "--mode": st.sampled_from(["exact", "linearized", "bogus", ""]),
    "--format": st.sampled_from(["csv", "jsonl", "xml"]),
    "--out": st.sampled_from(["out.csv", "missing/out.csv", ".", "-"]),
}
_EXTRA = {
    "placement": {"--grid": st.sampled_from(["101", "51", "0", "x"])},
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
    # the clamp warning is documented behaviour at high rate*snr, not a failure
    @pytest.mark.filterwarnings("ignore::bafsim.channel.BurstClampWarning")
    @given(argv=_argv())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_main_exits_cleanly(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("BAF_WORKERS", "1")
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code = main(argv)
        assert code in (0, 1, 2)
        # ratio's feasibility warnings may precede the one-line error
        errors = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("warning: ")]
        assert len(errors) == (code != 0), errors
        assert all(line.startswith("bafsim") for line in errors), errors
