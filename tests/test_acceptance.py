"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines as they
complete.  Every tolerance is fixed here; expected constants were computed
independently (closed-form evaluation, exponential CDFs, or the quadrature
oracle) before being frozen.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bafsim.capacity import (
    c_eps_baf_k,
    c_eps_baf_no_feedback,
    instantaneous_capacity,
    min_bound_check,
)
from bafsim.channel import ChannelDraw, LinkVariances, SystemParams, gains_batch
from bafsim.cli import CSV_HEADER, main
from bafsim.montecarlo import (
    empirical_eps_outage_capacity,
    estimate_expected_n,
    estimate_outage,
    lemma1_ratio_experiment,
    quadrature_outage_oracle,
)
from bafsim.protocol import simulate_block

UNIT = LinkVariances(1.0, (1.0,), (1.0,))
REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(criterion: int, message: str) -> None:
    print(f"[PASS] criterion {criterion}: {message}")


def _rows_from_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    return [dict(zip(CSV_HEADER, line.split(","))) for line in lines[1:]]


def test_criterion_1_lemma_ratio_asymptotics():
    # unit variances, x = g/10: the event ratio p/g^2 approaches 1
    (g2, est2), = lemma1_ratio_experiment(1.0, 1.0, 1.0, [0.02], 10**7, 20260201, x_factor=0.1)
    assert g2 == 0.02
    assert abs(est2.mean - 1.0) <= 0.10

    # error ordering checked at higher trial counts so noise cannot mask it
    results = lemma1_ratio_experiment(1.0, 1.0, 1.0, [0.1, 0.01], 6 * 10**7, 20260202, x_factor=0.1)
    err_large = abs(results[0][1].mean - 1.0)
    err_small = abs(results[1][1].mean - 1.0)
    assert err_small < err_large
    _report(1, f"ratio(g=0.02)={est2.mean:.4f} within 10% of 1; |err|(g=0.01)={err_small:.4f} < |err|(g=0.1)={err_large:.4f}")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(777)
    agreements = 0
    checked = []
    for i in range(20):
        su2, sv2, sw2 = rng.uniform(0.25, 4.0, size=3)
        t = rng.uniform(0.005, 0.1)
        x = t * rng.uniform(0.05, 0.5)
        variances = LinkVariances(su2, (sv2,), (sw2,))
        p_oracle = quadrature_outage_oracle(variances, t, x)

        # realize (t, x) as an operating point: fixed duty cycle tau = x*snr
        snr = 1.0
        tau = x
        rate = (tau / 2.0) * math.log2(1.0 + t / tau)
        params = SystemParams(snr=snr, rate=rate, k_relays=1, tau=tau)
        n = int(min(max(math.ceil(250.0 / p_oracle), 10**6), 10**7))
        est = estimate_outage(variances, params, n, 9000 + i)
        ok = abs(est.mean - p_oracle) <= 3.0 * est.stderr
        agreements += ok
        checked.append((t, x, p_oracle, est.mean, ok))
    assert agreements >= 19, f"only {agreements}/20 within 3 stderr: {checked}"
    _report(2, f"{agreements}/20 parameter sets agree with the quadrature oracle within 3 stderr")


def test_criterion_3_closed_form_vs_simulation():
    # The closed form inverts the linearized outage condition, so the
    # like-for-like search uses the linearized threshold; the exact-rule
    # capacity is strictly lower (threshold exactness gap, see README).
    eps, n, seed = 1e-3, 10**6, 424242
    gaps_abs = []
    emp_lin_20 = None
    for snr_db in (-20.0, -25.0, -30.0):
        snr = 10.0 ** (snr_db / 10.0)
        closed_form = c_eps_baf_no_feedback(UNIT, snr, eps)
        params = SystemParams(snr=snr, rate=0.0, epsilon=eps, k_relays=1)
        lin = empirical_eps_outage_capacity(UNIT, params, n, seed, threshold_mode="linearized").rate
        gaps_abs.append(abs(lin - closed_form))
        if snr_db == -20.0:
            emp_lin_20 = lin
            rel_gap = abs(lin - closed_form) / closed_form
            assert rel_gap <= 0.20, f"relative gap {rel_gap:.3f} exceeds 20%"
            assert closed_form == pytest.approx(2.2807405513784748e-04, rel=1e-9)
            exact = empirical_eps_outage_capacity(UNIT, params, n, seed, threshold_mode="exact").rate
            assert exact < lin < closed_form
    assert gaps_abs[0] > gaps_abs[1] > gaps_abs[2]
    _report(3, f"capacity at -20dB {emp_lin_20:.4e} within 20% of 2.2807e-04; gap shrinks {gaps_abs[0]:.2e} > {gaps_abs[1]:.2e} > {gaps_abs[2]:.2e}")


def test_criterion_4_expected_n_exactness():
    exact = 1.0147598254479449  # 1 + (1 - exp(-t)) at t = 0.0148698
    params = SystemParams(snr=0.1, rate=1e-3, k_relays=1)
    est = estimate_expected_n(UNIT, params, 10**6, 515151)
    assert abs(est.mean - exact) <= 3.0 * est.stderr
    _report(4, f"E(N)={est.mean:.7f} within 3 stderr ({est.stderr:.2e}) of {exact:.7f}")


def test_criterion_5_ratio_figure_reproduction(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["ratio", "--preset", "fig2", "--out", str(out)]) == 0
    rows = _rows_from_csv(out)
    assert len(rows) == 63

    curves: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        curves.setdefault(r["rate"], []).append((float(r["snr_db"]), float(r["value"])))
    assert set(curves) == {"0.009", "0.05", "0.1"}

    for rate, pts in curves.items():
        pts.sort()
        values = [v for _, v in pts]
        assert all(b >= a for a, b in zip(values, values[1:])), f"curve {rate} not monotone"
        upper = [v for s, v in pts if s >= 0.0]
        assert all(b > a for a, b in zip(upper, upper[1:])), f"curve {rate} not increasing above 0 dB"

    for snr_db in sorted({s for s, _ in curves["0.009"]}):
        by_rate = {rate: dict(pts)[snr_db] for rate, pts in curves.items()}
        assert by_rate["0.009"] > by_rate["0.05"] > by_rate["0.1"]

    # formula-derived endpoint (1 + eps) / (1 + log2(e)*R), R = 0.009, 0 dB
    anchor = dict(curves["0.009"])[0.0]
    assert anchor == pytest.approx(0.9881693567254438, abs=1e-6)
    _report(5, f"63 rows; curves monotone and ordered; 0-dB anchor {anchor:.9f}")


def test_criterion_6_placement(tmp_path):
    # epsilon and trial count chosen so the order-statistic argmax noise sits
    # well inside one grid step (seed panels in development: 13/13 seeds
    # within one step at alpha=3, the flattest case)
    step = 1.0 / 202.0
    summaries = []
    for alpha in (3, 4, 5):
        out = tmp_path / f"placement_{alpha}.csv"
        code = main([
            "placement", "--snr-db", "-20", "--epsilon", "0.3", "--trials", "1600000",
            "--grid", "201", "--seed", "606060", "--pathloss", str(alpha), "--out", str(out),
        ])
        assert code == 0
        rows = {r["metric_name"]: r for r in _rows_from_csv(out)}
        d_analytic = float(rows["placement_argmax_analytic"]["value"])
        d_empirical = float(rows["placement_argmax_empirical"]["value"])
        assert d_analytic == 0.5
        assert abs(d_empirical - 0.5) <= step + 1e-12, f"alpha={alpha}: {d_empirical}"
        summaries.append(f"a={alpha}: mc argmax {d_empirical:.4f}")
    _report(6, "analytic argmax 0.5 exactly; " + "; ".join(summaries))


def test_criterion_7_property_suites():
    rng = np.random.default_rng(140914)

    # inequality min(x,y) >= xy/(x+y+delta) on 1e5 random positive triples
    x = rng.uniform(1e-3, 1e3, 10**5)
    y = rng.uniform(1e-3, 1e3, 10**5)
    delta = rng.uniform(1e-6, 10.0, 10**5)
    assert np.all(np.minimum(x, y) >= x * y / (x + y + delta))
    # spot-check the scalar api agrees
    for i in range(0, 10**5, 2**14):
        assert min_bound_check(x[i], y[i], delta[i])[2]

    # protocol outage equals the one-shot capacity comparison on 1e5 draws
    k, snr, rate = 2, 0.5, 0.02
    params = SystemParams(snr=snr, rate=rate, k_relays=k)
    variances = LinkVariances(1.0, (2.0, 0.5), (1.0, 1.5))
    disagreements = 0
    checked = 0
    for batch in range(2):
        gains = gains_batch(variances, 321 + batch, 0, 50_000)
        for row in gains:
            draw = ChannelDraw(row[0], (row[1], row[2]), (row[3], row[4]))
            out = simulate_block(draw, params)
            one_shot_outage = instantaneous_capacity(draw, params) < rate
            disagreements += (not out.decoded) != one_shot_outage
            trace = out.feedback_trace
            ok_trace = (
                len(trace) == out.sub_blocks_used
                and all(b == 0 for b in trace[:-1])
                and trace[-1] == (1 if out.decoded else 0)
                and (out.decoded or out.sub_blocks_used == k + 1)
            )
            assert ok_trace
            checked += 1
    assert checked == 10**5
    assert disagreements == 0

    # K=1 reduction identity to full precision on 1e3 random parameter sets
    for _ in range(1000):
        v = LinkVariances(
            float(rng.uniform(0.25, 4.0)),
            (float(rng.uniform(0.25, 4.0)),),
            (float(rng.uniform(0.25, 4.0)),),
        )
        snr_i = float(rng.uniform(1e-3, 10.0))
        eps_i = float(rng.uniform(1e-6, 0.5))
        assert c_eps_baf_k(v, snr_i, eps_i) == c_eps_baf_no_feedback(v, snr_i, eps_i)
    _report(7, "min-bound 1e5 triples; outage equivalence 1e5 draws, 0 disagreements; K=1 identity 1e3 sets")


@pytest.mark.parametrize("args,name", [
    (["ratio", "--preset", "fig2"], "fig2"),
    (["outage", "--snr-db", "-5", "--rate", "0.05", "--trials", "200000", "--pathloss", "0", "--seed", "31"], "outage"),
    (["capacity", "--snr-db=-20:-10:10", "--epsilon", "0.01", "--trials", "200000", "--pathloss", "0",
      "--seed", "31"], "capacity"),
    (["placement", "--snr-db", "-20", "--epsilon", "0.3", "--pathloss", "3", "--grid", "101",
      "--trials", "200000", "--seed", "31"], "placement"),
    # several points of a K=2 sweep share each batch's compacted rows
    (["outage", "--snr-db=-10:0:5", "--rate", "0.02,0.05", "--k", "2", "--pathloss", "0", "--trials", "1000000"],
     "outage-sweep"),
    (["lemma1", "--g-list", "0.1,0.05,0.02", "--trials", "1000000", "--pathloss", "0", "--seed", "31"], "lemma1"),
    # 25 batches: each pass splits into two parts on two or more cores
    (["capacity", "--snr-db=-30:-10:10", "--epsilon", "0.001", "--k", "2", "--pathloss", "3", "--trials", "1600000",
      "--seed", "31"], "capacity-split"),
    # 16 batches of 22 points at K=2, 28 M work: an outage pass splits into parts on two or more cores
    (["outage", "--snr-db=-10:0:1", "--rate", "0.02,0.05", "--k", "2", "--pathloss", "0", "--trials", "1048576",
      "--seed", "31"], "outage-split"),
])
def test_criterion_8_worker_determinism(tmp_path, args, name):
    outputs = []
    for workers in ("1", "8"):
        out = tmp_path / f"{name}_w{workers}.csv"
        env = dict(os.environ)
        env["BAF_WORKERS"] = workers
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "bafsim", *args, "--out", str(out)],
            env=env, capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _report(8, f"{name}: BAF_WORKERS=1 and =8 outputs byte-identical ({len(outputs[0])} bytes)")
