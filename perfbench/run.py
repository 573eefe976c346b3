"""bafsim benchmark: three CLI workloads timed end to end, plus a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]
    python3 perfbench/run.py --make-references

Run from the root of a checkout; bafsim is imported from its ``src/``.

``--trace 0`` times the workload: fresh interpreters that each import
``bafsim.cli`` (set-up) and run the workload through ``bafsim.cli.main`` at the
default worker count, as many as fit in ``--seconds``.  It reports medians of
``wall_s``, ``trials_per_s``, ``setup_s`` and ``peak_rss_mb``.

``--trace 1`` runs the workload untraced at one worker, untraced at the
default worker count (pool workloads only), and traced at one worker, then
probes where the process pool starts to pay off.  It reports the per-layer
metrics (see ``layer_metrics``).

Every run's output is checked (see the ``check_*`` functions); a failed check
or a non-zero exit of ``main`` counts as a failed run.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it print each metric with its unit and sample
count.  The exit code is 1 if any run failed.  Each run writes its manifest,
result, output and spans to ``perfbench/out/<run>/``.

``--report`` does both kinds of run for every workload, then runs each once
more on the next seed, and prints every metric.

``--make-references`` regenerates ``references.json``: the outputs of the
``outage-sweep`` and ``capacity-sweep`` workloads for every benchmark seed, at
the commit that defines the benchmark.  Later commits are checked against it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

# --seed N runs bafsim with seed N % REFERENCE_SEEDS, so that every run has a
# reference output to be checked against.
REFERENCE_SEEDS = 32
DEFAULT_SEED = 11
RUN_DEADLINE_S = 150.0  # start no new workload run after this (a run must end within 180 s)
CHILD_TIMEOUT_S = 120.0
PROBE_TRIALS = (1_000_000, 2_000_000, 4_000_000, 8_000_000)
PROBE_REPEATS = 2
# CAPACITY_REL_TOL is the bisection's own stopping tolerance (rel_tol default
# of empirical_eps_outage_capacity); PLACEMENT_STEP is one step of a 101-point
# grid, the acceptance rule for the empirical argmax.
CAPACITY_REL_TOL = 1e-4
PLACEMENT_STEP = 1.0 / 102
CSV_HEADER = ["snr_db", "rate", "epsilon", "k_relays", "metric_name", "value", "stderr", "n_trials", "seed"]


# --- output checks -----------------------------------------------------------


def _rows(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != CSV_HEADER:
        raise ValueError(f"header {reader.fieldnames}")
    return list(reader)


def check_outage(text: str, reference: str | None) -> str | None:
    # draws and counts are bit-reproducible by contract, so the bytes must match
    return None if text == reference else "output bytes differ from the reference"


def check_capacity(text: str, reference: str | None) -> str | None:
    rows, ref_rows = _rows(text), _rows(reference)
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rows, reference has {len(ref_rows)}"
    for row, ref in zip(rows, ref_rows):
        fixed = [k for k in CSV_HEADER if k not in ("value", "stderr")]
        if [row[k] for k in fixed] != [ref[k] for k in fixed]:
            return f"row {row} does not match reference row {ref}"
        value = float(row["value"])
        if row["metric_name"] == "eps_outage_capacity":
            if abs(value - float(ref["value"])) > CAPACITY_REL_TOL * float(ref["value"]):
                return f"eps_outage_capacity {value!r} vs reference {ref['value']} at snr_db={row['snr_db']}"
        elif not value < float(row["epsilon"]):
            return f"achieved_outage {value!r} is not below epsilon at snr_db={row['snr_db']}"
    return None


def check_placement(text: str, reference: str | None) -> str | None:
    values = {row["metric_name"]: float(row["value"]) for row in _rows(text)}
    if sorted(values) != ["placement_argmax_analytic", "placement_argmax_empirical"]:
        return f"unexpected metrics {sorted(values)}"
    if values["placement_argmax_analytic"] != 0.5:
        return f"analytic argmax {values['placement_argmax_analytic']!r} is not 0.5"
    if abs(values["placement_argmax_empirical"] - 0.5) > PLACEMENT_STEP * (1 + 1e-9):
        return f"empirical argmax {values['placement_argmax_empirical']!r} is more than one grid step from 0.5"
    return None


# --- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    evaluations: int  # trials x output points
    working_set_bytes: int  # computed from array shapes
    uses_pool: bool
    check: Callable[[str, str | None], str | None]
    has_reference: bool


WORKLOADS = {
    # The only workload through the protocol kernel and the process pool; it
    # redraws identical gains at each of its 22 (SNR, rate) points.  Working
    # set: one streamed 65536-row batch of K=2 gains.
    "outage-sweep": Workload(
        ("outage", "--snr-db=-10:0:1", "--rate", "0.02,0.05", "--k", "2", "--pathloss", "0",
         "--trials", "2000000"),
        evaluations=2_000_000 * 22,
        working_set_bytes=65536 * 5 * 8,
        uses_pool=True,
        check=check_outage,
        has_reference=True,
    ),
    # Rate bisection over cached draws (45 candidate rates at seed 11), no
    # kernel and no pool.  Working set: the cached 2M x 5 gain matrix, far
    # larger than L2.
    "capacity-sweep": Workload(
        ("capacity", "--snr-db=-30:-10:10", "--epsilon", "0.001", "--k", "2", "--pathloss", "3",
         "--trials", "2000000"),
        evaluations=2_000_000 * 3,
        working_set_bytes=2_000_000 * 5 * 8,
        uses_pool=False,
        check=check_capacity,
        has_reference=True,
    ),
    # Fixed-point capacity search at 101 positions over draws made once and
    # rescaled: a scaled-down placement acceptance criterion.  Working set:
    # the 800k x 3 unit draws.
    "placement": Workload(
        ("placement", "--snr-db=-20", "--epsilon", "0.3", "--pathloss", "3", "--grid", "101",
         "--trials", "800000"),
        evaluations=800_000 * 101,
        working_set_bytes=800_000 * 3 * 8,
        uses_pool=False,
        check=check_placement,
        has_reference=False,
    ),
}


def bafsim_argv(name: str, seed: int, out: Path) -> list[str]:
    return [*WORKLOADS[name].argv, "--seed", str(seed % REFERENCE_SEEDS), "--out", str(out)]


# --- child interpreters ------------------------------------------------------


class ChildFailed(Exception):
    pass


def spawn(spec: dict, workers: int | None = None) -> dict:
    """Run child.py with ``spec`` in a fresh interpreter and return its JSON line.

    ``workers`` sets BAF_WORKERS; None leaves the default worker count.
    """
    env = dict(os.environ)
    env.pop("BAF_WORKERS", None)
    if workers is not None:
        env["BAF_WORKERS"] = str(workers)
    spec = {"src": str(SRC), **spec}
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child timed out after {CHILD_TIMEOUT_S:g} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


class Run:
    """Attempted and failed workload runs for one workload and seed."""

    def __init__(self, name: str, seed: int, run_dir: Path, references: dict):
        self.name = name
        self.seed = seed
        self.dir = run_dir
        self.workload = WORKLOADS[name]
        self.reference = references.get(name, {}).get(str(seed % REFERENCE_SEEDS))
        self.attempted = 0
        self.failed = 0
        self.versions: dict = {}

    def main(self, workers: int | None = None, trace: bool = False) -> dict | None:
        """One workload run through bafsim.cli.main; None if it failed."""
        self.attempted += 1
        out = self.dir / ("output-traced.csv" if trace else "output.csv")
        out.unlink(missing_ok=True)
        spec = {"mode": "main", "argv": bafsim_argv(self.name, self.seed, out)}
        if trace:
            spec.update(trace=True, spans_out=str(self.dir / "spans.json"))
        try:
            result = spawn(spec, workers)
        except ChildFailed as exc:
            return self._fail(str(exc))
        self.versions = result["versions"]
        if result["rc"] != 0:
            return self._fail(f"bafsim.cli.main returned {result['rc']}")
        text = out.read_text(encoding="utf-8")
        try:
            problem = self.workload.check(text, self.reference)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is not None:
            return self._fail(f"output check: {problem}")
        result["output_bytes"] = len(text.encode("utf-8"))
        return result

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"{self.name} seed {self.seed}: FAILED: {message}", file=sys.stderr)
        return None


# --- measurements ------------------------------------------------------------


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def timed_metrics(run: Run, seconds: float, started: float) -> dict:
    """End-to-end metrics: medians over fresh interpreters at the default worker count.

    Starts another workload run only while it is expected to end within
    ``seconds``; each run's import of ``bafsim.cli`` is one set-up sample.
    """
    samples = []
    t0 = time.perf_counter()
    last = 0.0
    while not samples or time.perf_counter() - t0 + last <= seconds:
        if time.perf_counter() - started + last > RUN_DEADLINE_S:
            break
        t = time.perf_counter()
        result = run.main()
        last = time.perf_counter() - t
        if result is None:
            if not samples and run.failed >= 3:
                break
            continue
        samples.append(result)
    if not samples:
        return {}
    setup = [s["import_s"] for s in samples]
    wall = statistics.median(s["wall_s"] for s in samples)
    n = len(samples)
    (run.dir / "samples.json").write_text(json.dumps({"setup_s": setup, "runs": samples}, indent=1), encoding="utf-8")
    return {
        "wall_s": _metric(wall, "s", n),
        "trials_per_s": _metric(run.workload.evaluations / wall, "1/s", n),
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": _metric(statistics.median(s["peak_rss_mb"] for s in samples), "MB", n),
    }


def pool_crossover(seed: int) -> tuple[int, dict]:
    """Smallest probed trial count at which the default worker count beats one worker.

    Reports twice the largest probed count when none does (or on one core).
    """
    nproc = os.cpu_count() or 1
    workers = sorted({1, nproc})
    probe = spawn({"mode": "probe", "trials": list(PROBE_TRIALS), "workers": workers,
                   "repeats": PROBE_REPEATS, "seed": seed % REFERENCE_SEEDS})["times"]
    for n in PROBE_TRIALS:
        if nproc > 1 and probe[f"{n}:{nproc}"] < probe[f"{n}:1"]:
            return n, probe
    return 2 * PROBE_TRIALS[-1], probe


def layer_metrics(run: Run) -> dict:
    """Per-layer metrics from one traced run at one worker, with untraced baselines."""
    import tracing

    single = run.main(workers=1)
    pooled = run.main() if run.workload.uses_pool else None
    traced = run.main(workers=1, trace=True)
    crossover, probe = pool_crossover(run.seed)
    (run.dir / "probe.json").write_text(json.dumps(probe, indent=1), encoding="utf-8")
    if single is None or traced is None or (run.workload.uses_pool and pooled is None):
        return {}
    spans = json.loads((run.dir / "spans.json").read_text(encoding="utf-8"))
    summary = tracing.summarize(spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}

    def span(name):
        return summary["by_name"].get(name, zero)

    def per_s(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    gains = span("channel.gains_batch")
    kernel = span("protocol.block_stats_batch")
    outage = span("montecarlo.estimate_outage")
    search = span("montecarlo.empirical_eps_outage_capacity")
    placement = span("montecarlo.empirical_capacity_vs_position")
    capacity_self = sum((e["self_s"] for k, e in summary["by_name"].items() if k.startswith("capacity.")), 0.0)
    m = {
        "channel.gains_batch.calls": (gains["calls"], "count"),
        "channel.gains_batch.self_s": (gains["self_s"], "s"),
        "channel.draws_per_s": (per_s(gains["work"], gains["self_s"]), "1/s"),
        "channel.bytes_out": (gains["work"] * 8, "bytes_computed"),
        "protocol.block_stats_batch.calls": (kernel["calls"], "count"),
        "protocol.block_stats_batch.self_s": (kernel["self_s"], "s"),
        "protocol.rows_per_s": (per_s(kernel["work"], kernel["self_s"]), "1/s"),
        "montecarlo.estimate_outage.calls": (outage["calls"], "count"),
        "montecarlo.estimate_outage.self_s": (outage["self_s"], "s"),
        "montecarlo.pool_speedup": (single["wall_s"] / pooled["wall_s"] if pooled else 1.0, "ratio"),
        "montecarlo.pool_crossover_trials": (crossover, "trials"),
        "montecarlo.empirical_eps_outage_capacity.self_s": (search["self_s"], "s"),
        "montecarlo.capacity_search.evals": (search["work"], "count"),
        "montecarlo.capacity_search.eval_s": (search["self_s"] / search["work"] if search["work"] else 0.0, "s"),
        "montecarlo.empirical_capacity_vs_position.self_s": (placement["self_s"], "s"),
        "montecarlo.placement.grid_points_per_s": (per_s(placement["work"], placement["self_s"]), "1/s"),
        "capacity.self_s": (capacity_self, "s"),
        "cli.main.self_s": (span("cli.main")["self_s"], "s"),
        "cli.output_bytes": (traced["output_bytes"], "bytes"),
        "trace.overhead_s": (traced["wall_s"] - single["wall_s"], "s"),
        "trace.montecarlo_share": (per_s(summary["montecarlo_top_s"], summary["wall_s"]), "ratio"),
    }
    return {name: _metric(value, unit, 1) for name, (value, unit) in m.items()}


# --- manifest and results ----------------------------------------------------


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Data", "Unified"):
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
            sizes[f"L{level}"] = int(size.rstrip("KM")) * scale
    return sizes


def manifest(runs: list[Run]) -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "versions": next((r.versions for r in runs if r.versions), {}),
        "BAF_WORKERS": {"timed": "unset (default worker count)", "traced": "1", "inherited": os.environ.get("BAF_WORKERS")},
        "cache_bytes": _cache_sizes(),
        "runs": [
            {
                "workload": r.name,
                "seed": r.seed,
                "argv": [*r.workload.argv, "--seed", str(r.seed % REFERENCE_SEEDS)],
                "working_set_bytes": r.workload.working_set_bytes,
            }
            for r in runs
        ],
    }


def print_metrics(title: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{title:32} {name:50} {m['value']:>16.6g} {m['unit']:14} n={m['samples']}")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def run_one(name: str, seed: int, seconds: float, trace: bool, references: dict) -> tuple[Run, dict]:
    started = time.perf_counter()
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    run = Run(name, seed, run_dir, references)
    metrics = layer_metrics(run) if trace else timed_metrics(run, seconds, started)
    (run_dir / "manifest.json").write_text(json.dumps(manifest([run]), indent=1), encoding="utf-8")
    (run_dir / "result.json").write_text(
        json.dumps({"attempted": run.attempted, "failed": run.failed, "metrics": metrics}, indent=1),
        encoding="utf-8",
    )
    return run, metrics


def make_references() -> int:
    references = {}
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / "reference.csv"
    for name, workload in WORKLOADS.items():
        if not workload.has_reference:
            continue
        references[name] = {}
        for seed in range(REFERENCE_SEEDS):
            result = spawn({"mode": "main", "argv": bafsim_argv(name, seed, out)})
            if result["rc"] != 0:
                print(f"{name} seed {seed}: bafsim.cli.main returned {result['rc']}", file=sys.stderr)
                return 1
            references[name][str(seed)] = out.read_text(encoding="utf-8")
            print(f"{name} seed {seed}: {result['wall_s']:.2f} s", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def report(seed: int, seconds: float) -> int:
    references = load_references()
    runs, failed = [], 0
    for name in WORKLOADS:
        for trace in (False, True):
            run, metrics = run_one(name, seed, seconds, trace, references)
            runs.append(run)
            failed += run.failed
            print_metrics(f"{name} seed {seed} trace {int(trace)}", metrics)
        second = Run(name, seed + 1, OUT / f"{name}-seed{seed + 1}-second", references)
        second.dir.mkdir(parents=True, exist_ok=True)
        ok = second.main() is not None
        runs.append(second)
        failed += second.failed
        print(f"{name} seed {seed + 1}: output check {'passed' if ok else 'FAILED'}")
    (OUT / "report-manifest.json").write_text(json.dumps(manifest(runs), indent=1), encoding="utf-8")
    print(f"{sum(r.attempted for r in runs)} workload runs, {failed} failed")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload and print every metric")
    parser.add_argument("--make-references", action="store_true", help="regenerate references.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "bafsim" / "cli.py").is_file():
        print(f"no bafsim source under {SRC}", file=sys.stderr)
        return 2
    if args.make_references:
        return make_references()
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload, --report or --make-references")
    run, metrics = run_one(args.workload, args.seed, args.seconds, bool(args.trace), load_references())
    print_metrics(f"{args.workload} seed {args.seed}", metrics)
    failed = run.failed
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 1 if failed or not metrics else 0


if __name__ == "__main__":
    raise SystemExit(main())
