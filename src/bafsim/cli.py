"""Experiment command line: closed forms, Monte Carlo runs, CSV/JSONL output.

Subcommands and their metric vocabulary:

- ``analytic``   c_baf_no_fb, c_baf_ir, c_csb, c_baf_k, c_csb_k,
                 expected_n_exact, expected_n_approx (K=1; for K >= 2 only the
                 K-generic bounds c_baf_k and c_csb_k are emitted)
- ``ratio``      delta_upper
- ``outage``     outage_prob
- ``capacity``   eps_outage_capacity, achieved_outage
- ``lemma1``     lemma1_ratio (the ``rate`` column carries the threshold g)
- ``placement``  placement_argmax_analytic, placement_argmax_empirical

Every output has the fixed header
``snr_db,rate,epsilon,k_relays,metric_name,value,stderr,n_trials,seed``;
fields that do not apply to a row are left empty (CSV) or null (JSONL).
Runs are deterministic: identical configuration and seed reproduce identical
bytes, and BAF_WORKERS only changes the execution speed.

Exit codes: 0 success, 1 invalid parameters (including an out-of-range
operating point and an unwritable output path), 2 convergence failure.

``_resolve_config`` checks the values only this front end sees (sweep and
list syntax, epsilon, seed, mode, format); the library checks the rest where
it receives them, in its dataclasses and estimators.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import capacity as cap
from . import montecarlo as mc
from .channel import LinkVariances, NetworkGeometry, SystemParams, variances_from_geometry
from .errors import ConvergenceError, InvalidParameterError

CSV_HEADER = ("snr_db", "rate", "epsilon", "k_relays", "metric_name", "value", "stderr", "n_trials", "seed")

SUBCOMMANDS = ("analytic", "outage", "capacity", "ratio", "lemma1", "placement")

MAX_SWEEP_POINTS = 100_000

_DEFAULTS = {
    "snr_db": "0:0:1",
    "rate": "0.01",
    "epsilon": "0.001",
    "k": None,
    "relay_pos": "0.5",
    "pathloss": "3",
    "trials": "1000000",
    "seed": "1234",
    "mode": "exact",
    "out": "-",
    "format": "csv",
    "grid": "201",
    "g_list": "0.1,0.05,0.02,0.01",
    "x_factor": "0.1",
    "sigma_sd2": None,
    "sigma_sr2": None,
    "sigma_rd2": None,
}

PRESETS = {
    "fig2": {
        "snr_db": "-10:10:1",
        "rate": "0.009,0.05,0.1",
        "epsilon": "0.001",
        "relay_pos": "0.5",
        "pathloss": "3",
        "k": "1",
    },
}

_GEOMETRY_KEYS = ("relay_pos", "pathloss")
_SIGMA_KEYS = ("sigma_sd2", "sigma_sr2", "sigma_rd2")


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    snr_db: tuple[float, ...]
    rates: tuple[float, ...]
    epsilon: float
    k: int
    variances: LinkVariances
    geometry: NetworkGeometry | None
    trials: int
    seed: int
    mode: str
    out: str
    fmt: str
    grid: int
    g_list: tuple[float, ...]
    x_factor: float | None


@dataclass(frozen=True)
class ResultRow:
    snr_db: float | None
    rate: float | None
    epsilon: float | None
    k_relays: int | None
    metric_name: str
    value: float
    stderr: float | None
    n_trials: int | None
    seed: int | None


# --- option parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # the contract is exit code 1 for any invalid parameter
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_float(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidParameterError(f"{name} must be a number, got {text!r}") from None


def _parse_int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidParameterError(f"{name} must be an integer, got {text!r}") from None


def _parse_float_list(name: str, text: str) -> tuple[float, ...]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise InvalidParameterError(f"{name} must be a comma-separated list of numbers")
    return tuple(_parse_float(name, s.strip()) for s in items)


def _parse_sweep(text: str) -> tuple[float, ...]:
    """Parse "start:stop:step" (inclusive) or a single value."""
    parts = text.split(":")
    if len(parts) == 1:
        return (_parse_float("snr_db", parts[0]),)
    if len(parts) != 3:
        raise InvalidParameterError(f"snr_db sweep must be start:stop:step, got {text!r}")
    start = _parse_float("snr_db start", parts[0])
    stop = _parse_float("snr_db stop", parts[1])
    step = _parse_float("snr_db step", parts[2])
    if step <= 0.0:
        raise InvalidParameterError(f"snr_db step must be > 0, got {step!r}")
    if stop < start:
        raise InvalidParameterError(f"snr_db stop must be >= start, got {text!r}")
    span = (stop - start) / step
    if not span < MAX_SWEEP_POINTS:
        raise InvalidParameterError(f"snr_db sweep {text!r} exceeds {MAX_SWEEP_POINTS} points")
    count = int(math.floor(span + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read config file {path!r}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InvalidParameterError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise InvalidParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="bafsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(SUBCOMMANDS))
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, prog=f"bafsim {name}")
        p.add_argument("--snr-db", dest="snr_db", help="sweep start:stop:step in dB, or a single value")
        p.add_argument("--rate", help="comma-separated target rates in bit/s/Hz")
        p.add_argument("--epsilon", help="target outage probability")
        p.add_argument("--k", help="number of relays")
        p.add_argument("--relay-pos", dest="relay_pos", help="comma-separated relay positions in (0, 1)")
        p.add_argument("--pathloss", help="path-loss exponent (0 gives unit variances)")
        p.add_argument("--trials", help="Monte Carlo trials")
        p.add_argument("--seed", help="64-bit master seed")
        p.add_argument("--mode", help="outage threshold mode: exact or linearized")
        p.add_argument("--out", help="output path, '-' for stdout")
        p.add_argument("--format", help="output format: csv or jsonl")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
        p.add_argument("--config", help="flat key=value config file; flags override it")
        if name == "placement":
            p.add_argument("--grid", help="relay-position grid points (odd count contains 0.5)")
        if name == "lemma1":
            p.add_argument("--g-list", dest="g_list", help="strictly decreasing threshold list")
            p.add_argument(
                "--x-factor",
                dest="x_factor",
                help="offset factor x = factor*g; 'policy' ties x to the duty cycle",
            )
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = dict(_DEFAULTS)
    explicit: set[str] = set()

    preset = getattr(args, "preset", None)
    if preset is not None:
        if args.command != "ratio":
            raise InvalidParameterError(f"preset {preset!r} applies to the ratio subcommand")
        merged.update(PRESETS[preset])
        explicit.update(PRESETS[preset])
    if getattr(args, "config", None) is not None:
        file_values = _read_config_file(args.config)
        merged.update(file_values)
        explicit.update(file_values)
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
            explicit.add(key)

    sigma_given = [k for k in _SIGMA_KEYS if merged.get(k) is not None]
    geometry_given = [k for k in _GEOMETRY_KEYS if k in explicit]
    if sigma_given and geometry_given:
        raise InvalidParameterError("give either geometry (--relay-pos/--pathloss) or explicit variances, not both")
    if sigma_given and len(sigma_given) != len(_SIGMA_KEYS):
        raise InvalidParameterError("explicit variances need all of sigma_sd2, sigma_sr2, sigma_rd2")

    k_opt = merged.get("k")
    geometry = None
    if sigma_given:
        sr = _parse_float_list("sigma_sr2", merged["sigma_sr2"])
        rd = _parse_float_list("sigma_rd2", merged["sigma_rd2"])
        variances = LinkVariances(_parse_float("sigma_sd2", merged["sigma_sd2"]), sr, rd)
        k = variances.k_relays
        if k_opt is not None and _parse_int("k", k_opt) != k:
            raise InvalidParameterError(f"--k {k_opt} conflicts with {k} explicit relay variance pairs")
    else:
        positions = _parse_float_list("relay_pos", merged["relay_pos"])
        if k_opt is not None:
            k = _parse_int("k", k_opt)
            if len(positions) == 1 and k > 1:
                positions = positions * k
            elif len(positions) != k:
                raise InvalidParameterError(f"--k {k} conflicts with {len(positions)} relay positions")
        k = len(positions)
        geometry = NetworkGeometry(positions, _parse_float("pathloss", merged["pathloss"]))
        variances = variances_from_geometry(geometry)

    epsilon = _parse_float("epsilon", merged["epsilon"])
    if not (0.0 <= epsilon < 1.0):
        raise InvalidParameterError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    trials = _parse_int("trials", merged["trials"])
    seed = _parse_int("seed", merged["seed"])
    if not 0 <= seed < 2**64:
        raise InvalidParameterError(f"seed must be an unsigned 64-bit integer, got {seed}")
    grid = _parse_int("grid", merged["grid"])
    if merged["mode"] not in cap.THRESHOLD_MODES:
        raise InvalidParameterError(f"mode must be exact or linearized, got {merged['mode']!r}")
    if merged["format"] not in ("csv", "jsonl"):
        raise InvalidParameterError(f"format must be csv or jsonl, got {merged['format']!r}")

    x_factor_text = merged["x_factor"]
    x_factor = None if x_factor_text == "policy" else _parse_float("x_factor", x_factor_text)

    return ExperimentConfig(
        command=args.command,
        snr_db=_parse_sweep(merged["snr_db"]),
        rates=_parse_float_list("rate", merged["rate"]),
        epsilon=epsilon,
        k=k,
        variances=variances,
        geometry=geometry,
        trials=trials,
        seed=seed,
        mode=merged["mode"],
        out=merged["out"],
        fmt=merged["format"],
        grid=grid,
        g_list=_parse_float_list("g_list", merged["g_list"]),
        x_factor=x_factor,
    )


# --- subcommand implementations ----------------------------------------------


def _db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise InvalidParameterError(f"snr_db {db!r} is out of range") from None


def _require_one_relay(cfg: ExperimentConfig, what: str) -> None:
    if cfg.k != 1:
        raise InvalidParameterError(f"{what} is defined for exactly one relay, got k={cfg.k}")


def cmd_analytic(cfg: ExperimentConfig) -> list[ResultRow]:
    rows = []
    for db in cfg.snr_db:
        snr = _db_to_linear(db)
        for rate in cfg.rates:
            metrics: list[tuple[str, float]] = []
            # checks the operating point at every K; epsilon enters only the
            # capacity formulas, so E(N) can be evaluated with a placeholder target
            params_en = SystemParams(snr=snr, rate=rate, epsilon=0.5, k_relays=cfg.k)
            if cfg.k == 1:
                en_exact = cap.expected_n_one_relay(cfg.variances, params_en, "exact")
                en_approx = cap.expected_n_one_relay(cfg.variances, params_en, "approx")
                c_no_fb = cap.c_eps_baf_no_feedback(cfg.variances, snr, cfg.epsilon)
                metrics += [
                    ("c_baf_no_fb", c_no_fb),
                    ("c_baf_ir", (2.0 / en_exact) * c_no_fb),
                    ("c_csb", cap.c_eps_cutset(cfg.variances, snr, cfg.epsilon)),
                ]
            metrics += [
                ("c_baf_k", cap.c_eps_baf_k(cfg.variances, snr, cfg.epsilon)),
                ("c_csb_k", cap.c_eps_cutset(cfg.variances, snr, cfg.epsilon)),
            ]
            if cfg.k == 1:
                metrics += [("expected_n_exact", en_exact), ("expected_n_approx", en_approx)]
            for name, value in metrics:
                rows.append(ResultRow(db, rate, cfg.epsilon, cfg.k, name, value, None, None, None))
    return rows


def cmd_ratio(cfg: ExperimentConfig) -> list[ResultRow]:
    _require_one_relay(cfg, "the cut-set-bound ratio")
    rows = []
    infeasible = []
    for rate in cfg.rates:
        for db in cfg.snr_db:
            snr = _db_to_linear(db)
            params_en = SystemParams(snr=snr, rate=rate, epsilon=0.5, k_relays=1)
            en = cap.expected_n_one_relay(cfg.variances, params_en, "approx")
            if not cap.epsilon_feasible(cfg.epsilon, en, 1):
                infeasible.append((db, rate))
            rows.append(
                ResultRow(
                    db, rate, cfg.epsilon, 1, "delta_upper",
                    cap.delta_ratio_upper(cfg.epsilon, en, 1), None, None, None,
                )
            )
    for db, rate in infeasible:
        print(
            f"warning: epsilon={cfg.epsilon:g} exceeds the source outage probability "
            f"at snr_db={db:g}, rate={rate:g}; the ratio bound is not tight there",
            file=sys.stderr,
        )
    return rows


def cmd_outage(cfg: ExperimentConfig) -> list[ResultRow]:
    rows = []
    for db in cfg.snr_db:
        snr = _db_to_linear(db)
        for rate in cfg.rates:
            params = SystemParams(snr=snr, rate=rate, k_relays=cfg.k)
            est = mc.estimate_outage(cfg.variances, params, cfg.trials, cfg.seed, threshold_mode=cfg.mode)
            events = round(est.mean * est.n_trials)
            if rate > 0.0 and events < 100:
                raise ConvergenceError(
                    f"only {events} outage events at snr_db={db:g}, rate={rate:g}: "
                    "rare-event regime; plain Monte Carlo refuses, increase --trials"
                )
            rows.append(ResultRow(db, rate, None, cfg.k, "outage_prob", est.mean, est.stderr, est.n_trials, cfg.seed))
    return rows


def cmd_capacity(cfg: ExperimentConfig) -> list[ResultRow]:
    rows = []
    for db in cfg.snr_db:
        snr = _db_to_linear(db)
        params = SystemParams(snr=snr, rate=0.0, epsilon=cfg.epsilon, k_relays=cfg.k)
        res = mc.empirical_eps_outage_capacity(
            cfg.variances, params, cfg.trials, cfg.seed, threshold_mode=cfg.mode
        )
        p = res.achieved_outage
        se = math.sqrt(p * (1.0 - p) / cfg.trials)
        rows.append(ResultRow(db, None, cfg.epsilon, cfg.k, "eps_outage_capacity", res.rate, None, cfg.trials, cfg.seed))
        rows.append(ResultRow(db, None, cfg.epsilon, cfg.k, "achieved_outage", p, se, cfg.trials, cfg.seed))
    return rows


def cmd_lemma1(cfg: ExperimentConfig) -> list[ResultRow]:
    _require_one_relay(cfg, "the small-threshold ratio experiment")
    v = cfg.variances
    results = mc.lemma1_ratio_experiment(
        v.sigma_sd2, v.sigma_sr2[0], v.sigma_rd2[0],
        cfg.g_list, cfg.trials, cfg.seed, x_factor=cfg.x_factor,
    )
    return [
        ResultRow(None, g, None, 1, "lemma1_ratio", est.mean, est.stderr, est.n_trials, cfg.seed)
        for g, est in results
    ]


def cmd_placement(cfg: ExperimentConfig) -> list[ResultRow]:
    _require_one_relay(cfg, "relay placement")
    if cfg.geometry is None:
        raise InvalidParameterError("placement sweeps positions, so it needs --pathloss, not explicit variances")
    if len(cfg.snr_db) != 1:
        raise InvalidParameterError("placement takes a single --snr-db point, not a sweep")
    db = cfg.snr_db[0]
    snr = _db_to_linear(db)
    pathloss = cfg.geometry.pathloss_exponent
    d_analytic = cap.optimal_relay_position(pathloss, cfg.grid)
    grid, caps = mc.empirical_capacity_vs_position(
        pathloss, snr, cfg.epsilon, cfg.trials, cfg.seed, cfg.grid, cfg.mode
    )
    d_empirical = float(grid[int(caps.argmax())])
    return [
        ResultRow(db, None, cfg.epsilon, 1, "placement_argmax_analytic", d_analytic, None, None, None),
        ResultRow(db, None, cfg.epsilon, 1, "placement_argmax_empirical", d_empirical, None, cfg.trials, cfg.seed),
    ]


_COMMANDS = {
    "analytic": cmd_analytic,
    "ratio": cmd_ratio,
    "outage": cmd_outage,
    "capacity": cmd_capacity,
    "lemma1": cmd_lemma1,
    "placement": cmd_placement,
}


# --- output ------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row_values(row: ResultRow):
    return (row.snr_db, row.rate, row.epsilon, row.k_relays, row.metric_name,
            row.value, row.stderr, row.n_trials, row.seed)


def render_rows(rows: list[ResultRow], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(CSV_HEADER)]
        lines += [",".join(_cell(v) for v in _row_values(r)) for r in rows]
        return "\n".join(lines) + "\n"
    lines = [json.dumps(dict(zip(CSV_HEADER, _row_values(r)))) for r in rows]
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write output file {out!r}: {exc.strerror or exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        cfg = _resolve_config(args)
        rows = _COMMANDS[cfg.command](cfg)
        _write_output(render_rows(rows, cfg.fmt), cfg.out)
    except InvalidParameterError as exc:
        print(f"bafsim: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"bafsim: convergence failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
