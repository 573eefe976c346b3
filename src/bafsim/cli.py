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
``snr_db,rate,epsilon,k_relays,metric_name,value,stderr,n_trials,seed``,
the fields of ``ResultRow`` in order; fields that do not apply to a row are left empty (CSV) or null (JSONL).
Runs are deterministic: identical configuration and seed reproduce identical
bytes, and BAF_WORKERS only changes the execution speed.

Exit codes: 0 success, 1 invalid parameters (including an out-of-range
operating point and an unwritable output path), 2 convergence failure.

Each option is one row of ``_OPTIONS``: its default, its help text, the
subcommands that take it as a flag, and the parser of its text, which gives
the ``ExperimentConfig`` field of the option's name.  The relay options have
no parser: ``_resolve_config`` resolves them together into ``k``,
``variances`` and ``geometry``, and checks the relay rules (variances or a
geometry, ``--k`` against the positions or variance pairs, ``MAX_RELAYS``)
before it runs the parsers in table order.  A flag overrides the config file,
which overrides the ``ratio`` preset, which overrides the defaults.

The parsers check what only this front end sees (sweep and list syntax, the
ranges of epsilon, seed and grid, mode and format); the library checks the
rest where it receives them.  Of several invalid values, the error names the
first relay rule broken, else the first invalid value in ``_OPTIONS`` order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

from . import capacity as cap
from . import montecarlo as mc
from .channel import LinkVariances, NetworkGeometry, SystemParams, variances_from_geometry
from .errors import ConvergenceError, InvalidParameterError

MAX_SWEEP_POINTS = 100_000
# each batch of 65 536 trials holds 1 + 2K gains per trial
MAX_RELAYS = 32
# placement's argmax bounds or counts the outages at every grid point, and solves only a few
MAX_GRID_POINTS = 10_001


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    k: int
    variances: LinkVariances
    geometry: NetworkGeometry | None
    # one field per option with a parser, named by its key in _OPTIONS
    snr_db: tuple[float, ...]
    rate: tuple[float, ...]
    epsilon: float
    trials: int
    seed: int
    mode: str
    out: str
    format: str
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


CSV_HEADER = tuple(f.name for f in fields(ResultRow))


# --- option parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # the contract is exit code 1 for any invalid parameter
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_text(name: str, text: str) -> str:
    return text


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


def _parse_sweep(name: str, text: str) -> tuple[float, ...]:
    """Parse "start:stop:step" (inclusive) or a single value."""
    parts = text.split(":")
    if len(parts) == 1:
        return (_parse_float(name, parts[0]),)
    if len(parts) != 3:
        raise InvalidParameterError(f"{name} sweep must be start:stop:step, got {text!r}")
    finite = _checked(_parse_float, math.isfinite, "be a finite number")
    start, stop, step = (finite(f"{name} {bound}", part) for bound, part in zip(("start", "stop", "step"), parts))
    if step <= 0.0:
        raise InvalidParameterError(f"{name} step must be > 0, got {step!r}")
    if stop < start:
        raise InvalidParameterError(f"{name} stop must be >= start, got {text!r}")
    span = (stop - start) / step  # inf where stop - start or the quotient overflows
    count = math.floor(span + 1e-9) + 1 if span < MAX_SWEEP_POINTS else math.inf
    if count > MAX_SWEEP_POINTS:
        raise InvalidParameterError(f"{name} sweep {text!r} exceeds {MAX_SWEEP_POINTS} points")
    return tuple(start + i * step for i in range(count))


def _checked(parse, ok, requirement: str):
    """``parse``, then a check that fails as "<name> must <requirement>, got <value>"."""
    def parse_checked(name: str, text: str):
        value = parse(name, text)
        if not ok(value):
            raise InvalidParameterError(f"{name} must {requirement}, got {value!r}")
        return value
    return parse_checked


# key: (default, help, the subcommands whose parser takes --key (None: every
# one, (): a config file only), parse(key, text) or None for the relay keys)
_OPTIONS = {
    "snr_db": ("0:0:1", "sweep start:stop:step in dB, or a single value", None, _parse_sweep),
    "rate": ("0.01", "comma-separated target rates in bit/s/Hz", None, _parse_float_list),
    "epsilon": ("0.001", "target outage probability", None,
                _checked(_parse_float, lambda e: 0.0 <= e < 1.0, "lie in [0, 1)")),
    "k": (None, "number of relays", None, None),
    "relay_pos": ("0.5", "comma-separated relay positions in (0, 1)", None, None),
    "pathloss": ("3", "path-loss exponent (0 gives unit variances)", None, None),
    "trials": ("1000000", "Monte Carlo trials", None, _parse_int),
    "seed": ("1234", "64-bit master seed", None,
             _checked(_parse_int, lambda s: 0 <= s < 2**64, "be an unsigned 64-bit integer")),
    "mode": ("exact", "outage threshold mode: exact or linearized", None,
             _checked(_parse_text, lambda m: m in cap.THRESHOLD_MODES, "be exact or linearized")),
    "out": ("-", "output path, '-' for stdout", None, _parse_text),
    "format": ("csv", "output format: csv or jsonl", None,
               _checked(_parse_text, lambda f: f in ("csv", "jsonl"), "be csv or jsonl")),
    "grid": ("201", "relay-position grid points (odd count contains 0.5)", ("placement",),
             _checked(_parse_int, lambda g: g <= MAX_GRID_POINTS, f"be at most {MAX_GRID_POINTS} points")),
    "g_list": ("0.1,0.05,0.02,0.01", "strictly decreasing threshold list", ("lemma1",), _parse_float_list),
    "x_factor": ("0.1", "offset factor x = factor*g; 'policy' ties x to the duty cycle", ("lemma1",),
                 lambda name, text: None if text == "policy" else _parse_float(name, text)),
    "sigma_sd2": (None, None, (), None),
    "sigma_sr2": (None, None, (), None),
    "sigma_rd2": (None, None, (), None),
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
        if key not in _OPTIONS:
            raise InvalidParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="bafsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(SUBCOMMANDS))
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, prog=f"bafsim {name}")
        for key, (_, help_text, commands, _) in _OPTIONS.items():
            if commands is None or name in commands:
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)
        if name == "ratio":
            p.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
        p.add_argument("--config", help="flat key=value config file; flags override it")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    # in rising precedence over the defaults: the preset, the config file, the flags
    layers = [PRESETS.get(getattr(args, "preset", None), {})]
    if getattr(args, "config", None) is not None:
        layers.append(_read_config_file(args.config))
    layers.append({key: getattr(args, key) for key in _OPTIONS if getattr(args, key, None) is not None})
    merged = {key: default for key, (default, *_) in _OPTIONS.items()}
    for layer in layers:
        merged.update(layer)
    explicit = set().union(*layers)

    sigma_given = [k for k in _SIGMA_KEYS if merged.get(k) is not None]
    geometry_given = [k for k in _GEOMETRY_KEYS if k in explicit]
    if sigma_given and geometry_given:
        raise InvalidParameterError("give either geometry (--relay-pos/--pathloss) or explicit variances, not both")
    if sigma_given and len(sigma_given) != len(_SIGMA_KEYS):
        raise InvalidParameterError("explicit variances need all of sigma_sd2, sigma_sr2, sigma_rd2")

    k_opt = merged.get("k")
    k_flag = None if k_opt is None else _parse_int("k", k_opt)
    if sigma_given:
        sd = _parse_float("sigma_sd2", merged["sigma_sd2"])
        sr = _parse_float_list("sigma_sr2", merged["sigma_sr2"])
        rd = _parse_float_list("sigma_rd2", merged["sigma_rd2"])
        k = len(sr)
        if k_flag is not None and k_flag != k:
            raise InvalidParameterError(f"--k {k_opt} conflicts with {k} explicit relay variance pairs")
    else:
        positions = _parse_float_list("relay_pos", merged["relay_pos"])
        k = len(positions) if k_flag is None else k_flag
        if len(positions) != k and not (len(positions) == 1 and k > 1):
            raise InvalidParameterError(f"--k {k} conflicts with {len(positions)} relay positions")
    # before the relay tuples and the per-batch gain matrices are allocated
    if k > MAX_RELAYS:
        raise InvalidParameterError(f"k must be at most {MAX_RELAYS}, got {k}")
    if sigma_given:
        variances = LinkVariances(sd, sr, rd)
        geometry = None
    else:
        geometry = NetworkGeometry(positions * k if len(positions) == 1 else positions,
                                   _parse_float("pathloss", merged["pathloss"]))
        variances = variances_from_geometry(geometry)

    parsed = {key: parse(key, merged[key]) for key, (*_, parse) in _OPTIONS.items() if parse is not None}
    return ExperimentConfig(command=args.command, k=k, variances=variances, geometry=geometry, **parsed)


# --- subcommand implementations ----------------------------------------------


def _db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise InvalidParameterError(f"snr_db {db!r} is out of range") from None


def _require_one_relay(cfg: ExperimentConfig, what: str) -> None:
    if cfg.k != 1:
        raise InvalidParameterError(f"{what} is defined for exactly one relay, got k={cfg.k}")


def cmd_analytic(cfg: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    rows, notes = [], []
    for db in cfg.snr_db:
        snr = _db_to_linear(db)
        for rate in cfg.rate:
            metrics: list[tuple[str, float]] = []
            # checks the operating point at every K; epsilon enters only the
            # capacity formulas, so E(N) can be evaluated with a placeholder target
            params_en = SystemParams(snr=snr, rate=rate, epsilon=0.5, k_relays=cfg.k)
            if cfg.k == 1:
                if rate * snr > 1.0:  # E(N) is then taken at the clamped duty cycle
                    notes.append(
                        f"warning: duty cycle sqrt(rate*snr) clamped to 1 at snr_db={db:g}, rate={rate:g}; "
                        "outside the bursty low-SNR regime"
                    )
                en_exact = cap.expected_n_one_relay(cfg.variances, params_en, "exact")
                en_approx = cap.expected_n_one_relay(cfg.variances, params_en, "approx")
                metrics += [
                    ("c_baf_no_fb", cap.c_eps_baf_no_feedback(cfg.variances, snr, cfg.epsilon)),
                    ("c_baf_ir", cap.c_eps_baf_ir_k(cfg.variances, snr, cfg.epsilon, en_exact)),
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
    return rows, notes


def cmd_ratio(cfg: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    _require_one_relay(cfg, "the cut-set-bound ratio")
    rows, notes = [], []
    for rate in cfg.rate:
        for db in cfg.snr_db:
            snr = _db_to_linear(db)
            params_en = SystemParams(snr=snr, rate=rate, epsilon=0.5, k_relays=1)
            en = cap.expected_n_one_relay(cfg.variances, params_en, "approx")
            if not cap.epsilon_feasible(cfg.epsilon, en, 1):
                notes.append(
                    f"warning: epsilon={cfg.epsilon:g} exceeds the source outage probability "
                    f"at snr_db={db:g}, rate={rate:g}; the ratio bound is not tight there"
                )
            rows.append(
                ResultRow(
                    db, rate, cfg.epsilon, 1, "delta_upper",
                    cap.delta_ratio_upper(cfg.epsilon, en, 1), None, None, None,
                )
            )
    return rows, notes


def cmd_outage(cfg: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    # build, and so check, every point before the draws: an invalid point exits 1
    # even where an earlier point would run out of outage events
    points = [(db, rate) for db in cfg.snr_db for rate in cfg.rate]
    params = [SystemParams(snr=_db_to_linear(db), rate=rate, k_relays=cfg.k) for db, rate in points]
    estimates = mc.estimate_outage_sweep(cfg.variances, params, cfg.trials, cfg.seed, threshold_mode=cfg.mode)
    rows = []
    for (db, rate), est in zip(points, estimates):
        events = round(est.mean * est.n_trials)
        if rate > 0.0 and events < mc.MIN_EVENTS:
            raise ConvergenceError(
                f"only {events} outage events at snr_db={db:g}, rate={rate:g}: "
                "rare-event regime; plain Monte Carlo refuses, increase --trials"
            )
        rows.append(ResultRow(db, rate, None, cfg.k, "outage_prob", est.mean, est.stderr, est.n_trials, cfg.seed))
    return rows, []


def cmd_capacity(cfg: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    # build, and so check, every point before the draws, as cmd_outage does
    params = [
        SystemParams(snr=_db_to_linear(db), rate=0.0, epsilon=cfg.epsilon, k_relays=cfg.k) for db in cfg.snr_db
    ]
    results = mc.empirical_eps_outage_capacity_sweep(
        cfg.variances, params, cfg.trials, cfg.seed, threshold_mode=cfg.mode
    )
    rows = []
    for db, res in zip(cfg.snr_db, results):
        p = res.achieved_outage
        se = math.sqrt(p * (1.0 - p) / cfg.trials)
        rows.append(ResultRow(db, None, cfg.epsilon, cfg.k, "eps_outage_capacity", res.rate, None, cfg.trials, cfg.seed))
        rows.append(ResultRow(db, None, cfg.epsilon, cfg.k, "achieved_outage", p, se, cfg.trials, cfg.seed))
    return rows, []


def cmd_lemma1(cfg: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    _require_one_relay(cfg, "the small-threshold ratio experiment")
    v = cfg.variances
    results = mc.lemma1_ratio_experiment(
        v.sigma_sd2, v.sigma_sr2[0], v.sigma_rd2[0],
        cfg.g_list, cfg.trials, cfg.seed, x_factor=cfg.x_factor,
    )
    return [
        ResultRow(None, g, None, 1, "lemma1_ratio", est.mean, est.stderr, est.n_trials, cfg.seed)
        for g, est in results
    ], []


def cmd_placement(cfg: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    _require_one_relay(cfg, "relay placement")
    if cfg.geometry is None:
        raise InvalidParameterError("placement sweeps positions, so it needs --pathloss, not explicit variances")
    if len(cfg.snr_db) != 1:
        raise InvalidParameterError("placement takes a single --snr-db point, not a sweep")
    db = cfg.snr_db[0]
    snr = _db_to_linear(db)
    pathloss = cfg.geometry.pathloss_exponent
    d_analytic = cap.optimal_relay_position(pathloss, cfg.grid)
    d_empirical = mc.empirical_placement_argmax(pathloss, snr, cfg.epsilon, cfg.trials, cfg.seed, cfg.grid, cfg.mode)
    return [
        ResultRow(db, None, cfg.epsilon, 1, "placement_argmax_analytic", d_analytic, None, None, None),
        ResultRow(db, None, cfg.epsilon, 1, "placement_argmax_empirical", d_empirical, None, cfg.trials, cfg.seed),
    ], []


_COMMANDS = {
    "analytic": cmd_analytic,
    "outage": cmd_outage,
    "capacity": cmd_capacity,
    "ratio": cmd_ratio,
    "lemma1": cmd_lemma1,
    "placement": cmd_placement,
}

SUBCOMMANDS = tuple(_COMMANDS)


# --- output ------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_rows(rows: list[ResultRow], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(CSV_HEADER)] + [",".join(_cell(v) for v in vars(r).values()) for r in rows]
    else:
        lines = [json.dumps(vars(r)) for r in rows]
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
        rows, notes = _COMMANDS[cfg.command](cfg)
        _write_output(render_rows(rows, cfg.format), cfg.out)
    except InvalidParameterError as exc:
        print(f"bafsim: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"bafsim: convergence failure: {exc}", file=sys.stderr)
        return 2
    for note in notes:  # after the output, so that a failed run prints only its error
        print(note, file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
