"""Command-line harness: verification suites, benchmark runs, sweeps.

All artifacts are deterministic functions of the configuration (seeds
included): CSV files use ``.`` decimals, ``\\n`` line endings, a header row
and 17-significant-digit floats, so reruns are byte-identical. Each block of
rows (a run's steps, a batch's cells, a filter's responses) is one call of its
``%`` line format over whole columns. No field is quoted: each is a name, a
config id (layout, optimizer and ``%.17g`` rates joined by ``:``), an integer
or a ``%.17g`` float, and none holds a comma, a quote or a line break. Config
files are flat JSON with a ``schema_version`` field and round-trip exactly.

Exit codes: 0 success, 1 verification failure, 2 usage/config error
(sizes too large for memory included), 3 I/O error, 130 interrupted (SIGINT).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import beta_grid, max_or_nan
from .filters import (
    BLINDNESS_TOL,
    FILTERS,
    PROPERTY_TOL,
    WITNESS_TOL,
    SignalSpec,
    check_properties,
    decay_blindness,
    density_witness,
    filter_config,
    filter_response,
    gen_signal,
)
from .identities import (
    check_prop1,
    mollified_direction,
    prop2_condition,
    square_completion_margin,
    steepest_descent_minimizer,
    trust_radius,
)
from .optim import OptimizerKind
from .quadbench import (
    DEFAULT_LR_GRID,
    Layout,
    build_problem,
    check_seed,
    default_quad_config,
    derive_seed,
    initial_point,
    make_config_id,
    run_cell,
    run_experiment,  # unused here; perfbench/tracer.py still wraps adamlab.cli.run_experiment
    tune_and_compare,
)
from .vi import GaussianBelief, OracleError, objective_batch, vi_numeric_oracle, vi_objective, vi_update

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130  # the shell's code for a process ended by SIGINT

SCHEMA_VERSION = 1

#: the momentum grid studied throughout: beta1 values plus the kappa-scaled beta2 values
BETA_GRID_PRIMARY = (0.8, 0.9, 0.95, 0.975, 0.9875)
BETA_GRID_FULL = (0.6, 0.8, 0.9, 0.95, 0.975, 0.9875, 0.99375, 0.996875)


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


def fmt_float(x) -> str:
    """17-significant-digit decimal text, enough to round-trip a double."""
    if x is None:
        return ""
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# configuration payloads


@dataclass(frozen=True)
class QuadConfig:
    schema_version: int = SCHEMA_VERSION
    command: str = "quad"
    layouts: tuple[str, ...] = ("het", "hom")
    optimizers: tuple[str, ...] = ("sgd", "signum", "adameq")
    beta: float = 0.95
    lr_grid: tuple[float, ...] = tuple(DEFAULT_LR_GRID)
    seeds: tuple[int, ...] = tuple(range(10))
    steps: int = 1000
    batch_size: int = 3
    base_seed: int = 0


@dataclass(frozen=True)
class SignalConfig:
    schema_version: int = SCHEMA_VERSION
    command: str = "signal"
    filters: tuple[str, ...] = tuple(FILTERS)
    beta: float = 0.95
    amplitude: float = SignalSpec.amplitude
    frequency: float = SignalSpec.frequency
    decay: float = SignalSpec.decay
    length: int = SignalSpec.length
    property_trials: int = 25
    base_seed: int = 0


@dataclass(frozen=True)
class SweepConfig:
    schema_version: int = SCHEMA_VERSION
    command: str = "sweep"
    layout: str = "het"
    optimizers: tuple[str, ...] = ("signum", "adameq")
    beta_base: float = 0.9
    kappas: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    equal_betas: bool = False
    lr_grid: tuple[float, ...] = tuple(2.0**i for i in range(-14, 1))
    seeds: tuple[int, ...] = (0, 1, 2)
    steps: int = 500
    batch_size: int = 3
    base_seed: int = 0


_CONFIG_TYPES = {"quad": QuadConfig, "signal": SignalConfig, "sweep": SweepConfig}


def serialize_config(config) -> str:
    return json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True) + "\n"


def _typed(name: str, hint, value):
    """``value`` checked against the field type ``hint``; floats widen ints."""
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_typed(name, typing.get_args(hint)[0], v) for v in value)
    elif isinstance(value, bool):
        if hint is bool:
            return value
    elif hint is float and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"field {name!r} must be within the float range, got an integer beyond it") from None
    elif hint in (int, str) and isinstance(value, hint):
        return value
    expected = "a list" if typing.get_origin(hint) is tuple else hint.__name__
    raise ConfigError(f"field {name!r} must be {expected}, got {json.dumps(value)}")


#: the fields that hold names, with what a name is and the sorted names allowed
_NAMED_FIELDS = {
    "layouts": ("layout", sorted(kind.value for kind in Layout)),
    "layout": ("layout", sorted(kind.value for kind in Layout)),
    "optimizers": ("optimizer", sorted(kind.value for kind in OptimizerKind)),
    "filters": ("filter", sorted(FILTERS)),
}


@functools.cache
def _field_types(cls) -> dict:
    """``cls``'s field types, resolved once per class: ``get_type_hints`` evaluates every string annotation."""
    return typing.get_type_hints(cls)


def _checked_fields(cls, data: dict) -> dict:
    """``data`` as typed field values of ``cls``.

    Rejects unknown fields, wrong types, empty or repeating lists and unknown names.
    """
    hints = _field_types(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigError(f"unknown config field {unknown[0]!r}")
    values = {name: _typed(name, hints[name], value) for name, value in data.items()}
    for name, value in values.items():
        if value == ():
            raise ConfigError(f"field {name!r} must not be empty")
        if isinstance(value, tuple) and len(set(value)) < len(value):
            raise ConfigError(f"field {name!r} must not repeat a value")
        if name in _NAMED_FIELDS:
            what, choices = _NAMED_FIELDS[name]
            for item in value if isinstance(value, tuple) else (value,):
                if item not in choices:
                    raise ConfigError(f"unknown {what} {item!r}; choose from {choices}")
    return values


def parse_config(text: str, command: str):
    try:
        data = json.loads(text)
    except RecursionError:
        raise ConfigError("config file is nested too deeply to parse") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    declared = data.get("command", command)
    if declared != command:
        raise ConfigError(f"config file is for command {declared!r}, not {command!r}")
    cls = _CONFIG_TYPES[command]
    return cls(**_checked_fields(cls, data))


def _load_config(path: str | None, command: str, overrides: dict):
    cls = _CONFIG_TYPES[command]
    if path is None:
        config = cls()
    else:
        try:
            text = Path(path).read_text()
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        config = parse_config(text, command)
    # the default and a parsed file are checked already; the overrides are checked in field order
    changed = {name: overrides[name] for name in _field_types(cls) if overrides.get(name) is not None}
    return dataclasses.replace(config, **_checked_fields(cls, changed))


# ---------------------------------------------------------------------------
# output helpers


_TMP_IDS = itertools.count()


@contextlib.contextmanager
def _atomic_open(path: Path):
    """Write a sibling temporary file; once complete, put it in ``path``'s place.

    A failed write keeps the previous ``path`` (or none) and leaves no
    temporary file. Each write has its own temporary name, so of two writers
    of one ``path`` the last to finish wins. The old ``path`` is removed
    before the rename: renaming onto an existing file (or truncating it)
    stalls about 35-60 ms per write on ext4, which starts writing the
    replacing file back to disk first. A process killed between the two
    steps leaves no file under ``path``, never a partial one. A write that
    completes removes the temporary files of ``path`` that killed writers
    left behind.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
    try:
        with open(tmp, "x", newline="") as fh:
            yield fh
        path.unlink(missing_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)  # only a failed write leaves it: a completed one has renamed it
        raise
    _remove_stale_temporaries(path)


def _remove_stale_temporaries(path: Path) -> None:
    """Remove the ``.NAME.<pid>.<n>.tmp`` files of ``path`` whose pid no longer runs.

    Files of this process and of running pids stay: a writer may still be
    busy with them. A pid reused since its writer was killed reads as
    running, so such a file stays until the pid is free again.
    """
    own = re.compile(rf"\.{re.escape(path.name)}\.([0-9]+)\.[0-9]+\.tmp")
    for entry in os.scandir(path.parent):
        match = own.fullmatch(entry.name)
        if match is None or int(match[1]) == os.getpid():
            continue
        try:
            os.kill(int(match[1]), 0)
        except ProcessLookupError:
            with contextlib.suppress(OSError):
                os.unlink(entry.path)
        except (OSError, OverflowError):
            pass  # running, or not ours to signal


#: line formats of ``runs.csv`` (with and without variance terms), ``summary.csv``, ``sweep.csv`` and ``responses.csv``
_RUNS_LINE = "%s,%d,%d,%.17g,%.17g,%.17g,%.17g\n"
_RUNS_LINE_NO_DELTAS = "%s,%d,%d,%.17g,,,\n"
_SUMMARY_LINE = "%s,%s,%s,%.17g,%.17g,%.17g,%s\n"
_SWEEP_LINE = "%s,%s,%.17g,%.17g,%.17g,%d,%.17g,%.17g,%.17g,%d,%s\n"
_RESPONSES_LINE = "%s,%s,%d,%.17g,%.17g\n"


def _csv_lines(line: str, *columns) -> list[str]:
    """``line % row`` for each row of the equally long ``columns``, by one format call; a ``%`` in a field is text."""
    cells = [None] * (len(columns[0]) * len(columns))
    for i, column in enumerate(columns):
        cells[i :: len(columns)] = column
    return (line * len(columns[0]) % tuple(cells)).splitlines(keepends=True)


def _write_csv(path: Path, header: list[str], lines: list[str]) -> None:
    """Write the comma-joined ``header``, then ``lines``: a list, since ``perfbench/tracer.py`` takes its ``len``."""
    with _atomic_open(path) as fh:
        fh.write("".join([",".join(header) + "\n", *lines]))


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_text(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# ---------------------------------------------------------------------------
# verify suites


def _residual_check(name: str, residual: float, tolerance: float) -> dict:
    """A check that passes when ``residual <= tolerance``, so a NaN residual fails."""
    return {"name": name, "max_abs_residual": residual, "tolerance": tolerance, "passed": residual <= tolerance}


def _suite_prop1(seed: int) -> list[dict]:
    """Ten 1000-step signals per beta, checked as the 50 columns of one trace."""
    rng = np.random.default_rng(derive_seed(seed, "verify", "prop1"))
    per_beta = 10
    signals = rng.standard_normal((len(BETA_GRID_PRIMARY) * per_beta, 1000))
    residuals = check_prop1(signals.T, np.repeat(BETA_GRID_PRIMARY, per_beta))
    direction, variance = (np.reshape(worst, (-1, per_beta)) for worst in residuals)
    checks = []
    for beta, dir_row, var_row in zip(BETA_GRID_PRIMARY, direction, variance):
        checks.append(_residual_check(f"direction_forms_beta={beta:g}", max_or_nan(0.0, *dir_row.tolist()), 1e-9))
        checks.append(_residual_check(f"variance_forms_beta={beta:g}", max_or_nan(0.0, *var_row.tolist()), 1e-10))
    return checks


def _suite_equalbeta(seed: int) -> list[dict]:
    checks = []
    for beta in BETA_GRID_FULL:
        value = prop2_condition(beta, beta)
        checks.append(
            {
                "name": f"condition_equal_beta={beta:g}",
                "value": value,
                "tolerance": 0.0,
                "passed": value == 0.0,
            }
        )
    for b1 in BETA_GRID_PRIMARY:
        for b2 in BETA_GRID_FULL:
            if b1 == b2:
                continue
            margin, sqrt_defined = square_completion_margin(b1, b2)
            checks.append(
                {
                    "name": f"completion_margin_b1={b1:g}_b2={b2:g}",
                    "margin": _jsonable(margin),
                    "sqrt_defined": sqrt_defined,
                    "passed": margin > 1e-12,
                }
            )
    return checks


def _suite_trust(seed: int) -> list[dict]:
    rng = np.random.default_rng(derive_seed(seed, "verify", "trust"))
    worst = 0.0
    for _ in range(200):
        m = float(rng.normal(scale=3.0))
        var = float(rng.exponential(scale=2.0))
        radius = trust_radius(m, var)
        argmin = steepest_descent_minimizer(m, radius)
        worst = max_or_nan(worst, abs(argmin - mollified_direction(m, var)))
    return [_residual_check("trust_region_minimizer_matches_mollified_sign", worst, 1e-12)]


def _suite_vi(seed: int) -> list[dict]:
    rng = np.random.default_rng(derive_seed(seed, "verify", "vi"))
    worst_param, worst_gap, worst_beat = 0.0, 0.0, -math.inf
    for _ in range(25):
        prior = GaussianBelief(float(rng.normal(scale=2.0)), float(rng.exponential(scale=1.0)) + 1e-3)
        g = float(rng.normal(scale=2.0))
        lam = float(rng.uniform(0.05, 20.0))
        closed = vi_update(prior, g, lam)
        obj_closed = vi_objective(prior, closed, g, lam)
        try:
            oracle = vi_numeric_oracle(prior, g, lam)
        except OracleError:
            # no oracle optimum to compare with: both comparisons fail
            worst_param = worst_gap = math.nan
        else:
            worst_param = max_or_nan(
                worst_param, abs(closed.mean - oracle.mean), abs(closed.variance - oracle.variance)
            )
            worst_gap = max_or_nan(worst_gap, obj_closed - vi_objective(prior, oracle, g, lam))
        spread = abs(prior.mean - g) + 1.0
        means = rng.uniform(prior.mean - 3 * spread, prior.mean + 3 * spread, size=2000)
        variances = np.exp(rng.uniform(np.log(1e-4), np.log(1e3), size=2000)) * closed.variance
        worst_beat = max_or_nan(worst_beat, obj_closed - float(np.min(objective_batch(prior, means, variances, g, lam))))
    # a negative gap (the closed form did better) is reported as 0
    return [
        _residual_check("closed_form_vs_oracle_parameters", worst_param, 1e-4),
        _residual_check("closed_form_objective_gap", max_or_nan(worst_gap, 0.0), 1e-8),
        _residual_check("closed_form_beats_random_candidates", max_or_nan(worst_beat, 0.0), 1e-8),
    ]


def _suite_signal(seed: int) -> list[dict]:
    rng = np.random.default_rng(derive_seed(seed, "verify", "signal"))
    checks = []
    for filter_name in FILTERS:
        violations = check_properties(filter_config(filter_name, 0.95), trials=25, rng=rng)
        checks += [_residual_check(f"{filter_name}_{name}", value, PROPERTY_TOL) for name, value in violations.items()]
    gap, _ = decay_blindness(0.95, SignalSpec())
    checks.append(_residual_check("decay_blindness_damped_sine", gap, BLINDNESS_TOL))
    for target in (1.0, 0.37, -0.8, 0.0):
        _, achieved = density_witness(target, k=10, beta=0.9)
        checks.append(
            {
                "name": f"density_witness_target={target:g}",
                "achieved": achieved,
                "tolerance": WITNESS_TOL,
                "passed": abs(achieved - target) <= WITNESS_TOL,
            }
        )
    return checks


_SUITES = {
    "prop1": _suite_prop1,
    "equalbeta": _suite_equalbeta,
    "trust": _suite_trust,
    "vi": _suite_vi,
    "signal": _suite_signal,
}


def cmd_verify(args) -> int:
    check_seed(args.seed)  # before any suite: equalbeta draws no random numbers, so no derive_seed call sees it
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    suites = {}
    all_passed = True
    for name in names:
        checks = _SUITES[name](args.seed)
        passed = all(c["passed"] for c in checks)
        all_passed = all_passed and passed
        suites[name] = {"passed": passed, "checks": checks}
        for check in checks:
            status = "ok" if check["passed"] else "FAIL"
            print(f"[{name}] {check['name']}: {status}", file=sys.stderr)
    text = _json_text({"schema_version": SCHEMA_VERSION, "passed": all_passed, "suites": suites})
    sys.stdout.write(text)
    if args.out is not None:
        _write_text(_ensure_out(args.out) / "verify.json", text)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# quad


def cmd_quad(args) -> int:
    overrides = {
        "layouts": None if args.layout is None else _layout_names(args.layout),
        "optimizers": tuple(args.optim) if args.optim else None,
        "lr_grid": None if args.lr is None else (args.lr,),
        "steps": args.steps,
        "batch_size": args.batch_size,
        "seeds": _seed_range(args.seeds),
        "beta": args.beta,
        "base_seed": args.seed,
    }
    cfg = _load_config(args.config, "quad", overrides)

    run_lines = []
    summary_lines = []
    optimizers = {name: default_quad_config(OptimizerKind(name), cfg.beta) for name in cfg.optimizers}
    for layout_name in cfg.layouts:
        layout = Layout(layout_name)
        problem = build_problem(layout, cfg.base_seed)
        results = tune_and_compare(problem, optimizers, cfg.lr_grid, cfg.seeds, cfg.steps, cfg.batch_size)
        cells = list(results.values())
        best_lrs = [fmt_float(None if cell.status == "all_diverged" else cell.lr) for cell in cells]
        stats, statuses = zip(*(cell.quantiles for cell in cells)), [cell.status for cell in cells]
        summary_lines += _csv_lines(_SUMMARY_LINE, list(results), [layout.value] * len(cells), best_lrs, *stats, statuses)
        run_lines += [line for cell in cells for record in cell.records for line in _run_lines(record)]
    out_dir = _ensure_out(args.out)
    runs_header = ["config_id", "seed", "step", "loss", "delta_b1", "delta_b2", "delta_b3"]
    _write_csv(out_dir / "runs.csv", runs_header, run_lines)
    summary_header = ["optimizer", "layout", "best_lr", "median_final", "q25", "q75", "status"]
    _write_csv(out_dir / "summary.csv", summary_header, summary_lines)
    print(f"wrote {out_dir / 'runs.csv'} and {out_dir / 'summary.csv'}", file=sys.stderr)
    return EXIT_OK


def _run_lines(record) -> list[str]:
    """``record``'s ``runs.csv`` lines, one per recorded step; without variance terms each ends in ``,,,``."""
    steps = len(record.losses)
    columns = ([record.config_id] * steps, [record.seed] * steps, range(steps), record.losses.tolist())
    if record.delta_block_means is None:
        return _csv_lines(_RUNS_LINE_NO_DELTAS, *columns)
    return _csv_lines(_RUNS_LINE, *columns, *record.delta_block_means.T.tolist())


# ---------------------------------------------------------------------------
# signal


def cmd_signal(args) -> int:
    overrides = {
        "filters": tuple(args.filter) if args.filter else None,
        "beta": args.beta,
        "amplitude": args.amplitude,
        "frequency": args.frequency,
        "decay": args.decay,
        "length": args.length,
        "base_seed": args.seed,
    }
    cfg = _load_config(args.config, "signal", overrides)
    if cfg.property_trials < 1:
        raise ConfigError(f"field 'property_trials' must be at least 1, got {cfg.property_trials}")

    spec = SignalSpec(cfg.amplitude, cfg.frequency, cfg.decay, cfg.length)
    signal = gen_signal(spec)
    # the "beta,k,input" columns every filter's block repeats; beta is formatted once
    shared = ([fmt_float(cfg.beta)] * signal.size, range(signal.size), signal.tolist())
    lines = []
    reports = {}
    rng = np.random.default_rng(derive_seed(cfg.base_seed, "signal", "properties"))
    for name in cfg.filters:
        config = filter_config(name, cfg.beta)
        response = filter_response(config, signal)
        lines += _csv_lines(_RESPONSES_LINE, [name] * signal.size, *shared, response.tolist())
        try:
            violations = check_properties(config, trials=cfg.property_trials, rng=rng)
        except (MemoryError, ValueError) as exc:  # numpy's refusal to make the checks' column matrix
            raise ConfigError(f"field 'property_trials' is too large, got {cfg.property_trials}: {exc}") from None
        checks = [
            {"name": check, "max_violation": value, "tolerance": PROPERTY_TOL, "passed": value <= PROPERTY_TOL}
            for check, value in violations.items()
        ]
        reports[name] = {
            "label": name,
            "trials": cfg.property_trials,
            "checks": checks,
            "passed": all(check["passed"] for check in checks),
        }
    gap, burn_in = decay_blindness(cfg.beta, spec)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "properties": reports,
        "decay_blindness": {"max_gap": gap, "tolerance": BLINDNESS_TOL, "burn_in": burn_in, "passed": gap <= BLINDNESS_TOL},
    }
    out_dir = _ensure_out(args.out)
    _write_csv(out_dir / "responses.csv", ["filter", "beta", "k", "input", "response"], lines)
    _write_text(out_dir / "signal_properties.json", _json_text(payload))
    print(f"wrote {out_dir / 'responses.csv'} and {out_dir / 'signal_properties.json'}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _sweep_batch(problem, cfg: SweepConfig, name: str, betas, starts) -> list[str]:
    """Run every (betas, rate, seed) of one optimizer as one batch; one CSV line per (betas, rate)."""
    layout = problem.layout.value
    kind = OptimizerKind(name)
    pairs = _beta_pairs(kind, betas, cfg.equal_betas)
    cells = [(beta1, beta2, lr) for beta1, beta2 in pairs for lr in cfg.lr_grid]
    configs = {pair: default_quad_config(kind, *pair) for pair in pairs}
    results = run_cell(
        problem,
        [
            (configs[beta1, beta2], lr, make_config_id(layout, name, lr) + f":b1={beta1:.17g}:b2={beta2:.17g}")
            for beta1, beta2, lr in cells
        ],
        starts,
        cfg.steps,
        cfg.batch_size,
        traces=False,
    )
    beta1s, beta2s, rates = zip(*cells)
    columns = zip(*((len(cell.records), *cell.quantiles, cell.n_diverged, cell.status) for cell in results))
    return _csv_lines(_SWEEP_LINE, [layout] * len(cells), [name] * len(cells), rates, beta1s, beta2s, *columns)


def _beta_pairs(kind: OptimizerKind, betas, equal_betas: bool):
    if kind is OptimizerKind.ADAM and not equal_betas:
        return [(b1, b2) for b1 in betas for b2 in betas]
    if kind is OptimizerKind.RMSPROP:
        return [(0.0, b2) for b2 in betas]
    return [(b, b) for b in betas]


def cmd_sweep(args) -> int:
    overrides = {
        "layout": args.layout,
        "optimizers": tuple(args.optim) if args.optim else None,
        "beta_base": args.beta_base,
        "kappas": tuple(args.kappas) if args.kappas else None,
        "equal_betas": True if args.equal_betas else None,
        "steps": args.steps,
        "batch_size": args.batch_size,
        "seeds": _seed_range(args.seeds),
        "base_seed": args.seed,
    }
    if args.jobs != 1:
        raise ConfigError(f"--jobs must be 1 (sweep runs in one process), got {args.jobs}")
    cfg = _load_config(args.config, "sweep", overrides)
    layout = Layout(cfg.layout)
    problem = build_problem(layout, cfg.base_seed)
    betas = beta_grid(cfg.beta_base, cfg.kappas)
    starts = [(seed, initial_point(problem.dim, seed)) for seed in cfg.seeds]
    lines = [line for name in cfg.optimizers for line in _sweep_batch(problem, cfg, name, betas, starts)]
    out_dir = _ensure_out(args.out)
    _write_csv(
        out_dir / "sweep.csv",
        ["layout", "optimizer", "lr", "beta1", "beta2", "n_seeds", "median_final", "q25", "q75", "n_diverged", "status"],
        lines,
    )
    print(f"wrote {out_dir / 'sweep.csv'} ({len(lines)} cells)", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# plumbing


def _seed_range(count: int | None) -> tuple[int, ...] | None:
    """``--seeds N`` as the seeds ``0..N-1``; ``None`` when the flag is absent."""
    try:
        return None if count is None else tuple(range(count))
    except OverflowError:  # a count beyond the index range: ``range`` raises before it allocates anything
        raise ConfigError(f"--seeds must be at most {sys.maxsize}, got {count}") from None


def _layout_names(value: str) -> tuple[str, ...]:
    return ("het", "hom") if value == "both" else (value,)


def _ensure_out(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adamlab",
        description="verification suites and desk-scale benchmarks for adaptive sign-based optimizers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--out", default="out", metavar="DIR", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="base seed (default 0)")

    p = sub.add_parser("verify", help="run property/identity suites")
    p.add_argument("--suite", default="all", choices=["all", *sorted(_SUITES)])
    p.add_argument("--out", default=None, metavar="DIR")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quad", help="tuned optimizer comparison on the block quadratics")
    common(p)
    p.add_argument("--layout", choices=["het", "hom", "both"], default=None)
    p.add_argument("--optim", action="append", metavar="NAME", help="repeatable optimizer name")
    p.add_argument("--lr", type=float, default=None, help="one learning rate: the grid becomes (LR,), so no tuning")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seeds", type=int, default=None, metavar="N", help="number of seeds (0..N-1)")
    p.add_argument("--beta", type=float, default=None)
    p.set_defaults(func=cmd_quad)

    p = sub.add_parser("signal", help="filter responses and operator properties")
    common(p)
    p.add_argument("--filter", action="append", metavar="NAME", help="repeatable filter name")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--amplitude", type=float, default=None)
    p.add_argument("--frequency", type=float, default=None)
    p.add_argument("--decay", type=float, default=None)
    p.add_argument("--length", type=int, default=None)
    p.set_defaults(func=cmd_signal)

    p = sub.add_parser("sweep", help="cross-product sweep over (optimizer, lr, momentum)")
    common(p)
    p.add_argument("--layout", choices=["het", "hom"], default=None)
    p.add_argument("--optim", action="append", metavar="NAME")
    p.add_argument("--beta-base", type=float, default=None)
    p.add_argument("--kappas", type=float, nargs="+", default=None)
    p.add_argument("--equal-betas", action="store_true", default=False)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seeds", type=int, default=None, metavar="N")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="must be 1: sweep runs in one process; kept only because the benchmark's sweep-momentum "
        "commands pass --jobs 1, and goes with the next benchmark change",
    )
    p.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first :func:`main` call rather than at import.

    ``parse_args`` leaves the parser as it found it (each call starts from a
    fresh namespace and copies its defaults), so calls can share it.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error (2) or help (0)
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'the requested sizes are too large'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:  # an artifact being written keeps its previous file: see _atomic_open
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
