"""The benchmark's workloads: the CLI commands they run and the checks on what they write.

Each workload turns the benchmark seed into ``adamlab`` argument lists, one
pass of the workload; the program sees only those flags. Every command writes
to its own directory under the pass's output directory. Why each workload
exists is written down in ``perfbench/README.md``.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: benchmark seed whose summaries are compared against ``reference.json``
REFERENCE_SEED = 0
#: relative tolerance for recorded medians: admits ulp-level engine drift
REFERENCE_RTOL = 1e-6

#: every command writes config files with this schema version
SCHEMA_VERSION = 1

QUAD_SEEDS = 1
QUAD_STEPS = 100
QUAD_LAYOUTS = ("het", "hom")
QUAD_OPTIMIZERS = ("adameq", "sgd", "signum")
QUAD_LRS = 19
QUAD_RUNS_HEADER = ["config_id", "seed", "step", "loss", "delta_b1", "delta_b2", "delta_b3"]

SWEEP_SEEDS = 1
SWEEP_STEPS = 40
SWEEP_LRS = tuple(2.0**i for i in range(-14, 1))
#: (optimizer, number of chunks its rate grid is cut into); Adam's 16 momentum
#: pairs make its cells four times as many as the others'
SWEEP_OPTIMIZERS = (("signum", 1), ("adameq", 1), ("adam", 5))
SWEEP_CELLS = 360  # (4 signum + 4 adameq + 16 adam momentum pairs) x 15 rates
SWEEP_STATUSES = ("ok", "partial", "all_diverged")

VERIFY_SUITES = ("prop1", "equalbeta", "trust", "vi", "signal")
SIGNAL_FILTERS = ("sign", "adameq", "signum", "emasign")
SIGNAL_LENGTH = 2000
SIGNAL_PROPERTY_TRIALS = 5
#: scalar direction-map steps of one verify-signal pass, counted by a traced
#: run at the reference seed (the property checks' truncation lengths, and so
#: the exact count, vary a little with the seed)
VERIFY_SIGNAL_STEPS = 226_091


Checks = list[tuple[str, bool]]


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _float(text: str) -> float:
    return float(text) if text else math.nan


# ---------------------------------------------------------------------------
# quad-tuned: one command per (layout, optimizer) cell of the default mix


QUAD_CELLS = tuple(f"{layout}-{optim}" for layout in QUAD_LAYOUTS for optim in QUAD_OPTIMIZERS)


def _quad_commands(seed: int, out: str) -> list[list[str]]:
    return [
        [
            "quad", "--layout", cell.split("-")[0], "--optim", cell.split("-")[1],
            "--seeds", str(QUAD_SEEDS), "--steps", str(QUAD_STEPS), "--seed", str(seed), "--out", f"{out}/{cell}",
        ]
        for cell in QUAD_CELLS
    ]


def _quad_checks(out: Path) -> Checks:
    checks = []
    for cell in QUAD_CELLS:
        layout, optim = cell.split("-")
        runs = _read_csv(out / cell / "runs.csv")
        summary = _read_csv(out / cell / "summary.csv")[1:]
        # only adameq computes the variance term, so only its runs carry snapshots
        with_delta = sum(1 for row in runs[1:] if row[4] != "")
        checks += [
            (f"quad.{cell}.runs_header", runs[0] == QUAD_RUNS_HEADER),
            (f"quad.{cell}.runs_rows", len(runs) - 1 == QUAD_SEEDS * QUAD_STEPS),
            (f"quad.{cell}.delta_rows", with_delta == (QUAD_SEEDS * QUAD_STEPS if optim == "adameq" else 0)),
            (f"quad.{cell}.summary_cell", [row[:2] for row in summary] == [[optim, layout]]),
            (f"quad.{cell}.summary_status", all(row[6] == "ok" for row in summary)),
        ]
    return checks


def _quad_summary(out: Path) -> dict:
    rows = [row for cell in QUAD_CELLS for row in _read_csv(out / cell / "summary.csv")[1:]]
    return {
        "exact": [[row[0], row[1], row[2], row[6]] for row in rows],
        "approx": {f"{row[0]}/{row[1]}/{col}": _float(row[i]) for row in rows for i, col in ((3, "median"), (4, "q25"), (5, "q75"))},
    }


def quad_delta_rows(out: Path) -> int:
    """Variance-term snapshots that reached the ``runs.csv`` files (0 if there are none)."""
    paths = [out / cell / "runs.csv" for cell in QUAD_CELLS]
    return sum(1 for path in paths if path.is_file() for row in _read_csv(path)[1:] if row[4] != "")


# ---------------------------------------------------------------------------
# sweep-momentum: one command per optimizer and chunk of the rate grid


def _sweep_parts() -> list[tuple[str, int, tuple[float, ...]]]:
    parts = []
    for optim, chunks in SWEEP_OPTIMIZERS:
        size = -(-len(SWEEP_LRS) // chunks)
        parts += [(optim, i, SWEEP_LRS[i * size : (i + 1) * size]) for i in range(chunks)]
    return parts


def _sweep_commands(seed: int, out: str) -> list[list[str]]:
    """The pass's commands; writes the config file each one names under ``out``."""
    commands = []
    for optim, chunk, lrs in _sweep_parts():
        config = Path(out) / f"{optim}-{chunk}.json"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "command": "sweep", "lr_grid": list(lrs)}))
        commands.append(
            [
                "sweep", "--config", str(config), "--layout", "het", "--jobs", "1", "--optim", optim,
                "--seeds", str(SWEEP_SEEDS), "--steps", str(SWEEP_STEPS), "--seed", str(seed),
                "--out", f"{out}/{optim}-{chunk}",
            ]
        )
    return commands


def _sweep_status(row: list[str]) -> str:
    n_seeds, n_diverged = int(row[5]), int(row[9])
    if n_diverged == n_seeds:
        return "all_diverged"
    return "partial" if n_diverged else "ok"


def _sweep_rows(out: Path) -> list[list[str]]:
    return [row for optim, chunk, _lrs in _sweep_parts() for row in _read_csv(out / f"{optim}-{chunk}" / "sweep.csv")[1:]]


def _sweep_checks(out: Path) -> Checks:
    rows = _sweep_rows(out)
    return [
        ("sweep.cells", len(rows) == SWEEP_CELLS),
        ("sweep.n_seeds", all(row[5] == str(SWEEP_SEEDS) for row in rows)),
        ("sweep.status", all(row[10] in SWEEP_STATUSES and row[10] == _sweep_status(row) for row in rows)),
        ("sweep.some_ok", any(row[10] == "ok" for row in rows)),
    ]


def _sweep_summary(out: Path) -> dict:
    rows = _sweep_rows(out)
    return {
        "exact": [row[:6] + row[9:] for row in rows],
        "approx": {f"{i}/{col}": _float(row[j]) for i, row in enumerate(rows) for j, col in ((6, "median"), (7, "q25"), (8, "q75"))},
    }


# ---------------------------------------------------------------------------
# verify-signal: one command per verify suite, then one signal command per filter


def _verify_signal_commands(seed: int, out: str) -> list[list[str]]:
    """The pass's commands; writes the config file the signal commands name under ``out``."""
    config = Path(out) / "signal.json"
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(
        json.dumps({"schema_version": SCHEMA_VERSION, "command": "signal", "property_trials": SIGNAL_PROPERTY_TRIALS})
    )
    return [
        *(["verify", "--suite", suite, "--seed", str(seed), "--out", f"{out}/verify-{suite}"] for suite in VERIFY_SUITES),
        *(
            ["signal", "--config", str(config), "--filter", name, "--seed", str(seed), "--out", f"{out}/signal-{name}"]
            for name in SIGNAL_FILTERS
        ),
    ]


def _verify_reports(out: Path) -> list[dict]:
    return [json.loads((out / f"verify-{suite}" / "verify.json").read_text()) for suite in VERIFY_SUITES]


def _signal_outputs(out: Path) -> list[tuple[str, dict, list[list[str]]]]:
    return [
        (
            name,
            json.loads((out / f"signal-{name}" / "signal_properties.json").read_text()),
            _read_csv(out / f"signal-{name}" / "responses.csv"),
        )
        for name in SIGNAL_FILTERS
    ]


def _verify_signal_checks(out: Path) -> Checks:
    checks = [(f"verify.{suite}.passed", report["passed"] is True) for suite, report in zip(VERIFY_SUITES, _verify_reports(out))]
    for name, props, responses in _signal_outputs(out):
        checks += [
            (f"signal.{name}.rows", len(responses) - 1 == SIGNAL_LENGTH and all(row[0] == name for row in responses[1:])),
            (f"signal.{name}.properties", list(props["properties"]) == [name] and props["properties"][name]["passed"]),
            (f"signal.{name}.decay_blindness", props["decay_blindness"]["passed"] is True),
        ]
    return checks


def _verify_signal_summary(out: Path) -> dict:
    approx = {}
    for name, props, responses in _signal_outputs(out):
        values = [float(row[4]) for row in responses[1:]]
        approx[f"{name}/decay_blindness.max_gap"] = props["decay_blindness"]["max_gap"]
        approx[f"{name}/sum"] = sum(values)
        approx[f"{name}/sumsq"] = sum(v * v for v in values)
    exact = [
        [suite, check["name"], check["passed"]]
        for report in _verify_reports(out)
        for suite, body in sorted(report["suites"].items())
        for check in body["checks"]
    ]
    return {"exact": exact, "approx": approx}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: direction-map steps one pass requests; steps_per_s divides this by wall_s
    steps: int
    commands: Callable[[int, str], list[list[str]]]
    checks: Callable[[Path], Checks]
    summary: Callable[[Path], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quad-tuned",
            len(QUAD_LAYOUTS) * len(QUAD_OPTIMIZERS) * QUAD_LRS * QUAD_SEEDS * QUAD_STEPS,
            _quad_commands,
            _quad_checks,
            _quad_summary,
        ),
        Workload(
            "sweep-momentum",
            SWEEP_CELLS * SWEEP_SEEDS * SWEEP_STEPS,
            _sweep_commands,
            _sweep_checks,
            _sweep_summary,
        ),
        Workload(
            "verify-signal",
            VERIFY_SIGNAL_STEPS,
            _verify_signal_commands,
            _verify_signal_checks,
            _verify_signal_summary,
        ),
    )
}


def _close(ref: float, val: float, rtol: float) -> bool:
    if math.isfinite(ref) and math.isfinite(val):
        return abs(val - ref) <= rtol * max(abs(ref), abs(val), 1e-12)
    return ref == val or (math.isnan(ref) and math.isnan(val))


def compare_summary(reference: dict, got: dict, rtol: float = REFERENCE_RTOL) -> Checks:
    """Exact fields must match; approximate ones must agree to ``rtol``."""
    ref_approx, got_approx = reference["approx"], got["approx"]
    return [
        ("reference.exact", reference["exact"] == got["exact"]),
        (
            "reference.approx",
            ref_approx.keys() == got_approx.keys()
            and all(_close(ref, got_approx[key], rtol) for key, ref in ref_approx.items()),
        ),
    ]
