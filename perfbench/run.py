"""The adamlab benchmark: one workload, one seed, measured for a fixed time.

Usage::

    python3 perfbench/run.py --workload quad-tuned --seed 0 --seconds 25 --trace 0

A run starts four fresh child processes (``perfbench/child.py``), one at a
time, and gives each a quarter of ``--seconds``. A child imports the package
from ``src/`` and then repeats passes of the workload (its list of
``adamlab.cli.main`` commands) until its quarter is over, timing every
command on its own and, just before it, one host-speed probe
(``perfbench/speed.py``). Every timing metric is given at the probe's
reference speed: the time measured, times ``speed.REFERENCE_S`` over the mean
probe time of the same passes. The host's speed changes by up to 2x in spells
as long as a run, and the probes divide that out (see README.md).

``wall_s`` and ``cpu_s`` are the mean time of one pass of the run's untraced
children. ``setup_s`` is the median over eight set-ups: the four children's
and, first, those of four children that only set up and exit; each is scaled
by three probes timed just before its child starts and three timed by the
child once it has set up. ``peak_rss_mb`` is the median over the children. With ``--trace 1``
untraced and traced children alternate, and every traced pass has a tracer of
its own; the per-layer metrics are medians over the traced passes, as
measured, and ``trace.overhead_pct`` compares the traced and untraced
``wall_s``.

Every child's exit codes and artifacts are checked; the checks feed the
``attempted``/``failed`` counts of the last output line, a JSON object.
Artifacts and logs are left under ``.bench_work/<workload>/``.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import EXACT_COUNTS, layer_metrics, median_metrics
from workloads import REFERENCE_SEED, WORKLOADS, compare_summary, quad_delta_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

CHILDREN = 4
#: children that only set up and exit, run before the others without tracing,
#: so that ``setup_s`` is a median over eight set-ups
SETUP_ONLY = 4
#: the children's passes end by this many seconds into a run ...
MEASURE_LIMIT_S = 100.0
#: ... and a child still running at this point is killed, so a run ends within 180 s
RUN_LIMIT_S = 170.0


def metric_units() -> dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` names it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(),
        "loadavg": list(os.getloadavg()),
        "speed_probe_s": statistics.median(speed.probe() for _ in range(5)),
    }


def run_child(workload, seed: int, kind: str, index: int, deadline: float, kill_at: float):
    """Start one ``plain``, ``traced`` or ``setup`` (set-up only) child, let it run
    passes until ``deadline``, and return its result (None if it failed)."""
    out = WORK / workload.name / f"{index:02d}-{kind}"
    out.mkdir(parents=True)
    result_path = out / "result.json"
    artifacts = out / "artifacts"
    probes = [speed.probe() for _ in range(speed.SETUP_PROBES)]
    start = time.monotonic()
    spec = {
        "commands": [] if kind == "setup" else workload.commands(seed, str(artifacts)),
        "out": str(artifacts),
        "deadline": deadline,
        "trace": kind == "traced",
        "spawned_at": start,
        "result": str(result_path),
    }
    with open(out / "child.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=max(1.0, kill_at - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    if code != 0 or not result_path.is_file():
        return None, artifacts
    result = json.loads(result_path.read_text())
    result["setup_probe_s"] += probes
    return result, artifacts


def child_checks(workload, seed: int, result: dict | None, out: Path, first: dict, reference: dict):
    """Checks on one child's exit codes and artifacts; ``first`` holds the run's first hashes."""
    ok = result is not None and all(code == 0 for code in result["codes"])
    checks = [("exit_code", ok)]
    if not ok:
        return checks
    try:
        checks += workload.checks(out)
        if seed == REFERENCE_SEED:
            checks += compare_summary(reference[workload.name], workload.summary(out))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks.append((f"artifacts_readable ({exc!r})", False))
    for record in result["passes"]:
        checks.append(("artifacts_identical", first.setdefault("hashes", record["hashes"]) == record["hashes"]))
        if "trace" in record:
            missing = ", ".join(record["trace"]["missing"])
            checks.append((f"trace_names_found (missing: {missing})", not missing))
            checks.append(("trace_restored", record["restored"] is True))
    return checks


def at_reference_speed(passes: list[dict], key: str) -> float:
    """Mean time of one pass, scaled to the reference speed by the probes taken in ``passes``."""
    probes = [t for record in passes for t in record["probe_s"]]
    return statistics.fmean(sum(record[key]) for record in passes) * speed.factor(probes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adamlab" / "cli.py").is_file():
        print(f"benchmark: no adamlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())
    units = metric_units()
    facts = machine_facts()
    shutil.rmtree(WORK / workload.name, ignore_errors=True)

    runs = []  # (traced, result, out)
    setups = []  # results of the set-up-only children
    checks = []
    first: dict = {}
    begin = time.monotonic()
    for index in range(0 if args.trace else SETUP_ONLY):
        result, _out = run_child(workload, args.seed, "setup", index, begin, begin + RUN_LIMIT_S)
        if result is None:
            print(f"benchmark: set-up-only child {index + 1} failed (see child.log)", file=sys.stderr)
            return 1
        setups.append(result)
    start = time.monotonic()
    window = min(args.seconds, MEASURE_LIMIT_S)
    for index in range(CHILDREN):
        traced = bool(args.trace) and index % 2 == 1
        deadline = start + window * (index + 1) / CHILDREN
        kind = "traced" if traced else "plain"
        result, out = run_child(workload, args.seed, kind, index, deadline, begin + RUN_LIMIT_S)
        checks += child_checks(workload, args.seed, result, out, first, reference)
        runs.append((traced, result, out))
        passes = len(result["passes"]) if result else 0
        print(
            f"child {index + 1} {'traced' if traced else 'plain'}: {passes} passes"
            + ("" if result else " FAILED (see child.log)"),
            file=sys.stderr,
        )
        if result is None:
            print("benchmark: a child failed its workload", file=sys.stderr)
            return 1

    plain = [record for traced, r, _o in runs if not traced for record in r["passes"]]
    if args.trace:
        traced_passes = [(record, o) for traced, r, o in runs if traced for record in r["passes"]]
        layers = [layer_metrics(record["trace"], quad_delta_rows(o)) for record, o in traced_passes]
        for name in EXACT_COUNTS:
            checks.append((f"count_repeats {name}", len({layer[name] for layer in layers}) == 1 and len(layers) >= 2))
        values = median_metrics(layers)
        traced_wall = at_reference_speed([record for record, _o in traced_passes], "wall_s")
        values["trace.overhead_pct"] = 100.0 * (traced_wall / at_reference_speed(plain, "wall_s") - 1.0)
    else:
        wall_s = at_reference_speed(plain, "wall_s")
        set_up = setups + [r for _t, r, _o in runs]
        values = {
            "setup_s": statistics.median(r["setup_s"] * speed.factor(r["setup_probe_s"]) for r in set_up),
            "wall_s": wall_s,
            "steps_per_s": workload.steps / wall_s,
            "cpu_s": at_reference_speed(plain, "cpu_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _t, r, _o in runs),
        }

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    failed = [name for name, ok in checks if not ok]
    facts["passes"] = [len(r["passes"]) for _t, r, _o in runs]
    facts["plain_speed_factor"] = speed.factor([t for record in plain for t in record["probe_s"]])
    facts["plain_raw_wall_s"] = statistics.fmean(sum(record["wall_s"]) for record in plain)
    print("facts " + json.dumps(facts, sort_keys=True))
    for name in failed:
        print(f"check failed: {name}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    summary = {"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}
    children = [
        {**r, "traced": t, "passes": [{k: v for k, v in p.items() if k != "trace"} for p in r["passes"]]}
        for t, r, _o in runs
    ]
    record = {"facts": facts, "setup_only": setups, "children": children, **summary}
    (WORK / workload.name / "summary.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
