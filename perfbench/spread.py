"""Run-to-run spread of the end-to-end metrics, with the workloads run round-robin.

Usage::

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--save FILE] [--against FILE]

Runs ``run.py`` once per (seed, workload), taking the workloads in turn for
each seed so that a slow spell of the host is spread over all of them rather
than landing on one workload's runs. For every workload and end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, ``(q3 - q1) / median``, next to the bound in
``BENCHMARK.json``; the target is a spread below a third of the bound.
``--against`` compares each median with one saved by an earlier ``--save``:
the new median may not be worse by more than the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in bench["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failures = 0
    for seed in args.seeds:
        for workload in workloads:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            failures += result["failed"] > 0
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                flush=True,
            )

    medians = {w: {name: statistics.median(vals) for name, vals in metrics.items()} for w, metrics in values.items()}
    previous = json.loads(args.against.read_text()) if args.against else None
    worst = 0.0
    for workload, metrics in values.items():
        for spec in bench["end_to_end"]:
            vals = metrics.get(spec["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            line = (
                f"{workload:15s} {spec['name']:12s} median {med:<11.5g} q1 {q1:<11.5g} q3 {q3:<11.5g} "
                f"spread {spread:.3f} bound {spec['bound']} ({'ok' if spread < spec['bound'] / 3 else 'WIDE'})"
            )
            if spec["name"] != "setup_s":
                worst = max(worst, spread / spec["bound"])
            if previous is not None:
                before = previous[workload][spec["name"]]
                change = (med - before) / before * (1 if spec["better"] == "lower" else -1)
                line += f" vs saved {before:.5g}: {change:+.3f} ({'ok' if change <= spec['bound'] else 'WORSE'})"
            print(line)
    print(f"largest spread / bound (setup_s aside): {worst:.3f}; runs with a failed check: {failures}")
    if args.save:
        args.save.write_text(json.dumps(medians, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
