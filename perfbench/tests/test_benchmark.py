"""The benchmark's own tests: tracing neutrality, metric names, reference checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""
import json

import pytest

import adamlab.cli
from run import ROOT
from tracer import PATCHES, Tracer, _resolve, layer_metrics
from workloads import compare_summary

SMALL_COMMANDS = {
    "quad": ["quad", "--layout", "het", "--optim", "adameq", "--optim", "sgd", "--steps", "40", "--seeds", "2"],
    "sweep": ["sweep", "--optim", "adam", "--optim", "signum", "--kappas", "1", "2", "--steps", "30", "--seeds", "1"],
    "signal": ["signal", "--length", "120"],
    "verify": ["verify", "--suite", "vi"],
}


def _artifacts(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("command", sorted(SMALL_COMMANDS))
def test_tracing_is_neutral(command, tmp_path, capsys):
    originals = {(path, attr): vars(_resolve(path))[attr] for path, attr, *_rest in PATCHES}
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert adamlab.cli.main(SMALL_COMMANDS[command] + ["--out", str(plain)]) == 0

    tracer = Tracer()
    tracer.install()
    try:
        assert all(vars(_resolve(path))[attr] is not orig for (path, attr), orig in originals.items())
        with tracer.span("cli.main"):
            assert adamlab.cli.main(SMALL_COMMANDS[command] + ["--out", str(traced)]) == 0
    finally:
        restored = tracer.uninstall()

    assert restored
    assert all(vars(_resolve(path))[attr] is orig for (path, attr), orig in originals.items())
    assert tracer.missing == []
    assert _artifacts(traced) == _artifacts(plain)
    assert tracer.aggregate, "no span was recorded"


def test_quad_trace_counts_match_artifacts(tmp_path, capsys):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            adamlab.cli.main(SMALL_COMMANDS["quad"] + ["--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    runs = (tmp_path / "runs.csv").read_text().splitlines()[1:]
    delta_rows = sum(1 for row in runs if row.split(",")[4])
    metrics = layer_metrics(tracer.to_dict(), delta_rows)

    n_cells = 2 * 19  # two optimizers x the default rate grid
    assert metrics["quadbench.steps"] == metrics["optim.direction.calls"] <= n_cells * 2 * 40
    assert metrics["quadbench.initial_point.calls"] == 2
    assert metrics["cli.rows"] == len(runs) + 2
    assert metrics["cli.write_csv.bytes"] == sum(p.stat().st_size for p in tmp_path.iterdir())
    assert 0 < metrics["quadbench.delta_kept_ratio"] < 1
    assert metrics["quadbench.cell_ms_p50"] <= metrics["quadbench.cell_ms_p99"]


def test_benchmark_json_names_what_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    empty = {"aggregate": [], "work": {}, "kept": [], "missing": []}
    layer_names = list(layer_metrics(empty, 0)) + ["trace.overhead_pct"]
    assert [m["name"] for m in bench["per_layer"]] == layer_names
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "wall_s", "steps_per_s", "cpu_s", "peak_rss_mb"]


def test_reference_comparison_tolerates_drift_but_not_errors():
    reference = {"exact": [["adameq", "het", "0.5", "ok"]], "approx": {"median": 1.0, "q75": float("inf")}}
    drifted = {"exact": [["adameq", "het", "0.5", "ok"]], "approx": {"median": 1.0 + 1e-12, "q75": float("inf")}}
    wrong_value = {"exact": reference["exact"], "approx": {"median": 1.01, "q75": float("inf")}}
    wrong_status = {"exact": [["adameq", "het", "0.5", "all_diverged"]], "approx": reference["approx"]}
    assert all(ok for _name, ok in compare_summary(reference, drifted))
    assert not all(ok for _name, ok in compare_summary(reference, wrong_value))
    assert not all(ok for _name, ok in compare_summary(reference, wrong_status))
