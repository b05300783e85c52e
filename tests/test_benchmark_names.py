"""The names and flags that the benchmark uses must exist in the package.

``perfbench/tracer.py`` times adamlab by replacing module-level names (and two
class methods) from outside the package, and ``perfbench/workloads.py`` runs
fixed ``adamlab`` command lines. A name or flag that the package drops is only
reported at benchmark time, and ``perfbench/tests`` is not part of this suite,
so these tests load both files by path: each traced name is resolved the way
:meth:`Tracer.install` does, each workload command is parsed by the CLI, a
small ``quad`` and ``signal`` run in-process under the tracer, and one pass of
each workload passes the benchmark's own correctness checks.
"""
import importlib.util
import json
import sys
from pathlib import Path

from adamlab import cli, vi
from adamlab.filters import SIGNAL_LENGTH

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load("tracer")
    missing = [f"{owner}.{attr}" for owner, attr, *_ in tracer.PATCHES if attr not in vars(tracer._resolve(owner))]
    assert missing == []


def test_every_workload_command_parses(tmp_path, capsys):
    workloads = _load("workloads")
    parser = cli.build_parser()
    for name, workload in workloads.WORKLOADS.items():
        for argv in workload.commands(0, str(tmp_path / name)):
            parser.parse_args(argv)
    # the sweep's pinned "--jobs 1" is accepted past the parser too
    first_sweep = workloads.WORKLOADS["sweep-momentum"].commands(0, str(tmp_path / "run"))[0]
    assert cli.main(first_sweep) == cli.EXIT_OK
    capsys.readouterr()


def test_traced_commands_keep_the_tracer_contract(tmp_path, capsys):
    """Under :class:`Tracer`, a small ``quad`` and ``signal`` find every name, and each CSV span counts its artifact.

    ``quad`` opens one kept ``quadbench.tune_and_compare`` span per layout, so
    the benchmark's ``quadbench.tune_and_compare.s`` times the tuning, and
    ``signal``'s ``filter_response`` work, which the tracer takes as the length
    of the second argument, is the number of steps it streams.
    """
    tracer_module = _load("tracer")
    before = [(owner, attr, vars(tracer_module._resolve(owner))[attr]) for owner, attr, *_ in tracer_module.PATCHES]
    length = 50
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        quad = ["quad", "--layout", "het", "--optim", "adameq", "--optim", "sgd", "--seeds", "2", "--steps", "5"]
        assert cli.main([*quad, "--out", str(tmp_path / "quad")]) == cli.EXIT_OK
        assert cli.main(["signal", "--length", str(length), "--out", str(tmp_path / "signal")]) == cli.EXIT_OK
    finally:
        restored = tracer.uninstall()
    capsys.readouterr()
    assert tracer.missing == []
    assert restored
    assert [(owner, attr, vars(tracer_module._resolve(owner))[attr]) for owner, attr, *_ in tracer_module.PATCHES] == before
    written = [(span["rows"], span["bytes"]) for span in tracer.kept if span["name"] == "cli.write_csv"]
    artifacts = [tmp_path / "quad" / "runs.csv", tmp_path / "quad" / "summary.csv", tmp_path / "signal" / "responses.csv"]
    assert written == [(len(path.read_text().splitlines()) - 1, path.stat().st_size) for path in artifacts]
    assert [span["name"] for span in tracer.kept].count("quadbench.tune_and_compare") == 1  # quad's one layout
    # filter_response work is the steps streamed (a (T, C) signal counts T): per filter its response and the
    # property checks' one column matrix, then decay blindness's damped and undamped signals
    streamed = len(cli.SignalConfig().filters) * (length + SIGNAL_LENGTH) + 2 * length
    assert tracer.work["filters.filter_response"] == streamed


def test_traced_verify_suites_keep_the_tracer_contract(capsys):
    """Under :class:`Tracer`, ``verify --suite prop1`` and ``--suite vi`` reach their traced layers.

    prop1 checks its 1000-step signals in one ``identities.scalar_adam_trace``
    call (the tracer counts the signal's length as work); vi keeps one
    ``vi.vi_numeric_oracle`` span per oracle, and each oracle runs its searches
    through ``vi.minimize_scalar``. A restructure that bypasses a traced name
    would read 0 in the benchmark; here it fails.
    """
    tracer_module = _load("tracer")
    tracer = tracer_module.Tracer()
    tracer.install()
    traced_search = vi.minimize_scalar
    open_spans = []  # the innermost open span of each search, as it starts

    def search(*args, **kwargs):
        open_spans.append(tracer.stack[-1])
        return traced_search(*args, **kwargs)

    vi.minimize_scalar = search
    try:
        assert cli.main(["verify", "--suite", "prop1"]) == cli.EXIT_OK
        assert cli.main(["verify", "--suite", "vi"]) == cli.EXIT_OK
    finally:
        vi.minimize_scalar = traced_search
        assert tracer.uninstall()
    capsys.readouterr()
    assert tracer.missing == []
    assert tracer.work["identities.scalar_adam_trace"] == 1000
    assert [span["name"] for span in tracer.kept].count("vi.vi_numeric_oracle") == 25
    # the spans stay referenced in open_spans, so their ids are distinct
    assert len({id(span) for span in open_spans if span[0] == "vi.vi_numeric_oracle"}) == 25


def test_traced_engine_calls_are_counted_exactly(tmp_path, capsys):
    """A small traced ``quad`` counts each engine layer's calls: one per batch step, or one per batch.

    Two 5-step batches (one per optimizer, all rates and seeds together): a
    gradient and an update per step, a variance-term estimate per ``adameq``
    step, and one rate table and one loss call per batch. Were the engine to
    stop calling a traced name that still resolves, the benchmark would read
    that layer as 0 without an error; here its count fails.
    """
    tracer_module = _load("tracer")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        quad = ["quad", "--layout", "het", "--optim", "adameq", "--optim", "sgd", "--seeds", "2", "--steps", "5"]
        assert cli.main([*quad, "--out", str(tmp_path / "quad")]) == cli.EXIT_OK
    finally:
        assert tracer.uninstall()
    capsys.readouterr()
    calls = {}
    for name, _parent, n, _total, _self in tracer.to_dict()["aggregate"]:
        calls[name] = calls.get(name, 0) + n
    expected = {
        "quadbench.subset_gradient": 10,
        "optim.apply_step": 10,
        "optim.delta_estimate": 5,
        "core.lr_at": 2,
        "quadbench.loss": 2,
    }
    assert {name: calls.get(name, 0) for name in expected} == expected


def test_one_pass_of_each_workload_passes_the_benchmarks_checks(tmp_path, capsys):
    """At the reference seed, every check passes and the summary matches ``reference.json``.

    A change that moves a best rate, a status or a check, or a median by more
    than ``REFERENCE_RTOL``, fails here as well as in the benchmark.
    """
    workloads = _load("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    for name, workload in workloads.WORKLOADS.items():
        out = tmp_path / name
        codes = [cli.main(argv) for argv in workload.commands(workloads.REFERENCE_SEED, str(out))]
        assert codes == [cli.EXIT_OK] * len(codes), name
        checks = workload.checks(out) + workloads.compare_summary(reference[name], workload.summary(out))
        assert [check for check, passed in checks if not passed] == [], name
    capsys.readouterr()
