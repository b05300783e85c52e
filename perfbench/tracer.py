"""Boundary tracing for adamlab, done from outside the package.

:class:`Tracer` replaces the module-level names (and two class methods) that
one adamlab layer calls in another with timing wrappers, and puts the
original objects back on :meth:`Tracer.uninstall`. Nothing under ``src/`` is
edited: a wrapper works because the calling module looks the name up in its
own globals at call time.

Spans are timed with ``time.perf_counter``. Every span is aggregated in
memory by ``(name, parent)`` as ``[calls, total_s, self_s]``, where self time
is the span's duration minus the time of its wrapped child spans. Cell-level
and command-level spans are also kept one by one, so memory stays bounded
while a run makes about a million steps.
"""
from __future__ import annotations

import importlib
import math
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

#: names whose spans are also kept individually (cell and command level)
KEPT = frozenset(
    {
        "cli.main",
        "cli.write_csv",
        "quadbench.tune_and_compare",
        "quadbench.run_experiment",
        "filters.check_properties",
        "filters.decay_blindness",
        "filters.density_witness",
        "vi.vi_numeric_oracle",
    }
)


def _direction_span(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return f"optim.direction.{config.kind.value}"


def _size_of(index):
    """Work counter: the size of positional argument ``index``."""

    def count(args, kwargs, result):
        return len(args[index])

    return count


def _run_info(args, kwargs, result):
    return {"config_id": kwargs.get("config_id", args[7] if len(args) > 7 else ""), "diverged": bool(result.diverged)}


def _csv_info(args, kwargs, result):
    path, _header, rows = args
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


# (module, attribute, span name, span-name function, work counter, info function)
# A span-name function names the span from the call's arguments; a work
# counter adds to the span's "work" total; an info function records extra
# fields on an individually kept span.
PATCHES = (
    ("adamlab.cli", "tune_and_compare", "quadbench.tune_and_compare", None, None, None),
    ("adamlab.cli", "run_experiment", "quadbench.run_experiment", None, None, _run_info),
    ("adamlab.cli", "initial_point", "quadbench.initial_point", None, None, None),
    ("adamlab.cli", "_write_csv", "cli.write_csv", None, None, _csv_info),
    ("adamlab.cli", "filter_response", "filters.filter_response", None, _size_of(1), None),
    ("adamlab.cli", "check_properties", "filters.check_properties", None, None, None),
    ("adamlab.cli", "decay_blindness", "filters.decay_blindness", None, None, None),
    ("adamlab.cli", "density_witness", "filters.density_witness", None, None, None),
    ("adamlab.cli", "vi_numeric_oracle", "vi.vi_numeric_oracle", None, None, None),
    ("adamlab.cli", "vi_objective", "vi.vi_objective", None, None, None),
    ("adamlab.cli", "objective_batch", "vi.objective_batch", None, _size_of(1), None),
    ("adamlab.quadbench", "run_experiment", "quadbench.run_experiment", None, None, _run_info),
    ("adamlab.quadbench", "initial_point", "quadbench.initial_point", None, None, None),
    ("adamlab.quadbench", "stochastic_grad", "quadbench.stochastic_grad", None, None, None),
    ("adamlab.quadbench", "subset_gradient", "quadbench.subset_gradient", None, None, None),
    ("adamlab.quadbench", "direction", None, _direction_span, None, None),
    ("adamlab.quadbench", "apply_step", "optim.apply_step", None, None, None),
    ("adamlab.quadbench", "delta_estimate", "optim.delta_estimate", None, None, None),
    ("adamlab.quadbench", "lr_at", "core.lr_at", None, None, None),
    ("adamlab.quadbench.QuadraticProblem", "loss", "quadbench.loss", None, None, None),
    ("adamlab.core.EmaBuffer", "update", "core.EmaBuffer.update", None, None, None),
    ("adamlab.filters", "direction", None, _direction_span, None, None),
    ("adamlab.filters", "filter_response", "filters.filter_response", None, _size_of(1), None),
    ("adamlab.vi", "minimize_scalar", "vi.minimize_scalar", None, None, None),
    ("adamlab.vi", "vi_objective", "vi.vi_objective", None, None, None),
    ("adamlab.identities", "scalar_adam_trace", "identities.scalar_adam_trace", None, _size_of(0), None),
)


def _resolve(path: str):
    """Import ``path`` as a module, or as ``module.Class``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """Boundary spans for one process; install, run, uninstall, read."""

    def __init__(self) -> None:
        self.stack: list[list] = [["root", 0.0]]
        self.aggregate: dict[tuple[str, str], list] = {}
        self.work: dict[str, int] = {}
        self.kept: list[dict] = []
        self.missing: list[str] = []
        #: (owner, attribute, object) for every PATCHES entry, taken before any wrapping
        self._before: list[tuple[object, str, object]] = []

    def _close(self, span, frame, dur, info=None):
        """Charge a finished span to its parent and to the aggregate."""
        parent = self.stack[-1]
        parent[1] += dur
        entry = self.aggregate.get((span, parent[0]))
        if entry is None:
            entry = self.aggregate[(span, parent[0])] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - frame[1]
        if span in KEPT:
            self.kept.append({"name": span, "parent": parent[0], "s": dur, **(info or {})})

    def wrap(self, fn, name, name_of=None, count=None, info_of=None):
        stack, work, close = self.stack, self.work, self._close

        def wrapper(*args, **kwargs):
            span = name if name_of is None else name_of(args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
            if count is not None:
                work[span] = work.get(span, 0) + count(args, kwargs, result)
            close(span, frame, dur, None if info_of is None else info_of(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the caller, e.g. one ``cli.main`` command."""
        frame = [name, 0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            dur = perf_counter() - start
            self.stack.pop()
            self._close(name, frame, dur)

    def install(self) -> None:
        """Wrap every name in ``PATCHES``; a name that is not there goes to ``missing``."""
        for owner_path, attr, *_rest in PATCHES:
            try:
                owner = _resolve(owner_path)
            except (ImportError, AttributeError):
                owner = None
            self._before.append((owner, attr, None if owner is None else vars(owner).get(attr)))
        for (owner, attr, original), (owner_path, _attr, name, name_of, count, info_of) in zip(self._before, PATCHES):
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self.wrap(original, name, name_of, count, info_of))

    def uninstall(self) -> bool:
        """Put every original back; True when each name is what it was before :meth:`install`."""
        for owner, attr, original in reversed(self._before):
            if original is not None:
                setattr(owner, attr, original)
        restored = all(owner is None or vars(owner).get(attr) is original for owner, attr, original in self._before)
        self._before.clear()
        return restored

    def to_dict(self) -> dict:
        return {
            "aggregate": [[name, parent, *entry] for (name, parent), entry in self.aggregate.items()],
            "work": self.work,
            "kept": self.kept,
            "missing": self.missing,
        }


# ---------------------------------------------------------------------------
# per-layer metrics from a traced child's span dump


def _sums(trace: dict):
    calls, total, self_s = {}, {}, {}
    for name, _parent, n, tot, slf in trace["aggregate"]:
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + tot
        self_s[name] = self_s.get(name, 0.0) + slf
    return calls, total, self_s


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def _percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


#: counts that must repeat exactly across runs of one commit on one seed
EXACT_COUNTS = (
    "quadbench.steps",
    "quadbench.diverged_runs",
    "optim.direction.calls",
    "filters.filter_response.samples",
    "vi.vi_objective.calls_per_oracle",
    "cli.rows",
    "cli.write_csv.bytes",
)

DIRECTION_KINDS = ("sgd", "signum", "adameq", "adam")


def layer_metrics(trace: dict, delta_rows_written: int) -> dict[str, float]:
    """Per-layer numbers (µs, ms, s and counts) from one traced child.

    ``delta_rows_written`` is the number of variance-term snapshots that
    reached ``runs.csv``; it comes from the artifact, not from a span.
    """
    calls, total, self_s = _sums(trace)
    work = trace["work"]
    us = 1e6
    steps = sum(
        n
        for name, parent, n, _tot, _slf in trace["aggregate"]
        if name.startswith("optim.direction.") and parent == "quadbench.run_experiment"
    )
    runs = [span for span in trace["kept"] if span["name"] == "quadbench.run_experiment"]
    cells: dict[str, float] = {}
    for span in runs:
        cells[span["config_id"]] = cells.get(span["config_id"], 0.0) + span["s"] * 1e3
    writes = [span for span in trace["kept"] if span["name"] == "cli.write_csv"]
    oracles = calls.get("vi.vi_numeric_oracle", 0)
    objective_in_oracle = sum(
        n for name, parent, n, _t, _s in trace["aggregate"] if name == "vi.vi_objective" and parent == "vi.minimize_scalar"
    )
    direction_calls = sum(n for name, n in calls.items() if name.startswith("optim.direction."))
    samples = work.get("filters.filter_response", 0)

    out = {
        "quadbench.run_experiment.self_us_per_step": _ratio(self_s.get("quadbench.run_experiment", 0.0), steps, us),
        "quadbench.stochastic_grad.self_us_per_step": _ratio(self_s.get("quadbench.stochastic_grad", 0.0), steps, us),
        "quadbench.subset_gradient.us_per_step": _ratio(total.get("quadbench.subset_gradient", 0.0), steps, us),
        "quadbench.loss.us_per_step": _ratio(total.get("quadbench.loss", 0.0), steps, us),
        "quadbench.cell_ms_p50": _percentile(list(cells.values()), 50),
        "quadbench.cell_ms_p99": _percentile(list(cells.values()), 99),
        "quadbench.tune_and_compare.s": total.get("quadbench.tune_and_compare", 0.0),
        "quadbench.steps": steps,
        "quadbench.diverged_runs": sum(span["diverged"] for span in runs),
        "quadbench.initial_point.calls": calls.get("quadbench.initial_point", 0),
        "quadbench.delta_kept_ratio": _ratio(delta_rows_written, calls.get("optim.delta_estimate", 0)),
    }
    for kind in DIRECTION_KINDS:
        name = f"optim.direction.{kind}"
        out[f"{name}.self_us_per_call"] = _ratio(self_s.get(name, 0.0), calls.get(name, 0), us)
    out.update(
        {
            "optim.direction.calls": direction_calls,
            "optim.apply_step.us_per_call": _ratio(total.get("optim.apply_step", 0.0), calls.get("optim.apply_step", 0), us),
            "optim.delta_estimate.us_per_call": _ratio(
                total.get("optim.delta_estimate", 0.0), calls.get("optim.delta_estimate", 0), us
            ),
            "optim.delta_estimate.calls": calls.get("optim.delta_estimate", 0),
            "core.EmaBuffer.update.us_per_call": _ratio(
                total.get("core.EmaBuffer.update", 0.0), calls.get("core.EmaBuffer.update", 0), us
            ),
            "core.EmaBuffer.update.calls": calls.get("core.EmaBuffer.update", 0),
            "core.lr_at.us_per_call": _ratio(total.get("core.lr_at", 0.0), calls.get("core.lr_at", 0), us),
            "filters.filter_response.self_us_per_sample": _ratio(self_s.get("filters.filter_response", 0.0), samples, us),
            "filters.filter_response.samples": samples,
            "filters.check_properties.s": total.get("filters.check_properties", 0.0),
            "filters.decay_blindness.s": total.get("filters.decay_blindness", 0.0),
            "filters.density_witness.s": total.get("filters.density_witness", 0.0),
            "vi.vi_numeric_oracle.ms_per_call": _ratio(total.get("vi.vi_numeric_oracle", 0.0), oracles, 1e3),
            "vi.vi_objective.calls_per_oracle": _ratio(objective_in_oracle, oracles),
            "vi.minimize_scalar.calls_per_oracle": _ratio(calls.get("vi.minimize_scalar", 0), oracles),
            "vi.objective_batch.us_per_candidate": _ratio(
                total.get("vi.objective_batch", 0.0), work.get("vi.objective_batch", 0), us
            ),
            "identities.scalar_adam_trace.us_per_sample": _ratio(
                total.get("identities.scalar_adam_trace", 0.0), work.get("identities.scalar_adam_trace", 0), us
            ),
            "cli.self_s": self_s.get("cli.main", 0.0),
            "cli.write_csv.s": total.get("cli.write_csv", 0.0),
            "cli.rows": sum(span["rows"] for span in writes),
            "cli.write_csv.bytes": sum(span["bytes"] for span in writes),
        }
    )
    return out


def median_metrics(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}
