"""CLI harness: config round-trips, artifact formats, determinism, exit codes."""
import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamlab import cli
from adamlab.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    QuadConfig,
    SignalConfig,
    SweepConfig,
    fmt_float,
    main,
    parse_config,
    serialize_config,
)
from adamlab.filters import FILTERS
from adamlab.optim import OptimizerKind
from adamlab.quadbench import Layout, RunRecord, derive_seed, make_config_id

FAST_QUAD = [
    "quad",
    "--layout", "het",
    "--optim", "adameq",
    "--optim", "signum",
    "--steps", "50",
    "--seeds", "2",
    "--lr", "0.0078125",
]


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "config",
        [
            QuadConfig(),
            QuadConfig(layouts=("hom",), seeds=(3, 5, 8), steps=123),
            SignalConfig(),
            SignalConfig(filters=("sign",), beta=0.8, length=77, decay=0.0),
            SweepConfig(),
            SweepConfig(equal_betas=True, kappas=(0.5, 2.0), lr_grid=(0.25, 0.125)),
            QuadConfig(lr_grid=(2.0**-9,)),  # the grid that ``--lr`` sets
        ],
    )
    def test_parse_serialize_identity(self, config):
        assert parse_config(serialize_config(config), config.command) == config

    def test_rejects_wrong_schema_version(self):
        text = serialize_config(QuadConfig()).replace('"schema_version": 1', '"schema_version": 9')
        with pytest.raises(ValueError):
            parse_config(text, "quad")

    def test_rejects_wrong_command(self):
        with pytest.raises(ValueError):
            parse_config(serialize_config(QuadConfig()), "sweep")

    def test_rejects_unknown_field(self):
        text = json.dumps({"schema_version": 1, "command": "quad", "bogus": 3})
        with pytest.raises(ValueError):
            parse_config(text, "quad")


CONFIG_TYPES = (QuadConfig, SignalConfig, SweepConfig)

#: small valid configs, so a wrongly accepted field costs milliseconds
FAST_CONFIGS = {
    "quad": QuadConfig(layouts=("het",), optimizers=("sgd",), lr_grid=(0.01,), seeds=(0,), steps=2),
    "signal": SignalConfig(filters=("sign",), length=10, property_trials=1),
    "sweep": SweepConfig(optimizers=("signum",), kappas=(1.0,), lr_grid=(0.01,), seeds=(0,), steps=2),
}

NON_NUMBER = st.one_of(st.booleans(), st.text(max_size=5), st.lists(st.integers(), max_size=2))


LAYOUTS = [kind.value for kind in Layout]
#: the config fields that hold names, and the names they take
NAME_FIELDS = {
    "layouts": LAYOUTS,
    "layout": LAYOUTS,
    "optimizers": [kind.value for kind in OptimizerKind],
    "filters": list(FILTERS),
}


def _values(hint, names=None):
    """Well-typed values for a config field; lists are nonempty without repeats, and names are among ``names``."""
    if typing.get_origin(hint) is tuple:
        return st.lists(_values(typing.get_args(hint)[0], names), min_size=1, max_size=4, unique=True).map(tuple)
    if names is not None:
        return st.sampled_from(names)
    return {
        int: st.integers(),
        float: st.floats(allow_nan=False),
        str: st.text(max_size=8),
        bool: st.booleans(),
    }[hint]


def _wrong_values(hint):
    """Values of the wrong JSON type for a config field."""
    if typing.get_origin(hint) is tuple:
        return st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=5)
        )
    return {
        int: st.one_of(st.text(max_size=5), st.floats(allow_nan=False), st.booleans()),
        float: NON_NUMBER,
        str: st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans()),
        bool: st.one_of(st.integers(), st.text(max_size=5), st.none()),
    }[hint]


def _configs(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(
        cls,
        **{
            f.name: _values(hints[f.name], NAME_FIELDS.get(f.name))
            for f in dataclasses.fields(cls)
            if f.name not in ("schema_version", "command")
        },
    )


def _run(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr text."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def _run_config(tmp_dir, command: str, data: dict) -> tuple[int, str]:
    path = tmp_dir / "config.json"
    path.write_text(json.dumps(data))
    return _run([command, "--config", str(path), "--out", str(tmp_dir / "out")])


def _assert_usage_error(rc: int, err: str) -> None:
    assert rc == EXIT_USAGE
    assert err.count("\n") == 1 and "Traceback" not in err, err


def _with_field(command: str, name: str, value) -> dict:
    data = json.loads(serialize_config(FAST_CONFIGS[command]))
    data[name] = value
    return data


class TestTypedConfigLoader:
    @settings(max_examples=60)
    @given(st.one_of(*(_configs(cls) for cls in CONFIG_TYPES)))
    def test_generated_configs_round_trip(self, config):
        assert parse_config(serialize_config(config), config.command) == config

    @settings(max_examples=60)
    @given(data=st.data())
    def test_wrong_field_type_exits_2_with_one_line(self, tmp_path_factory, data):
        cls = data.draw(st.sampled_from(CONFIG_TYPES))
        field = data.draw(st.sampled_from(dataclasses.fields(cls)))
        value = data.draw(_wrong_values(typing.get_type_hints(cls)[field.name]))
        command = cls().command
        rc, err = _run_config(tmp_path_factory.mktemp("cfg"), command, _with_field(command, field.name, value))
        _assert_usage_error(rc, err)

    @pytest.mark.parametrize(
        "command, name, value",
        [
            ("sweep", "kappas", "12"),  # once split into the kappa grid (1, 2)
            ("quad", "steps", "5"),  # once a TypeError traceback
            ("quad", "seeds", 3),
            ("quad", "steps", 5.0),
            ("quad", "batch_size", True),
            ("signal", "beta", "0.9"),
            ("sweep", "equal_betas", 1),
        ],
    )
    def test_pinned_wrong_types(self, tmp_path, command, name, value):
        rc, err = _run_config(tmp_path, command, _with_field(command, name, value))
        _assert_usage_error(rc, err)
        assert repr(name) in err

    def test_ints_widen_to_float_fields(self):
        text = json.dumps({"schema_version": 1, "beta": 1, "lr_grid": [1, 0.5]})
        config = parse_config(text, "quad")
        assert type(config.beta) is float and config.lr_grid == (1.0, 0.5)
        assert all(type(lr) is float for lr in config.lr_grid)


#: the message of numpy's MemoryError for an array that does not fit
NUMPY_OOM = "Unable to allocate 7.28 TiB for an array with shape (1000000000000, 1) and data type float64"


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["quad", "--seeds", "0", "--steps", "5"],
            ["sweep", "--seeds", "0", "--steps", "5"],
            ["quad", "--lr", "nan", "--steps", "5", "--seeds", "1"],
            ["quad", "--lr", "inf", "--steps", "5", "--seeds", "1"],
            ["signal", "--frequency", "0", "--length", "50"],
            ["signal", "--frequency", "-0.5", "--length", "50"],
            ["quad", "--optim", "bogus"],
            ["sweep", "--jobs", "0", "--steps", "5"],
            ["sweep", "--jobs", "-3", "--steps", "5"],
            # adameq's squares of such a signal overflow or underflow
            ["signal", "--amplitude", "1e200", "--length", "50"],
            ["signal", "--amplitude", "1e-200", "--length", "50"],
            # sweep runs in one process; --jobs stays only as the benchmark's pinned "--jobs 1"
            ["sweep", "--jobs", "2", "--steps", "5"],
            ["signal", "--filter", "bogus", "--length", "50"],
            ["sweep", "--optim", "bogus", "--steps", "5"],
            # more seeds than range() can count: rejected before anything is allocated
            ["quad", "--seeds", "100000000000000000000", "--steps", "5"],
            ["sweep", "--seeds", "100000000000000000000", "--steps", "5"],
            # a repeated value, which would run or write one thing twice
            ["quad", "--optim", "sgd", "--optim", "sgd", "--steps", "5", "--seeds", "1"],
            ["signal", "--filter", "sign", "--filter", "sign", "--length", "50"],
            ["sweep", "--kappas", "1", "1", "--steps", "5", "--seeds", "1"],
            # distinct kappas that give one beta
            ["sweep", "--kappas", "1", "1.0000000000000002", "--optim", "signum", "--steps", "5", "--seeds", "1"],
        ],
    )
    def test_flag_values_exit_2(self, tmp_path, argv):
        out = tmp_path / "out"
        _assert_usage_error(*_run(argv + ["--out", str(out)]))
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, name, value",
        [
            ("quad", "lr_grid", [0.01, float("nan")]),
            ("quad", "seeds", []),
            ("sweep", "seeds", []),
            ("quad", "layouts", []),
            ("sweep", "optimizers", []),
            ("signal", "filters", []),
            ("quad", "base_seed", 2**64),
            # names are checked with the types, before any work
            ("quad", "optimizers", ["sgd", "bogus"]),
            ("quad", "layouts", ["both"]),
            ("sweep", "layout", "both"),
            ("sweep", "optimizers", ["bogus"]),
            ("signal", "filters", ["sign", "bogus"]),
            # integers beyond the float range in float fields
            pytest.param("quad", "beta", 10**400, id="quad-beta-10**400"),
            pytest.param("quad", "lr_grid", [10**400], id="quad-lr_grid-[10**400]"),
            ("signal", "property_trials", 0),
            ("signal", "property_trials", -3),
            # the property checks' column matrix is made before the first draw, so these fail at once:
            # beyond memory, beyond numpy's size limit, beyond its dimension limit
            pytest.param("signal", "property_trials", 10**9, id="signal-property_trials-10**9"),
            pytest.param("signal", "property_trials", 10**15, id="signal-property_trials-10**15"),
            pytest.param("signal", "property_trials", 10**29, id="signal-property_trials-10**29"),
            # repeated values
            ("quad", "layouts", ["het", "het"]),
            ("quad", "seeds", [0, 0]),
            ("quad", "lr_grid", [0.01, 0.01]),
        ],
    )
    def test_config_values_exit_2(self, tmp_path, command, name, value):
        rc, err = _run_config(tmp_path, command, _with_field(command, name, value))
        _assert_usage_error(rc, err)
        if name == "property_trials":
            assert err.startswith("config error: field 'property_trials' "), err
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_config_exits_2(self, tmp_path):
        # json.loads raises RecursionError long before it reads all 200,000 brackets
        path = tmp_path / "config.json"
        path.write_text("[" * 200_000)
        rc, err = _run(["quad", "--config", str(path), "--out", str(tmp_path / "out")])
        _assert_usage_error(rc, err)
        assert "nested too deeply" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, name, message",
        [
            (["quad", "--steps", "1000000000000", "--seeds", "1", "--optim", "sgd", "--layout", "het"], "tune_and_compare", NUMPY_OOM),
            (["signal", "--length", "1000000000000"], "gen_signal", NUMPY_OOM),
            (["sweep", "--steps", "1000000000000", "--seeds", "1"], "run_cell", NUMPY_OOM),
            # tuple(range(seeds)) raises Python's MemoryError, which has no message
            (["quad", "--seeds", "100000000000"], "_load_config", ""),
        ],
    )
    def test_out_of_memory_exits_2(self, tmp_path, monkeypatch, argv, name, message):
        # the function on the path raises instead of allocating
        import adamlab.cli as cli

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, name, out_of_memory)
        out = tmp_path / "out"
        rc, err = _run(argv + ["--out", str(out)])
        _assert_usage_error(rc, err)
        assert err == f"out of memory: {message or 'the requested sizes are too large'}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["quad", "--steps", "5", "--seeds", "1"], ["sweep", "--steps", "5", "--seeds", "1"]])
    def test_degenerate_rotation_exits_2(self, tmp_path, monkeypatch, argv):
        # every draw of the problem's generator is rank one: A A^T has a double zero eigenvalue
        monkeypatch.setattr(np.random, "default_rng", lambda seed: types.SimpleNamespace(standard_normal=np.ones))
        out = tmp_path / "out"
        rc, err = _run(argv + ["--out", str(out)])
        _assert_usage_error(rc, err)
        assert err == "invalid configuration: could not sample a non-degenerate rotation in 100 draws\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["quad", "--steps", "5", "--seeds", "1"],
            ["signal", "--length", "50"],
            ["sweep", "--steps", "5"],
            ["verify", "--suite", "equalbeta"],  # draws no random numbers: rejected before any suite runs
        ],
    )
    def test_seed_outside_64_bits_exits_2(self, tmp_path, argv, seed):
        # masked to 64 bits, -1 would replay the streams of 2**64 - 1
        out = tmp_path / "out"
        _assert_usage_error(*_run(argv + ["--seed", str(seed), "--out", str(out)]))
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, name, value",
        [
            ("quad", "fixed_lr", 0.01),
            ("quad", "warmup_fraction", 0.1),
            ("sweep", "warmup_fraction", 0.1),
            ("signal", "property_tol", 1e-12),
            ("signal", "blindness_tol", 0.05),
        ],
    )
    def test_deleted_config_fields_exit_2(self, tmp_path, command, name, value):
        # version-1 files that set these fields once loaded; now no config file can loosen a check
        rc, err = _run_config(tmp_path, command, _with_field(command, name, value))
        _assert_usage_error(rc, err)
        assert f"unknown config field {name!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["verify", "quad", "signal"])
    def test_jobs_is_a_sweep_only_flag(self, command, capsys):
        assert main([command, "--jobs", "2"]) == EXIT_USAGE
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


#: float flag values at the edges of what a double holds, and momentum at or near 1
EDGE_FLOATS = ("nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "0", "-1", "1", "0.9999999999999999", "0.5")
#: batch sizes around the nine rows of the quadratics
BATCH_SIZES = ("-1", "0", "1", "3", "9", "10")


def _flag(name: str, values):
    """``[--name=value]`` for one of ``values``, or (twice as likely) ``[]``; ``=`` keeps ``-1e308`` a value."""
    return st.one_of(st.just([]), st.just([]), st.sampled_from(values).map(lambda value: [f"--{name}={value}"]))


def _size(name: str, high: int):
    """``[--name=N]``: a few steps, seeds or samples, or (a third as likely) 0 or -1."""
    sizes = st.one_of(st.integers(1, high), st.integers(1, high), st.sampled_from((0, -1)))
    return sizes.map(lambda value: [f"--{name}={value}"])


SEED_FLAG = _flag("seed", ("-1", "0", "18446744073709551616"))
CLI_ARGV = st.one_of(
    st.tuples(
        st.just(["quad"]),
        _size("steps", 3),
        _size("seeds", 2),
        _flag("lr", EDGE_FLOATS),
        _flag("beta", EDGE_FLOATS),
        _flag("batch-size", BATCH_SIZES),
        _flag("layout", ("het", "hom", "both")),
        _flag("optim", [kind.value for kind in OptimizerKind]),
        SEED_FLAG,
    ),
    st.tuples(
        st.just(["signal"]),
        _size("length", 40),
        _flag("beta", EDGE_FLOATS),
        _flag("amplitude", EDGE_FLOATS),
        _flag("frequency", EDGE_FLOATS),
        _flag("decay", EDGE_FLOATS),
        _flag("filter", list(FILTERS)),
        SEED_FLAG,
    ),
    st.tuples(
        st.just(["sweep"]),
        _size("steps", 3),
        _size("seeds", 2),
        _flag("beta-base", EDGE_FLOATS),
        _flag("kappas", EDGE_FLOATS),
        _flag("batch-size", BATCH_SIZES),
        _flag("optim", [kind.value for kind in OptimizerKind]),
        st.sampled_from([[], ["--equal-betas"]]),
        SEED_FLAG,
    ),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=150)
@given(argv=CLI_ARGV)
def test_generated_flags_exit_0_or_2_with_one_line(tmp_path_factory, argv):
    """The CLI contract over generated argv: an artifact, or exit 2 with one line and no ``--out``.

    Any other exception escapes ``main`` and fails the test, and so does a
    numpy warning, which the test settings raise as an error.
    """
    out = tmp_path_factory.mktemp("contract") / "out"
    rc, err = _run(argv + ["--out", str(out)])
    if rc == EXIT_OK:
        assert any(out.iterdir())
    else:
        _assert_usage_error(rc, err)
        assert not out.exists()


def test_float_format_round_trips():
    for x in (0.1, 2.0**-13, 0.95, 1.0 / 3.0, 12345.678901234567):
        assert float(fmt_float(x)) == x
    assert fmt_float(None) == ""


#: values a float field of an artifact can hold, the edge cases always among them
FIELD_FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-320, 1e308, 1.7976931348623157e308, -1.7976931348623157e308]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**20), 10**20),
)
COUNTS = st.integers(0, 2**64 - 1)
LAYOUTS = st.sampled_from([layout.value for layout in Layout])
OPTIMIZERS = st.sampled_from([kind.value for kind in OptimizerKind])
STATUSES = st.sampled_from(["ok", "partial", "all_diverged"])
#: config ids as the package makes them, and ids whose ``%`` a format string would read as a directive
CONFIG_IDS = st.builds(make_config_id, LAYOUTS, OPTIMIZERS, FIELD_FLOATS) | st.sampled_from(
    ["het:adameq:lr=100%", "hom:sgd:lr=%s%d%%", "het:adam:lr=%(x)s:b1=%.17g"]
)


def _csv_writer_line(*fields) -> str:
    """The line ``csv.writer`` writes for the row ``fields``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _g(x) -> str:
    """A float field as ``fmt_float`` formats it: 17 significant digits."""
    return format(x, ".17g")


def _columns(rows, width: int) -> list[list]:
    """``rows`` as ``width`` columns (each empty for no rows)."""
    return [list(column) for column in zip(*rows)] if rows else [[] for _ in range(width)]


class TestCsvLines:
    """Each artifact's block of lines, rendered from whole columns, is what ``csv.writer`` writes row by row."""

    @settings(max_examples=60)
    @given(
        config_id=CONFIG_IDS,
        seed=COUNTS,
        losses=st.lists(FIELD_FLOATS, max_size=5),
        with_deltas=st.booleans(),
        data=st.data(),
    )
    def test_runs_lines(self, config_id, seed, losses, with_deltas, data):
        losses = np.array(losses, dtype=float)
        deltas = None
        if with_deltas:
            rows = st.lists(st.tuples(*[FIELD_FLOATS] * 3), min_size=losses.size, max_size=losses.size)
            deltas = np.array(data.draw(rows), dtype=float).reshape(-1, 3)
        record = RunRecord(config_id, seed, losses, deltas)
        expected = []
        for step, loss in enumerate(losses.tolist()):
            blocks = ["", "", ""] if deltas is None else map(_g, deltas[step].tolist())
            expected.append(_csv_writer_line(config_id, seed, step, _g(loss), *blocks))
        assert cli._run_lines(record) == expected

    @settings(max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(OPTIMIZERS, LAYOUTS, st.one_of(st.none(), FIELD_FLOATS), *[FIELD_FLOATS] * 3, STATUSES),
            max_size=6,
        )
    )
    def test_summary_line(self, rows):
        label, layout, best_lr, *stats, status = _columns(rows, 7)
        lines = cli._csv_lines(cli._SUMMARY_LINE, label, layout, list(map(fmt_float, best_lr)), *stats, status)
        expected = [
            _csv_writer_line(label, layout, "" if best is None else _g(best), *map(_g, stats), status)
            for label, layout, best, *stats, status in rows
        ]
        assert lines == expected

    @settings(max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(LAYOUTS, OPTIMIZERS, *[FIELD_FLOATS] * 3, COUNTS, *[FIELD_FLOATS] * 3, COUNTS, STATUSES),
            max_size=6,
        )
    )
    def test_sweep_line(self, rows):
        lines = cli._csv_lines(cli._SWEEP_LINE, *_columns(rows, 11))
        floats = {2, 3, 4, 6, 7, 8}  # the rate, the two betas and the three loss quantiles
        expected = [_csv_writer_line(*(_g(f) if i in floats else f for i, f in enumerate(row))) for row in rows]
        assert lines == expected

    @settings(max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(list(FILTERS)), FIELD_FLOATS, COUNTS, FIELD_FLOATS, FIELD_FLOATS), max_size=6
        )
    )
    def test_responses_line(self, rows):
        name, beta, k, x, response = _columns(rows, 5)
        lines = cli._csv_lines(cli._RESPONSES_LINE, name, list(map(fmt_float, beta)), k, x, response)
        expected = [_csv_writer_line(name, _g(beta), k, _g(x), _g(r)) for name, beta, k, x, r in rows]
        assert lines == expected

    @settings(max_examples=100)
    @given(rate=st.floats(allow_nan=True, allow_infinity=True))
    def test_config_ids_never_need_quoting(self, rate):
        # csv.writer quotes a field only for a delimiter, a quote or a line break, so none may occur
        for layout in Layout:
            for kind in OptimizerKind:
                config_id = make_config_id(layout.value, kind.value, rate)
                assert not set(config_id) & set(',"\r\n'), config_id


class TestVerifyCommand:
    def test_prop1_suite_passes(self, capsys, tmp_path):
        rc = main(["verify", "--suite", "prop1", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert all(c["max_abs_residual"] <= 1e-9 for c in report["suites"]["prop1"]["checks"])
        on_disk = json.loads((tmp_path / "verify.json").read_text())
        assert on_disk == report

    def test_prop1_suite_matches_one_signal_at_a_time(self):
        # the suite checks its 50 signals as columns of one trace; the old loop drew and checked them one by one
        from adamlab.cli import BETA_GRID_PRIMARY, _suite_prop1
        from adamlab.identities import check_prop1

        rng = np.random.default_rng(derive_seed(5, "verify", "prop1"))
        expected = []
        for beta in BETA_GRID_PRIMARY:
            residuals = [check_prop1(rng.standard_normal(1000), beta) for _ in range(10)]
            expected.append(max(0.0, *(direction for direction, _ in residuals)))
            expected.append(max(0.0, *(variance for _, variance in residuals)))
        assert [check["max_abs_residual"] for check in _suite_prop1(5)] == expected

    def test_trust_suite_passes(self, capsys):
        assert main(["verify", "--suite", "trust"]) == EXIT_OK
        capsys.readouterr()

    def test_equalbeta_suite_passes(self, capsys):
        assert main(["verify", "--suite", "equalbeta"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in report["suites"]["equalbeta"]["checks"]]
        assert any("completion_margin" in n for n in names)

    @pytest.mark.parametrize(
        "suite, name, fake, failing",
        [
            (
                "prop1",
                "check_prop1",
                # one call checks every beta's signals as columns: one residual per column
                lambda signal, beta: (np.full(np.shape(beta), math.nan), np.zeros(np.shape(beta))),
                {"direction_forms"},
            ),
            ("trust", "mollified_direction", lambda m, var: math.nan, {"trust_region_minimizer_matches_mollified_sign"}),
            ("vi", "vi_objective", lambda *args: math.nan, {"closed_form_objective_gap", "closed_form_beats_random_candidates"}),
            ("vi", "objective_batch", lambda *args: np.full(2000, np.nan), {"closed_form_beats_random_candidates"}),
            (
                "vi",
                "vi_numeric_oracle",
                lambda prior, g, lam: types.SimpleNamespace(mean=math.nan, variance=math.nan),
                {"closed_form_vs_oracle_parameters", "closed_form_objective_gap"},
            ),
            (
                "signal",
                "check_properties",
                lambda config, trials, *, rng: {"causal": math.nan, "scaling": 0.0, "odd": 0.0, "bounded": 0.0},
                {f"{name}_causal" for name in FILTERS},
            ),
            ("signal", "decay_blindness", lambda beta, spec: (math.nan, 0), {"decay_blindness_damped_sine"}),
        ],
        ids=["prop1", "trust", "vi-objective", "vi-candidates", "vi-oracle", "signal-properties", "signal-blindness"],
    )
    def test_nan_residual_fails_its_check(self, monkeypatch, capsys, suite, name, fake, failing):
        # negative control: a running max(worst, nan) kept the old value, so NaN passed
        import adamlab.cli as cli

        monkeypatch.setattr(cli, name, fake)
        assert main(["verify", "--suite", suite]) == EXIT_CHECK_FAILURE
        checks = json.loads(capsys.readouterr().out)["suites"][suite]["checks"]
        failed = {c["name"].split("_beta=")[0] for c in checks if not c["passed"]}
        assert failed == failing
        assert all(math.isnan(c["max_abs_residual"]) for c in checks if not c["passed"])

    def test_nan_density_witness_fails_its_checks(self, monkeypatch, capsys):
        # negative control: a NaN response is no witness for any target
        monkeypatch.setattr(cli, "density_witness", lambda target, k, beta: (np.zeros(k + 1), math.nan))
        assert main(["verify", "--suite", "signal"]) == EXIT_CHECK_FAILURE
        checks = json.loads(capsys.readouterr().out)["suites"]["signal"]["checks"]
        failed = {c["name"]: c["achieved"] for c in checks if not c["passed"]}
        assert failed.keys() == {f"density_witness_target={t:g}" for t in (1.0, 0.37, -0.8, 0.0)}
        assert all(math.isnan(value) for value in failed.values())

    def test_oracle_error_fails_its_checks(self, monkeypatch, capsys):
        # negative control: an oracle that cannot bracket its optimum is a failed check, not a traceback
        import adamlab.cli as cli
        from adamlab.vi import OracleError

        def no_bracket(prior, g, lam):
            raise OracleError("bracket exhausted")

        monkeypatch.setattr(cli, "vi_numeric_oracle", no_bracket)
        assert main(["verify", "--suite", "vi"]) == EXIT_CHECK_FAILURE
        checks = json.loads(capsys.readouterr().out)["suites"]["vi"]["checks"]
        failed = {c["name"]: c["max_abs_residual"] for c in checks if not c["passed"]}
        assert failed.keys() == {"closed_form_vs_oracle_parameters", "closed_form_objective_gap"}
        assert all(math.isnan(value) for value in failed.values())


def _python_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout of adamlab."""
    import adamlab

    src = str(Path(adamlab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this checkout of adamlab."""
    return subprocess.run([sys.executable, *args], env=_python_env(), capture_output=True, text=True)


class TestStartup:
    def test_no_command_imports_scipy(self, tmp_path):
        # the VI oracle's 1-D search lives in the package: numpy is the only dependency
        commands = [
            ["verify", "--suite", "all", "--out", str(tmp_path / "verify")],
            FAST_QUAD + ["--out", str(tmp_path / "quad")],
            ["sweep", "--steps", "20", "--seeds", "1", "--out", str(tmp_path / "sweep")],
            ["signal", "--length", "100", "--out", str(tmp_path / "signal")],
        ]
        done = _run_python(
            "-c",
            "import contextlib, io, sys\n"
            "from adamlab.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    print(code)\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
        )
        assert done.stdout.split("\n") == ["0", "0", "0", "0", "[]", ""], done.stderr

    def test_tuning_commands_import_no_numpy_ma(self, tmp_path):
        # np.median and np.quantile import numpy.ma on their first call: about 2 MB and 4.5 ms per process
        commands = [
            FAST_QUAD + ["--out", str(tmp_path / "quad")],
            ["sweep", "--steps", "20", "--seeds", "3", "--out", str(tmp_path / "sweep")],
        ]
        done = _run_python(
            "-c",
            "import contextlib, io, sys\n"
            "from adamlab.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    print(code)\n"
            "print('numpy.ma' in sys.modules)",
        )
        assert done.stdout.split("\n") == ["0", "0", "False", ""], done.stderr


class TestWarnings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["quad", "--lr", "1e300", "--steps", "50", "--seeds", "2"],
            ["signal", "--decay", "1e308"],
            # the scheduled rates of a 1e308 peak overflow to inf
            ["quad", "--lr", "1e308", "--steps", "20", "--seeds", "1", "--optim", "sgd"],
        ],
    )
    def test_handled_overflow_prints_no_warning(self, tmp_path, argv):
        # a diverging quad run ends as non_finite, and exp(-inf) = 0 is the decayed signal
        done = _run_python("-m", "adamlab.cli", *argv, "--out", str(tmp_path))
        assert done.returncode == EXIT_OK
        assert done.stderr.startswith(f"wrote {tmp_path}") and done.stderr.count("\n") == 1, done.stderr

    @pytest.mark.parametrize(
        "flag, value",
        [("--frequency", "inf"), ("--frequency", "1e308"), ("--amplitude", "inf"), ("--decay", "inf")],
    )
    def test_non_finite_signal_prints_one_line(self, tmp_path, flag, value):
        # a separate process, since pytest captures warnings raised in-process
        out = tmp_path / "out"
        done = _run_python("-m", "adamlab.cli", "signal", "--length", "20", flag, value, "--out", str(out))
        assert done.returncode == EXIT_USAGE
        assert done.stderr == "invalid configuration: signal contains non-finite entries\n"
        assert not out.exists()


class TestQuadCommand:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(FAST_QUAD + ["--out", str(out1)]) == EXIT_OK
        assert main(FAST_QUAD + ["--out", str(out2)]) == EXIT_OK
        capsys.readouterr()
        for name in ("runs.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        lines = (out1 / "runs.csv").read_text().splitlines()
        assert lines[0] == "config_id,seed,step,loss,delta_b1,delta_b2,delta_b3"
        # 2 optimizers x 2 seeds x 50 steps
        assert len(lines) == 1 + 2 * 2 * 50
        first = lines[1].split(",")
        assert first[0].startswith("het:adameq:lr=")
        float(first[3])  # loss parses
        # signum rows carry empty delta columns
        signum_row = next(l for l in lines[1:] if ":signum:" in l).split(",")
        assert signum_row[4:] == ["", "", ""]

        summary = (out1 / "summary.csv").read_text().splitlines()
        assert summary[0] == "optimizer,layout,best_lr,median_final,q25,q75,status"
        assert len(summary) == 3
        assert all(row.endswith(",ok") for row in summary[1:])

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = QuadConfig(
            layouts=("hom",),
            optimizers=("sgd",),
            lr_grid=(2.0**-12,),
            seeds=(0,),
            steps=30,
        )
        path = tmp_path / "quad.json"
        path.write_text(serialize_config(config))
        rc = main(["quad", "--config", str(path), "--steps", "10", "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert rc == EXIT_OK
        lines = (tmp_path / "o" / "runs.csv").read_text().splitlines()
        assert len(lines) == 1 + 10  # flag overrode steps
        assert lines[1].startswith("hom:sgd:")

    def test_lr_flag_is_a_one_rate_grid(self, tmp_path, capsys):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"schema_version": 1, "lr_grid": [0.0078125]}))
        argv = [arg for arg in FAST_QUAD if arg not in ("--lr", "0.0078125")]
        assert main(FAST_QUAD + ["--out", str(tmp_path / "flag")]) == EXIT_OK
        assert main(argv + ["--config", str(path), "--out", str(tmp_path / "grid")]) == EXIT_OK
        capsys.readouterr()
        for name in ("runs.csv", "summary.csv"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "grid" / name).read_bytes()

    def test_zero_lr_writes_constant_loss_trace(self, tmp_path, capsys):
        rc = main(
            [
                "quad", "--layout", "hom", "--optim", "sgd", "--lr", "0",
                "--steps", "20", "--seeds", "1", "--out", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert rc == EXIT_OK
        rows = (tmp_path / "runs.csv").read_text().splitlines()[1:]
        losses = {row.split(",")[3] for row in rows}
        assert len(rows) == 20
        assert len(losses) == 1  # every step reports the starting loss

    def test_missing_config_file_is_usage_error(self, capsys):
        assert main(["quad", "--config", "/nonexistent.json"]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_optimizer_is_usage_error(self, capsys, tmp_path):
        rc = main(["quad", "--optim", "nope", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == EXIT_USAGE

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(FAST_QUAD + ["--out", str(blocker)])
        capsys.readouterr()
        assert rc == EXIT_IO


class TestSignalCommand:
    def test_default_artifacts(self, tmp_path, capsys):
        rc = main(["signal", "--out", str(tmp_path), "--length", "200"])
        capsys.readouterr()
        assert rc == EXIT_OK
        lines = (tmp_path / "responses.csv").read_text().splitlines()
        assert lines[0] == "filter,beta,k,input,response"
        assert len(lines) == 1 + 4 * 200
        payload = json.loads((tmp_path / "signal_properties.json").read_text())
        assert payload["decay_blindness"]["passed"] is True
        assert set(payload["properties"]) == {"sign", "adameq", "signum", "emasign"}
        assert all(p["passed"] for p in payload["properties"].values())

    def test_sign_filter_square_wave(self, tmp_path, capsys):
        rc = main(
            ["signal", "--out", str(tmp_path), "--filter", "sign", "--length", "300"]
        )
        capsys.readouterr()
        assert rc == EXIT_OK
        rows = (tmp_path / "responses.csv").read_text().splitlines()[1:]
        values = {row.split(",")[4] for row in rows}
        assert values <= {"-1", "0", "1"}

    def test_tiny_frequency_burns_in_the_whole_signal(self, tmp_path, capsys):
        # 2*pi/frequency overflows to inf; the burn-in once raised OverflowError rounding it up.
        # The amplitude keeps the signal's peak inside the range adameq accepts.
        rc = main(["signal", "--frequency", "1e-308", "--amplitude", "1e300", "--length", "50", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == EXIT_OK
        assert len((tmp_path / "responses.csv").read_text().splitlines()) == 1 + 4 * 50
        payload = json.loads((tmp_path / "signal_properties.json").read_text())
        assert payload["decay_blindness"]["burn_in"] == 49

    def test_zero_decay_response_is_periodic(self, tmp_path, capsys):
        rc = main(
            [
                "signal", "--out", str(tmp_path), "--filter", "adameq",
                "--decay", "0", "--frequency", str(2 * np.pi / 50), "--length", "400",
            ]
        )
        capsys.readouterr()
        assert rc == EXIT_OK
        rows = (tmp_path / "responses.csv").read_text().splitlines()[1:]
        resp = np.array([float(r.split(",")[4]) for r in rows])
        # after the zero-init transient the output repeats with the input period
        assert np.max(np.abs(resp[250:300] - resp[300:350])) <= 1e-3

    def test_properties_file_shape(self, tmp_path, capsys):
        # a fast-decaying envelope that equal-beta Adam does not ignore: decay blindness fails
        rc = main(["signal", "--decay", "0.5", "--length", "400", "--beta", "0.3", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "signal_properties.json").read_text())
        assert set(payload) == {"schema_version", "properties", "decay_blindness"}
        assert list(payload["properties"]) == ["adameq", "emasign", "sign", "signum"]
        for name, report in payload["properties"].items():
            assert set(report) == {"label", "trials", "checks", "passed"}
            assert report["label"] == name and report["trials"] == 25
            assert [check["name"] for check in report["checks"]] == ["causal", "scaling", "odd", "bounded"]
            for check in report["checks"]:
                assert set(check) == {"name", "max_violation", "tolerance", "passed"}
                assert check["tolerance"] == 1e-12
        blind = payload["decay_blindness"]
        assert blind["max_gap"] > 0.05
        assert blind == {"max_gap": blind["max_gap"], "burn_in": 210, "passed": False, "tolerance": 0.05}


class TestSweepCommand:
    def test_kappa_grid_expands_to_betas(self, tmp_path, capsys):
        rc = main(
            [
                "sweep", "--out", str(tmp_path), "--optim", "adameq",
                "--kappas", "0.03125", "0.0625", "0.125", "0.25", "0.5", "1", "2", "4",
                "--steps", "20", "--seeds", "1",
            ]
        )
        capsys.readouterr()
        assert rc == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        betas = {row.split(",")[3] for row in lines[1:]}
        for expected in (0.95, 0.975, 0.9875, 0.8):
            assert fmt_float(expected) in betas
        assert len(betas) == 8

    def test_equal_betas_restricts_adam_grid(self, tmp_path, capsys):
        base = [
            "sweep", "--optim", "adam", "--kappas", "0.5", "1",
            "--steps", "10", "--seeds", "1",
        ]
        rc = main(base + ["--out", str(tmp_path / "full")])
        assert rc == EXIT_OK
        rc = main(base + ["--equal-betas", "--out", str(tmp_path / "diag")])
        assert rc == EXIT_OK
        capsys.readouterr()
        full = (tmp_path / "full" / "sweep.csv").read_text().splitlines()
        diag = (tmp_path / "diag" / "sweep.csv").read_text().splitlines()
        n_lrs = len(SweepConfig().lr_grid)
        assert len(full) == 1 + 4 * n_lrs  # 2x2 beta pairs
        assert len(diag) == 1 + 2 * n_lrs  # diagonal only
        for row in diag[1:]:
            cols = row.split(",")
            assert cols[3] == cols[4]

    def test_empty_lr_grid_is_usage_error(self, tmp_path, capsys):
        config = SweepConfig(lr_grid=())
        path = tmp_path / "sweep.json"
        path.write_text(serialize_config(config))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert rc == EXIT_USAGE


def _has_temporary(directory: Path) -> bool:
    return any(name.startswith(".runs.csv.") for name in os.listdir(directory))


class TestAtomicArtifacts:
    def lines_then_failure(self, directory):
        # the failure comes while the write's temporary file exists, so its clean-up is what is tested
        yield "1,2\n"
        assert _has_temporary(directory)
        raise RuntimeError("interrupted")

    def test_failed_write_leaves_no_file(self, tmp_path):
        from adamlab.cli import _write_csv

        target = tmp_path / "runs.csv"
        with pytest.raises(RuntimeError):
            _write_csv(target, ["a", "b"], self.lines_then_failure(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_file(self, tmp_path):
        from adamlab.cli import _json_text, _write_csv, _write_text

        target = tmp_path / "runs.csv"
        _write_csv(target, ["a", "b"], ["1,2\n"])
        before = target.read_bytes()
        with pytest.raises(RuntimeError):
            _write_csv(target, ["a", "b"], self.lines_then_failure(tmp_path))
        assert target.read_bytes() == before == b"a,b\n1,2\n"
        _write_text(tmp_path / "report.json", _json_text({"b": 1, "a": [2]}))
        assert (tmp_path / "report.json").read_text() == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "runs.csv"]

    @pytest.mark.parametrize("last", [0, 1])
    def test_last_of_two_writers_to_finish_wins(self, tmp_path, last):
        # two open writers of one name (nested when the first finishes last)
        from adamlab.cli import _atomic_open

        target = tmp_path / "runs.csv"
        target.write_bytes(b"old\n")
        writers = [_atomic_open(target), _atomic_open(target)]
        for writer, text in zip(writers, ["aaa\n", "BBBB\n"]):
            writer.__enter__().write(text)
        writers[1 - last].__exit__(None, None, None)
        writers[last].__exit__(None, None, None)
        assert target.read_bytes() == [b"aaa\n", b"BBBB\n"][last]
        assert os.listdir(tmp_path) == ["runs.csv"]

    #: a writer killed inside the write, as SIGKILL would: no clean-up runs
    KILLED_WRITER = """
import os, sys
from pathlib import Path
from adamlab.cli import _atomic_open
with _atomic_open(Path(sys.argv[1])) as fh:
    fh.write("partial")
    os._exit(9)
"""

    def test_temporaries_of_killed_writers_are_removed(self, tmp_path):
        from adamlab.cli import _write_csv

        target = tmp_path / "runs.csv"
        for _ in range(2):
            assert _run_python("-c", self.KILLED_WRITER, str(target)).returncode == 9
        stale = os.listdir(tmp_path)
        assert len(stale) == 2 and all(name.startswith(".runs.csv.") for name in stale)
        # files of this process and of a running one, which may still be writing them, a name
        # that is not a temporary of the writer's, and a temporary of another artifact
        kept = [
            f".runs.csv.{os.getpid()}.999999.tmp",
            f".runs.csv.{os.getppid()}.0.tmp",
            ".runs.csv.x.0.tmp",
            stale[0].replace("runs.csv", "summary.csv"),
        ]
        for name in kept:
            (tmp_path / name).write_bytes(b"busy\n")
        _write_csv(target, ["a"], ["1\n"])
        assert target.read_bytes() == b"a\n1\n"
        assert sorted(os.listdir(tmp_path)) == sorted([*kept, "runs.csv"])

    @given(
        writes=st.lists(
            st.tuples(st.booleans(), st.lists(st.integers(-5, 5), max_size=4)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40)
    def test_generated_writes_keep_the_last_complete_one(self, tmp_path_factory, writes):
        import adamlab.cli as cli

        out = tmp_path_factory.mktemp("writes")
        target = out / "runs.csv"
        replace, onto_existing = os.replace, []

        def recording_replace(src, dst):
            onto_existing.append(os.path.lexists(dst))
            replace(src, dst)

        def lines(values, complete):
            for value in values:
                yield f"{value}\n"
            if not complete:
                assert _has_temporary(out)
                raise RuntimeError("interrupted")

        expected = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "replace", recording_replace)
            for complete, values in writes:
                if complete:
                    cli._write_csv(target, ["x"], lines(values, True))
                    expected = "".join(f"{v}\n" for v in ["x", *values]).encode()
                else:
                    with pytest.raises(RuntimeError):
                        cli._write_csv(target, ["x"], lines(values, False))
                if expected is None:
                    assert os.listdir(out) == []
                else:
                    assert os.listdir(out) == ["runs.csv"]
                    assert target.read_bytes() == expected
        assert onto_existing == [False] * sum(complete for complete, _ in writes)


class TestInterrupt:
    #: runs the command its arguments give, announcing each batch on stdout as it starts
    MAIN = (
        "import sys\n"
        "from adamlab import quadbench\n"
        "from adamlab.cli import main\n"
        "run_batch = quadbench.run_batch\n"
        "def announced(*args, **kwargs):\n"
        "    print('batch', flush=True)\n"
        "    return run_batch(*args, **kwargs)\n"
        "quadbench.run_batch = announced\n"
        "sys.exit(main(sys.argv[1:]))"
    )

    def test_sigint_during_a_sweep_exits_130_with_one_line(self, tmp_path):
        out = tmp_path / "sweep"
        optimizers = [f"--optim={name}" for name in ("signum", "adameq", "sgd", "signsgd", "emasign", "rmsprop")]
        argv = [sys.executable, "-c", self.MAIN, "sweep", *optimizers, "--steps", "2000", "--seeds", "5", "--out", str(out)]
        proc = subprocess.Popen(argv, env=_python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            # the first of six batches has started; the sweep takes about 1.4 s in all
            assert proc.stdout.readline() == "batch\n"
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, stderr) == (EXIT_INTERRUPTED, "interrupted\n")
        assert set(stdout.splitlines()) <= {"batch"}
        assert not out.exists() or not [name for name in os.listdir(out) if name.endswith(".tmp")]

    def test_interrupted_write_keeps_the_previous_artifact(self, tmp_path, monkeypatch, capsys):
        argv = ["sweep", "--steps", "10", "--seeds", "1", "--kappas", "1", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        before = (tmp_path / "sweep.csv").read_bytes()
        atomic_open = cli._atomic_open

        @contextlib.contextmanager
        def interrupted_open(path):
            with atomic_open(path):
                assert len(os.listdir(tmp_path)) == 2  # the artifact and the write's temporary file
                raise KeyboardInterrupt
            yield

        monkeypatch.setattr(cli, "_atomic_open", interrupted_open)
        capsys.readouterr()
        assert main(argv) == EXIT_INTERRUPTED
        assert capsys.readouterr().err == "interrupted\n"
        assert os.listdir(tmp_path) == ["sweep.csv"]
        assert (tmp_path / "sweep.csv").read_bytes() == before


class TestRerunsIntoOneOut:
    COMMANDS = {
        "quad": (["quad", "--layout", "het", "--optim", "signum", "--steps", "20", "--seeds", "1"], ["runs.csv", "summary.csv"]),
        "sweep": (["sweep", "--steps", "10", "--seeds", "1", "--kappas", "1"], ["sweep.csv"]),
        "signal": (["signal", "--length", "50"], ["responses.csv", "signal_properties.json"]),
        "verify": (["verify", "--suite", "trust"], ["verify.json"]),
    }

    def test_three_runs_write_identical_artifacts(self, tmp_path):
        names = sorted(name for _, artifacts in self.COMMANDS.values() for name in artifacts)
        rounds = []
        for _ in range(3):
            for argv, _ in self.COMMANDS.values():
                assert _run(argv + ["--out", str(tmp_path)])[0] == EXIT_OK
            assert sorted(os.listdir(tmp_path)) == names
            rounds.append({name: (tmp_path / name).read_bytes() for name in names})
        assert rounds[0] == rounds[1] == rounds[2]

    def test_rerun_into_an_existing_out_makes_no_directory(self, tmp_path, monkeypatch):
        """Only a missing ``--out`` is created, parents included; a rerun finds it and skips ``mkdir``."""
        made, mkdir = [], Path.mkdir
        monkeypatch.setattr(Path, "mkdir", lambda path, *args, **kwargs: made.append(path) or mkdir(path, *args, **kwargs))
        out, created = tmp_path / "new" / "out", []
        for argv, _ in self.COMMANDS.values():
            made.clear()
            assert _run(argv + ["--out", str(out)])[0] == EXIT_OK
            created.append(out in made)
        assert created == [True, False, False, False]

    @pytest.mark.parametrize(
        "command, name", [(command, name) for command, (_, names) in COMMANDS.items() for name in names]
    )
    def test_artifact_name_taken_by_a_directory_exits_3(self, tmp_path, command, name):
        blocker = tmp_path / name
        blocker.mkdir()
        (blocker / "keep").write_bytes(b"kept")
        rc, err = _run(self.COMMANDS[command][0] + ["--out", str(tmp_path)])
        assert rc == EXIT_IO
        # verify prints one status line per check before its artifact
        lines = [line for line in err.splitlines() if not line.startswith("[")]
        assert len(lines) == 1 and lines[0].startswith("i/o error: ") and name in lines[0], err
        assert os.listdir(blocker) == ["keep"] and (blocker / "keep").read_bytes() == b"kept"
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


class TestReusedParser:
    """``main`` parses with one parser per process; no call may see what an earlier call parsed."""

    @staticmethod
    def _calls(tmp_path) -> list[list[str]]:
        config = tmp_path / "quad.json"
        config.write_text(json.dumps({"schema_version": 1, "command": "quad", "optimizers": ["signum"], "beta": 0.9}))
        quad = ["quad", "--layout", "het", "--steps", "20", "--seeds", "1", "--lr", "0.0078125"]
        return [
            quad + ["--optim", "sgd"],
            quad,  # no --optim: the default optimizers, not the sgd of the call before
            ["quad", "--layout", "bogus"],  # an argparse error, then a valid call
            quad + ["--config", str(config)],
            ["verify", "--suite", "trust"],
            ["sweep", "--steps", "10", "--seeds", "1", "--kappas", "1"],
        ]

    @staticmethod
    def _run_all(calls, out: Path, fresh: bool) -> list:
        import adamlab.cli as cli

        results = []
        for i, argv in enumerate(calls):
            if fresh:
                cli._parser.cache_clear()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv + ["--out", str(out / str(i))])
            artifacts = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
            results.append((rc, stdout.getvalue(), stderr.getvalue().replace(str(out), "OUT"), artifacts))
        return results

    def test_calls_in_one_process_match_fresh_parsers(self, tmp_path, monkeypatch):
        import adamlab.cli as cli

        built, resolved = [], []
        build_parser, get_type_hints = cli.build_parser, typing.get_type_hints
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        monkeypatch.setattr(typing, "get_type_hints", lambda cls: resolved.append(cls) or get_type_hints(cls))
        cli._parser.cache_clear()
        cli._field_types.cache_clear()
        calls = self._calls(tmp_path)
        reused = self._run_all(calls, tmp_path / "reused", fresh=False)
        assert len(built) == 1
        assert sorted(cls.__name__ for cls in resolved) == ["QuadConfig", "SweepConfig"]

        assert [rc for rc, *_ in reused] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]
        summary = reused[1][3]["1/summary.csv"].decode()
        assert [line.split(",")[0] for line in summary.splitlines()[1:]] == ["adameq", "sgd", "signum"]
        assert self._run_all(calls, tmp_path / "fresh", fresh=True) == reused


def test_usage_error_exit_code_from_argparse(capsys):
    # returned, not raised, so that an in-process caller records it
    assert main(["quad", "--layout", "bogus"]) == EXIT_USAGE
    assert "argument --layout: invalid choice: 'bogus'" in capsys.readouterr().err
    assert main(["quad", "--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: adamlab quad")


def test_verify_failure_exit_code(monkeypatch, capsys):
    # force one suite to report a failure
    import adamlab.cli as cli

    def failing_suite(seed):
        return [{"name": "forced", "max_abs_residual": 1.0, "tolerance": 0.0, "passed": False}]

    monkeypatch.setitem(cli._SUITES, "prop1", failing_suite)
    rc = main(["verify", "--suite", "prop1"])
    capsys.readouterr()
    assert rc == EXIT_CHECK_FAILURE


def test_readme_synopsis_lists_every_flag():
    """Each subcommand's ``--flags`` in README's CLI block are exactly its parser's options, less ``-h/--help``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```\n")[1]
    listed, command = {}, None
    for line in block.splitlines():
        if line.startswith("adamlab "):
            command = line.split()[1]
        listed.setdefault(command, []).extend(re.findall(r"--[a-z][a-z-]*", line))
    parser = cli.build_parser()
    (subparsers,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    accepted = {
        name: sorted(option for action in sub._actions for option in action.option_strings if option not in ("-h", "--help"))
        for name, sub in subparsers.choices.items()
    }
    assert {name: sorted(flags) for name, flags in listed.items()} == accepted
