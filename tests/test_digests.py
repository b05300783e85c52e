"""Byte identity as a check: the sha256 of every artifact of a fixed list of small commands.

The ``quad`` and ``sweep`` bytes depend on which OpenBLAS kernel numpy's
bundled library picked at start-up (it picks by CPU; ``OPENBLAS_CORETYPE``
forces one), so the table is keyed by the kernel's name. A kernel without an
entry skips the test, naming the kernel. A change that alters an artifact's
bytes on purpose updates the table in the same diff:

    python tests/test_digests.py                            # this CPU's kernel
    OPENBLAS_CORETYPE=Haswell python tests/test_digests.py  # a forced one

each print the running kernel's name and its digests as JSON.
"""
import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from adamlab.cli import EXIT_OK, main

#: each command's label, its arguments and the files it writes under ``--out``
COMMANDS = {
    "quad": (["quad", "--steps", "60", "--seeds", "2"], ("runs.csv", "summary.csv")),
    "sweep": (["sweep", "--steps", "30", "--seeds", "2"], ("sweep.csv",)),
    "sweep-mixed": (
        ["sweep", "--optim", "signum", "--optim", "adameq", "--optim", "adam", "--optim", "rmsprop"]
        + ["--seeds", "2", "--steps", "40"],
        ("sweep.csv",),
    ),
    "quad-lr1e300": (["quad", "--lr", "1e300", "--steps", "50", "--seeds", "2"], ("runs.csv", "summary.csv")),
    "signal": (["signal"], ("responses.csv", "signal_properties.json")),
    "verify": (["verify", "--suite", "all"], ("verify.json",)),
}

#: the digests per OpenBLAS kernel: SkylakeX as an AVX-512 host picks it, Haswell as forced by ``OPENBLAS_CORETYPE``
DIGESTS = {
    "Haswell": {
        "quad": {
            "runs.csv": "56f20f77067e01f047eb6955fe9880b6ffb2324fae29a8605fa28a61ea1edf3b",
            "summary.csv": "2eddaf5666e939fe170a99f0c3453dd4f2a9cdb5a0435994dd664064802ed264",
        },
        "quad-lr1e300": {
            "runs.csv": "fbdaf95465d355e1784e8ff496b2bcfe89f0fede36586e29a423c6d7ec436032",
            "summary.csv": "fc1cdbf45342746c37186b2dbe74fe1456549dd162f530753f8e4399c11a8f0b",
        },
        "signal": {
            "responses.csv": "176e91bbff308a94e15658f1d0e0fd290276650640c17505df0bb2271a10b9ec",
            "signal_properties.json": "9fd4295df856d628a0c3f6caec7843d2c2a872fefa4f3178b1ba5a827cf90df4",
        },
        "sweep": {
            "sweep.csv": "56c0b36454a24bbe1a9f5d3407210fc0f0aeedc01c0338c384b8d72fc8302b23",
        },
        "sweep-mixed": {
            "sweep.csv": "d82da9ebae6185db45687b7685afee19e2af28f6af9ce71f2e47d9fdc21f425b",
        },
        "verify": {
            "stdout": "632c7ac4c9dc5f062712d04a27082313f8e3dc17eedd20773938b69a67fb5f09",
            "verify.json": "632c7ac4c9dc5f062712d04a27082313f8e3dc17eedd20773938b69a67fb5f09",
        },
    },
    "SkylakeX": {
        "quad": {
            "runs.csv": "16adeb70e30a9d5b03d12e1907ffc8328f2b6e22ea4b4b351b2769a3a6677c2c",
            "summary.csv": "d0827e67a1afc2fd2ee4c329d6f045e73c6be625c25c20956b54028300cc4685",
        },
        "quad-lr1e300": {
            "runs.csv": "7eccbf3c83d28c5ed21055c307e78e2ebffa592e73bc2634794dc96059603f83",
            "summary.csv": "fc1cdbf45342746c37186b2dbe74fe1456549dd162f530753f8e4399c11a8f0b",
        },
        "signal": {
            "responses.csv": "176e91bbff308a94e15658f1d0e0fd290276650640c17505df0bb2271a10b9ec",
            "signal_properties.json": "9fd4295df856d628a0c3f6caec7843d2c2a872fefa4f3178b1ba5a827cf90df4",
        },
        "sweep": {
            "sweep.csv": "9602b2daa07b799c253da757f59b5e17b21482f8e568c8220d0b9230cbcdc5e3",
        },
        "sweep-mixed": {
            "sweep.csv": "7f6cacfe85d88a62f4246a65c6a8c7d0c4601a704686769297c057ac79b9930f",
        },
        "verify": {
            "stdout": "632c7ac4c9dc5f062712d04a27082313f8e3dc17eedd20773938b69a67fb5f09",
            "verify.json": "632c7ac4c9dc5f062712d04a27082313f8e3dc17eedd20773938b69a67fb5f09",
        },
    },
}


def openblas_kernel() -> str:
    """The name of the OpenBLAS kernel numpy's bundled library runs, or ``unknown`` if it does not say."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def artifact_digests(out: Path) -> dict:
    """Run every command of :data:`COMMANDS` under ``out``; the sha256 of each file, and of ``verify``'s stdout."""
    digests = {}
    for label, (argv, files) in COMMANDS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert main([*argv, "--out", str(out / label)]) == EXIT_OK
        own = {name: hashlib.sha256((out / label / name).read_bytes()).hexdigest() for name in files}
        if stdout.getvalue():
            own["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        digests[label] = own
    return digests


def test_artifacts_keep_their_bytes(tmp_path):
    kernel = openblas_kernel()
    if kernel not in DIGESTS:
        pytest.skip(f"no digests recorded for OpenBLAS kernel {kernel}")
    assert artifact_digests(tmp_path) == DIGESTS[kernel]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        json.dump({openblas_kernel(): artifact_digests(Path(out))}, sys.stdout, indent=4, sort_keys=True)
        print()
