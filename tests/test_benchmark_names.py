"""The names that the benchmark's tracer wraps must exist in the package.

``perfbench/tracer.py`` times adamlab by replacing module-level names (and two
class methods) from outside the package. A name that the package drops is
only reported as missing at benchmark time, and ``perfbench/tests`` is not part
of this suite, so this test loads the tracer by path and resolves each name
the way :meth:`Tracer.install` does.
"""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = [f"{owner}.{attr}" for owner, attr, *_ in tracer.PATCHES if attr not in vars(tracer._resolve(owner))]
    assert missing == []
