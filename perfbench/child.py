"""One measured adamlab process, started by ``run.py``.

Usage: ``python3 perfbench/child.py SPEC_JSON``. The spec holds:

- ``commands``: one pass of the workload, as argument lists for
  ``adamlab.cli.main``; with none, the child only sets up;
- ``out``: the directory the commands write under;
- ``deadline``: no pass starts after this ``time.monotonic()`` value, but at
  least one pass runs;
- ``trace``: whether each pass runs under a fresh :class:`tracer.Tracer`;
- ``spawned_at``: the parent's ``time.monotonic()`` just before it started
  this process. The clock is system-wide, so ``setup_s`` covers interpreter
  start-up and imports;
- ``result``: where to write the result JSON.

Every command of every pass is timed on its own, wall and CPU, and just
before it the child times one :func:`speed.probe`. After a pass, outside the
timed part, the child hashes every file under ``out``.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    """CPU seconds of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _hashes(out: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import adamlab.cli

    from speed import SETUP_PROBES, probe

    if spec["trace"]:
        from tracer import Tracer
    setup_s = time.monotonic() - spec["spawned_at"]
    setup_probes = [probe() for _ in range(SETUP_PROBES)]

    codes, passes = [], []
    while spec["commands"] and (not passes or time.monotonic() < spec["deadline"]):
        tracer = None
        if spec["trace"]:
            tracer = Tracer()
            tracer.install()
        wall, cpu, probes = [], [], []
        for argv in spec["commands"]:
            probes.append(probe())
            cpu_start, start = _cpu_s(), time.perf_counter()
            if tracer is None:
                codes.append(adamlab.cli.main(argv))
            else:
                with tracer.span("cli.main"):
                    codes.append(adamlab.cli.main(argv))
            wall.append(time.perf_counter() - start)
            cpu.append(_cpu_s() - cpu_start)
        record = {"wall_s": wall, "cpu_s": cpu, "probe_s": probes, "hashes": _hashes(Path(spec["out"]))}
        if tracer is not None:
            record["restored"] = tracer.uninstall()
            record["trace"] = tracer.to_dict()
        passes.append(record)
        if any(codes):
            break

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "codes": codes,
        "setup_s": setup_s,
        "setup_probe_s": setup_probes,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "passes": passes,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
