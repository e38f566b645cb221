"""One benchmark child process: set up one workload, and optionally run one
pass of it, timed, then gate its outputs.

Usage (from run.py): python3 perfbench/child.py '<json spec>'

The spec names the workload, seed, work directory, the monotonic time the
parent spawned this process at, the mode ("setup" stops after set-up,
"pass" also runs the operations) and, for a traced pass, the run id and the
file the spans are written to. The result is printed as the last line of
standard output, as JSON.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0       # ru_maxrss is in KiB on Linux


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import magwell.cli
    if not Path(magwell.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"magwell imported from {magwell.cli.__file__}, "
                         f"not from {src}")
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[spec["workload"]](spec["seed"], Path(spec["workdir"]))
    result = {"setup_s": time.monotonic() - spec["spawned"]}
    if spec["mode"] == "pass":
        tracer = None
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer(spec["run"])
            tracer.install()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        outputs = workload.run()
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_s() - cpu0
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            tracer.write(spec["spans"])
        result["ops"] = workload.gate(outputs, load_reference())
        result["inputs"] = workload.describe()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
