"""magwell benchmark: times one workload end to end, or per layer.

    python3 perfbench/run.py --workload band_table --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Every pass of the workload runs in a fresh
child process (perfbench/child.py) with one caller, MAGWELL_WORKERS=1 and
one BLAS thread, so each pass starts cold. Passes repeat until the next one
would end after --seconds; at least one runs. Every output is checked
against the gates in perfbench/workloads.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over the
passes, and over every child's set-up (three set-up-only children come
first). --trace 1 alternates an untraced and a traced pass and reports the
per-layer metrics from the traced passes' spans, plus the tracing overhead.

The last line of standard output is {"correct", "attempted", "failed",
"metrics"}; the line before it is a JSON record of the run: environment,
seed, inputs, every pass and every failed operation. The exit code is 0
when every pass ran, whatever the gates said, and 1 otherwise, for example
when the checkout holds no magwell sources.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
THREAD_ENV = {"MAGWELL_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """A child did not finish: the run has no result."""


def run_child(spec: dict) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    spec = dict(spec, spawned=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> tuple[list, list, list]:
    """(set-up times, untraced passes, traced passes) of one run."""
    base = {"workload": workload, "seed": seed, "workdir": str(workdir), "trace": False}
    setups = [run_child(dict(base, mode="setup"))["setup_s"] for _ in range(SETUP_REPEATS)]
    passes, traced = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(run_child(dict(base, mode="pass")))
        if trace:
            spans = OUT / "spans" / f"{workload}-seed{seed}-{len(traced)}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            p = run_child(dict(base, mode="pass", trace=True, run=len(traced),
                               spans=str(spans)))
            p["spans"] = str(spans)
            traced.append(p)
        now = time.monotonic()
        if now - start + (now - t) > seconds:
            break
    setups += [p["setup_s"] for p in passes + traced]
    return setups, passes, traced


def end_to_end(setups: list, passes: list) -> dict:
    def med(key):
        return statistics.median(p[key] for p in passes)
    return {"wall_s": med("wall_s"), "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"), "setup_s": statistics.median(setups)}


def per_layer(passes: list, traced: list) -> dict:
    from tracing import layer_metrics, read_spans
    rows = [layer_metrics(read_spans(p["spans"])) for p in traced]
    values = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    values["trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in passes))
    return values


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "memory_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "child_env": THREAD_ENV,
        "git": _git_state(),
    }


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "magwell" / "__init__.py").is_file():
        print(f"no magwell sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups, passes, traced = measure(args.workload, args.seed, args.seconds,
                                         bool(args.trace), workdir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = per_layer(passes, traced) if args.trace else end_to_end(setups, passes)
    ops = [op for p in passes + traced for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "inputs": passes[0]["inputs"], "setup_s": setups,
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
                   for p in passes],
        "traced_passes": [{k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
                          for p in traced],
        "error_rate": len(failed) / len(ops), "failed_ops": failed,
        "ops": ops[:len(passes[0]["ops"])],
    }))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics(bool(args.trace))}
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
