"""In-memory span tracing of magwell's public functions.

A `Tracer` replaces every public function of the library modules, and
`cli.main`, at each module attribute that holds it, so a call is traced
wherever its caller looks it up (`montgomery.eigenvalue_converged`,
`model2d.assemble_2d`, ...). Each call records one span: name, start, end,
parent span and run id. Spans stay in memory until the run ends. The
functions below turn a list of spans into the per-layer metrics; they are
pure so the self-tests can feed them a synthetic span tree.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

LAYERS = ("sl_engine", "montgomery", "miniwell", "asymptotics", "model2d")
# every module that can hold a reference to a traced function
HOLDERS = ("magwell",) + tuple(f"magwell.{m}" for m in LAYERS + ("cli",))
SWEEP_POINTS = 4      # h values of the sweep2d workload, largest first


def _annotate_assemble_2d(args, kwargs, result):
    return {"h": float(result.h), "unknowns": int(result.hermitian.shape[0]),
            "nnz": int(result.hermitian.nnz)}


def _annotate_lowest_2d(args, kwargs, result):
    op = args[0] if args else kwargs["operator"]
    return {"h": float(op.h)}


def _annotate_oracle(args, kwargs, result):
    kop = args[0] if args else kwargs["kop"]
    return {"dim": int(kop.dim)}


ANNOTATE = {
    "model2d.assemble_2d": _annotate_assemble_2d,
    "model2d.lowest_eigenvalues_2d": _annotate_lowest_2d,
    "miniwell.spectrum_K_oracle": _annotate_oracle,
}


class Tracer:
    """Records spans of the wrapped functions of one process."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result

        return traced

    def install(self) -> int:
        """Wrap every target at every holder; returns the number of
        functions wrapped."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"magwell.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        cli = importlib.import_module("magwell.cli")
        targets[id(cli.main)] = (cli.main, "cli.main")
        wrappers = {key: self.wrap(name, fn) for key, (fn, name) in targets.items()}
        for holder in HOLDERS:
            mod = importlib.import_module(holder)
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)])
        return len(wrappers)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# span arithmetic

def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time covered by its direct
    children (calls on one thread never overlap, so that is their sum)."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def outer_seconds(spans: list[dict], names) -> float:
    """Time inside any span whose name is in `names`, counting nested
    matches once (only spans with no matching ancestor add their time)."""
    names = set(names)
    by_id = {s["id"]: s for s in spans}

    def nested(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] in names:
                return True
            p = by_id[p]["parent"]
        return False

    return sum(duration(s) for s in spans if s["name"] in names and not nested(s))


def tail_index(n: int) -> int:
    """Index in an ascending sample of n of the highest percentile that has
    at least ten samples beyond it; -1 when n < 11."""
    return n - 11 if n >= 11 else -1


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (values only; units live in
    BENCHMARK.json)."""
    named: dict[str, list[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)
    own = self_times(spans)

    def calls(name):
        return len(named.get(name, ()))

    def secs(*names):
        return outer_seconds(spans, names)

    def self_s(name):
        return sum(own[s["id"]] for s in named.get(name, ()))

    ev_ms = sorted(1e3 * duration(s) for s in named.get("sl_engine.eigenvalue_converged", ()))
    tail = tail_index(len(ev_ms))
    m = {
        "sl_engine.eigenvalue_converged.calls": calls("sl_engine.eigenvalue_converged"),
        "sl_engine.eigenvalue_converged.s": secs("sl_engine.eigenvalue_converged"),
        "sl_engine.eigenvalue_converged.call_ms.p50": statistics.median(ev_ms) if ev_ms else 0.0,
        "sl_engine.eigenvalue_converged.call_ms.tail": ev_ms[tail] if tail >= 0 else 0.0,
        "sl_engine.lowest_eigenpairs.calls": calls("sl_engine.lowest_eigenpairs"),
        "sl_engine.lowest_eigenpairs.s": secs("sl_engine.lowest_eigenpairs"),
        "sl_engine.assemble.calls": calls("sl_engine.assemble"),
        "sl_engine.assemble.s": secs("sl_engine.assemble"),
        "montgomery.minimizer_state.calls": calls("montgomery.minimizer_state"),
        "montgomery.minimizer_state.s": secs("montgomery.minimizer_state"),
        "montgomery.minimizer_state.self_s": self_s("montgomery.minimizer_state"),
        "montgomery.lambda_m.s": secs("montgomery.lambda_m", "montgomery.lambda_m_direct"),
        "miniwell.spectrum_K_oracle.calls": calls("miniwell.spectrum_K_oracle"),
        "miniwell.spectrum_K_oracle.s": secs("miniwell.spectrum_K_oracle"),
        "miniwell.spectrum_K_oracle.dim1.s": sum(
            duration(s) for s in named.get("miniwell.spectrum_K_oracle", ()) if s["dim"] == 1),
        "miniwell.spectrum_K_oracle.dim2.s": sum(
            duration(s) for s in named.get("miniwell.spectrum_K_oracle", ()) if s["dim"] == 2),
        "miniwell.spectrum_K.calls": calls("miniwell.spectrum_K"),
        "miniwell.spectrum_K.s": secs("miniwell.spectrum_K"),
        "miniwell.build_effective_operator.s": secs("miniwell.build_effective_operator"),
        "model2d.run_sweep.self_s": self_s("model2d.run_sweep"),
        "asymptotics.s": secs(*(n for n in named if n.startswith("asymptotics."))),
        "cli.self_s": self_s("cli.main"),
    }
    # sweep points in call order: h0 is the largest h
    h_order = []
    for s in named.get("model2d.assemble_2d", ()):
        if s["h"] not in h_order:
            h_order.append(s["h"])
    for i in range(SWEEP_POINTS):
        h = h_order[i] if i < len(h_order) else None
        asm = [s for s in named.get("model2d.assemble_2d", ()) if s["h"] == h]
        low = [s for s in named.get("model2d.lowest_eigenvalues_2d", ()) if s["h"] == h]
        m[f"model2d.lowest_eigenvalues_2d.s.h{i}"] = sum(map(duration, low))
        m[f"model2d.assemble_2d.s.h{i}"] = sum(map(duration, asm))
        m[f"model2d.unknowns.h{i}"] = asm[0]["unknowns"] if asm else 0
        m[f"model2d.nnz.h{i}"] = asm[0]["nnz"] if asm else 0
    return m
