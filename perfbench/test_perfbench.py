"""Self-tests of the benchmark, kept out of the tier-1 run:

    python3 -m pytest perfbench -q
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(i, name, start, end, parent=None, **attrs):
    return dict(id=i, name=name, run=0, parent=parent, start=start, end=end, **attrs)


# main(0..10) -> minimizer_state(1..8) -> eigenvalue_converged(2..5) -> lowest_eigenpairs(3..4)
#             -> minimizer_state(8.5..9)   (a cache hit)
TREE = [
    _span(0, "cli.main", 0.0, 10.0),
    _span(1, "montgomery.minimizer_state", 1.0, 8.0, 0),
    _span(2, "sl_engine.eigenvalue_converged", 2.0, 5.0, 1),
    _span(3, "sl_engine.lowest_eigenpairs", 3.0, 4.0, 2),
    _span(4, "montgomery.minimizer_state", 8.5, 9.0, 0),
]


def test_self_time_arithmetic():
    own = tracing.self_times(TREE)
    assert own == pytest.approx({0: 2.5, 1: 4.0, 2: 2.0, 3: 1.0, 4: 0.5})
    assert sum(own.values()) == pytest.approx(10.0)
    # nested matches count once
    assert tracing.outer_seconds(TREE, ["cli.main", "sl_engine.lowest_eigenpairs"]) == 10.0
    assert tracing.outer_seconds(TREE, ["montgomery.minimizer_state"]) == 7.5
    m = tracing.layer_metrics(TREE)
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["montgomery.minimizer_state.calls"] == 2
    assert m["montgomery.minimizer_state.self_s"] == pytest.approx(4.5)
    assert m["sl_engine.eigenvalue_converged.call_ms.p50"] == pytest.approx(3000.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_index(10) == -1
    assert tracing.tail_index(11) == 0
    assert tracing.tail_index(672) == 661


def test_sweep_points_follow_call_order():
    spans = [
        _span(0, "model2d.run_sweep", 0.0, 10.0),
        _span(1, "model2d.assemble_2d", 1.0, 2.0, 0, h=0.02, unknowns=10, nnz=50),
        _span(2, "model2d.lowest_eigenvalues_2d", 2.0, 4.0, 0, h=0.02),
        _span(3, "model2d.assemble_2d", 4.0, 4.5, 0, h=0.01, unknowns=20, nnz=100),
        _span(4, "model2d.lowest_eigenvalues_2d", 4.5, 9.0, 0, h=0.01),
    ]
    m = tracing.layer_metrics(spans)
    assert (m["model2d.unknowns.h0"], m["model2d.unknowns.h1"]) == (10, 20)
    assert m["model2d.lowest_eigenvalues_2d.s.h1"] == pytest.approx(4.5)
    assert m["model2d.nnz.h2"] == 0
    assert m["model2d.run_sweep.self_s"] == pytest.approx(2.0)


def _failures(ops):
    return sum(not op["ok"] for op in ops)


def test_band_table_gate_flags_perturbed_reference(tmp_path):
    ref = workloads.load_reference()
    bench = workloads.BandTable(0, tmp_path)
    bench.out.mkdir()
    table = {k: dict(v) for k, v in ref["band_table"]["table1"].items()}
    (bench.out / "table1.json").write_text(json.dumps(table))
    (bench.out / "verify.json").write_text(json.dumps(
        [{"k": k, "passed": True, "checks": {"scaling": True}} for k in bench.ks]))
    assert _failures(bench.gate([0, 0], ref)) == 0

    bad = json.loads(json.dumps(ref))
    bad["band_table"]["table1"]["3"]["nu_hat"] += 2 * workloads.TABLE1_TOL
    assert _failures(bench.gate([0, 0], bad)) == 1


def test_sweep2d_gate_flags_perturbed_reference(tmp_path):
    ref = workloads.load_reference()
    bench = workloads.Sweep2D(0, tmp_path)
    (bench.out / "sweep2d.json").write_text(json.dumps(ref["sweep2d"]))
    assert _failures(bench.gate(0, ref)) == 0

    bad = json.loads(json.dumps(ref))
    bad["sweep2d"]["eigenvalues"][2][1] *= 1 + 10 * workloads.SWEEP_REL_TOL
    assert _failures(bench.gate(0, bad)) == 1
    (bench.out / "sweep2d.json").unlink()
    assert _failures(bench.gate(1, ref)) == len(workloads.SWEEP_H)


def test_k_oracle_gate_and_inputs():
    a = workloads.KOracle(5, Path("."))
    b = workloads.KOracle(5, Path("."))
    assert a.describe() == b.describe()
    assert [k.dim for k in a.kops] == [2, 1, 1]
    box = a.describe()["configurations"][0]["oracle_box_unknowns"]
    assert abs(box / workloads.ORACLE_BOX_UNKNOWNS - 1) <= workloads.ORACLE_BOX_BAND
    assert _failures(a.gate([1e-6, 2e-6, 3e-6], {})) == 0
    assert _failures(a.gate([1e-6, 2e-4, "ConvergenceError: coarse"], {})) == 2


def _declared(key):
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def test_printed_metric_names_match_benchmark_json(tmp_path):
    passes = [{"wall_s": 2.0, "cpu_s": 2.0, "peak_rss_mb": 60.0, "setup_s": 0.5}]
    assert sorted(run.end_to_end([0.5, 0.6], passes)) == sorted(_declared("end_to_end"))

    spans = tmp_path / "spans.jsonl"
    spans.write_text("".join(json.dumps(s) + "\n" for s in TREE))
    traced = [dict(passes[0], spans=str(spans))]
    assert sorted(run.per_layer(passes, traced)) == sorted(_declared("per_layer"))
