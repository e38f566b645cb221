"""Batch command-line front end.

Subcommands map one-to-one onto the library surfaces: `table1` (band-minimum
summary over a k range), `profile` (band profile + quadratic approximation),
`verify` (identity / criterion suite), `miniwell` (K spectrum from a
geometry file), `predict` (gap forecast files), `validate2d` (2D sweep).

Every invocation writes its outputs (UTF-8 CSV/JSON, RFC-4180 quoting via
the csv module) plus a manifest JSON recording the subcommand, the full
parameter set, the tool version, a timestamp, and the output paths. This
module is the one place that names output columns and keys; `_files` writes
them, every float as `repr(float(v))`, so outputs are byte-identical for
identical parameter sets. The worker count for k sweeps comes from
MAGWELL_WORKERS (a positive integer, default 1).

Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from ._files import write_csv, write_json
from .sl_engine import SolverError
from . import montgomery, miniwell, asymptotics, model2d

WORKERS_ENV = "MAGWELL_WORKERS"


class UsageError(Exception):
    pass


def _parse_k_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            ks = list(range(int(lo), int(hi) + 1))
        else:
            ks = [int(text)]
    except ValueError as exc:
        raise UsageError(f"bad k range {text!r}: {exc}") from exc
    if not ks or any(k < 1 for k in ks):
        raise UsageError(f"k values must be >= 1, got {text!r}")
    return ks


def _parse_float_list(text: str) -> list[float]:
    try:
        vals = [float(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"bad float list {text!r}") from exc
    if not vals:
        raise UsageError("empty list")
    return vals


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected LO:HI") from exc


def _workers() -> int:
    text = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(
            f"{WORKERS_ENV} must be a positive integer, got {text!r}")
    return workers


def _write_manifest(outdir: Path, name: str, subcommand: str, params: dict,
                    outputs: list[Path]) -> Path:
    manifest = {
        "subcommand": subcommand,
        "parameters": params,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
    }
    path = outdir / f"{name}_manifest.json"
    write_json(path, manifest)
    return path


def _map_k(fn, ks: list[int]) -> list:
    """fn(k) for each k, in k order: serially, or in a pool of
    MAGWELL_WORKERS processes when that is above 1 (fn must then pickle)."""
    workers = _workers()
    if workers == 1:
        return [fn(k) for k in ks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, ks))


def _table1_report(k: int, tol: float):
    """The band-minimum report for k, or the text of the SolverError that
    stopped it (so one failing k does not cost the others)."""
    try:
        return montgomery.minimizer_state(k, tol).report
    except SolverError as exc:
        return str(exc)


def cmd_table1(args) -> int:
    ks = _parse_k_range(args.k)
    results = _map_k(partial(_table1_report, tol=args.tol), ks)
    reports = {}
    for k, res in zip(ks, results):
        if isinstance(res, str):
            print(f"k={k}: FAILED ({res})", file=sys.stderr)
        else:
            reports[k] = res
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    print("k        " + "".join(f"{k:>10d}" for k in reports))
    for label, attr in (("alpha_min", "alpha_min"), ("nu_hat", "nu_hat"),
                        ("lambda_1", "lambda1")):
        row = "".join(f"{getattr(r, attr):>10.4f}" for r in reports.values())
        print(f"{label:<9s}{row}")

    csv_path = outdir / "table1.csv"
    write_csv(csv_path,
              ["k", "alpha_min", "nu_hat", "lambda_1", "lambda_2", "d2",
               "d2_lower_bound", "condik_margin", "hf_residual",
               "norm_identity_residual"],
              [[k, r.alpha_min, r.nu_hat, r.lambda1, r.lambda2, r.d2,
                r.d2_lower_bound, r.condik_margin, r.hf_residual,
                r.norm_identity_residual] for k, r in reports.items()])
    json_path = outdir / "table1.json"
    write_json(json_path, {str(k): r for k, r in reports.items()})
    _write_manifest(outdir, "table1", "table1",
                    {"k": args.k, "tol": args.tol}, [csv_path, json_path])
    return 1 if len(reports) < len(ks) else 0


def cmd_profile(args) -> int:
    lo, hi = _parse_range(args.range)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    state = montgomery.minimizer_state(args.k)
    table = montgomery.profile(state, (lo, hi), args.samples)
    if not (lo <= table.alpha_min <= hi):
        print(f"warning: range [{lo}, {hi}] does not contain "
              f"alpha_min={table.alpha_min:.4f}", file=sys.stderr)
    csv_path = outdir / f"profile_k{args.k}.csv"
    json_path = outdir / f"profile_k{args.k}.json"
    rows = np.column_stack([table.alpha, table.lambda0, table.lambda_quad])
    write_csv(csv_path, ["alpha", "lambda0", "lambda_quad"], rows)
    write_json(json_path, {"k": table.k, "alpha_min": table.alpha_min,
                           "nu_hat": table.nu_hat, "d2": table.d2,
                           "rows": rows})
    _write_manifest(outdir, f"profile_k{args.k}", "profile",
                    {"k": args.k, "range": args.range, "samples": args.samples},
                    [csv_path, json_path])
    return 0


VERIFY_SEED = 20240801     # seeds the random (alpha, beta) of the scaling check


def _verify_one_k(k: int) -> dict:
    st = montgomery.minimizer_state(k)
    r = st.report
    checks = {
        "stationarity_identity": r.hf_residual < montgomery.HF_TOL,
        "norm_identity": r.norm_identity_residual < 1e-4,
        "condik": r.condik_holds,
        "bound_consistency": r.d2 >= r.d2_lower_bound - montgomery.D2_SLACK,
    }
    if k % 2 == 1:
        checks["condik_odd"] = bool(r.condik_odd_holds)
        checks["parity"] = st.spectrum.parity == ("even", "odd", "even")
    rng = np.random.default_rng(VERIFY_SEED + k)
    ok_scaling = True
    for _ in range(2):
        alpha = float(rng.uniform(-1.0, 1.5))
        beta = float(rng.uniform(0.3, 4.0))
        p = montgomery.ModelParams(k, alpha, beta)
        scaled = montgomery.lambda_m(p, 0, tol=1e-9)
        direct = montgomery.lambda_m_direct(p, 0, tol=1e-9)
        ok_scaling &= abs(scaled - direct) < 1e-8
    checks["scaling"] = ok_scaling
    return {
        "k": k,
        "checks": checks,
        "residuals": {
            "stationarity": r.hf_residual,
            "norm": r.norm_identity_residual,
            "condik_margin": r.condik_margin,
            "d2_minus_bound": r.d2 - r.d2_lower_bound,
        },
        "passed": all(checks.values()),
    }


def cmd_verify(args) -> int:
    ks = _parse_k_range(args.k)
    results = _map_k(_verify_one_k, ks)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for res in results:
        status = "PASS" if res["passed"] else "FAIL"
        all_ok &= res["passed"]
        detail = ", ".join(f"{name}={'ok' if ok else 'FAIL'}"
                           for name, ok in res["checks"].items())
        print(f"k={res['k']}: {status}  ({detail})")
    json_path = outdir / "verify.json"
    write_json(json_path, results)
    _write_manifest(outdir, "verify", "verify", {"k": args.k}, [json_path])
    return 0 if all_ok else 1


def cmd_miniwell(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    geom = miniwell.MiniwellGeometry.from_json(args.geometry)
    state = montgomery.minimizer_state(args.k)
    kop = miniwell.build_effective_operator(geom, state)
    kspec = miniwell.spectrum_K(kop, count=args.count)
    json_path = outdir / "miniwell_spectrum.json"
    write_json(json_path, {
        "k": args.k,
        "c_omega": kop.c_omega,
        "e_omega": kop.e_omega,
        "Omega": kop.Omega,
        "A_real": kop.A_const.real,
        "A_imag": kop.A_const.imag,
        "alpha_min": kop.alpha_min,
        "spectrum": kspec,
    })
    _write_manifest(outdir, "miniwell", "miniwell",
                    {"geometry": str(args.geometry), "k": args.k,
                     "count": args.count}, [json_path])
    print(f"branch={kspec.branch} bottom={kspec.bottom:.6f}")
    return 0


def cmd_predict(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    h_list = _parse_float_list(args.h)
    geom = miniwell.MiniwellGeometry.from_json(args.geometry)
    state = montgomery.minimizer_state(args.k)
    kop = miniwell.build_effective_operator(geom, state)
    kspec = miniwell.spectrum_K(kop, count=args.count)
    if kspec.branch != "nondegenerate":
        raise SolverError("degenerate branch: supply explicit levels instead")
    forecast = asymptotics.build_forecast(
        args.k, geom.omega_min, kspec.levels, h_list, C=args.error_constant,
        c_res=args.residual_constant, nu_hat=state.report.nu_hat)
    json_path = outdir / "forecast.json"
    csv_path = outdir / "forecast.csv"
    write_json(json_path, forecast)
    n_gap = max((len(row) for row in forecast.gap_windows), default=0)
    header = (["h"] + [f"z_{m}" for m in range(len(forecast.K_levels))]
              + [f"gap_{end}_{i}" for i in range(n_gap) for end in ("lo", "hi")])
    rows = []
    for h, z, gaps in zip(forecast.h_values, forecast.z, forecast.gap_windows):
        row = [h, *z, *(v for gap in gaps for v in gap)]
        rows.append(row + [""] * (len(header) - len(row)))
    write_csv(csv_path, header, rows)
    _write_manifest(outdir, "predict", "predict",
                    {"geometry": str(args.geometry), "k": args.k, "h": args.h,
                     "count": args.count, "C": args.error_constant,
                     "c_res": args.residual_constant},
                    [json_path, csv_path])
    return 0


def cmd_validate2d(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    config = model2d.Field2DConfig.from_json(args.config)
    report = model2d.run_sweep(config, m_count=args.levels)
    json_path = outdir / "sweep2d.json"
    csv_path = outdir / "sweep2d.csv"
    data = asdict(report)
    data["warnings"] = data.pop("warnings_issued")
    write_json(json_path, data)
    m = report.eigenvalues.shape[1]
    write_csv(csv_path,
              ["h"] + [f"lambda_{i}" for i in range(m)]
              + [f"z_{i}" for i in range(m)],
              [[h, *lam, *z] for h, lam, z in zip(
                  report.h_values, report.eigenvalues, report.z_predicted)])
    _write_manifest(outdir, "validate2d", "validate2d",
                    {"config": str(args.config), "levels": args.levels},
                    [json_path, csv_path])
    print(f"leading exponent {report.leading_fit_exponent:.4f} "
          f"(target {float(asymptotics.leading_exponent(report.k)):.4f}); "
          f"splitting exponent {report.splitting_fit_exponent:.4f} "
          f"(target {float(asymptotics.splitting_exponent(report.k)):.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="magwell", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="band-minimum summary over a k range")
    t1.add_argument("--k", default="1..7", help="k or k range, e.g. 1..7")
    t1.add_argument("--tol", type=float, default=1e-4)
    t1.add_argument("--out", default=".")
    t1.set_defaults(func=cmd_table1)

    pr = sub.add_parser("profile", help="band profile and quadratic approximation")
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--range", required=True, help="alpha range LO:HI")
    pr.add_argument("--samples", type=int, default=201)
    pr.add_argument("--out", default=".")
    pr.set_defaults(func=cmd_profile)

    ve = sub.add_parser("verify", help="identity and criterion suite")
    ve.add_argument("--k", default="1..7")
    ve.add_argument("--out", default=".")
    ve.set_defaults(func=cmd_verify)

    mw = sub.add_parser("miniwell", help="K spectrum from a geometry file")
    mw.add_argument("--geometry", required=True)
    mw.add_argument("--k", type=int, default=1)
    mw.add_argument("--count", type=int, default=8)
    mw.add_argument("--out", default=".")
    mw.set_defaults(func=cmd_miniwell)

    pd = sub.add_parser("predict", help="gap forecast files")
    pd.add_argument("--geometry", required=True)
    pd.add_argument("--k", type=int, default=1)
    pd.add_argument("--h", required=True, help="h values, comma or space separated")
    pd.add_argument("--count", type=int, default=6)
    pd.add_argument("--error-constant", type=float, default=1.0)
    pd.add_argument("--residual-constant", type=float, default=1.0)
    pd.add_argument("--out", default=".")
    pd.set_defaults(func=cmd_predict)

    v2 = sub.add_parser("validate2d", help="2D sweep against predictions")
    v2.add_argument("--config", required=True)
    v2.add_argument("--levels", type=int, default=4)
    v2.add_argument("--out", default=".")
    v2.set_defaults(func=cmd_validate2d)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
