"""Batch command-line front end.

Subcommands map one-to-one onto the library surfaces: `table1` (band-minimum
summary over a k range), `profile` (band profile + quadratic approximation),
`verify` (identity / criterion suite), `miniwell` (K spectrum from a
geometry file), `predict` (gap forecast files), `validate2d` (2D sweep).

Every invocation writes its outputs (UTF-8 CSV/JSON, RFC-4180 quoting via
the csv module) plus a manifest JSON recording the subcommand, the parsed
arguments, the tool version, a timestamp, and the output paths: each `cmd_*`
returns (exit code, manifest name, output paths) and `main` writes the
manifest. This module is the one place that names output columns and keys;
`_files` writes them, every float as `repr(float(v))`, so outputs are
byte-identical for identical parameter sets. The k sweeps of `table1` and
`verify` solve their k in process, one after another, in k order.

`table1`, `profile` and `verify` need numpy alone, and a process that runs
only them (or `--version`) never imports scipy. `miniwell` and `predict`
import `miniwell`, and `validate2d` imports `model2d`, inside the
subcommand: those two modules and their sparse solves need scipy, which
adds about 0.25 s to a cold process.

Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._files import write_csv, write_json
from .sl_engine import SolverError, eigenvalue_converged
from . import montgomery, asymptotics


class UsageError(Exception):
    pass


def _parse_k_range(text: str) -> list[int]:
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError as exc:
        raise UsageError(f"bad k range {text!r}: {exc}") from exc
    if lo > hi:
        raise UsageError(f"k range {text!r} has LO > HI")
    if lo < 1:
        raise UsageError(f"k values must be >= 1, got {text!r}")
    return list(range(lo, hi + 1))


def _parse_float_list(text: str) -> list[float]:
    try:
        vals = [float(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"bad float list {text!r}") from exc
    if not vals:
        raise UsageError("empty list")
    if not np.all(np.isfinite(vals)):
        raise UsageError(f"non-finite value in {text!r}")
    return vals


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected LO:HI") from exc
    if not np.all(np.isfinite([lo, hi])):
        raise UsageError(f"non-finite bound in range {text!r}")
    if lo > hi:
        raise UsageError(f"range {text!r} has LO > HI")
    return lo, hi


def _each_k(ks: list[int], solve) -> dict:
    """{k: solve(k)}, each k solved in process, in k order. A k whose solve
    raises SolverError is reported on stderr and left out, so it does not
    cost the others; any other error propagates at once."""
    results = {}
    for k in ks:
        try:
            results[k] = solve(k)
        except SolverError as exc:
            print(f"k={k}: FAILED ({exc})", file=sys.stderr)
    return results


def cmd_table1(args) -> tuple[int, str, list[Path]]:
    ks = _parse_k_range(args.k)
    reports = _each_k(ks, lambda k: montgomery.minimizer_state(k, args.tol).report)
    outdir = Path(args.out)
    if reports:                  # no table without a column
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
    return 1 if len(reports) < len(ks) else 0, "table1", [csv_path, json_path]


def cmd_profile(args) -> tuple[int, str, list[Path]]:
    lo, hi = _parse_range(args.range)
    outdir = Path(args.out)
    report = montgomery.minimizer_state(args.k).report
    table = montgomery.profile(report, (lo, hi), args.samples)
    if not (lo <= report.alpha_min <= hi):
        print(f"warning: range [{lo}, {hi}] does not contain "
              f"alpha_min={report.alpha_min:.4f}", file=sys.stderr)
    csv_path = outdir / f"profile_k{args.k}.csv"
    json_path = outdir / f"profile_k{args.k}.json"
    rows = np.column_stack([table.alpha, table.lambda0, table.lambda_quad])
    write_csv(csv_path, ["alpha", "lambda0", "lambda_quad"], rows)
    write_json(json_path, {"k": report.k, "alpha_min": report.alpha_min,
                           "nu_hat": report.nu_hat, "d2": report.d2,
                           "rows": rows})
    return 0, f"profile_k{args.k}", [csv_path, json_path]


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
        # the split solve puts the even levels in slots 0, 2 and the odd one
        # in slot 1; these are the levels' parities only if the slots ascend
        # (Sturm ordering)
        checks["parity"] = (st.spectrum.parity == ("even", "odd", "even")
                            and bool(np.all(np.diff(st.spectrum.eigenvalues) > 0)))
    rng = np.random.default_rng(VERIFY_SEED + k)
    ok_scaling = True
    for _ in range(2):
        alpha = float(rng.uniform(-1.0, 1.5))
        beta = float(rng.uniform(0.3, 4.0))
        scaled = montgomery.lambda_m(k, alpha, beta, 0, tol=1e-9)
        direct, _ = eigenvalue_converged(
            montgomery.family_potential(k, alpha, beta), 0, 1e-9)
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


def cmd_verify(args) -> tuple[int, str, list[Path]]:
    ks = _parse_k_range(args.k)
    results = list(_each_k(ks, _verify_one_k).values())
    all_ok = len(results) == len(ks)
    for res in results:
        status = "PASS" if res["passed"] else "FAIL"
        all_ok &= res["passed"]
        detail = ", ".join(f"{name}={'ok' if ok else 'FAIL'}"
                           for name, ok in res["checks"].items())
        print(f"k={res['k']}: {status}  ({detail})")
    json_path = Path(args.out) / "verify.json"
    write_json(json_path, results)
    return 0 if all_ok else 1, "verify", [json_path]


def cmd_miniwell(args) -> tuple[int, str, list[Path]]:
    from . import miniwell
    geom = miniwell.MiniwellGeometry.from_json(args.geometry)
    report = montgomery.minimizer_state(args.k).report
    kop = miniwell.build_effective_operator(geom, report)
    kspec = miniwell.spectrum_K(kop, count=args.count)
    json_path = Path(args.out) / "miniwell_spectrum.json"
    write_json(json_path, {
        "k": args.k,
        "c_omega": kop.c_omega,
        "e_omega": kop.e_omega,
        "Omega": kop.Omega,
        "A_real": kop.A_const.real,
        "A_imag": kop.A_const.imag,
        "alpha_min": kop.alpha_min,
        "spectrum": {"branch": "nondegenerate", "bottom": kspec.levels[0],
                     "imag_A_warning": kspec.imag_A_warning,
                     "levels": kspec.levels},
    })
    print(f"branch=nondegenerate bottom={kspec.levels[0]:.6f}")
    return 0, "miniwell", [json_path]


def cmd_predict(args) -> tuple[int, str, list[Path]]:
    from . import miniwell
    outdir = Path(args.out)
    h_list = _parse_float_list(args.h)
    geom = miniwell.MiniwellGeometry.from_json(args.geometry)
    report = montgomery.minimizer_state(args.k).report
    kop = miniwell.build_effective_operator(geom, report)
    levels = miniwell.spectrum_K(kop, count=args.count).levels
    forecast = asymptotics.build_forecast(
        args.k, geom.omega_min, levels, h_list, C=args.C,
        c_res=args.c_res, nu_hat=report.nu_hat)
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
    return 0, "predict", [json_path, csv_path]


def cmd_validate2d(args) -> tuple[int, str, list[Path]]:
    from . import model2d
    outdir = Path(args.out)
    config = model2d.Field2DConfig.from_json(args.config)
    # every warning of the sweep is printed as one line with no source
    # location, as failures are
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = model2d.run_sweep(config, m_count=args.levels)
        finally:
            for caught_warning in caught:
                print(f"warning: {caught_warning.message}", file=sys.stderr)
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
    print(f"leading exponent {report.leading_fit_exponent:.4f} "
          f"(target {float(asymptotics.leading_exponent(report.k)):.4f}); "
          f"splitting exponent {report.splitting_fit_exponent:.4f} "
          f"(target {float(asymptotics.splitting_exponent(report.k)):.4f})")
    return 0, "validate2d", [json_path, csv_path]


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
    pd.add_argument("--error-constant", dest="C", type=float, default=1.0)
    pd.add_argument("--residual-constant", dest="c_res", type=float, default=1.0)
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
        code, name, outputs = args.func(args)
        write_json(Path(args.out) / f"{name}_manifest.json", {
            "subcommand": args.command,
            "parameters": {key: value for key, value in vars(args).items()
                           if key not in ("command", "func", "out")},
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": [str(p) for p in outputs],
        })
        return code
    except (UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
