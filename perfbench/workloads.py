"""The three benchmark workloads: inputs from a seed, the timed operations,
and the correctness gate of each operation.

Every workload is a closed loop with one caller: an operation starts only
when the previous one has returned. The program is driven through
`magwell.cli.main` and the public functions of its modules, looked up at
call time so that a traced run sees the calls.

- band_table: `magwell table1 --k 1..7`, then `magwell verify --k 1..7`,
  in one cold process (14 operations, one per subcommand and k). Nearly all
  of its time is the 1D engine (`sl_engine`) under the band minimiser
  (`montgomery`), at two accuracies and through the minimiser-state cache.
- sweep2d: `magwell validate2d --levels 4` on the default k=1 profile at
  four h values spanning one decade, the smallest sweep `run_sweep` accepts
  (4 operations, one per h). Nearly all of its time is the 2D shift-invert
  solve in `model2d`; its 1D work is one band minimisation.
- k_oracle: the closed-form K spectrum and its finite-difference oracle on
  one configuration of dimension 2 and two of dimension 1 (3 operations).
  Nearly all of its time is the dimension-2 oracle in `miniwell`.

band_table and sweep2d have no random inputs: the seed is only recorded.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

K_RANGE = "1..7"
TABLE1_TOL = 1e-4                 # table1's default tol, also its gate
SWEEP_H = tuple(float(h) for h in np.geomspace(0.02, 0.002, 7)[::2])
SWEEP_LEVELS = 4
SWEEP_REL_TOL = 1e-9
LEAD_WINDOW, SPLIT_WINDOW = 0.02, 0.05     # criterion-7 exponent windows
ORACLE_COUNT = 6
ORACLE_TOL = 1e-4                 # criterion-6 gate
# The oracle's cost grows with its finite-difference box, whose size varies
# by a factor of four across criterion 6's distribution. The dimension-2
# draw is therefore conditioned on the box size lying within 2.5% of the
# distribution's median, so that seeds change the configuration but not the
# amount of work.
ORACLE_BOX_UNKNOWNS = 193_000
ORACLE_BOX_BAND = 0.025


def call_cli(argv: list[str]):
    """Exit code of `magwell <argv>`, or the text of an exception the CLI
    let escape (counted as a failed operation, never raised)."""
    from magwell import cli
    try:
        return cli.main(argv)
    except Exception as exc:  # the run must go on and report the failure
        return f"{type(exc).__name__}: {exc}"


def _load_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class BandTable:
    name = "band_table"

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "band_table"
        self.argv = [[cmd, "--k", K_RANGE, "--out", str(self.out)]
                     for cmd in ("table1", "verify")]
        self.ks = list(range(1, 8))

    def describe(self) -> dict:
        return {"commands": [["magwell"] + a[:3] for a in self.argv]}

    def run(self) -> list:
        return [call_cli(a) for a in self.argv]

    def gate(self, codes: list, reference: dict) -> list[dict]:
        ref = reference["band_table"]["table1"]
        table = _load_json(self.out / "table1.json") or {}
        verify = {r["k"]: r for r in _load_json(self.out / "verify.json") or []}
        ops = []
        for k in self.ks:
            row = table.get(str(k))
            if row is None:
                ops.append(_op(f"table1 k={k}", False, f"no row; cli returned {codes[0]!r}"))
                continue
            dev = max(abs(row[key] - ref[str(k)][key])
                      for key in ("alpha_min", "nu_hat", "lambda1"))
            ops.append(_op(f"table1 k={k}", dev <= TABLE1_TOL,
                           f"max deviation from reference {dev:.3e}"))
        for k in self.ks:
            row = verify.get(k)
            ok = row is not None and row["passed"] is True
            detail = ("no row" if row is None else
                      ", ".join(n for n, v in row["checks"].items() if not v) or "all checks pass")
            ops.append(_op(f"verify k={k}", ok, detail))
        return ops


class Sweep2D:
    name = "sweep2d"

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "sweep2d"
        self.out.mkdir(parents=True, exist_ok=True)
        config = self.out / "config.json"
        config.write_text(json.dumps({"k": 1, "h_list": list(SWEEP_H)}))
        self.argv = ["validate2d", "--config", str(config),
                     "--levels", str(SWEEP_LEVELS), "--out", str(self.out)]

    def describe(self) -> dict:
        return {"k": 1, "h_list": list(SWEEP_H), "levels": SWEEP_LEVELS}

    def run(self):
        return call_cli(self.argv)

    def gate(self, code, reference: dict) -> list[dict]:
        from magwell.asymptotics import leading_exponent, splitting_exponent
        ref = reference["sweep2d"]
        rep = _load_json(self.out / "sweep2d.json")
        if rep is None:
            return [_op(f"h={h:g}", False, f"no report; cli returned {code!r}")
                    for h in SWEEP_H]
        lead = abs(rep["leading_fit_exponent"] / float(leading_exponent(1)) - 1.0)
        split = abs(rep["splitting_fit_exponent"] / float(splitting_exponent(1)) - 1.0)
        fits_ok = lead < LEAD_WINDOW and split < SPLIT_WINDOW
        fits = (f"leading exponent {rep['leading_fit_exponent']:.4f}, "
                f"splitting exponent {rep['splitting_fit_exponent']:.4f}")
        measured = dict(zip(rep["h_values"], rep["eigenvalues"]))
        ops = []
        for h, want in zip(ref["h_values"], ref["eigenvalues"]):
            got = measured.get(h)
            if got is None:
                ops.append(_op(f"h={h:g}", False, "h missing from the report"))
                continue
            rel = max(abs(g - w) / abs(w) for g, w in zip(got, want))
            ops.append(_op(f"h={h:g}", fits_ok and rel <= SWEEP_REL_TOL,
                           f"max relative deviation {rel:.2e}; {fits}"))
        return ops


def oracle_box_unknowns(c: float, e: np.ndarray, omega: np.ndarray, a0: float,
                        count: int = ORACLE_COUNT) -> int:
    """Unknowns of the finer grid of the oracle's default box: per axis the
    turning ellipse of the count-th level plus a margin, at spacing 0.09
    (0.05 in 1D), halved once."""
    dim = len(e)
    msqrt = np.eye(dim) + (np.sqrt(c) - 1.0) * np.outer(e, e)
    w = np.sqrt(np.linalg.eigvalsh(msqrt @ omega @ msqrt))
    e_top = abs(a0) + float(np.sum(w)) + 2.0 * count * float(np.max(w))
    margin = 4.0 / np.sqrt(float(np.min(w)))
    spacing = 0.05 if dim == 1 else 0.09
    unknowns = 1
    for inv in np.diag(np.linalg.inv(omega)):
        n = int(np.ceil(2.0 * (np.sqrt(e_top * inv) + margin) / spacing)) + 1
        unknowns *= 2 * (n - 1) - 1
    return unknowns


def draw_configuration(rng: np.random.Generator, dim: int) -> dict:
    """One configuration with criterion 6's distribution."""
    c = float(rng.uniform(0.3, 4.0))
    v = rng.standard_normal(dim)
    B = rng.standard_normal((dim, dim))
    return {"c_omega": c, "e_omega": v / np.linalg.norm(v),
            "Omega": B @ B.T + 0.3 * np.eye(dim),
            "a0": float(rng.uniform(-0.5, 0.5))}


class KOracle:
    name = "k_oracle"

    def __init__(self, seed: int, workdir: Path):
        from magwell.miniwell import EffectiveOperatorK
        rng = np.random.default_rng(seed)
        lo = ORACLE_BOX_UNKNOWNS * (1 - ORACLE_BOX_BAND)
        hi = ORACLE_BOX_UNKNOWNS * (1 + ORACLE_BOX_BAND)
        self.configs = []
        while not self.configs:
            cfg = draw_configuration(rng, 2)
            if lo <= self.box(cfg) <= hi:
                self.configs.append(cfg)
        self.configs += [draw_configuration(rng, 1) for _ in range(2)]
        self.kops = [EffectiveOperatorK(c_omega=cfg["c_omega"], e_omega=cfg["e_omega"],
                                        Omega=cfg["Omega"], A_const=complex(cfg["a0"]),
                                        alpha_min=0.35, k=1)
                     for cfg in self.configs]

    @staticmethod
    def box(cfg: dict) -> int:
        return oracle_box_unknowns(cfg["c_omega"], cfg["e_omega"], cfg["Omega"], cfg["a0"])

    def describe(self) -> dict:
        return {"configurations": [
            {"dim": len(cfg["e_omega"]), "c_omega": cfg["c_omega"], "a0": cfg["a0"],
             "e_omega": cfg["e_omega"].tolist(), "Omega": cfg["Omega"].tolist(),
             "Omega_eigenvalues": np.linalg.eigvalsh(cfg["Omega"]).tolist(),
             "oracle_box_unknowns": self.box(cfg)}
            for cfg in self.configs]}

    def run(self) -> list:
        from magwell import miniwell
        results = []
        for kop in self.kops:
            try:
                closed = miniwell.spectrum_K(kop, ORACLE_COUNT).levels
                oracle = miniwell.spectrum_K_oracle(kop, ORACLE_COUNT)
                results.append(float(np.max(np.abs(closed - oracle))))
            except Exception as exc:  # counted as a failed operation
                results.append(f"{type(exc).__name__}: {exc}")
        return results

    def gate(self, defects: list, reference: dict) -> list[dict]:
        ops = []
        for i, (kop, d) in enumerate(zip(self.kops, defects)):
            name = f"config {i} dim={kop.dim}"
            if isinstance(d, str):
                ops.append(_op(name, False, d))
            else:
                ops.append(_op(name, d < ORACLE_TOL, f"max|closed - oracle| {d:.2e}"))
        return ops


def _op(name: str, ok: bool, detail: str) -> dict:
    return {"op": name, "ok": bool(ok), "detail": detail}


WORKLOADS = {w.name: w for w in (BandTable, Sweep2D, KOracle)}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)
