"""Write perfbench/reference.json: the band_table and sweep2d outputs that
the gates compare against, computed by the magwell sources of this
checkout with the benchmark's thread settings.

    python3 perfbench/make_reference.py

The committed file comes from the commit that introduced the benchmark.
Regenerate it only in a change that alters these results on purpose.
"""
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import THREAD_ENV  # noqa: E402

os.environ.update(THREAD_ENV)

from workloads import REFERENCE, BandTable, Sweep2D  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        band = BandTable(0, Path(tmp))
        sweep = Sweep2D(0, Path(tmp))
        codes = band.run() + [sweep.run()]
        if codes != [0, 0, 0]:
            print(f"magwell failed: exit codes {codes}", file=sys.stderr)
            return 1
        table = json.loads((band.out / "table1.json").read_text())
        report = json.loads((sweep.out / "sweep2d.json").read_text())
    reference = {
        "band_table": {"table1": {
            k: {key: row[key] for key in ("alpha_min", "nu_hat", "lambda1")}
            for k, row in table.items()}},
        "sweep2d": {key: report[key] for key in
                    ("h_values", "eigenvalues", "leading_fit_exponent",
                     "splitting_fit_exponent")},
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
