"""magwell: spectral analysis of magnetic Schrodinger operators whose field
vanishes on a hypersurface, near the bottom of the spectrum.

The toolkit has four computational layers: converged 1D eigenpairs of
confining Schrodinger operators (`sl_engine`), the band-function family
analysis built on them (`montgomery`), the effective miniwell operator and
its spectrum (`miniwell`) feeding semiclassical energy/gap predictions
(`asymptotics`), and a direct 2D discretization that measures the true low
spectrum for validation (`model2d`). `cli` exposes everything as
reproducible batch subcommands.

`sl_engine`, `montgomery` and `asymptotics` need numpy alone and are
imported with the package. `miniwell` and `model2d` need scipy: their
exports are listed in `_LAZY` and imported on first access (PEP 562), so
`from magwell import run_sweep` works and `import magwell` loads no scipy.
"""

import importlib

__version__ = "0.1.0"

from .sl_engine import (
    AssemblyError,
    ConvergenceError,
    SineBasis,
    SolverError,
    Spectrum1D,
    eigenvalue_converged,
)
from .montgomery import (
    MinimizerReport,
    MinimizerState,
    ProfileTable,
    lambda_m,
    minimizer_state,
    profile,
)
from .asymptotics import (
    GapForecast,
    build_forecast,
    exponent_fit,
    gap_intervals,
    ground_energy_bounds,
    quasimode_energy,
)

_LAZY = {name: module for module, names in (
    ("miniwell", ("EffectiveOperatorK", "KSpectrum", "MiniwellGeometry", "build_A",
                  "build_Omega", "build_effective_operator", "spectrum_K",
                  "spectrum_K_oracle")),
    ("model2d", ("Field2DConfig", "Sweep2DReport", "assemble_2d",
                 "lowest_eigenvalues_2d", "run_sweep")),
) for name in names}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
