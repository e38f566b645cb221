"""magwell: spectral analysis of magnetic Schrodinger operators whose field
vanishes on a hypersurface, near the bottom of the spectrum.

The toolkit has four computational layers: converged 1D eigenpairs of
confining Schrodinger operators (`sl_engine`), the band-function family
analysis built on them (`montgomery`), the effective miniwell operator and
its spectrum (`miniwell`) feeding semiclassical energy/gap predictions
(`asymptotics`), and a direct 2D discretization that measures the true low
spectrum for validation (`model2d`). `cli` exposes everything as
reproducible batch subcommands.
"""

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
from .miniwell import (
    EffectiveOperatorK,
    KSpectrum,
    MiniwellGeometry,
    build_A,
    build_Omega,
    build_effective_operator,
    spectrum_K,
    spectrum_K_oracle,
)
from .asymptotics import (
    GapForecast,
    build_forecast,
    exponent_fit,
    gap_intervals,
    ground_energy_bounds,
    quasimode_energy,
)
from .model2d import (
    Field2DConfig,
    Sweep2DReport,
    assemble_2d,
    lowest_eigenvalues_2d,
    run_sweep,
)
