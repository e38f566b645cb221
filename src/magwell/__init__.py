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
    ConfiningPotential,
    ConvergenceError,
    Grid1D,
    SolverError,
    Spectrum1D,
    assemble,
    eigenvalue_converged,
    lowest_eigenpairs,
)
from .montgomery import (
    MinimizerReport,
    MinimizerState,
    ModelParams,
    ProfileTable,
    d2lambda_dalpha2,
    dlambda_dalpha,
    lambda_m,
    large_alpha_check,
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
    moments_1d,
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
