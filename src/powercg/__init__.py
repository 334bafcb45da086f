"""Power-weighted conjugate-gradient iterations and their spectral diagnostics.

The degree-N iterate minimizes the A^{theta/2}-weighted distance to the
solution set of A f = g over the affine Krylov space of the initial residual;
theta = 1 is plain CG, theta = 2 minimizes the residual, fractional and
larger powers interpolate and extrapolate. The companion machinery follows
the error through a discrete spectral measure: orthogonal node polynomials,
their zeros, the delta functional of the zeros, and a verified chain of tail
bounds.
"""

from .linop import (DiagonalOperator, DimensionMismatchError, FourierOperator,
                    KernelComponentError, MatrixOperator, SelfAdjointOperator,
                    SpectralAccessError)
from .measures import DiscreteSpectralMeasure, spectral_measure, weight_by_power
from .krylov import (ConsistencyError, InverseProblem, IterateHistory,
                     run_cg, spectral_iterates, theta_iterate)
from .orthopoly import (ChainTable, ZeroTable, chain_table, check_separation,
                        delta_n, orthogonality_gap, residual_polynomials)
from .diagnostics import ConvergenceRecord, np_rate_monitor, rho
from .runs import (RunConfig, RunRecord, VersionError, build_custom_case,
                   build_test_case, emit_json, read_csv, read_json, run,
                   verify_case, write_csv)

__version__ = "0.1.0"

__all__ = [
    "SelfAdjointOperator", "MatrixOperator", "DiagonalOperator",
    "FourierOperator",
    "DimensionMismatchError", "KernelComponentError", "SpectralAccessError",
    "DiscreteSpectralMeasure", "spectral_measure", "weight_by_power",
    "InverseProblem", "IterateHistory", "ConsistencyError",
    "run_cg", "theta_iterate", "spectral_iterates",
    "ZeroTable", "residual_polynomials", "delta_n",
    "check_separation", "orthogonality_gap", "chain_table", "ChainTable",
    "ConvergenceRecord", "rho", "np_rate_monitor",
    "RunConfig", "RunRecord", "VersionError", "build_test_case",
    "build_custom_case", "run", "verify_case", "emit_json", "read_json",
    "write_csv", "read_csv",
]
