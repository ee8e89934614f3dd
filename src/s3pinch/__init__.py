"""Curvature, genus bounds and tube volumes for surfaces in the unit 3-sphere."""

from .errors import (
    BracketFailure, DegenerateMetric, DomainError, FormatError, GenusDetectionFailure,
    ImmersionFailure, NoSpectralData, NotMinimal, NumericalFailure, OffSampleGrid, OffSphere,
    ResolutionTooCoarse, S3PinchError,
)
from .geometry import (
    CurvatureData, SurfacePoint, cross4, curvature_at, tangent_normal_frame,
)
from .pinch import (
    RootResult, acot, at_most, beta_pinch, beta_solve, beta_target, cubic_gap,
    eigenvalue_bound_rhs, eigenvalue_bounds, f_inverse, f_pinch, f_series,
    hk_time_integral, lemma3_F, lemma3_d2Fdtds, lemma3_dFds, lemma3_gap,
    min_surface_maxA_bound, prop1_integrand,
)
from .catalog import (
    FlatTorus, GeodesicSphere, PerturbedSphere, Surface, clifford_torus,
    parse_surface, sample_s3,
)
from .quadrature import (
    EigenReport, GapReport, GenusReport, QuadratureGrid, eigen_report,
    gap_report, genus_report, make_grid, sweep_tori,
)
from .tube import (
    ChainReport, TubeReport, monte_carlo_volume, side_upper_bound,
    verify_sum_inequality,
)
from .gridio import GridSurface, export_grid, import_surface

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
