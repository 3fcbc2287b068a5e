"""varifold_lab: exact calculus on one-dimensional varifolds.

Weighted segment/ray measures with exact mass and density, first variation
and stationarity checking, weighted projections, cut-and-paste
stationarization, tangent-cone blow-up, and tomographic reconstruction of
conic varifolds from weighted projections.
"""

__version__ = "0.1.0"

from .core import (
    ConicVarifold,
    DensityValue,
    DiscreteVarifold,
    RayPiece,
    SampledDensity,
    SegmentPiece,
    SphereGrid,
    Subspace,
    circle_arc_mass,
    circle_grid,
    conic_atoms,
    conic_to_discrete,
    density,
    dilate,
    mass,
    restrict,
    sphere_grid,
)
from .variation import (
    DegenerateGeometryError,
    TestField,
    VariationAtom,
    boundary_variation,
    bump_field,
    first_variation,
    first_variation_quadrature,
    is_stationary,
    linear_field,
    plateau_field,
    vertex_residuals,
)
from .projection import (
    counterexample_pair,
    halfline_multiplicity,
    mapping_projection,
    weighted_projection,
    weighted_projection_conic,
)
from .surgery import SurgeryResult, cut_and_paste, find_good_radius
from .tomography import (
    AmbiguousReconstruction,
    BandOracle,
    BandSpec,
    CoverageGap,
    GnomonicResult,
    LineMeasure,
    PlaneMeasure,
    band_marginal,
    default_normals,
    fourier_of_marginal,
    gnomonic_pushforward,
    hyperplane_of,
    lift_to_sphere,
    locate_marginal_atoms,
    marginal_direction_battery,
    reconstruct_conic,
    reconstruct_from_marginals,
    reconstruct_plane_measure,
)
from .blowup import (
    DensityBoundViolation,
    PreconditionViolated,
    TestBattery,
    ZeroDensityError,
    default_battery,
    dense_lines_fixture,
    density_bound_check,
    projection_growth_table,
    radial_projection_cap_mass,
    tangent_estimate,
    weak_star_distance,
)
from .io import VarifoldDocument, load_varifold, save_varifold
