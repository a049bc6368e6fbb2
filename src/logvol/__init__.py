"""Allowability checks, blow-up towers and singular integration of
logarithmic forms on semi-algebraic regions."""

from .polyform import (
    LogForm,
    MonomialMap,
    NewtonData,
    PolyError,
    PolyParseError,
    Polynomial,
    newton_exponents,
    parse_poly,
)
from .region import (
    AllowVerdict,
    Cell,
    Constraint,
    DimResult,
    ProbeConfig,
    Region,
    RegionError,
    StrictVerdict,
    parse_constraint,
    parse_region,
)
from .slicing import (
    FiberSlices,
    RootIntervals,
    isolate_real_roots,
    slice_fiber,
    slice_sup_volume,
)
from .blowup import (
    BlowupError,
    BlowupTower,
    Chart,
    integral_invariance_check,
    make_almost_strictly_allowable,
    make_proper,
    preimage_region,
    strict_transform,
    verify_proper,
)
from .integrate import (
    DecayFit,
    DecayReport,
    IntegralResult,
    IntegrationError,
    Ladder,
    QuadConfig,
    deformation_limit_check,
    excision_ladder,
    fit_decay_exponent,
    integrate_abs,
    integrate_log_form,
    integrate_mc,
    pushforward_bound_check,
    slice_decay_report,
)
from .complexint import (
    ComplexIntError,
    ComplexLogForm,
    Partition,
    RealTask,
    annulus_slice_decay,
    conjugate_region,
    integrate_admissible,
    polar_inverse,
    polar_map,
    pullback_complex_log_form,
    reduce_to_real_tasks,
    sector_decompose,
    split_projective_charts,
    task_allowability,
    transform_piece,
)
from .stokes import (
    BoundaryChain,
    SimplexMap,
    StokesError,
    boundary_chain,
    check_stokes,
    simplex_region,
    t_excision,
    t_excision_region,
)

__version__ = "0.1.0"
