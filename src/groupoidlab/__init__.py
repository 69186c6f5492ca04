"""groupoidlab: an exact-arithmetic laboratory for etale groupoid models
of topological graph algebras over minimal dynamics.

The package builds graphs over Z x X driven by a free minimal system on
Z (a golden-ratio circle rotation or the 2-adic odometer, both with
decidable equality), and mechanically checks: minimality, contracting
witnesses, absence of regular vertices, groupoid axioms, principality,
and the K-theory and dimension bookkeeping of the construction.
"""

from .qphi import GOLDEN_ANGLE, PHI, QPhi, qphi_sign
from .spaces import (
    Arc,
    CantorBackend,
    CantorBox,
    CircleBackend,
    CircleBox,
    CirclePoint,
    FiniteBackend,
    FiniteBox,
    FinitePoint,
    MinimalSystem,
    PadicPoint,
    PairPoint,
    ProductBackend,
    circle_rotate,
    dense_sequence,
    eps_dense,
    finite_cyclic,
    freeness_check,
    golden_rotation,
    odometer,
    odometer_succ,
    point_backend,
)
from .graphs import (
    ContractingWitness,
    DiscreteEdge,
    DiscreteGraph,
    FinitePath,
    ModelEdge,
    ModelGraph,
    OneVertexLoopGraph,
    OpenPathBox,
    build_model_graph,
    find_contracting_witness,
    orbit_dense,
    orbit_plus,
    pitchfork,
    vertex_path,
    param_f_k,
    verify_contracting_witness,
)
from .boundary import (
    ApproachPointRule,
    BasePointTail,
    ConstantPointRule,
    ConstantTail,
    EscapingTail,
    EvPeriodic,
    FiniteBoundaryPath,
    HeadOnlyTail,
    InfiniteDiscretePath,
    InfiniteModelPath,
    SequenceDescription,
    ShiftDomainError,
    converges,
    homeo_h,
    homeo_h_inv,
    param_f,
    path_from_line,
    path_to_line,
    shift,
    shift_power,
)
from .groupoid import (
    BasicOpenBisection,
    DRGroupoid,
    GroupoidElement,
    IsotropyPairs,
    PathCylinder,
    axiom_sample,
    compose,
    inverse,
    isotropy_reduction,
    isotropy_search,
    make_element,
    principality_sample,
    unit,
)
from .ktheory import (
    FGAbelianGroup,
    SymbolicGroup,
    Z_POINTED,
    ZERO_GROUP,
    dim_bound,
    graph_ktheory,
    model_ktheory,
    snf,
    stabilize_ktheory,
    z_factor_ktheory,
)
from .reports import CheckRecord, Report

__all__ = [name for name in dir() if not name.startswith("_")]
