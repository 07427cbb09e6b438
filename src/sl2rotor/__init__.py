"""Rotation numbers, nonnegative paths and discrete connections over PSL(2,R).

The core objects: conjugacy classification and the nonnegativity cone
(core), lifts to the universal cover with rotation numbers (cover),
sampled paths and their explicit constructors (paths), loop and cylinder
connections with holonomy, gauge and twist actions (connections), the
unit-disc isometry model (disc), and seeded verification sweeps plus JSON
artifacts behind the CLI (suites, serialize, cli).
"""

from .config import RunConfig
from .connections import (
    CylinderConnection,
    HolonomyMismatch,
    LoopConnection,
    NonHyperbolicBoundary,
    NotNonpositive,
    PantsHolonomyData,
    constant_loop,
    cover as loop_cover,
    cylinder_from_function,
    dehn_twist,
    from_nonpositive_path,
    gauge,
    gauge_crossing_class,
    loop_from_function,
    milnor_wood_check,
    pullback_flat,
    rot_c,
    winding_loop,
)
from .core import (
    ConjClassSpec,
    DegenerateClassification,
    GroupElement,
    LieElement,
    NonUnimodular,
    classify,
    cone_margins,
    cone_test,
    canonical_rep,
    is_cone_nonneg,
    is_cone_nonpos,
    psl_dist,
    random_in_class,
    sl2_exp,
    sl2_log,
    t_function,
)
from .cover import (
    LiftedElement,
    ParityUndefined,
    compose,
    deck,
    lift_of,
    one_param_lift,
    rot,
    rot_iterative,
    sl2_rep,
    track_lift_along,
    zero_rot_lift,
)
from .disc import (
    DiscIsometry,
    DiscLieElement,
    cayley,
    cayley_inv,
    cayley_inv_lie,
    cayley_lie,
    disc_bracket,
    disc_exp,
    dist_hyp,
    elliptic_cylinder_radius_bound,
    flow,
    hamiltonian,
    hyp_cylinder_max_length,
    poisson_defect,
    vector_field,
)
from .paths import (
    ConjugatorBranchLoss,
    GroupPath,
    ItineraryViolation,
    StepTooLarge,
    TripleWithLifts,
    elliptic_about,
    elliptic_itinerary_path,
    hyperbolic_itinerary_path,
    is_nonnegative,
    make_positive,
    rot_along,
    spiral_path,
    three_classes_triple,
    two_elliptic_trace,
    unit_path,
)
from .suites import SUITES, UnknownSuite, run_suite, verify_artifact

__version__ = "0.1.0"
