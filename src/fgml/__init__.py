"""Graded modal logic over finite fuzzy topological spaces.

Exact, desk-scale tooling: grade chains, fuzzy sets and spaces, finite
frames and their points, functor signatures with modal liftings, graded
formula semantics, modal-equivalence quotients, and Sigma- and
Aczel-Mendler bisimulation checking.
"""

from .bisim import (
    BisimReport,
    BisimWitness,
    coherent_pairs,
    greatest_sigma_bisimulation,
    is_am_bisimulation,
    is_coherent,
    is_sigma_bisimulation,
)
from .errors import FgmlError
from .frames import (
    FiniteFrame,
    FramePoint,
    duality_check,
    is_frame,
    is_frame_hom,
    is_sober,
    is_spatial,
    point_topology,
    points,
    pt_on_morphism,
)
from .fuzzyset import (
    Carrier,
    CarrierMap,
    FuzzySet,
    Relation,
    direct_image,
    fs_complement,
    fs_join,
    fs_leq,
    fs_meet,
    inverse_image,
    relation_image,
    relation_preimage,
)
from .grades import Grade, GradeLattice, complement, join, make_lattice, meet
from .logic import (
    And,
    Formula,
    Modal,
    Model,
    Or,
    Prop,
    Top,
    check_model_morphism,
    check_truth_preservation,
    definable_opens,
    enumerate_formulas,
    evaluate,
    modal_equivalence_classes,
    parse_formula,
    quotient_model,
    validate_model,
)
from .signature import (
    FunctorInstance,
    Lifting,
    Signature,
    check_characteristic,
    check_monotone,
    check_natural,
    dual_lifting,
    fuzzy_powerset_functor,
    identity_functor,
)
from .topology import (
    FuzzySpace,
    generate_topology,
    is_continuous,
    is_t0,
    is_topology,
    opens_frame,
    subspace_topology,
)

__version__ = "0.1.0"
