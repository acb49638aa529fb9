"""Exact computation with n-angulated structures on finitely generated free
modules over local rings with principal square-zero maximal ideal."""

import types

from .algebraicity import (
    ObstructionReport,
    QuotientComplex,
    algebraicity_verdict,
    find_obstruction_d,
    null_homotopy_d,
    alternating_witness,
)
from .angulation import (
    AngulationClass,
    AngulationEnumeration,
    AxiomSuiteReport,
    MembershipCertificate,
    SplitResult,
    classify,
    complete_morphism,
    complete_to_angle,
    core_to_standard_iso,
    enumerate_angulations,
    is_exact,
    membership,
    run_axiom_suite,
    split_trivials,
)
from .homotopy import (
    Homotopy,
    cone_iso_from_homotopy,
    contraction_of_cone_of_iso,
    find_homotopy,
    is_contractible,
)
from .matrices import (
    KMatrix,
    NormalForm,
    RMatrix,
    UnsolvableCertificate,
    inverse,
    is_invertible,
    kinv,
    krank,
    lift,
    lift_p,
    normal_form,
    solve_linear,
    solve_linear_explained,
    solve_matrix,
    solve_matrix_right,
)
from .rings import DualNumbers, IntModQSquared, ResidueField, Ring, make_ring
from .sequences import (
    NSequence,
    SeqMorphism,
    TrivialSpec,
    apply_iso,
    compose,
    direct_sum,
    identity_morphism,
    is_candidate,
    mapping_cone,
    rotate_left,
    rotate_right,
    standard_angle,
    trivial_sequence,
    zero_morphism,
    zero_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], types.ModuleType)]

__version__ = "0.1.0"
