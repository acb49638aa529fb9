"""The public surface of ``nangle``.

Removing or adding an export is a deliberate change: update this list with it.
"""

import nangle

# ``nangle.__all__`` is every public name of the package namespace except the
# submodules that ``nangle/__init__.py`` imports.
PUBLIC_NAMES = [
    "AngulationClass",
    "AngulationEnumeration",
    "AxiomSuiteReport",
    "DualNumbers",
    "Homotopy",
    "IntModQSquared",
    "KMatrix",
    "MembershipCertificate",
    "NSequence",
    "NormalForm",
    "ObstructionReport",
    "QuotientComplex",
    "RMatrix",
    "ResidueField",
    "Ring",
    "SeqMorphism",
    "SplitResult",
    "TrivialSpec",
    "UnsolvableCertificate",
    "algebraicity_verdict",
    "alternating_witness",
    "apply_iso",
    "classify",
    "complete_morphism",
    "complete_to_angle",
    "compose",
    "cone_iso_from_homotopy",
    "contraction_of_cone_of_iso",
    "core_to_standard_iso",
    "direct_sum",
    "enumerate_angulations",
    "find_homotopy",
    "find_obstruction_d",
    "identity_morphism",
    "image_kernel_lengths",
    "inverse",
    "is_candidate",
    "is_contractible",
    "is_exact",
    "is_invertible",
    "kinv",
    "krank",
    "lift",
    "lift_p",
    "make_ring",
    "mapping_cone",
    "membership",
    "normal_form",
    "null_homotopy_d",
    "rotate_left",
    "rotate_right",
    "run_axiom_suite",
    "solve_linear",
    "solve_linear_explained",
    "solve_matrix",
    "solve_matrix_right",
    "split_trivials",
    "standard_angle",
    "trivial_sequence",
    "zero_morphism",
    "zero_sequence",
]


def test_public_names_are_pinned():
    assert sorted(nangle.__all__) == PUBLIC_NAMES
