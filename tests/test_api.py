"""The public surface of ``nangle``.

Removing or adding an export is a deliberate change: update this list with it.
"""

import ast
import dataclasses
from pathlib import Path

import nangle

SRC = Path(nangle.__file__).resolve().parent

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

# The fields, in order, of every exported dataclass.
DATACLASS_FIELDS = {
    "AngulationClass": ("u_rep", "generator"),
    "AngulationEnumeration": ("status", "classes", "reason", "rotation_witness"),
    "AxiomSuiteReport": ("ring", "n", "u", "max_rank", "trials", "seed", "counts", "failures"),
    "Homotopy": ("phi", "psi", "thetas"),
    "MembershipCertificate": ("verdict", "u_class", "reason", "split", "product_residue"),
    "NSequence": ("ring", "n", "ranks", "maps"),
    "NormalForm": ("P", "Q", "u", "v"),
    "ObstructionReport": ("verdict", "d", "witness", "reason", "certificate"),
    "QuotientComplex": ("ring", "d", "n", "u"),
    "SeqMorphism": ("source", "target", "phis"),
    "SplitResult": ("core", "trivials", "iso"),
    "TrivialSpec": ("rank", "position"),
    "UnsolvableCertificate": ("row", "value", "constraint", "normal"),
}


def test_public_names_are_pinned():
    assert sorted(nangle.__all__) == PUBLIC_NAMES


def test_dataclass_fields_are_pinned():
    exported = {name: getattr(nangle, name) for name in nangle.__all__}
    got = {name: tuple(f.name for f in dataclasses.fields(obj)) for name, obj in exported.items() if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert got == DATACLASS_FIELDS


def _private_definitions_and_references():
    """The private functions, methods and classes defined in ``nangle``
    (a leading underscore, not a dunder), and every name the package reads
    as a bare name or as an attribute."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined[name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_private_definition_has_a_caller():
    """Code with no caller goes: a private helper that nothing in the
    package refers to is dead.  Public names are pinned above instead."""
    defined, used = _private_definitions_and_references()
    assert defined
    dead = sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)
    assert not dead, f"private definitions with no reference in nangle: {dead}"
