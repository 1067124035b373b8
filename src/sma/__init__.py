"""Structural matrix algebras: block triangular form, scaling cocycles, and
exact factorization of algebra automorphisms.

`import sma` loads no submodule.  Each public name is imported from the
submodule `_SUBMODULE` names on first use (PEP 562), so a program pays only
for the modules it reads.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "algebra": (
            "Field", "RATIONALS", "StructMatrix", "gf", "identity_matrix",
            "is_member", "matrix_unit",
        ),
        "automorphism": (
            "AutomorphismSpec", "BasisImageAutomorphism", "FactoredAutomorphism", "apply", "compose",
            "enumerate_relation_automorphisms", "equal_as_maps", "identity_automorphism",
            "induced_automorphism", "inner_automorphism", "is_relation_automorphism",
            "permutation_similarity", "spec_from_json",
        ),
        "blockform": (
            "BlockForm", "BlockPattern", "Permutation", "block_pattern", "build_block_form",
            "compose_permutations", "conjugate_relation", "is_block_form", "is_semisimple",
            "render_pattern_grid",
        ),
        "errors": (
            "BoundExceeded", "InvalidOverride", "InvalidRelation", "Mismatch", "NotAutomorphism",
            "NotRelationAutomorphism", "NotTransitive", "OffPattern", "ParseError", "Singular",
            "SmaError",
        ),
        "factor": ("VerifyReport", "conjugate_by_block_form", "factor_automorphism", "verify_automorphism"),
        "oracle": (
            "brute_cocycle_rank", "brute_relation_automorphisms", "brute_verify",
            "enumerate_quasiorders", "random_factored_automorphism",
        ),
        "relation": (
            "ClassPartition", "CondensationDAG", "Relation", "ValidationReport", "condensation",
            "equivalence_classes", "transitive_reflexive_closure", "validate",
        ),
        "transitive": (
            "CocycleBasis", "ScalingVector", "TransitiveFn", "ViolatingCycle",
            "canonicalize", "check_transitive", "coboundary", "cocycle_rank", "triviality_witness",
        ),
    }.items()
    for name in names
}
__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
