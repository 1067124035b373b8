"""Structural matrix algebras: block triangular form, scaling cocycles, and
exact factorization of algebra automorphisms."""

from .algebra import (
    Field,
    RATIONALS,
    StructMatrix,
    diagonal_matrix,
    gf,
    identity_matrix,
    is_member,
    matrix_unit,
)
from .automorphism import (
    AutomorphismSpec,
    BasisImageAutomorphism,
    FactoredAutomorphism,
    apply,
    compose,
    enumerate_relation_automorphisms,
    equal_as_maps,
    identity_automorphism,
    induced_automorphism,
    inner_automorphism,
    is_relation_automorphism,
    permutation_similarity,
    spec_from_json,
)
from .blockform import (
    BlockForm,
    BlockPattern,
    Permutation,
    block_pattern,
    build_block_form,
    compose_permutations,
    conjugate_relation,
    is_block_form,
    is_semisimple,
    render_block_pattern,
    render_pattern_grid,
)
from .errors import (
    BoundExceeded,
    InvalidOverride,
    InvalidRelation,
    Mismatch,
    NotAutomorphism,
    NotRelationAutomorphism,
    NotTransitive,
    OffPattern,
    ParseError,
    Singular,
    SmaError,
)
from .factor import (
    VerifyReport,
    conjugate_by_block_form,
    factor_automorphism,
    verify_automorphism,
)
from .oracle import (
    brute_cocycle_rank,
    brute_relation_automorphisms,
    brute_verify,
    enumerate_quasiorders,
    random_factored_automorphism,
)
from .relation import (
    ClassPartition,
    CondensationDAG,
    Relation,
    ValidationReport,
    condensation,
    equivalence_classes,
    transitive_reflexive_closure,
    validate,
)
from .transitive import (
    CocycleBasis,
    ScalingVector,
    TransitiveFn,
    TransitivityReport,
    ViolatingCycle,
    canonicalize,
    check_transitive,
    coboundary,
    cocycle_rank,
    triviality_witness,
)

__version__ = "0.1.0"
