"""Brute-force cross-checks and seeded random generators.

Only the brute-force checks are independent of the main implementations:
they share nothing with them beyond the Relation type and scalar and matrix
arithmetic.  Automorphisms are found by filtering every permutation, cocycle
ranks come from the raw unreduced constraint system with a local elimination
routine, quasi-orders are enumerated by filtering every off-diagonal pair
subset, and maps are verified by multiplying every pair of basis images.
The random_* generators are not independent: they draw from the library's
cocycle basis, relation-automorphism stabilizer chain and scaling-function
group operations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import prod
from typing import Iterator

from .algebra import (
    Field,
    StructMatrix,
    grid_add,
    grid_mul,
    identity_grid,
    invert_grid,
    is_member,
    matrix_rank,
    zero_grid,
)
from .automorphism import (
    AutomorphismSpec,
    FactoredAutomorphism,
    enumerate_relation_automorphisms,  # noqa: F401  not called here; kept as a name tracing can rebind
    listed_automorphism,
    size_bound,
    stabilizer_chain,
)
from .blockform import Permutation
from .errors import BoundExceeded, Singular
from .factor import VerifyReport
from .relation import Relation
from .transitive import TransitiveFn, coboundary, cocycle_rank, exponential

BRUTE_AUTOS_BOUND = 8
BRUTE_RANK_BOUND = 6
QUASIORDER_BOUND = 4
MAX_EXPECTED_DRAWS = 10_000  # random_invertible's bound on 1/P


def brute_relation_automorphisms(rel: Relation) -> tuple[Permutation, ...]:
    """Filter all n! permutations by the definitional test."""
    n = rel.n
    if n > size_bound(BRUTE_AUTOS_BOUND):
        raise BoundExceeded(f"n = {n} exceeds the brute-force bound")
    found = []
    everything = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for image in permutations(range(1, n + 1)):
        if all(((i, j) in rel.pairs) == ((image[i - 1], image[j - 1]) in rel.pairs) for i, j in everything):
            found.append(Permutation(n, image))
    return tuple(found)


def _rank_fractions(rows: list[list[Fraction]]) -> int:
    """Row-reduction rank over the rationals, local to the oracle."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][c]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def brute_cocycle_rank(rel: Relation) -> int:
    """Solution dimension of the raw chain constraints minus the coboundary dimension.

    No structural shortcuts: every off-diagonal pair is its own variable (the
    antisymmetry x(j,i) = -x(i,j) has to emerge from the constraints), and the
    coboundary dimension is the rank of the full difference map.
    """
    rel.require_quasi_order()
    if rel.n > size_bound(BRUTE_RANK_BOUND):
        raise BoundExceeded(f"n = {rel.n} exceeds the brute-force bound")
    variables = rel.off_diagonal_pairs()
    index = {p: k for k, p in enumerate(variables)}
    nvars = len(variables)
    zero, one = Fraction(0), Fraction(1)

    rows = []
    for (i, j) in rel.sorted_pairs():
        for (j2, k) in rel.sorted_pairs():
            if j2 != j:
                continue
            row = [zero] * nvars
            if i != j:
                row[index[(i, j)]] += one
            if j != k:
                row[index[(j, k)]] += one
            if i != k:
                row[index[(i, k)]] -= one
            if any(v != 0 for v in row):
                rows.append(row)
    solution_dim = nvars - _rank_fractions(rows)

    cob_rows = []
    for (i, j) in variables:
        row = [zero] * rel.n
        row[i - 1] += one
        row[j - 1] -= one
        cob_rows.append(row)
    coboundary_dim = _rank_fractions(cob_rows)
    return solution_dim - coboundary_dim


def enumerate_quasiorders(n: int) -> Iterator[Relation]:
    """All reflexive-transitive relations on {1..n}, by filtering pair subsets."""
    if n > size_bound(QUASIORDER_BOUND):
        raise BoundExceeded(f"n = {n} exceeds the enumeration bound")
    diagonal = [(i, i) for i in range(1, n + 1)]
    off = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for mask in range(1 << len(off)):
        chosen = {off[b] for b in range(len(off)) if mask >> b & 1}
        pairs = chosen.union(diagonal)
        transitive = True
        for (i, j) in pairs:
            for (j2, k) in pairs:
                if j2 == j and (i, k) not in pairs:
                    transitive = False
                    break
            if not transitive:
                break
        if transitive:
            yield Relation(n, frozenset(pairs))


def brute_verify(phi: AutomorphismSpec) -> VerifyReport:
    """The defining properties on the basis, checked in full: in-pattern images,
    the unit-product rule for every pair of units, preservation of the
    identity, and bijectivity.  Reports the first failing identity, with the
    same check names and details as verify_automorphism."""
    rel, fld = phi.relation, phi.field
    images = phi.images()
    pairs = rel.sorted_pairs()

    for p in pairs:
        if not is_member(rel, images[p]):
            return VerifyReport(False, "pattern", f"image of unit {p} leaves the pattern")

    n = rel.n
    zero = zero_grid(fld, n)
    for (i, j) in pairs:
        for (k, l) in pairs:
            prod = grid_mul(fld, images[(i, j)], images[(k, l)])
            expected = images[(i, l)] if j == k else zero
            if prod != expected:
                return VerifyReport(
                    False,
                    "multiplicativity",
                    f"image({i},{j}) * image({k},{l}) != "
                    + (f"image({i},{l})" if j == k else "0"),
                )

    total = zero
    for i in range(1, n + 1):
        total = grid_add(fld, total, images[(i, i)])
    if total != identity_grid(fld, n):
        return VerifyReport(False, "unit", "images of the diagonal units do not sum to the identity")

    coords = []
    for out_pair in pairs:
        r, c = out_pair
        coords.append([images[in_pair][r - 1][c - 1] for in_pair in pairs])
    if matrix_rank(fld, coords) != len(pairs):
        return VerifyReport(False, "bijectivity", "induced linear map is not bijective")
    return VerifyReport(True)


_RATIONAL_BASES = (2, 3, 5, 7)


def random_in_pattern(rel: Relation, field: Field, rng: random.Random) -> StructMatrix:
    values = {p: field.random(rng) for p in rel.sorted_pairs()}
    return StructMatrix.from_values(field, rel, values)


def random_invertible(rel: Relation, field: Field, rng: random.Random) -> StructMatrix:
    """Random in-pattern matrix, resampled until invertible.  Over GF(q) a draw is
    invertible with probability P, the product over classes C of prod_{i<=|C|} (1 - q^-i);
    when 1/P > MAX_EXPECTED_DRAWS, BoundExceeded is raised before the first draw."""
    if not field.is_rational:
        p = prod(1 - field.char ** -i for c in rel.partition.classes for i in range(1, len(c) + 1))
        if p * MAX_EXPECTED_DRAWS < 1:
            raise BoundExceeded(f"a random conjugator over {field.name} is invertible with probability {p:.3g}")
    while True:
        m = random_in_pattern(rel, field, rng)
        try:
            invert_grid(field, m.rows)
        except Singular:
            continue
        return m


def random_transitive_fn(rel: Relation, field: Field, rng: random.Random) -> TransitiveFn:
    """Random coboundary times random small powers of the canonical generators."""
    g = coboundary(rel, field, [field.random_nonzero(rng) for _ in range(rel.n)])
    basis = cocycle_rank(rel)
    for vector in basis.vectors:
        power = rng.randint(-3, 3)
        base = rng.choice(_RATIONAL_BASES) if field.is_rational else rng.randrange(1, field.char)
        power_of_generator = exponential(rel, field, basis.pairs, vector, field.pow(base, power))
        g = g.pointwise_mul(power_of_generator)
    return g


def random_factored_automorphism(rel: Relation, field: Field, seed: int) -> FactoredAutomorphism:
    """Deterministic-in-seed factored automorphism with all three parts random.

    tau is read off the stabilizer chain, built before anything is drawn, so a
    relation over the enumeration bound raises BoundExceeded at once;
    random_invertible refuses a conjugator that is unlikely to be invertible."""
    rel.require_quasi_order()
    chain = stabilizer_chain(rel)
    rng = random.Random(seed)
    conjugator = random_invertible(rel, field, rng)
    tau = listed_automorphism(chain, rng.randrange(prod(map(len, chain))))
    scaling = random_transitive_fn(rel, field, rng)
    return FactoredAutomorphism(conjugator, scaling, tau)
