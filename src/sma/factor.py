"""Constructive factorization of automorphisms of structural matrix algebras.

Any automorphism of a structural matrix algebra splits, exactly, as inner
conjugation after a unit-scaling map after a permutation similarity.  This
module computes such a splitting:

  1. The image of each class's first diagonal unit is a rank-one idempotent
     of trace 1 whose nonzero diagonal entries lie in one class, which pins
     a size-preserving bijection of classes.
  2. The bijection lifts to a permutation, ascending elements to ascending
     elements within classes; it must preserve the relation.
  3. Dividing out the permutation similarity leaves Theta, an inner map after
     a scaling, so each diagonal unit goes to a rank-one idempotent
     Theta(E_jj) = (A^-1 e_j)(e_j^T A), whose nonzero rows are row j of A up to
     a scalar.  Row j of the conjugator R is its first nonzero row, scaled so
     the leading entry is 1.
  4. Each unit image is h(i,j) (R^-1 e_i)(e_j^T R), so h(i,j) is one entry
     of Theta(E_ij) over one entry of Theta(E_ii), both in the row R_i was
     read from: no R^-1 is needed, and h is 1 on the diagonal units.
  5. h splits into a coboundary s(i)/s(j), folded into the conjugator as
     A = diag(1/s) R, and the canonical (forest-normalized) scaling function.
     s is 1 at each comparability component's minimum element, whose row of A
     so keeps leading entry 1: that fixes the one free scalar per component.

The steps read classes, not positions, so they factor a map over any layout
of its relation, and the factors are over that same relation: in block form
they are the paper's factors, and `sma factor` carries them there (carry_factors).
Every choice is deterministic, so factoring a map twice gives identical factors.

The same splitting certifies automorphisms.  The steps only read the factors
off the images; the factors' constructors are the one place they are checked
(an invertible conjugator, a transitive scaling, a relation-preserving
permutation), so they are automorphisms, and a map that equals their
recomposition on every basis image is one too.  _certify computes this
certificate, comparing the recomposition unit by unit and stopping at the
first that differs; each map object caches it on first use: the factors, or
the failing step's message.
verify_automorphism accepts a certified map at once; only when the
certificate fails does it check the pattern and multiply pairs of basis
images, to name the identity a map breaks.  That failure scan is a rank-one
scan: each image is split on first use into its canonical form u v^T, so a
product of two rank-one images is one O(n) dot product, plus an O(n) compare
of splits when the middle indices agree.  Only an image of higher rank is
multiplied out.  After the scan, bijectivity is that no image is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .algebra import (
    Field,
    Grid,
    StructMatrix,
    grid_add,
    identity_grid,
    is_member,
    sparse_mul,
    sparse_rows,
    zero_grid,
)
from .automorphism import AutomorphismSpec, BasisImageAutomorphism, FactoredAutomorphism
from .blockform import BlockForm, Permutation, compose_permutations
from .errors import Mismatch, NotAutomorphism, SmaError
from .relation import Relation
from .transitive import TransitiveFn, canonicalize


def factor_automorphism(phi: AutomorphismSpec, *, assume_verified: bool = False) -> FactoredAutomorphism:
    """Split an automorphism into (conjugator, canonical scaling, permutation).

    The factors are phi's cached certificate, over phi's own relation in
    whatever layout it has, and their recomposition has been compared with
    phi on every basis image.  A relation that is not a quasi-order raises
    InvalidRelation, naming its first violation; a map that fails a factor
    step or that comparison raises NotAutomorphism with the failing step's
    message.  `assume_verified` has no effect.
    """
    if isinstance(phi.certificate, str):
        raise NotAutomorphism(phi.certificate)
    return phi.certificate


def _certify(rel: Relation, fld: Field, images: dict[tuple[int, int], Grid]) -> FactoredAutomorphism | str:
    """Factors whose recomposition equals the map on every basis image, over
    the map's own layout; the failing step's message when a step fails or the
    factors recompose to another map."""
    try:
        factored = _factor_steps(rel, fld, images)
    except SmaError as exc:
        return str(exc)
    for p, img in factored.iter_images():  # stops at the first unit that differs
        if img != images[p]:
            return f"the factors do not recompose to the map on unit {p}"
    return factored


def _factor_steps(rel: Relation, fld: Field, images: dict[tuple[int, int], Grid]) -> FactoredAutomorphism:
    """Steps 1-5 on a map given by its basis images, over any layout of a
    quasi-order: step 1 reads the class of the first nonzero diagonal entry
    of each class's first diagonal unit image (trace 1 ensures one), by
    class membership rather than position, and the factors are over the
    same layout.  The steps read rather than check: on a map that is not an
    automorphism they raise NotAutomorphism, or the factors' constructor
    raises another SmaError, or they return factors that recompose to
    another map, which _certify's compare refuses."""
    part = rel.partition
    n = rel.n
    zero_row = (fld.zero(),) * n

    # (1) class bijection: for an automorphism Phi(E_cc) = (A^-1 e_d)(e_d^T A), A and
    # A^-1 in the pattern, so a nonzero diagonal entry (r,r) needs (r,d) and (d,r) in
    # the relation and lies in d's class; the trace is 1, so the first one names it
    matched: dict[int, int] = {}
    for k, cls in enumerate(part.classes):
        img = images[(cls[0], cls[0])]
        r = next((r for r in range(n) if img[r][r] != 0), None)
        if r is None:
            raise NotAutomorphism(f"image of unit ({cls[0]},{cls[0]}) has a zero diagonal")
        m = part.class_of(r + 1)
        if len(part.classes[m]) != len(cls):
            raise NotAutomorphism(f"classes {k} and {m} have different sizes")
        matched[k] = m
    if sorted(matched.values()) != list(range(part.p)):
        raise NotAutomorphism("diagonal unit images do not give a class bijection")

    # (2) ascending lift: the permutation sends class matched[k] onto class k
    mapping: dict[int, int] = {}
    for k, m in matched.items():
        for src, dst in zip(part.classes[m], part.classes[k]):
            mapping[src] = dst
    tau = Permutation.from_mapping(n, mapping)

    # (3) divide out the permutation: Theta = phi o P_(tau^-1) is a unit lookup,
    # which misses exactly when tau does not preserve the relation.  Row j of
    # a conjugator U is the first nonzero row of Theta(E_jj), row k[j], whose
    # leading entry is in column lead[j] and has inverse scale[j]
    try:
        theta = {(i, j): images[(tau(i), tau(j))] for (i, j) in rel.sorted_pairs()}
    except KeyError:
        raise NotAutomorphism(
            f"class bijection lifts to {tau.cycle_notation()}, which does not preserve the relation"
        ) from None
    rows, k, lead, scale = [], [], [], []
    for j in range(1, n + 1):
        img = theta[(j, j)]
        row_k = next((x for x, row in enumerate(img) if row != zero_row), None)
        if row_k is None:
            raise NotAutomorphism(f"image of unit ({j},{j}) is zero")
        row = img[row_k]
        c = next(c for c, v in enumerate(row) if v != 0)
        rows.append(row)
        k.append(row_k)
        lead.append(c)
        scale.append(fld.inv(row[c]))

    # (4) Theta(E_ij) = h(i,j) (U^-1 e_i)(e_j^T U), and (U^-1)[k[i]][i] = 1 as row
    # k[i] of Theta(E_ii) is U's row i, so h(i,j) is the entry in row k[i] and
    # column lead[j] times scale[j] (1 when i = j).  Nothing is checked here: the
    # factors' constructors check them, and _certify compares their recomposition
    hvals: dict[tuple[int, int], object] = {}
    for (i, j) in rel.sorted_pairs():
        c = fld.reduce(theta[(i, j)][k[i - 1]][lead[j - 1]] * scale[j - 1])
        if c == 0:  # TransitiveFn refuses a zero value with ValueError
            raise NotAutomorphism(f"unit ({i},{j}) has scalar 0 against the conjugator")
        hvals[(i, j)] = c
    return _normalize(rel, fld, rows, hvals, tau)


def _normalize(rel: Relation, fld: Field, rows: Grid, h: dict, tau: Permutation) -> FactoredAutomorphism:
    """(5) The canonical factors of B -> A^-1 scale_h(P_tau(B)) A, A with these rows:
    R is A's rows over their leading entries, and h(i,j) lead(j)/lead(i) splits into
    a coboundary s(i)/s(j), folded in as diag(1/s) R, and the canonical scaling."""
    leads = [next(v for v in row if v) for row in rows]
    t = [fld.inv(v) for v in leads]
    scaled = {(i, j): fld.reduce(v * leads[j - 1] * t[i - 1]) for (i, j), v in h.items()}
    s, g_canonical = canonicalize(TransitiveFn(rel, fld, tuple(sorted(scaled.items()))))
    fold = map(fld.div, t, s.values)  # row j of A is row j of the input times t_j / s_j
    a = tuple(tuple(fld.reduce(v * f) if v else v for v in row) for row, f in zip(rows, fold))
    return FactoredAutomorphism(StructMatrix(fld, rel, a), g_canonical, tau)


def carry_factors(factored: FactoredAutomorphism, pi: Permutation, target: Relation) -> FactoredAutomorphism:
    """Canonical factors carried to the map relabelled by pi, over target = pi(relation):
    A' = pi^-1.relabel(A), g'(pi(i), pi(j)) = g(i, j), tau' = pi tau pi^-1, renormalized
    by step 5.  For pi ascending within each class, as a block form's is, tau' is step
    2's lift, so these are the relabelled map's canonical factors; else they need not be."""
    pi_inv = pi.inverse()
    g = {(pi(i), pi(j)): v for (i, j), v in factored.scaling.entries}
    tau = compose_permutations(pi, compose_permutations(factored.permutation, pi_inv))
    return _normalize(target, factored.field, pi_inv.relabel(factored.conjugator.rows), g, tau)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    check: str | None = None   # which of pattern/multiplicativity/unit/bijectivity failed
    detail: str | None = None


def verify_automorphism(phi: AutomorphismSpec) -> VerifyReport:
    """Check that phi is an algebra automorphism, and name the first failing
    identity when it is not.

    The checks, in the order a failure is reported: in-pattern images, the
    unit-product rule (delta on the middle indices) for every pair of units,
    preservation of the identity, and bijectivity of the induced linear map.
    A certified phi (see factor_automorphism) passes them all: the factors'
    recomposition lies in the pattern.  Only when the certificate fails do
    the checks run, to name the identity phi breaks.  A relation that is not
    a quasi-order raises InvalidRelation.
    """
    if not isinstance(phi.certificate, str):
        return VerifyReport(True)

    rel, fld = phi.relation, phi.field
    images = phi.images()
    pairs = rel.sorted_pairs()
    for p in pairs:
        if not is_member(rel, images[p]):
            return VerifyReport(False, "pattern", f"image of unit {p} leaves the pattern")

    # The product scan.  Rank-one operands (u v^T)(u' v'^T) = (v.u') u v'^T
    # cost one O(n) dot, and an O(n) compare of canonical splits when j = k;
    # an operand of higher rank keeps sparse_mul.  Splits and sparse rows are
    # built on first use: most broken maps fail early.
    n = rel.n
    zero = zero_grid(fld, n)
    split = cache(lambda p: _rank_one(fld, images[p]))
    right = cache(lambda p: sparse_rows(images[p]))
    for (i, j) in pairs:
        a = split((i, j))
        for (k, l) in pairs:
            b = split((k, l))
            if a is None or b is None:
                expected = images[(i, l)] if j == k else zero
                holds = sparse_mul(fld, images[(i, j)], right((k, l))) == expected
            else:
                s = fld.reduce(sum(x * y for x, y in zip(a[1], b[0]) if x and y))
                if j != k:
                    holds = not s
                else:  # the product's split is (u, s v'), or the zero grid's when s = 0
                    product = (a[0], tuple(fld.reduce(s * x) if x else x for x in b[1])) if s else ((), ())
                    holds = split((i, l)) == product
            if not holds:
                return VerifyReport(
                    False,
                    "multiplicativity",
                    f"image({i},{j}) * image({k},{l}) != " + (f"image({i},{l})" if j == k else "0"),
                )

    total = zero
    for i in range(1, n + 1):
        total = grid_add(fld, total, images[(i, i)])
    if total != identity_grid(fld, n):
        return VerifyReport(False, "unit", "images of the diagonal units do not sum to the identity")

    # By the scan the e_i = image(i,i) are orthogonal idempotents and image(i,j) lies
    # in e_i M_n e_j.  With e_0 = I - sum e_i these Peirce components form a direct sum,
    # so the induced map, unital or not, is bijective exactly when no image is zero.
    if any(split(p) == ((), ()) for p in pairs):
        return VerifyReport(False, "bijectivity", "induced linear map is not bijective")
    return VerifyReport(True)


def _rank_one(fld: Field, grid: Grid):
    """The canonical rank-one split (u, v) of a grid, grid = u v^T: v is its
    first nonzero row, and u[r] the multiple of v that row r is, so u is 1 at
    v's row.  Equal rank-one grids have equal splits.  The zero grid splits
    into two empty rows, so a dot with it costs nothing; None when the rank
    is above one.  O(n^2), no multiply by a zero."""
    rows = enumerate(grid)
    for r0, v in rows:
        if any(v):
            break
    else:
        return (), ()
    lead = next(c for c, x in enumerate(v) if x)
    inv = fld.inv(v[lead])
    u = [fld.zero()] * len(grid)
    u[r0] = fld.one()
    for r, row in rows:
        if any(row):
            c = u[r] = fld.reduce(row[lead] * inv)
            if row != tuple(fld.reduce(c * x) if x else x for x in v):
                return None
    return tuple(u), v


def conjugate_by_block_form(phi: AutomorphismSpec, bf: BlockForm) -> BasisImageAutomorphism:
    """Transport a map over bf.source to the relabelled algebra over bf.permuted:
    the image of unit (pi(i), pi(j)) is phi's image of unit (i, j), relabelled
    by pi^-1, one gathered row at a time.  `sma factor` carries factors instead."""
    if phi.relation != bf.source:
        raise Mismatch("map is not over the block form's source relation")
    pi, pi_inv = bf.pi, bf.pi.inverse()
    moved = {(pi(i), pi(j)): pi_inv.relabel(img) for (i, j), img in phi.images().items()}
    return BasisImageAutomorphism.from_map(bf.permuted, phi.field, moved)
