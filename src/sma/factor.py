"""Constructive factorization of automorphisms of block-form structural algebras.

Any automorphism of a block upper triangular structural matrix algebra splits,
exactly, as inner conjugation after a unit-scaling map after a permutation
similarity.  This module computes such a splitting:

  1. The images of the class idempotents (sums of diagonal units over one
     class) have their identity diagonal block in exactly one position, which
     pins a size-preserving bijection of classes.
  2. The bijection lifts to a permutation, ascending elements to ascending
     elements within classes; it must preserve the relation.
  3. Dividing out the permutation similarity leaves a map fixing each class.
     Its idempotent images are conjugated back onto the standard diagonal
     system by the invertible element V = sum_k e_k * Theta(e_k).
  4. Each diagonal block now carries an automorphism of a full matrix algebra,
     hence inner: Theta1(E_uw) = A_k^-1 E_uw A_k = (A_k^-1 e_u)(e_w^T A_k).  So
     a nonzero row of Theta1(E_1w) is row w of A_k, up to a scalar common to
     every w; the block conjugator is read off those rows and normalized so its
     first nonzero entry is 1.  The read assumes the action is inner; on a map
     whose action is not, step 5 or the recomposition fails.
  5. What remains fixes every diagonal unit, so it scales each unit by a
     scalar, 1 on the diagonal units; those scalars form a transitive
     function.  Its coboundary part is folded into the conjugator, leaving the
     canonical (forest-normalized) scaling function.

Every choice is deterministic, so factoring the same map twice returns
identical factors.

The same splitting certifies automorphisms.  The three factors are
automorphisms by construction (an invertible conjugator, a transitive scaling,
a relation-preserving permutation), so a map that equals their recomposition
on every basis image is one too.  verify_automorphism checks a map that way
and multiplies pairs of basis images only to name the identity a map breaks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Field,
    Grid,
    SparseRows,
    StructMatrix,
    diagonal_matrix,
    grid_add,
    grid_mul,
    identity_grid,
    invert_grid,
    is_member,
    matrix_rank,
    sparse_mul,
    sparse_rows,
    zero_grid,
)
from .automorphism import (
    AutomorphismSpec,
    BasisImageAutomorphism,
    FactoredAutomorphism,
    is_relation_automorphism,
)
from .blockform import (
    BlockForm,
    Permutation,
    build_block_form,
    consecutive_spans,
    is_block_form,
    is_semisimple,
)
from .errors import (
    NonScalarBlockAction,
    NotAutomorphism,
    NotBlockForm,
    NotSemisimple,
    SizeObstruction,
    Singular,
    SmaError,
)
from .relation import Relation
from .transitive import TransitiveFn, canonicalize, check_transitive


def _diag_block_support(grid: Grid, spans) -> list[int]:
    out = []
    for k, (lo, hi) in enumerate(spans):
        if any(grid[r][c] != 0 for r in range(lo, hi) for c in range(lo, hi)):
            out.append(k)
    return out


def factor_automorphism(phi: AutomorphismSpec, *, assume_verified: bool = False) -> FactoredAutomorphism:
    """Split a verified automorphism into (conjugator, canonical scaling, permutation).

    The relation must already be in block upper triangular form; callers with
    another layout first normalize with build_block_form and conjugate across
    (see conjugate_by_block_form).  `assume_verified` skips the automorphism
    check for callers that have already run it on the same object.  Without
    it, the check is verify_automorphism's, and the factors returned are the
    ones its certificate produced, whose recomposition has been compared with
    phi on every basis image.
    """
    if not is_block_form(phi.relation):
        raise NotBlockForm(
            "relation is not in block upper triangular form; normalize it first"
        )
    if assume_verified:
        return _factor_steps(phi.relation, phi.field, phi.images())
    report, certified = _verify(phi)
    if not report.ok:
        raise NotAutomorphism(f"{report.check}: {report.detail}")
    if certified is None:
        raise NotAutomorphism("the factors do not recompose to the map")
    return certified


def _factor_steps(rel: Relation, fld: Field, images: dict[tuple[int, int], Grid]) -> FactoredAutomorphism:
    """Steps 1-5 on a map over a block-form relation, given by its basis images.
    On a map that is not an automorphism they raise a SmaError or return
    factors that do not recompose to it."""
    part = rel.partition
    # 0-based half-open row/column range of each class: in block form the
    # classes are the diagonal blocks, in order
    spans = [(start - 1, stop - 1) for start, stop in consecutive_spans(part.sizes)]
    n = rel.n

    # (1) class bijection from the diagonal-block support of idempotent images
    matched: dict[int, int] = {}
    for k, cls in enumerate(part.classes):
        idem = zero_grid(fld, n)
        for i in cls:
            idem = grid_add(fld, idem, images[(i, i)])
        support = _diag_block_support(idem, spans)
        if len(support) != 1:
            raise SizeObstruction(
                f"idempotent image of class {k} meets {len(support)} diagonal blocks"
            )
        m = support[0]
        if len(part.classes[m]) != len(cls):
            raise SizeObstruction(f"classes {k} and {m} have different sizes")
        matched[k] = m
    if sorted(matched.values()) != list(range(part.p)):
        raise SizeObstruction("diagonal-block supports do not give a class bijection")

    # (2) ascending lift: the permutation sends class matched[k] onto class k
    mapping: dict[int, int] = {}
    for k, m in matched.items():
        for src, dst in zip(part.classes[m], part.classes[k]):
            mapping[src] = dst
    tau = Permutation.from_mapping(n, mapping)
    if not is_relation_automorphism(rel, tau):
        raise NotAutomorphism(
            f"class bijection lifts to {tau.cycle_notation()}, which does not preserve the relation"
        )

    # (3) divide out the permutation: Theta = phi o P_(tau^-1) is a unit lookup,
    # then realign its idempotent images onto the standard diagonal system
    theta = {(i, j): images[(tau(i), tau(j))] for (i, j) in rel.sorted_pairs()}
    v_rows = []
    for i in range(1, n + 1):
        k = part.class_of(i)
        block_sum = zero_grid(fld, n)
        for e in part.classes[k]:
            block_sum = grid_add(fld, block_sum, theta[(e, e)])
        v_rows.append(block_sum[i - 1])
    v = tuple(v_rows)
    try:
        v_inv = invert_grid(fld, v)
    except Singular as exc:
        raise NotAutomorphism("idempotent images are not conjugate to the diagonal system") from exc

    def conj_v(grid: Grid) -> Grid:
        return grid_mul(fld, grid_mul(fld, v, grid), v_inv)

    # (4) blockwise inner part, read off the block-local images of the first-row units
    a0_rows = [[fld.zero()] * n for _ in range(n)]
    for k, cls in enumerate(part.classes):
        lo, hi = spans[k]
        first_row: list[Grid] = []
        for u in cls:
            for w in cls:
                img = conj_v(theta[(u, w)])
                for r in range(n):
                    for c in range(n):
                        if img[r][c] != 0 and not (lo <= r < hi and lo <= c < hi):
                            raise NonScalarBlockAction(
                                f"image of unit ({u},{w}) leaves diagonal block {k}"
                            )
                if u == cls[0]:
                    first_row.append(tuple(row[lo:hi] for row in img[lo:hi]))
        try:
            block = _read_conjugator(fld, first_row)
        except Singular as exc:
            raise NonScalarBlockAction(f"block {k} conjugator is singular") from exc
        for r, row in enumerate(block):
            a0_rows[lo + r][lo:hi] = row
    a0 = tuple(tuple(r) for r in a0_rows)

    # (5) read off the scaling, canonicalize, fold the coboundary into the conjugator
    w = grid_mul(fld, a0, v)
    w_inv = invert_grid(fld, w)
    gvals: dict[tuple[int, int], object] = {}
    for (i, j) in rel.sorted_pairs():
        img = grid_mul(fld, grid_mul(fld, w, theta[(i, j)]), w_inv)
        c = img[i - 1][j - 1]
        if c == 0:
            raise NonScalarBlockAction(f"reduced image of unit ({i},{j}) has no ({i},{j}) entry")
        for r in range(n):
            for s in range(n):
                if img[r][s] != 0 and (r, s) != (i - 1, j - 1):
                    raise NonScalarBlockAction(
                        f"reduced image of unit ({i},{j}) is not a scalar multiple of it"
                    )
        if i == j and c != fld.one():
            raise NonScalarBlockAction(f"reduced image of unit ({i},{i}) is {c} times it, not the unit")
        gvals[(i, j)] = c
    g = TransitiveFn.build(rel, fld, gvals)
    report = check_transitive(g)
    if not report.ok:
        raise NonScalarBlockAction(f"unit scalars are not transitive: {report.violations[0]}")

    scaling_vec, g_canonical = canonicalize(g)
    d = diagonal_matrix(fld, rel, [fld.inv(s) for s in scaling_vec.values])
    a_final = StructMatrix(fld, rel, grid_mul(fld, d.rows, w))
    return FactoredAutomorphism(a_final, g_canonical, tau)


def _read_conjugator(fld: Field, first_row: list[Grid]) -> Grid:
    """The conjugator A of an inner automorphism X -> A^-1 X A of a full matrix
    algebra, from the images of its first-row units E_1w, scaled so that its
    first nonzero entry is 1.

    The image of E_1w is the outer product (A^-1 e_1)(e_w^T A), so its row r is
    row w of A times (A^-1)[r][1]: any r where the image of E_11 is nonzero
    gives every row of A up to one common scalar.  Raises Singular when the
    rows read are not an invertible matrix."""
    r = next((r for r, row in enumerate(first_row[0]) if any(v != 0 for v in row)), None)
    if r is None:
        raise Singular("the image of the first unit is zero")
    lead_inv = fld.inv(next(v for v in first_row[0][r] if v != 0))
    block = tuple(tuple(fld.reduce(v * lead_inv) for v in img[r]) for img in first_row)
    invert_grid(fld, block)
    return block


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    check: str | None = None   # which of pattern/multiplicativity/unit/bijectivity failed
    detail: str | None = None


# Rows (left operands) of the product scan run before the certificate is
# tried.  A broken map usually breaks an identity within the first few rows,
# and that scan prefix costs less than a factorization that fails.
SCAN_PREFIX_ROWS = 8


def verify_automorphism(phi: AutomorphismSpec) -> VerifyReport:
    """Check that phi is an algebra automorphism, and name the first failing
    identity when it is not.

    The checks, in the order a failure is reported: in-pattern images, the
    unit-product rule (delta on the middle indices) for every pair of units,
    preservation of the identity, and bijectivity of the induced linear map.
    After the images' pattern and the first SCAN_PREFIX_ROWS rows of products,
    a factorization whose recomposition equals phi certifies it; only when
    that fails does the scan run to the end.
    """
    return _verify(phi)[0]


def _verify(phi: AutomorphismSpec) -> tuple[VerifyReport, FactoredAutomorphism | None]:
    """verify_automorphism's report, with the certified factors when the
    certificate succeeded (over the block form when phi's relation is not in one)."""
    rel, fld = phi.relation, phi.field
    images = phi.images()
    pairs = rel.sorted_pairs()

    for p in pairs:
        if not is_member(rel, images[p]):
            return VerifyReport(False, "pattern", f"image of unit {p} leaves the pattern"), None

    n = rel.n
    zero = zero_grid(fld, n)
    right: dict[tuple[int, int], SparseRows] = {}  # built on first use: most broken maps fail early

    def scan(rows) -> VerifyReport | None:
        """The first failing identity image(i,j) * image(k,l), (i,j) in rows."""
        for (i, j) in rows:
            left = images[(i, j)]
            for (k, l) in pairs:
                b = right.get((k, l))
                if b is None:
                    b = right[(k, l)] = sparse_rows(images[(k, l)])
                expected = images[(i, l)] if j == k else zero
                if sparse_mul(fld, left, b) != expected:
                    return VerifyReport(
                        False,
                        "multiplicativity",
                        f"image({i},{j}) * image({k},{l}) != "
                        + (f"image({i},{l})" if j == k else "0"),
                    )
        return None

    failure = scan(pairs[:SCAN_PREFIX_ROWS])
    if failure is not None:
        return failure, None
    certified = _certificate(phi, images)
    if certified is not None:
        return VerifyReport(True), certified
    failure = scan(pairs[SCAN_PREFIX_ROWS:])
    if failure is not None:
        return failure, None

    total = zero
    for i in range(1, n + 1):
        total = grid_add(fld, total, images[(i, i)])
    if total != identity_grid(fld, n):
        return VerifyReport(False, "unit", "images of the diagonal units do not sum to the identity"), None

    coords = [[images[in_pair][r - 1][c - 1] for in_pair in pairs] for (r, c) in pairs]
    if matrix_rank(fld, coords) != len(pairs):
        return VerifyReport(False, "bijectivity", "induced linear map is not bijective"), None
    return VerifyReport(True), None


def _certificate(phi: AutomorphismSpec, images) -> FactoredAutomorphism | None:
    """Factors whose recomposition equals phi (moved to block form if needed),
    or None when factoring fails or recomposes to another map."""
    try:
        target = phi
        if not is_block_form(phi.relation):
            target = conjugate_by_block_form(phi, build_block_form(phi.relation))
            images = target.images()
        factored = _factor_steps(target.relation, target.field, images)
    except SmaError:
        return None
    return factored if factored.images() == images else None


def factor_semisimple(phi: AutomorphismSpec) -> FactoredAutomorphism:
    """Factor over a symmetric (block diagonal) relation; the scaling is always trivial."""
    if not is_semisimple(phi.relation):
        raise NotSemisimple("relation is not symmetric")
    factored = factor_automorphism(phi)
    one = factored.scaling.field.one()
    assert all(v == one for _, v in factored.scaling.entries), (
        "block diagonal relations admit only trivial canonical scalings"
    )
    return factored


def conjugate_by_block_form(phi: AutomorphismSpec, bf: BlockForm) -> BasisImageAutomorphism:
    """Transport a map over bf.source to the relabelled algebra over bf.permuted."""
    if phi.relation != bf.source:
        raise NotAutomorphism("map is not over the block form's source relation")
    pi, pi_inv = bf.pi, bf.pi.inverse()
    n = bf.source.n
    images = phi.images()
    moved = {}
    for (i, j) in bf.permuted.sorted_pairs():
        src = images[(pi_inv(i), pi_inv(j))]
        moved[(i, j)] = tuple(
            tuple(src[pi_inv(r) - 1][pi_inv(c) - 1] for c in range(1, n + 1))
            for r in range(1, n + 1)
        )
    return BasisImageAutomorphism.from_map(bf.permuted, phi.field, moved)
