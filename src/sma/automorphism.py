"""Algebra automorphisms: permutation similarities, scalings, inner maps, basis images.

An automorphism can be given in factored form (conjugator, scaling function,
relation permutation, applied right to left) or by its images on the matrix
units.  Basis images are the universal interchange form; the factored form
converts on demand.  Either form caches its certificate (see factor.py), and
the factored form its conjugator's inverse.  Conventions, pinned by the tests:
conjugation is B -> A^-1 B A, and a permutation similarity acts entrywise as
B -> (B[t(i)][t(j)]), which `Permutation.relabel` implements.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterator

from .algebra import (
    Field,
    Grid,
    StructMatrix,
    grid_from_json,
    grid_mul,
    grid_to_json,
    identity_matrix,
    invert_grid,
    is_member,
    sparse_rows,
)
from .blockform import Permutation
from .errors import (
    BoundExceeded,
    Mismatch,
    NotRelationAutomorphism,
    OffPattern,
    ParseError,
    Singular,
)
from .relation import Relation, json_int, set_bits
from .transitive import TransitiveFn

DEFAULT_ENUMERATION_BOUND = 10


def is_relation_automorphism(rel: Relation, tau: Permutation) -> bool:
    """True iff (i,j) and (tau(i),tau(j)) are related or unrelated together, for all i,j.

    tau maps pairs to pairs injectively, so it suffices that it maps the
    relation into itself."""
    if tau.n != rel.n:
        raise Mismatch("permutation size does not match the relation")
    return all((tau(i), tau(j)) in rel.pairs for i, j in rel.pairs)


def size_bound(default: int) -> int:
    """The largest n an exhaustive search accepts: SMA_MAX_N when set, else `default`."""
    env = os.environ.get("SMA_MAX_N")
    return json_int(env, "SMA_MAX_N") if env else default


def enumerate_relation_automorphisms(rel: Relation, bound=None) -> tuple[Permutation, ...]:
    """All automorphisms of the quasi-order rel, in lexicographic order of the image tuple.

    Every automorphism is exactly one product u_1 . u_2 . ... . u_n of one
    element per level of a stabilizer chain (Sims 1970; see `stabilizer_chain`),
    whose searches visit no more nodes than one backtracking search over the
    whole group.  The listing then costs |Aut(R)| products of O(n) each, plus
    one sort of the image tuples.  It can hold n! maps, so `bound` (default:
    the SMA_MAX_N environment variable, else 10) limits n; beyond it
    BoundExceeded is raised.
    """
    n = rel.n
    images = [tuple(range(1, n + 1))]
    for level in reversed(stabilizer_chain(rel, bound)):
        # products u . p of this level's u and the later levels' p; the identity,
        # first in the level, contributes `images` itself.  A leading 0 makes u[x] u(x).
        padded = [(0,) + u for u in level[1:]]
        images += [tuple(map(u.__getitem__, p)) for u in padded for p in images]
    images.sort()
    # products of bijections are bijections, so none is checked again
    return tuple(Permutation._unchecked(n, image) for image in images)


def listed_automorphism(chain: list[list[tuple[int, ...]]], k: int) -> Permutation:
    """Entry k of `enumerate_relation_automorphisms`' listing, without listing: u_1 . ... . u_n
    sends i where the prefix u_1 . ... . u_{i-1} sends u_i(i), so with each level ordered by that
    image, k's mixed-radix digits in the level sizes, most significant first, pick the u_i."""
    prefix = tuple(range(1, len(chain) + 1))
    for i, level in enumerate(chain):
        digit, k = divmod(k, prod(map(len, chain[i + 1:])))
        u = sorted(level, key=lambda v: prefix[v[i] - 1])[digit]
        prefix = tuple(prefix[x - 1] for x in u)
    return Permutation._unchecked(len(chain), prefix)


def stabilizer_chain(rel: Relation, bound=None) -> list[list[tuple[int, ...]]]:
    """A stabilizer chain of Aut(rel) with base 1..n: for each base point i, the
    images of one automorphism per point j of i's orbit under the maps fixing
    1..i-1, sending i to j, with the identity first; `bound` limits n as for the listing.

    Each is the first leaf of a backtracking search in which every unplaced
    element keeps a bitmask domain of images, seeded from its (out-degree,
    in-degree, class size) and narrowed by each placement; an empty domain
    prunes the branch (McKay 1981).  The searches run below distinct prefixes
    (1..i-1 fixed, i sent to j) of the backtracking tree over every consistent
    assignment, so together they visit no more of its nodes than a search for
    the whole group would.
    """
    n = rel.n
    if n > (size_bound(DEFAULT_ENUMERATION_BOUND) if bound is None else bound):
        raise BoundExceeded(f"n = {n} exceeds the enumeration bound (set SMA_MAX_N to raise it)")
    rel.require_quasi_order()
    # out_rows[i] & in_rows[i] is i's class
    out_rows, in_rows = rel.out_rows, rel.in_rows
    signature = [
        (out_rows[i].bit_count(), in_rows[i].bit_count(), (out_rows[i] & in_rows[i]).bit_count())
        for i in range(1, n + 1)
    ]
    alike: dict[tuple, int] = {}
    for i, sig in enumerate(signature, start=1):
        alike[sig] = alike.get(sig, 0) | 1 << i
    # domains[k]: the images still open to element k, as bit x for image x
    domains = [0] + [alike[sig] for sig in signature]
    levels = []
    for i in range(1, n + 1):
        level = [tuple(range(1, n + 1))]
        for j in set_bits(domains[i] & ~(1 << i)):
            rest = _first_leaf(i + 1, _narrow(domains, i, j, out_rows, in_rows), out_rows, in_rows)
            if rest is not None:
                level.append(tuple(range(1, i)) + (j,) + rest)
        levels.append(level)
        domains = _narrow(domains, i, i, out_rows, in_rows)
    return levels


def _narrow(domains: list[int], i: int, j: int, out_rows: tuple[int, ...], in_rows: tuple[int, ...]):
    """The domains once i is sent to j, or None when an element after i is left
    with none.  Such an element k may go to x only if x != j and (j,x) and (x,j)
    are related as (i,k) and (k,i) are; earlier elements are placed already."""
    out_i, in_i = out_rows[i], in_rows[i]
    succ, pred = out_rows[j], in_rows[j]
    other_succ, other_pred = ~succ, ~pred
    taken = ~(1 << j)
    narrowed = domains[:]
    for k in range(i + 1, len(domains)):
        d = (
            narrowed[k]
            & taken
            & (succ if out_i >> k & 1 else other_succ)
            & (pred if in_i >> k & 1 else other_pred)
        )
        if not d:
            return None
        narrowed[k] = d
    return narrowed


def _first_leaf(i: int, domains, out_rows: tuple[int, ...], in_rows: tuple[int, ...]):
    """The least images of i..n within the domains that leave none empty, or
    None; domains is None for a branch already pruned."""
    if domains is None:
        return None
    if i == len(domains):
        return ()
    for j in set_bits(domains[i]):
        rest = _first_leaf(i + 1, _narrow(domains, i, j, out_rows, in_rows), out_rows, in_rows)
        if rest is not None:
            return (j,) + rest
    return None


class AutomorphismSpec:
    """Either form of a map; each provides relation, field, images() and
    _apply_grid, on a grid that StructMatrix or `compose` has checked is in the pattern."""

    @cached_property
    def certificate(self) -> FactoredAutomorphism | str:
        """The canonical factors that recompose to this map, or the failing step's
        message: a str, so no traceback holds this map in a reference cycle.
        Raises InvalidRelation, caching nothing, unless the relation is a
        quasi-order."""
        from .factor import _certify  # deferred: factor imports this module

        self.relation.require_quasi_order()
        return _certify(self.relation, self.field, self.images())

    def apply(self, m: StructMatrix) -> StructMatrix:
        if m.field != self.field:
            raise Mismatch(f"matrix over {m.field.name}, map over {self.field.name}")
        if m.pattern != self.relation:
            raise Mismatch("matrix and map are constrained by different relations")
        return StructMatrix(self.field, self.relation, self._apply_grid(m.rows))


@dataclass(frozen=True)
class FactoredAutomorphism(AutomorphismSpec):
    """Composite map B -> A^-1 * scale(B[t(i)][t(j)]) * A, right factor first."""

    conjugator: StructMatrix
    scaling: TransitiveFn
    permutation: Permutation

    def __post_init__(self) -> None:
        a = self.conjugator
        if self.scaling.relation != a.pattern or self.scaling.field != a.field:
            raise Mismatch("factors must share one relation and one field")
        if not is_relation_automorphism(a.pattern, self.permutation):
            raise NotRelationAutomorphism(
                f"{self.permutation.cycle_notation()} does not preserve the relation"
            )
        self.scaling.require_transitive()
        self._conjugator_inverse  # raises Singular for a conjugator with no inverse

    @cached_property
    def _conjugator_inverse(self) -> Grid:
        try:
            return invert_grid(self.field, self.conjugator.rows)
        except Singular:
            raise Singular("conjugator A is singular") from None

    @property
    def relation(self) -> Relation:
        return self.conjugator.pattern

    @property
    def field(self) -> Field:
        return self.conjugator.field

    def iter_images(self) -> Iterator[tuple[tuple[int, int], Grid]]:
        """(pair, image) for each matrix unit in sorted pair order, each image
        built when it is reached (only A^-1 is cached), so a compare can stop
        at the first unit that differs.  An image is the outer product of a
        column of A^-1 with a row of A, and only their nonzero entries are
        multiplied, so its cost follows its nonzero entries; every other
        entry is the field's zero."""
        fld, rel = self.field, self.relation
        n = rel.n
        zero = fld.zero()
        zero_row = (zero,) * n
        # A's rows and A^-1's columns as (index, value) pairs of their nonzero entries
        a_rows = sparse_rows(self.conjugator.rows)
        a_inv_columns = sparse_rows(tuple(zip(*self._conjugator_inverse)))
        tau_inv = self.permutation.inverse()
        for i, j in rel.sorted_pairs():
            bi, bj = tau_inv(i), tau_inv(j)
            c = self.scaling(bi, bj)
            # A^-1 E^{bi,bj} A is the outer product of A^-1's column bi with A's row bj.
            a_row = a_rows[bj - 1]
            image = [zero_row] * n
            for r, u in a_inv_columns[bi - 1]:
                x = fld.reduce(c * u)
                row = [zero] * n
                for s, v in a_row:
                    row[s] = fld.reduce(x * v)
                image[r] = tuple(row)
            yield (i, j), tuple(image)

    def images(self) -> dict[tuple[int, int], Grid]:
        return dict(self.iter_images())

    def _apply_grid(self, grid: Grid) -> Grid:
        """A^-1 * scale(P_tau(B)) * A for an in-pattern B: the relabelled grid,
        its nonzero entries scaled by g, then two products."""
        fld, rel = self.field, self.relation
        moved = list(map(list, self.permutation.relabel(grid)))
        for i, j in rel.sorted_pairs():
            v = moved[i - 1][j - 1]
            if v != 0:
                moved[i - 1][j - 1] = fld.reduce(v * self.scaling(i, j))
        return grid_mul(fld, grid_mul(fld, self._conjugator_inverse, moved), self.conjugator.rows)

    def as_basis_images(self) -> BasisImageAutomorphism:
        return BasisImageAutomorphism.from_map(self.relation, self.field, self.images())

    def to_json(self) -> dict:
        return {
            "A": self.conjugator.to_json(),
            "g": self.scaling.to_json(),
            "tau": self.permutation.to_json(),
        }


@dataclass(frozen=True)
class BasisImageAutomorphism(AutomorphismSpec):
    """Linear map recorded by its matrix-unit images; nothing about it is assumed."""

    relation: Relation
    field: Field
    images_table: tuple[tuple[tuple[int, int], Grid], ...]  # sorted by pair

    @classmethod
    def from_map(cls, relation: Relation, field: Field, images) -> BasisImageAutomorphism:
        pairs = relation.sorted_pairs()
        missing = [p for p in pairs if p not in images]
        extra = [p for p in images if p not in relation.pairs]
        if missing or extra:
            raise Mismatch(f"images must cover the relation exactly (missing {missing[:3]}, extra {extra[:3]})")
        table = tuple((p, tuple(tuple(row) for row in images[p])) for p in pairs)
        return cls(relation, field, table)

    def images(self) -> dict[tuple[int, int], Grid]:
        return dict(self.images_table)

    def _apply_grid(self, grid: Grid) -> Grid:
        """The sum of c * image over the units whose coefficient c in the
        in-pattern grid is nonzero, in one accumulator reduced once per entry.
        Only the nonzero entries of those images are multiplied and added, so
        the cost follows the nonzero entries of the images."""
        fld, n = self.field, self.relation.n
        acc = [[fld.zero()] * n for _ in range(n)]
        for (i, j), img in self.images_table:
            c = grid[i - 1][j - 1]
            if c:
                for acc_row, img_row in zip(acc, img):
                    for s, x in enumerate(img_row):
                        if x:
                            acc_row[s] += c * x
        return tuple(tuple(map(fld.reduce, row)) for row in acc)

    def to_json(self) -> dict:
        return {
            "images": [
                [i, j, grid_to_json(self.field, img)]
                for (i, j), img in self.images_table
            ]
        }


def permutation_similarity(rel: Relation, tau: Permutation, field: Field) -> FactoredAutomorphism:
    """The map B -> (B[tau(i)][tau(j)]), for a relation-preserving permutation."""
    return FactoredAutomorphism(identity_matrix(field, rel), TransitiveFn.ones(rel, field), tau)


def induced_automorphism(g: TransitiveFn) -> FactoredAutomorphism:
    """The map scaling each matrix unit by g's value on its pair, for a transitive g."""
    return FactoredAutomorphism(
        identity_matrix(g.field, g.relation), g, Permutation.identity_perm(g.relation.n)
    )


def inner_automorphism(a: StructMatrix) -> FactoredAutomorphism:
    """Conjugation B -> A^-1 B A by an invertible in-pattern matrix."""
    return FactoredAutomorphism(
        a, TransitiveFn.ones(a.pattern, a.field), Permutation.identity_perm(a.n)
    )


def identity_automorphism(rel: Relation, field: Field) -> FactoredAutomorphism:
    return induced_automorphism(TransitiveFn.ones(rel, field))


def compose(outer: AutomorphismSpec, inner: AutomorphismSpec) -> BasisImageAutomorphism:
    """The map X -> outer(inner(X)), recorded on basis images; OffPattern when
    an image of `inner` leaves the pattern."""
    if outer.relation != inner.relation or outer.field != inner.field:
        raise Mismatch("composition requires the same relation and field")
    inner_images = inner.images()
    if not all(is_member(inner.relation, img) for img in inner_images.values()):
        raise OffPattern("matrix is not in the algebra")
    images = {p: outer._apply_grid(img) for p, img in inner_images.items()}
    return BasisImageAutomorphism.from_map(outer.relation, outer.field, images)


def apply(phi: AutomorphismSpec, m: StructMatrix) -> StructMatrix:
    """Evaluate the map on an algebra element, by linearity over the unit basis."""
    return phi.apply(m)


def equal_as_maps(a: AutomorphismSpec, b: AutomorphismSpec) -> bool:
    """Equality of automorphisms is exact equality of every basis image."""
    if a.relation != b.relation or a.field != b.field:
        return False
    return a.images() == b.images()


# ---------------------------------------------------------------------------
# JSON wire format

def spec_from_json(obj, relation: Relation) -> AutomorphismSpec:
    """Parse either the factored form {"A", "g", "tau"} or {"images": [...]}."""
    if not isinstance(obj, dict):
        raise ParseError("automorphism JSON must be an object")
    if "images" in obj:
        if not isinstance(obj["images"], list):
            raise ParseError("images must be a list of [i, j, matrix] triples")
        images = {}
        field = None
        memos: dict = {}  # scalar memos shared by every image
        for item in obj["images"]:
            if not isinstance(item, list) or len(item) != 3:
                raise ParseError(f"malformed image triple {item!r}")
            i, j, mat = item
            pair = (json_int(i, "image index"), json_int(j, "image index"))
            if pair in images:
                raise ParseError(f"image of unit {pair} is given twice")
            grid_field, images[pair] = grid_from_json(mat, relation.n, memos)
            if field is None:
                field = grid_field
            elif field != grid_field:
                raise ParseError("images use inconsistent fields")
        if field is None:
            raise ParseError("images list is empty")
        try:
            return BasisImageAutomorphism.from_map(relation, field, images)
        except Mismatch as exc:
            raise ParseError(str(exc)) from exc
    if {"A", "g", "tau"} <= set(obj):
        a = StructMatrix.from_json(obj["A"], relation)
        g = TransitiveFn.from_json(obj["g"], relation)
        if not isinstance(obj["tau"], list):
            raise ParseError("tau must be a list of images")
        try:
            tau = Permutation(relation.n, tuple(json_int(v, "permutation image") for v in obj["tau"]))
        except ValueError as exc:
            raise ParseError(f"malformed permutation: {exc}") from exc
        try:
            return FactoredAutomorphism(a, g, tau)
        except Mismatch as exc:  # factors over different fields: malformed, not a domain error
            raise ParseError(str(exc)) from exc
    raise ParseError('automorphism JSON must contain "images" or all of "A", "g", "tau"')
