"""Multiplicative scaling functions on a quasi-order's pairs.

A transitive function assigns a nonzero scalar g(i,j) to every related pair so
that g(i,j)g(j,k) = g(i,k) whenever the chain composes; it is a multiplicative
1-cocycle on the relation.  Coboundaries g(i,j) = s(i)/s(j) are the trivial
ones: they induce inner automorphisms via a diagonal conjugating matrix.  The
quotient of cocycles by coboundaries is computed exactly over the rationals on
exponents, with canonical generators normalized to zero on a fixed spanning
forest of the comparability graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Union

from .errors import Mismatch, NotTransitive, ParseError
from .algebra import RATIONALS, Echelon, Field, Scalar
from .relation import Relation, ValidationReport, capped_violations, json_int, set_bits


@dataclass(frozen=True)
class TransitiveFn:
    """Map from every relation pair to a nonzero scalar, diagonal pinned to 1."""

    relation: Relation
    field: Field
    entries: tuple[tuple[tuple[int, int], Scalar], ...]  # sorted by pair

    def __post_init__(self) -> None:
        """The domain must be exactly the relation, every value nonzero, and
        every diagonal value 1."""
        rel, one = self.relation, self.field.one()
        rel.require_quasi_order()
        for (i, j), v in self.entries:
            if (i, j) not in rel.pairs:
                raise Mismatch(f"value given for ({i},{j}), which is not in the relation")
            if v == 0:
                raise ValueError(f"value at ({i},{j}) must be nonzero")
            if i == j and v != one:
                raise ValueError(f"diagonal value at ({i},{i}) must be 1")
        if tuple(p for p, _ in self.entries) != rel.sorted_pairs():
            raise Mismatch("values must cover the relation's pairs once each, in sorted order")

    @cached_property
    def _lookup(self) -> dict[tuple[int, int], Scalar]:
        return dict(self.entries)

    def __call__(self, i: int, j: int) -> Scalar:
        return self._lookup[(i, j)]

    @classmethod
    def build(cls, relation: Relation, field: Field, values: Mapping[tuple[int, int], object]) -> TransitiveFn:
        """Construct from a (possibly partial) assignment; omitted pairs default to 1.

        The domain must be contained in the relation, every value must be
        nonzero, and any explicitly given diagonal value must be 1.
        """
        complete = dict.fromkeys(relation.sorted_pairs(), field.one())
        for (i, j), raw in values.items():
            if type(i) is not int or type(j) is not int:  # (1, 3.0) would set (1, 3)
                raise Mismatch(f"value given for ({i!r},{j!r}), which is not in the relation")
            complete[i, j] = field.element(raw)
        return cls(relation, field, tuple(sorted(complete.items())))

    @classmethod
    def ones(cls, relation: Relation, field: Field) -> TransitiveFn:
        return cls.build(relation, field, {})

    def require_transitive(self) -> None:
        """Raise NotTransitive, naming the first violation, unless this is transitive."""
        report = check_transitive(self)
        if not report.ok:
            raise NotTransitive(str(report.violations[0]))

    def nontrivial_values(self) -> dict[tuple[int, int], Scalar]:
        one = self.field.one()
        return {p: v for p, v in self.entries if v != one}

    def pointwise_mul(self, other: TransitiveFn) -> TransitiveFn:
        """The group product; both entry tuples list the same pairs in the same order."""
        if self.relation != other.relation or self.field != other.field:
            raise Mismatch("pointwise product requires the same relation and field")
        fld = self.field
        entries = tuple((p, fld.reduce(v * w)) for (p, v), (_, w) in zip(self.entries, other.entries))
        return TransitiveFn(self.relation, fld, entries)

    def pointwise_inv(self) -> TransitiveFn:
        entries = tuple((p, self.field.inv(v)) for p, v in self.entries)
        return TransitiveFn(self.relation, self.field, entries)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "values": [
                [i, j, self.field.scalar_to_json(v)]
                for (i, j), v in sorted(self.nontrivial_values().items())
            ],
        }

    @classmethod
    def from_json(cls, obj, relation: Relation) -> TransitiveFn:
        if not isinstance(obj, dict) or "field" not in obj:
            raise ParseError('transitive-function JSON must be {"field": ..., "values": [[i, j, v], ...]}')
        field = Field.from_json(obj["field"])
        items = obj.get("values", [])
        if not isinstance(items, list):
            raise ParseError("values must be a list of [i, j, value] triples")
        vals: dict[tuple[int, int], Scalar] = {}
        for item in items:
            if not isinstance(item, list) or len(item) != 3:
                raise ParseError(f"malformed value triple {item!r}")
            i, j, raw = item
            pair = (json_int(i, "element"), json_int(j, "element"))
            if pair in vals:
                raise ParseError(f"value of pair {pair} is given twice")
            vals[pair] = field.parse_scalar(raw)
        try:
            return cls.build(relation, field, vals)
        except (ValueError, Mismatch) as exc:
            raise ParseError(str(exc)) from exc


def coboundary(relation: Relation, field: Field, scaling: Iterable) -> TransitiveFn:
    """The transitive function g(i,j) = s(i) / s(j) for a nonzero scaling s."""
    s = [field.element(v) for v in scaling]
    if len(s) != relation.n:
        raise Mismatch(f"expected {relation.n} scaling values, got {len(s)}")
    if any(v == 0 for v in s):
        raise ValueError("scaling values must be nonzero")
    one, inv = field.one(), [field.inv(v) for v in s]
    entries = tuple(
        ((i, j), one if i == j else field.reduce(s[i - 1] * inv[j - 1])) for i, j in relation.sorted_pairs()
    )
    return TransitiveFn(relation, field, entries)


def exponential(relation: Relation, field: Field, pairs, exponents, base) -> TransitiveFn:
    """base**e(i,j) on each off-diagonal pair, from an integer exponent vector."""
    vals = dict.fromkeys(relation.sorted_pairs(), field.one())
    for pair, e in zip(pairs, exponents):
        if e:
            vals[pair] = field.pow(base, e)  # a pair outside the relation goes last, and is refused
    return TransitiveFn(relation, field, tuple(vals.items()))


@dataclass(frozen=True)
class CocycleViolation:
    first: tuple[int, int]
    second: tuple[int, int]
    product: Scalar
    expected: Scalar

    def __str__(self) -> str:
        (i, j), (_, k) = self.first, self.second
        return (
            f"g({i},{j})*g({j},{k}) = {self.product} but g({i},{k}) = {self.expected}"
        )


def check_transitive(g: TransitiveFn) -> ValidationReport:
    """Verify g(i,j)g(j,k) = g(i,k) over every composable pair of pairs; the
    report is validate's, its violations CocycleViolations."""
    rel, fld = g.relation, g.field
    rows = rel.out_rows

    def violations():
        for i, j in rel.sorted_pairs():
            for k in set_bits(rows[j]):
                lhs = fld.reduce(g(i, j) * g(j, k))
                if lhs != g(i, k):
                    yield CocycleViolation((i, j), (j, k), lhs, g(i, k))

    found, truncated = capped_violations(violations())
    return ValidationReport(not found, found, truncated)


@dataclass(frozen=True)
class ScalingVector:
    """Nonzero scalar per element; witnesses g(i,j) = s(i)/s(j)."""

    field: Field
    values: tuple[Scalar, ...]

    def __call__(self, i: int) -> Scalar:
        return self.values[i - 1]

    def to_json(self) -> list:
        return [self.field.scalar_to_json(v) for v in self.values]


@dataclass(frozen=True)
class ViolatingCycle:
    """Closed walk in the comparability graph whose oriented g-product is not 1.

    Edges traversed against their relation orientation contribute the inverse
    value, so the product is conjugation-invariant evidence of nontriviality.
    """

    vertices: tuple[int, ...]
    product: Scalar


def canonicalize(g: TransitiveFn) -> tuple[ScalingVector, TransitiveFn]:
    """Split g = coboundary(s) * canonical, the canonical part 1 on the forest.

    s is 1 at each root and propagates down the forest's parent map, parents
    first.  The canonical part depends only on the cocycle class of g, so two
    transitive functions differing by a coboundary canonicalize identically.
    """
    rel, fld = g.relation, g.field
    forest = rel.forest
    s = dict.fromkeys(forest.roots, fld.one())
    for v, u in forest.parent.items():
        if (u, v) in rel.pairs:
            s[v] = fld.div(s[u], g(u, v))       # g(u,v) = s(u)/s(v)
        else:
            s[v] = fld.reduce(g(v, u) * s[u])   # g(v,u) = s(v)/s(u)
    scaling = tuple(s[i] for i in range(1, rel.n + 1))
    canonical = g.pointwise_mul(coboundary(rel, fld, map(fld.inv, scaling)))
    return ScalingVector(fld, scaling), canonical


def triviality_witness(g: TransitiveFn) -> Union[ScalingVector, ViolatingCycle]:
    """Either a scaling s with g(i,j) = s(i)/s(j) everywhere, or a violating cycle.

    Reads canonicalize: s is its scaling, and the first pair (i,j) (in sorted
    order) where the canonical part is not 1 closes a walk through the
    spanning forest: i, j, up to the vertex where the forest paths from i and
    j to their root meet, and down to i.  The coboundary of s cancels around
    the closed walk and the canonical part is 1 on every forest edge, so the
    walk's oriented product is the canonical value at that pair.
    """
    g.require_transitive()
    s, canonical = canonicalize(g)
    one = g.field.one()
    bad = next(((pair, v) for pair, v in canonical.entries if v != one), None)
    if bad is None:
        return s

    (i, j), product = bad
    parent = g.relation.forest.parent
    up_i = [i]  # i and its ancestors, up to the root
    while up_i[-1] in parent:
        up_i.append(parent[up_i[-1]])
    steps = {v: k for k, v in enumerate(up_i)}  # each of those vertices' steps above i
    up_j = [j]  # j and its ancestors, up to the first one above i: the meeting vertex
    while up_j[-1] not in steps:
        up_j.append(parent[up_j[-1]])
    return ViolatingCycle((i, *up_j, *reversed(up_i[: steps[up_j[-1]]])), product)


# ---------------------------------------------------------------------------
# the cocycle/coboundary quotient on integer exponents

@dataclass(frozen=True)
class CocycleBasis:
    """Canonical generators of nontrivial transitive functions, as exponents.

    `pairs` lists every off-diagonal related pair; each generator assigns an
    integer exponent per pair and is zero on the canonical spanning forest.
    Raising any nonzero scalar to a generator yields a transitive function.
    """

    rank: int
    pairs: tuple[tuple[int, int], ...]
    vectors: tuple[tuple[int, ...], ...]

    def exponents(self, k: int) -> dict[tuple[int, int], int]:
        return {p: e for p, e in zip(self.pairs, self.vectors[k]) if e}


def _primitive_integer(vec: Iterable[Fraction]) -> tuple[int, ...]:
    """The rational vector as coprime integers, its first nonzero entry
    positive; each zero entry costs one truth test."""
    vec = list(vec)
    denom = lcm(*(v.denominator for v in vec if v))
    ints = [v.numerator * (denom // v.denominator) if v else 0 for v in vec]
    g = gcd(*ints)
    if next((v for v in ints if v), 0) < 0:
        g = -g
    if g in (0, 1):
        return tuple(ints)
    return tuple(v // g for v in ints)


def cocycle_rank(rel: Relation) -> CocycleBasis:
    """Dimension and canonical basis of transitive functions modulo coboundaries.

    Additive variables x(i,j) live on off-diagonal pairs; the cocycles are the
    x with x(i,j) + x(j,k) = x(i,k) on every chain, and the canonical
    complement of the coboundaries is the cocycles vanishing on the forest.

    Those vanish inside classes.  `_forest` runs Kruskal over the comparability
    edges in descending (min, max) order, so each vertex's highest-priority
    edge comes first and is always added.  Let c be the largest member of a
    class C and W the largest element outside C comparable to C.  If W > c,
    every member's highest-priority edge is {member, W}; otherwise every other
    member's is {member, c}.  So any two members u, v of C are forest-adjacent
    to one hub w, and u, v, w form a chain: x(u,w) = x(v,w) = 0 forces
    x(u,v) = 0.  Hence x(i,j) = Y(A,B) for the classes A, B of i and j, where
    Y is a cocycle of the condensation vanishing on the forest's edges between
    classes; its coboundaries have dimension p minus the components.

    Y(A,B) sums one y per cover edge of the condensation along ch(A,B): the
    first cover C of A with C <= B, then ch(C,B).  Such a Y is a cocycle iff
    y(A,C) + Y(C,B) = Y(A,B) for every other cover C of A with C <= B; those
    are the only rows reduced, and a chain of classes has none.

    The canonical basis is the reduced row echelon form of these cocycles in
    x, columns in reverse pair order: one row per free column, set to 1.  The
    x columns of a class pair (A,B) are equal copies and those inside a class
    are zero, so only the column of (last of A, last of B) can be a pivot: the
    form is reduced on those columns and copied back onto every pair.
    """
    rel.require_quasi_order()
    all_pairs = rel.off_diagonal_pairs()
    part, dag = rel.partition, rel.condensation

    # One column per comparable class pair, counting down from the last pair,
    # so that each stored row's pivot is the free column that row belongs to.
    last = [members[-1] for members in part.classes]
    by_last = sorted(dag.edges, key=lambda ab: (last[ab[0]], last[ab[1]]), reverse=True)
    column = {ab: col for col, ab in enumerate(by_last)}
    # spots[col]: the positions in all_pairs of that column's pairs
    spots: list[list[int]] = [[] for _ in by_last]
    for pos, (i, j) in enumerate(all_pairs):
        col = column.get((part.class_of(i), part.class_of(j)))
        if col is not None:
            spots[col].append(pos)

    # Coordinates: y(a,c) for each cover edge of the condensation.
    y = {edge: k for k, edge in enumerate((a, c) for a, cs in enumerate(dag.covers) for c in cs)}
    # first[a][b]: the first cover of class a at or below class b
    first: list[dict[int, int]] = []
    for cs in dag.covers:
        step: dict[int, int] = {}
        for c in cs:
            for b in (c, *dag.successors[c]):
                step.setdefault(b, c)
        first.append(step)

    def path(a: int, b: int) -> Iterator[int]:
        """The y coordinates along ch(a, b)."""
        while a != b:
            c = first[a][b]
            yield y[(a, c)]
            a = c

    echelon = Echelon(RATIONALS)
    for a, cs in enumerate(dag.covers):
        for c in cs:
            for b in dag.successors[c]:
                if first[a][b] != c:  # ch(a,b) runs through c itself: no constraint
                    row = dict.fromkeys(path(c, b), 1)
                    row[y[(a, c)]] = 1
                    for k in path(a, b):
                        row[k] = row.get(k, 0) - 1
                    echelon.add(row)

    solution_dim = len(y) - echelon.rank
    forest = rel.forest
    coboundary_dim = dag.p - len(forest.roots)

    # the reduced form is the same in any row order; in descending edge order
    # each stored row of a total order's star is one entry, where ascending
    # order rewrites a long stored row at every step
    for i, j in sorted(forest.tree_edges, reverse=True):
        a, b = part.class_of(i), part.class_of(j)
        if a != b:
            echelon.add(dict.fromkeys(path(a, b) if (i, j) in rel.pairs else path(b, a), 1))
    kernel = echelon.kernel(len(y))
    rank = len(kernel)
    assert rank == solution_dim - coboundary_dim, "forest normalization lost dimensions"

    # Expand the kernel onto the class pairs through the columns each
    # coordinate feeds, touching only nonzero coordinates.
    canonical = Echelon(RATIONALS)
    if kernel:
        feeds: list[list[int]] = [[] for _ in y]
        for (a, b), col in column.items():
            for k in path(a, b):
                feeds[k].append(col)
        for z in kernel:
            vec: dict[int, Fraction] = {}
            for k, v in z.items():
                for col in feeds[k]:
                    vec[col] = vec.get(col, 0) + v
            canonical.add(vec)

    vectors = []
    for pivot in sorted(canonical.rows, reverse=True):  # free column ascending
        expanded: list = [0] * len(all_pairs)
        for col, v in canonical.rows[pivot].items():
            for pos in spots[col]:
                expanded[pos] = v
        vectors.append(_primitive_integer(expanded))
    return CocycleBasis(rank, all_pairs, tuple(vectors))
