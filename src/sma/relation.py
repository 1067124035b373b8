"""Quasi-orders on {1..n} and their class structure.

A quasi-order (preorder) is a reflexive, transitive binary relation.  Elements
are 1-based everywhere, matching the usual matrix-index convention.  The
mutual-relation classes (i ~ j iff both (i,j) and (j,i) are related) partition
the ground set; the order they inherit is an acyclic relation on classes, the
condensation.

A Relation is frozen, so what the algorithms read about it is computed once,
on first use, and kept on the object: the sorted pairs, the bit rows (bit t of
out_rows[i] is set when (i, t) is related, bit t of in_rows[i] when (t, i) is),
the validation report, the classes, the condensation with its cover edges and
isolated classes, the spanning forest of the comparability graph, and the
default block form.  The bit rows are the only adjacency index: validation,
classes, condensation, the cocycle check and the automorphism search read them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import BoundExceeded, InvalidRelation, ParseError

MAX_REPORTED_VIOLATIONS = 100

# Largest ground set whose bit rows are built.  Each row holds a bit for every
# element up to its last successor, so the rows of the identity on n elements
# take about n²/16 bytes: 25 MB at this bound.
MAX_ROWS_N = 20_000


def parse_json(text: str, source: str | None = None):
    """json.loads, with every failure a ParseError prefixed by `source`.

    json reports most errors as JSONDecodeError, but an integer literal over
    the interpreter's digit limit as a plain ValueError, and nesting past the
    recursion limit as RecursionError."""
    prefix = f"{source}: " if source else ""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{prefix}invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise ParseError(f"{prefix}invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{prefix}invalid JSON: nesting is too deep") from None


# An integer as a file, --class-order or SMA_MAX_N writes it; int() alone would
# also take spaces, "+", "_" and non-ASCII digits.
INTEGER = re.compile(r"-?[0-9]+")


def json_int(value, what: str) -> int:
    """An int, or an INTEGER string from a file, option or environment variable;
    anything else, bool and float included, is a ParseError naming `what`."""
    if isinstance(value, str) and INTEGER.fullmatch(value) or isinstance(value, int) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:  # a string over int()'s digit limit
            pass
    raise ParseError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Relation:
    """Binary relation on {1..n}, stored as a set of ordered 1-based pairs of ints."""

    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ground set must contain at least one element")
        for i, j in self.pairs:
            if not (type(i) is int and type(j) is int and 1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"pair ({i!r},{j!r}) out of range 1..{self.n}")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Sequence[int]]) -> Relation:
        return cls(n, frozenset((i, j) for i, j in pairs))

    @classmethod
    def identity(cls, n: int) -> Relation:
        """The diagonal relation {(i,i)}."""
        return cls(n, frozenset((i, i) for i in range(1, n + 1)))

    @classmethod
    def full(cls, n: int) -> Relation:
        rng = range(1, n + 1)
        return cls(n, frozenset((i, j) for i in rng for j in rng))

    def successors(self, i: int) -> tuple[int, ...]:
        """The elements j with (i, j) related, ascending; () for i outside 1..n."""
        return tuple(set_bits(self.out_rows[i])) if 1 <= i <= self.n else ()

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return self._sorted_pairs

    def off_diagonal_pairs(self) -> tuple[tuple[int, int], ...]:
        return self._off_diagonal_pairs

    def to_json(self) -> dict:
        return {"n": self.n, "pairs": [list(p) for p in self.sorted_pairs()]}

    @classmethod
    def from_json(cls, obj) -> Relation:
        if not isinstance(obj, dict) or "n" not in obj or "pairs" not in obj:
            raise ParseError('relation JSON must be {"n": ..., "pairs": [[i, j], ...]}')
        n = json_int(obj["n"], "relation size n")
        pairs = obj["pairs"]
        if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
            raise ParseError("relation pairs must be a list of [i, j] pairs")
        try:
            return cls.from_pairs(n, ((json_int(i, "element"), json_int(j, "element")) for i, j in pairs))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    @classmethod
    def from_text(cls, text: str) -> Relation:
        """Plain-text format: first line n, each further nonempty line 'i j'."""
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [(k + 1, ln) for k, ln in enumerate(lines) if ln]
        if not lines:
            raise ParseError("empty relation file")
        lineno, first = lines[0]
        n = json_int(first, f"line {lineno}: the ground-set size")
        pairs = []
        for lineno, ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'i j', got {ln!r}")
            pairs.append([json_int(x, f"line {lineno}: element") for x in parts])
        try:
            return cls.from_pairs(n, pairs)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    @classmethod
    def parse(cls, text: str, source: str | None = None) -> Relation:
        """Parse either the JSON or the plain-text relation format; `source`,
        when given, prefixes the message of invalid JSON."""
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls.from_json(parse_json(text, source))
        return cls.from_text(text)

    # derived structure, each computed on first use

    @cached_property
    def _sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))

    @cached_property
    def _off_diagonal_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(p for p in self._sorted_pairs if p[0] != p[1])

    @cached_property
    def out_rows(self) -> tuple[int, ...]:
        """Bit t of out_rows[i] is set when (i, t) is related; out_rows[0] is 0."""
        return _build_rows(self)

    @cached_property
    def in_rows(self) -> tuple[int, ...]:
        """Bit t of in_rows[i] is set when (t, i) is related; in_rows[0] is 0.
        Built apart from out_rows, on first use, since the automorphism search
        is its one reader."""
        return _build_rows(self, transpose=True)

    @cached_property
    def validation(self) -> ValidationReport:
        return _validate(self)

    def require_quasi_order(self) -> None:
        """Raise InvalidRelation, naming the first violation, unless this is a quasi-order."""
        report = self.validation
        if not report.ok:
            raise InvalidRelation(f"not a quasi-order: {report.violations[0]}")

    @cached_property
    def partition(self) -> ClassPartition:
        self.require_quasi_order()
        return _classes(self)

    @cached_property
    def condensation(self) -> CondensationDAG:
        return _condensation(self)

    @cached_property
    def forest(self) -> Forest:
        return _forest(self)

    @cached_property
    def block_form(self):
        from .blockform import _block_form  # deferred: blockform imports this module

        return _block_form(self)


def _build_rows(rel: Relation, transpose: bool = False) -> tuple[int, ...]:
    """Relation.out_rows: the successors of each element as the set bits of
    one int, index 0 included and empty; Relation.in_rows, the predecessors,
    when `transpose`.  BoundExceeded, before anything is built, when n is over
    MAX_ROWS_N."""
    if rel.n > MAX_ROWS_N:
        raise BoundExceeded(f"n = {rel.n} is over {MAX_ROWS_N}, the largest ground set whose bit rows are built")
    rows = [0] * (rel.n + 1)
    for i, j in ((j, i) for i, j in rel.pairs) if transpose else rel.pairs:
        rows[i] |= 1 << j
    return tuple(rows)


def set_bits(row: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative `row`, ascending."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


@dataclass(frozen=True)
class Violation:
    kind: str  # "reflexivity" or "transitivity"
    witness: tuple[tuple[int, int], ...]
    missing: tuple[int, int]

    def __str__(self) -> str:
        if self.kind == "reflexivity":
            return f"missing diagonal pair ({self.missing[0]},{self.missing[0]})"
        (i, j), (_, k) = self.witness
        return f"pairs ({i},{j}) and ({j},{k}) are present but ({i},{k}) is missing"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple  # Violations, or CocycleViolations from check_transitive
    truncated: bool = False


def validate(rel: Relation) -> ValidationReport:
    """Check reflexivity and transitivity, naming a witness for each failure.

    Reporting is capped at MAX_REPORTED_VIOLATIONS entries to bound output on
    adversarial input; `truncated` records whether the cap was hit.  The
    report is computed once per relation.
    """
    return rel.validation


def capped_violations(violations: Iterable) -> tuple[tuple, bool]:
    """The first MAX_REPORTED_VIOLATIONS of `violations`, and whether there are more."""
    found = tuple(islice(violations, MAX_REPORTED_VIOLATIONS + 1))
    return found[:MAX_REPORTED_VIOLATIONS], len(found) > MAX_REPORTED_VIOLATIONS


def _validate(rel: Relation) -> ValidationReport:
    violations, truncated = capped_violations(_violations(rel))
    return ValidationReport(not violations, violations, truncated)


def _violations(rel: Relation) -> Iterator[Violation]:
    """Every missing diagonal pair in order, then every broken chain in sorted
    pair order: for each related (i, j), ascending, the k above j but not above i.
    The diagonal is read off the pair set, so a ground set missing more than
    MAX_REPORTED_VIOLATIONS diagonal pairs is reported before any row is built."""
    for i in range(1, rel.n + 1):
        if (i, i) not in rel.pairs:
            yield Violation("reflexivity", ((i, i),), (i, i))
    rows = rel.out_rows
    for i in range(1, rel.n + 1):
        row_i = rows[i]
        outside_i = ~row_i
        for j in set_bits(row_i):
            missing = rows[j] & outside_i
            if missing:
                for k in set_bits(missing):
                    yield Violation("transitivity", ((i, j), (j, k)), (i, k))


def transitive_reflexive_closure(rel: Relation) -> Relation:
    """Smallest quasi-order containing the given pairs (Warshall closure on bit
    rows: each row that reaches k takes in k's row)."""
    n = rel.n
    reach = [row | 1 << i for i, row in enumerate(rel.out_rows)]
    for k in range(1, n + 1):
        bit, row_k = 1 << k, reach[k]
        for i in range(1, n + 1):
            if reach[i] & bit:
                reach[i] |= row_k
    return Relation(n, frozenset((i, j) for i in range(1, n + 1) for j in set_bits(reach[i])))


@dataclass(frozen=True)
class ClassPartition:
    """Mutual-relation classes, each sorted ascending, ordered by minimum element."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return len(self.classes)

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {e: k for k, cls in enumerate(self.classes) for e in cls}

    def class_of(self, element: int) -> int:
        return self._index[element]


def equivalence_classes(rel: Relation) -> ClassPartition:
    """Partition {1..n} into classes of mutually related elements.

    For a valid quasi-order these are exactly the strongly connected components
    of the relation digraph, and mutual membership of both (i,j) and (j,i)
    already gives the equivalence directly.  Raises InvalidRelation unless rel
    is a quasi-order; computed once per relation.
    """
    return rel.partition


def _classes(rel: Relation) -> ClassPartition:
    """In a quasi-order, i and j are mutually related iff they have the same successors."""
    rows = rel.out_rows
    members: dict[int, list[int]] = {}
    for i in range(1, rel.n + 1):
        members.setdefault(rows[i], []).append(i)
    return ClassPartition(tuple(map(tuple, members.values())))


@dataclass(frozen=True)
class CondensationDAG:
    """Strict order between distinct classes: successors[a] lists, ascending,
    the classes above class a."""

    successors: tuple[tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return len(self.successors)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """(a, b) for each class a below class b."""
        return frozenset((a, b) for a, above in enumerate(self.successors) for b in above)

    @cached_property
    def covers(self) -> tuple[tuple[int, ...], ...]:
        """covers[a] lists, ascending, the classes b covering class a: a < b
        with no class strictly between them (the Hasse diagram's edges)."""
        above = [sum(1 << b for b in bs) for bs in self.successors]
        out = []
        for bs in self.successors:
            skipped = 0
            for b in bs:
                skipped |= above[b]
            out.append(tuple(b for b in bs if not skipped >> b & 1))
        return tuple(out)

    @cached_property
    def isolated(self) -> frozenset[int]:
        """Classes comparable to no other class."""
        below = {b for above in self.successors for b in above}
        return frozenset(a for a, above in enumerate(self.successors) if not above and a not in below)


def condensation(rel: Relation, part: ClassPartition) -> CondensationDAG:
    """Order between distinct classes, computed once per relation; `part` must
    be the relation's own partition (equivalence_classes(rel))."""
    if part != rel.partition:
        raise ValueError("partition is not the relation's own")
    return rel.condensation


def _condensation(rel: Relation) -> CondensationDAG:
    """Whether two classes are related does not depend on the representative
    choice, so the classes above a class are those whose representative
    succeeds its own; representatives ascend with the class index."""
    reps = rel.partition.representatives
    class_of_rep = {rep: a for a, rep in enumerate(reps)}
    rep_mask = sum(1 << rep for rep in reps)
    rows = rel.out_rows
    return CondensationDAG(tuple(
        tuple([class_of_rep[j] for j in set_bits(rows[rep] & rep_mask & ~(1 << rep))]) for rep in reps
    ))


# ---------------------------------------------------------------------------
# comparability graph and its canonical spanning forest

@dataclass(frozen=True)
class Forest:
    tree_edges: frozenset[tuple[int, int]]      # stored as (min, max)
    order: tuple[tuple[int, int], ...]          # (parent, child) in propagation order
    roots: tuple[int, ...]                      # each component's minimum, ascending


def comparability_edges(rel: Relation) -> tuple[tuple[int, int], ...]:
    """Undirected edges {i,j}, i < j, with at least one direction related."""
    edges = {(min(i, j), max(i, j)) for i, j in rel.pairs if i != j}
    return tuple(sorted(edges))


def _forest(rel: Relation) -> Forest:
    """Deterministic spanning forest of the comparability graph (Relation.forest).

    Edges are taken greedily in descending (i,j) order, so the pairs left out
    of the forest (where free cocycle parameters live) are the
    lexicographically earliest ones.  Each component is rooted at its minimum
    vertex and traversed breadth-first for propagation.
    """
    n = rel.n
    parent_uf = list(range(n + 1))

    def find(x: int) -> int:
        while parent_uf[x] != x:
            parent_uf[x] = parent_uf[parent_uf[x]]
            x = parent_uf[x]
        return x

    tree: set[tuple[int, int]] = set()
    for i, j in reversed(comparability_edges(rel)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent_uf[ri] = rj
            tree.add((i, j))

    adjacency: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j in tree:
        adjacency[i].append(j)
        adjacency[j].append(i)

    seen: set[int] = set()
    roots: list[int] = []
    order: list[tuple[int, int]] = []
    for root in range(1, n + 1):
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        for u in comp:  # breadth-first: comp grows while it is walked
            for v in sorted(adjacency[u]):
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    order.append((u, v))
        roots.append(root)
    return Forest(frozenset(tree), tuple(order), tuple(roots))
