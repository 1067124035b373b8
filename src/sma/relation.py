"""Quasi-orders on {1..n} and their class structure.

A quasi-order (preorder) is a reflexive, transitive binary relation.  Elements
are 1-based everywhere, matching the usual matrix-index convention.  The
mutual-relation classes (i ~ j iff both (i,j) and (j,i) are related) partition
the ground set; the order they inherit is an acyclic relation on classes, the
condensation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidRelation, ParseError

MAX_REPORTED_VIOLATIONS = 100


def parse_json(text: str, source: str | None = None):
    """json.loads, with every failure a ParseError prefixed by `source`.

    json reports most errors as JSONDecodeError, but an integer literal over
    the interpreter's digit limit as a plain ValueError."""
    prefix = f"{source}: " if source else ""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{prefix}invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise ParseError(f"{prefix}invalid JSON: {exc}") from exc


@dataclass(frozen=True)
class Relation:
    """Binary relation on {1..n}, stored as a set of ordered 1-based pairs."""

    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ground set must contain at least one element")
        for i, j in self.pairs:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"pair ({i},{j}) out of range 1..{self.n}")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Sequence[int]]) -> Relation:
        return cls(n, frozenset((int(i), int(j)) for i, j in pairs))

    @classmethod
    def identity(cls, n: int) -> Relation:
        """The diagonal relation {(i,i)}."""
        return cls(n, frozenset((i, i) for i in range(1, n + 1)))

    @classmethod
    def full(cls, n: int) -> Relation:
        rng = range(1, n + 1)
        return cls(n, frozenset((i, j) for i in rng for j in rng))

    def __contains__(self, pair) -> bool:
        i, j = pair
        return (i, j) in self.pairs

    def successors(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(j for (a, j) in self.pairs if a == i))

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))

    def off_diagonal_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(p for p in self.sorted_pairs() if p[0] != p[1])

    def to_json(self) -> dict:
        return {"n": self.n, "pairs": [list(p) for p in self.sorted_pairs()]}

    @classmethod
    def from_json(cls, obj) -> Relation:
        if not isinstance(obj, dict) or "n" not in obj or "pairs" not in obj:
            raise ParseError('relation JSON must be {"n": ..., "pairs": [[i, j], ...]}')
        try:
            n = int(obj["n"])
            pairs = [(int(p[0]), int(p[1])) for p in obj["pairs"]]
        except (TypeError, ValueError, IndexError) as exc:
            raise ParseError(f"malformed relation JSON: {exc}") from exc
        try:
            return cls.from_pairs(n, pairs)
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
        try:
            n = int(first)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: expected the ground-set size, got {first!r}") from exc
        pairs = []
        for lineno, ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'i j', got {ln!r}")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
        try:
            return cls.from_pairs(n, pairs)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    @classmethod
    def parse(cls, text: str) -> Relation:
        """Parse either the JSON or the plain-text relation format."""
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls.from_json(parse_json(text))
        return cls.from_text(text)


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
    violations: tuple[Violation, ...]
    truncated: bool = False


def validate(rel: Relation) -> ValidationReport:
    """Check reflexivity and transitivity, naming a witness for each failure.

    Reporting is capped at MAX_REPORTED_VIOLATIONS entries to bound output on
    adversarial input; `truncated` records whether the cap was hit.
    """
    violations: list[Violation] = []
    truncated = False

    def add(v: Violation) -> bool:
        nonlocal truncated
        if len(violations) >= MAX_REPORTED_VIOLATIONS:
            truncated = True
            return False
        violations.append(v)
        return True

    for i in range(1, rel.n + 1):
        if (i, i) not in rel.pairs:
            if not add(Violation("reflexivity", ((i, i),), (i, i))):
                break
    if not truncated:
        succ = {i: rel.successors(i) for i in range(1, rel.n + 1)}
        done = False
        for i, j in rel.sorted_pairs():
            for k in succ[j]:
                if (i, k) not in rel.pairs:
                    if not add(Violation("transitivity", ((i, j), (j, k)), (i, k))):
                        done = True
                        break
            if done:
                break
    return ValidationReport(not violations and not truncated, tuple(violations), truncated)


def transitive_reflexive_closure(rel: Relation) -> Relation:
    """Smallest quasi-order containing the given pairs (Warshall closure)."""
    n = rel.n
    reach = [[False] * (n + 1) for _ in range(n + 1)]
    for i, j in rel.pairs:
        reach[i][j] = True
    for i in range(1, n + 1):
        reach[i][i] = True
    for k in range(1, n + 1):
        rk = reach[k]
        for i in range(1, n + 1):
            if reach[i][k]:
                ri = reach[i]
                for j in range(1, n + 1):
                    if rk[j]:
                        ri[j] = True
    return Relation(n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if reach[i][j]))


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

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {e: k for k, cls in enumerate(self.classes) for e in cls}

    def class_of(self, element: int) -> int:
        return self._index[element]


def equivalence_classes(rel: Relation) -> ClassPartition:
    """Partition {1..n} into classes of mutually related elements.

    For a valid quasi-order these are exactly the strongly connected components
    of the relation digraph, and mutual membership of both (i,j) and (j,i)
    already gives the equivalence directly.
    """
    report = validate(rel)
    if not report.ok:
        detail = str(report.violations[0]) if report.violations else "too many violations"
        raise InvalidRelation(f"not a quasi-order: {detail}")
    seen: set[int] = set()
    classes: list[tuple[int, ...]] = []
    for i in range(1, rel.n + 1):
        if i in seen:
            continue
        cls = tuple(sorted(j for j in range(1, rel.n + 1) if (i, j) in rel.pairs and (j, i) in rel.pairs))
        seen.update(cls)
        classes.append(cls)
    return ClassPartition(tuple(classes))


@dataclass(frozen=True)
class CondensationDAG:
    """Strict order between distinct classes: (a,b) means class a below class b."""

    p: int
    edges: frozenset[tuple[int, int]]

    def leq(self, a: int, b: int) -> bool:
        return a == b or (a, b) in self.edges


def condensation(rel: Relation, part: ClassPartition) -> CondensationDAG:
    """Order between distinct classes, read off the class representatives.

    Whether two classes are related does not depend on the representative
    choice, so a single pair test per class pair suffices.
    """
    reps = part.representatives
    edges = frozenset(
        (a, b)
        for a in range(part.p)
        for b in range(part.p)
        if a != b and (reps[a], reps[b]) in rel.pairs
    )
    return CondensationDAG(part.p, edges)


def isolated_classes(dag: CondensationDAG) -> frozenset[int]:
    """Classes comparable to no other class."""
    touched = {a for e in dag.edges for a in e}
    return frozenset(k for k in range(dag.p) if k not in touched)
