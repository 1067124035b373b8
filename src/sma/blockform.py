"""Relabelling a quasi-order into block upper triangular form.

Listing each class on a contiguous index range, with the class order a linear
extension of the condensation and the isolated classes trailing, turns the
pattern of the associated matrix algebra into a block upper triangular grid
whose diagonal blocks are the classes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import InvalidOverride
from .relation import ClassPartition, CondensationDAG, Relation

if TYPE_CHECKING:
    from .algebra import Grid


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}; image[i-1] is where i is sent."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.n or sorted(self.image) != list(range(1, self.n + 1)):
            raise ValueError(f"not a bijection of 1..{self.n}: {self.image}")

    @classmethod
    def _unchecked(cls, n: int, image: tuple[int, ...]) -> Permutation:
        """A permutation whose image is a bijection of 1..n by construction,
        built without the check."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "n", n)  # as the frozen dataclass's __init__ does
        object.__setattr__(perm, "image", image)
        return perm

    @classmethod
    def identity_perm(cls, n: int) -> Permutation:
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def from_mapping(cls, n: int, mapping: dict[int, int]) -> Permutation:
        return cls(n, tuple(mapping[i] for i in range(1, n + 1)))

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def relabel(self, grid: Grid) -> Grid:
        """The grid whose (i, j) entry is grid[p(i)][p(j)], 1-based: the similarity
        B -> (B[p(i)][p(j)]), gathering each row through one index list."""
        idx = [k - 1 for k in self.image]
        return tuple(tuple(map(grid[k].__getitem__, idx)) for k in idx)

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for i, img in enumerate(self.image, start=1):
            inv[img - 1] = i
        return Permutation(self.n, tuple(inv))

    def is_identity(self) -> bool:
        return self.image == tuple(range(1, self.n + 1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its minimum, for display."""
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for i in range(1, self.n + 1):
            if i in seen:
                continue
            cyc = [i]
            j = self(i)
            while j != i:
                cyc.append(j)
                j = self(j)
            seen.update(cyc)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_notation(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def to_json(self) -> list[int]:
        return list(self.image)


def compose_permutations(p: Permutation, q: Permutation) -> Permutation:
    """The bijection i -> p(q(i))."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    return Permutation(p.n, tuple(p(q(i)) for i in range(1, p.n + 1)))


def conjugate_relation(rel: Relation, perm: Permutation) -> Relation:
    """Relabel: (i,j) related in the result iff their preimages are in the source.
    The identity returns `rel` itself, with the structure it has computed."""
    if perm.n != rel.n:
        raise ValueError("size mismatch")
    if perm.is_identity():
        return rel
    image = (0, *perm.image)
    return Relation(rel.n, frozenset((image[i], image[j]) for i, j in rel.pairs))


@dataclass(frozen=True)
class BlockForm:
    source: Relation
    pi: Permutation
    permuted: Relation
    class_order: tuple[int, ...]  # indices into partition.classes, diagonal order
    block_sizes: tuple[int, ...]
    block_spans: tuple[tuple[int, int], ...]  # half-open 1-based index range of each block
    num_comparable: int
    num_isolated: int
    partition: ClassPartition

    @property
    def p(self) -> int:
        return len(self.class_order)


def class_order_permutation(part: ClassPartition, order: Sequence[int]) -> Permutation:
    """Permutation sending each class, elements ascending, onto the next free range."""
    placed = tuple(e for k in order for e in part.classes[k])  # the element at each position
    return Permutation(len(placed), placed).inverse()


def _default_class_order(dag: CondensationDAG) -> list[int]:
    """Comparable classes topologically sorted (ties by representative), isolated last.

    Classes are indexed in the order of their representatives, so ties are
    broken by the class index."""
    indeg = [0] * dag.p
    for above in dag.successors:
        for b in above:
            indeg[b] += 1
    isolated = dag.isolated
    ready = [k for k in range(dag.p) if indeg[k] == 0 and k not in isolated]  # ascending: a heap
    order: list[int] = []
    while ready:
        k = heapq.heappop(ready)
        order.append(k)
        for b in dag.successors[k]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(ready, b)
    order.extend(sorted(isolated))
    return order


def _check_override(order: Sequence[int], part: ClassPartition, dag: CondensationDAG) -> list[int]:
    if any(type(k) is not int for k in order) or sorted(order) != list(range(part.p)):
        raise InvalidOverride(f"override must list each of the {part.p} classes exactly once")
    reps = part.representatives
    pos = {k: t for t, k in enumerate(order)}
    for a, above in enumerate(dag.successors):
        for b in above:
            if pos[a] > pos[b]:
                raise InvalidOverride(
                    f"the class of {reps[a]} must precede the class of {reps[b]} (they are comparable)"
                )
    num_comparable = part.p - len(dag.isolated)
    trailing = set(order[num_comparable:])
    if trailing != dag.isolated:
        raise InvalidOverride("isolated classes must occupy the trailing positions")
    return order


def build_block_form(rel: Relation, class_order_override: Optional[Sequence[int]] = None) -> BlockForm:
    """Relabel `rel` so the permuted relation is block upper triangular.

    The default class order is the deterministic linear extension of the
    condensation (topological, ties broken by class representative) with the
    isolated classes last, sorted by representative.  The default form is
    built once per relation and kept on it, so every caller shares one
    permuted relation.  An override must be a linear extension with the
    isolated classes last; it exists so any other admissible diagonal layout
    can be reproduced exactly.
    """
    return rel.block_form if class_order_override is None else _block_form(rel, class_order_override)


def _block_form(rel: Relation, class_order_override: Optional[Sequence[int]] = None) -> BlockForm:
    part = rel.partition  # raises InvalidRelation unless rel is a quasi-order
    dag = rel.condensation
    if class_order_override is None:
        order = _default_class_order(dag)
    else:
        order = _check_override(class_order_override, part, dag)
    pi = class_order_permutation(part, order)
    permuted = conjugate_relation(rel, pi)
    sizes = tuple(len(part.classes[k]) for k in order)
    bounds = tuple(accumulate(sizes, initial=1))

    bf = BlockForm(
        source=rel,
        pi=pi,
        permuted=permuted,
        class_order=tuple(order),
        block_sizes=sizes,
        block_spans=tuple(zip(bounds, bounds[1:])),
        num_comparable=part.p - len(dag.isolated),
        num_isolated=len(dag.isolated),
        partition=part,
    )
    # Contiguous ascending class layout makes triangularity automatic; assert it anyway.
    block_of = {pos: b for b, span in enumerate(bf.block_spans) for pos in range(*span)}
    for i, j in permuted.pairs:
        assert block_of[i] <= block_of[j], f"block triangularity violated at ({i},{j})"
    return bf


@dataclass(frozen=True)
class BlockPattern:
    """p x p grid; full[a][b] is True where the block holds arbitrary entries."""

    p: int
    full: tuple[tuple[bool, ...], ...]


def block_pattern(bf: BlockForm) -> BlockPattern:
    """Which blocks of the permuted pattern are full.

    Diagonal blocks are always full; block (a,b) above the diagonal is full
    exactly when the classes on positions a and b are comparable, which the
    first elements of the two index ranges already decide.
    """
    spans = bf.block_spans
    grid = []
    for a in range(bf.p):
        row = []
        for b in range(bf.p):
            if a == b:
                row.append(True)
            else:
                row.append((spans[a][0], spans[b][0]) in bf.permuted.pairs)
        grid.append(tuple(row))
    return BlockPattern(bf.p, tuple(grid))


def is_semisimple(rel: Relation) -> bool:
    """True iff the quasi-order is symmetric, i.e. the block form is block
    diagonal; InvalidRelation unless `rel` is a quasi-order."""
    rel.require_quasi_order()
    return all((j, i) in rel.pairs for i, j in rel.pairs)


def is_block_form(rel: Relation) -> bool:
    """True iff `rel` is already laid out as its own block upper triangular form:
    contiguous classes, each below only later ones, the isolated ones last."""
    return build_block_form(rel).pi.is_identity()


def render_pattern_grid(bf: BlockForm) -> str:
    """n x n grid of F/0 cells with block separators, for eyeball comparison."""
    boundaries = {stop for _, stop in bf.block_spans[:-1]}
    lines = []
    for i in range(1, bf.source.n + 1):
        cells = []
        for j in range(1, bf.source.n + 1):
            cells.append("F" if (i, j) in bf.permuted.pairs else "0")
            if j + 1 in boundaries:
                cells.append("|")
        lines.append(" ".join(cells))
        if i + 1 in boundaries:
            lines.append("".join("+" if ch == "|" else "-" for ch in lines[-1]))
    return "\n".join(lines)
