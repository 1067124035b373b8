"""Seeded benchmark inputs: relation families, random maps and their defects.

Everything here is a function of the run's seed.  The program under test only
ever sees the JSON text these functions produce, exactly as a user of the
`sma` command would hand it files.  Expected answers come from closed
forms, brute-force oracles and the factored form of each random map, never
from the code path an operation times; `self_check` cross-checks the closed
forms against the oracles, and `breaks` confirms that every broken map
violates an identity.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from itertools import permutations

from sma import (
    RATIONALS,
    BasisImageAutomorphism,
    Relation,
    StructMatrix,
    brute_cocycle_rank,
    brute_relation_automorphisms,
    cocycle_rank,
    gf,
    is_block_form,
    random_factored_automorphism,
    validate,
)

FIELDS = {"Q": RATIONALS, "GF101": gf(101)}
FAMILIES = ("total", "chain2", "crown", "random")
DEFECTS = ("perturb", "swap", "off_pattern", "non_unital", "scaled_chain", "drop_pair")


def total_order(n: int) -> Relation:
    return Relation.from_pairs(n, [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)])


def block_chain(n: int) -> Relation:
    """Classes {1,2}, {3,4}, ... stacked in a chain; n must be even."""
    block = lambda i: (i + 1) // 2  # noqa: E731
    rng = range(1, n + 1)
    return Relation.from_pairs(n, [(i, j) for i in rng for j in rng if block(i) <= block(j)])


def crown(n: int) -> Relation:
    """Sources 1..k, sinks k+1..2k, source i below every sink except i+k."""
    k = n // 2
    pairs = [(i, i) for i in range(1, n + 1)]
    pairs += [(i, k + j) for i in range(1, k + 1) for j in range(1, k + 1) if j != i]
    return Relation.from_pairs(n, pairs)


# Shape of the random family per size: exact number of related pairs, and a
# band for the number of chains i->j->k, which sets the cost of cocycle_rank.
RANDOM_SHAPE = {6: (18, 16, 20), 8: (32, 40, 48), 10: (50, 90, 100)}


def random_quasiorder(n: int, rng: random.Random) -> Relation:
    """Two merged classes of size 2 and singletons, random forward class
    edges closed transitively, labels shuffled so the result is not in block
    form.  Draws are repeated until the relation has the shape RANDOM_SHAPE
    fixes for n, so one seed's input costs about what another's does.
    """
    pairs, lo, hi = RANDOM_SHAPE[n]
    while True:
        rel = _random_closure(n, pairs, rng)
        if len(rel.pairs) == pairs and lo <= len(_chains(rel)) <= hi and not is_block_form(rel):
            return rel


def _random_closure(n: int, target: int, rng: random.Random) -> Relation:
    sizes = [2, 2] + [1] * (n - 4)
    rng.shuffle(sizes)
    p = len(sizes)
    reach = [[a == b for b in range(p)] for a in range(p)]
    candidates = [(a, b) for a in range(p) for b in range(a + 1, p)]
    rng.shuffle(candidates)
    for a, b in candidates:
        if sum(sizes[x] * sizes[y] for x in range(p) for y in range(p) if reach[x][y]) >= target:
            break
        for x in range(p):
            if reach[x][a]:
                for y in range(p):
                    if reach[b][y]:
                        reach[x][y] = True
    members, start = [], 1
    for s in sizes:
        members.append(range(start, start + s))
        start += s
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return Relation.from_pairs(
        n,
        [
            (labels[i - 1], labels[j - 1])
            for a in range(p)
            for b in range(p)
            if reach[a][b]
            for i in members[a]
            for j in members[b]
        ],
    )


def make_relation(family: str, n: int, rng: random.Random) -> Relation:
    if family == "total":
        return total_order(n)
    if family == "chain2":
        return block_chain(n)
    if family == "crown":
        return crown(n)
    return random_quasiorder(n, rng)


def relation_text(rel: Relation) -> str:
    return json.dumps(rel.to_json())


# ---------------------------------------------------------------------------
# cases handed to the timed operations

@dataclass(frozen=True)
class RelationCase:
    family: str
    n: int
    relation_text: str
    rank: int          # expected cocycle rank
    autos: int         # expected number of relation automorphisms


@dataclass(frozen=True)
class MapCase:
    family: str
    field: str
    n: int
    relation_text: str
    phi_text: str       # basis-image JSON of a random automorphism
    matrix_text: str    # a random algebra element
    expected_apply: tuple  # phi(matrix), computed from the factored form


@dataclass(frozen=True)
class RejectCase:
    family: str
    field: str
    n: int
    defect: str
    relation_text: str
    phi_text: str | None            # None for the relation defect
    dropped: tuple[int, int] | None  # the pair removed by the relation defect


def closed_form(family: str, n: int) -> tuple[int, int] | None:
    """(cocycle rank, automorphism count) where the family has a formula."""
    if family == "total":
        return 0, 1
    if family == "chain2":
        return 0, 2 ** (n // 2)
    if family == "crown":
        k = n // 2
        return k * (k - 1) - 2 * k + 1, math.factorial(k)
    return None


def class_level_autos(rel: Relation) -> int:
    """|Aut(R)| = (size-preserving automorphisms of the condensation) * prod |C|!.

    Members of a class relate identically to everything else, so every
    automorphism is a class permutation followed by arbitrary bijections
    within classes.  Counted by filtering class permutations, which stays
    cheap because random inputs have few classes.
    """
    n = rel.n
    classes: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for i in range(1, n + 1):
        if i not in seen:
            cls = tuple(j for j in range(1, n + 1) if (i, j) in rel.pairs and (j, i) in rel.pairs)
            seen.update(cls)
            classes.append(cls)
    reps = [c[0] for c in classes]
    sizes = [len(c) for c in classes]
    p = len(classes)
    count = 0
    for sigma in permutations(range(p)):
        if all(sizes[sigma[a]] == sizes[a] for a in range(p)) and all(
            ((reps[a], reps[b]) in rel.pairs) == ((reps[sigma[a]], reps[sigma[b]]) in rel.pairs)
            for a in range(p)
            for b in range(p)
        ):
            count += 1
    return count * math.prod(math.factorial(s) for s in sizes)


def relation_case(family: str, n: int, rng: random.Random) -> RelationCase:
    rel = make_relation(family, n, rng)
    known = closed_form(family, n)
    if known is None:
        # No closed form: the rank comes from the brute-force oracle, with its
        # default n <= 6 bound lifted, and the count from the class-level formula.
        known = (_oracle_rank(rel), class_level_autos(rel))
    return RelationCase(family, n, relation_text(rel), *known)


def _oracle_rank(rel: Relation) -> int:
    saved = os.environ.get("SMA_MAX_N")
    os.environ["SMA_MAX_N"] = str(rel.n)
    try:
        return brute_cocycle_rank(rel)
    finally:
        if saved is None:
            del os.environ["SMA_MAX_N"]
        else:
            os.environ["SMA_MAX_N"] = saved


def map_case(tr, family: str, field_name: str, n: int, rng: random.Random) -> MapCase:
    rel = make_relation(family, n, rng)
    field = FIELDS[field_name]
    factored = tr.call(
        "oracle.random_map", random_factored_automorphism, rel, field, rng.randrange(2**32)
    )
    x = StructMatrix.from_values(field, rel, {p: field.random(rng) for p in rel.sorted_pairs()})
    return MapCase(
        family,
        field_name,
        n,
        relation_text(rel),
        json.dumps(factored.as_basis_images().to_json()),
        json.dumps(x.to_json()),
        factored.apply(x).rows,
    )


def applicable_defects(family: str) -> tuple[str, ...]:
    """A crown has no chain i->j->k, so scaling one unit keeps it an automorphism."""
    return tuple(d for d in DEFECTS if not (family == "crown" and d == "scaled_chain"))


def _chains(rel: Relation) -> list[tuple[int, int, int]]:
    """Related (i,j), (j,k) with j distinct from i and k."""
    return [
        (i, j, k)
        for i, j in rel.sorted_pairs()
        if i != j
        for k in rel.successors(j)
        if k != j
    ]


def _nonzero_other_than_one(field, rng: random.Random):
    while True:
        c = field.random_nonzero(rng)
        if c != field.one():
            return c


def _break_map(defect: str, images: dict, rel: Relation, field, rng: random.Random):
    """Apply one seeded defect to a copy of `images`; return it and the units touched."""
    out = {p: [list(row) for row in g] for p, g in images.items()}
    pairs = rel.sorted_pairs()
    if defect == "perturb":
        p = rng.choice(pairs)
        r, s = rng.choice(pairs)
        out[p][r - 1][s - 1] = field.reduce(out[p][r - 1][s - 1] + field.random_nonzero(rng))
        return out, {p}
    if defect == "swap":
        p = rng.choice(pairs)
        q = rng.choice([x for x in pairs if x != p])
        out[p], out[q] = out[q], out[p]
        return out, {p, q}
    if defect == "off_pattern":
        p = rng.choice(pairs)
        outside = [
            (r, s) for r in range(1, rel.n + 1) for s in range(1, rel.n + 1) if (r, s) not in rel.pairs
        ]
        r, s = rng.choice(outside)
        out[p][r - 1][s - 1] = field.random_nonzero(rng)
        return out, {p}
    if defect == "non_unital":
        i = rng.randint(1, rel.n)
        c = _nonzero_other_than_one(field, rng)
        out[(i, i)] = [[field.reduce(c * v) for v in row] for row in out[(i, i)]]
        return out, {(i, i)}
    if defect == "scaled_chain":
        i, j, _ = rng.choice(_chains(rel))
        c = _nonzero_other_than_one(field, rng)
        out[(i, j)] = [[field.reduce(c * v) for v in row] for row in out[(i, j)]]
        return out, {(i, j)}
    raise ValueError(defect)


def _mul(field, a, b):
    """Plain product of two grids, skipping zero entries."""
    n = len(a)
    out = []
    for row in a:
        acc = [0] * n
        for t, x in enumerate(row):
            if x:
                for s, y in enumerate(b[t]):
                    if y:
                        acc[s] += x * y
        out.append([field.reduce(v) for v in acc])
    return out


def breaks(rel: Relation, field, images: dict, touched) -> bool:
    """Whether the map given by `images` violates a defining identity.

    An image that leaves the pattern, a product
    image(i,j) * image(k,l) != [j == k] image(i,l), or diagonal images that do
    not sum to 1.  Only products that involve a touched unit are checked,
    since the map was an automorphism before the defect.
    """
    n = rel.n
    for g in images.values():
        if any(g[r][s] != 0 and (r + 1, s + 1) not in rel.pairs for r in range(n) for s in range(n)):
            return True
    pairs = rel.sorted_pairs()
    zero = [[field.zero()] * n for _ in range(n)]
    for t in touched:
        for a, b in [(t, q) for q in pairs] + [(q, t) for q in pairs]:
            expected = images[(a[0], b[1])] if a[1] == b[0] else zero
            if _mul(field, images[a], images[b]) != [list(row) for row in expected]:
                return True
    total = [[sum(images[(i, i)][r][s] for i in range(1, n + 1)) for s in range(n)] for r in range(n)]
    return any(field.reduce(total[r][s]) != (field.one() if r == s else 0)
               for r in range(n) for s in range(n))


def dropped_pair(rel: Relation, rng: random.Random) -> tuple[int, int]:
    """A pair whose removal breaks transitivity, or a diagonal pair when the
    relation has no chain through three distinct elements."""
    implied = sorted({(i, k) for i, _, k in _chains(rel) if k != i})
    if implied:
        return rng.choice(implied)
    i = rng.randint(1, rel.n)
    return (i, i)


def broken_map_text(rel: Relation, field, images: dict, defect: str, rng: random.Random) -> str:
    """Basis-image JSON of the map with one seeded defect that provably breaks it.

    A draw that leaves the map an automorphism (a swap of two units with
    equal images, say) is drawn again.
    """
    for _ in range(100):
        broken, touched = _break_map(defect, images, rel, field, rng)
        if breaks(rel, field, broken, touched):
            return json.dumps(BasisImageAutomorphism.from_map(rel, field, broken).to_json())
    raise RuntimeError(f"no {defect} defect broke the map")


def reject_cases(tr, family: str, field_name: str, n: int, rng: random.Random) -> list[RejectCase]:
    """Every applicable defect, applied to one random map (or its relation)."""
    rel = make_relation(family, n, rng)
    field = FIELDS[field_name]
    factored = tr.call(
        "oracle.random_map", random_factored_automorphism, rel, field, rng.randrange(2**32)
    )
    images = factored.images()
    cases = []
    for defect in applicable_defects(family):
        if defect == "drop_pair":
            pair = dropped_pair(rel, rng)
            text = relation_text(Relation(n, rel.pairs - {pair}))
            cases.append(RejectCase(family, field_name, n, defect, text, None, pair))
        else:
            text = broken_map_text(rel, field, images, defect, rng)
            cases.append(RejectCase(family, field_name, n, defect, relation_text(rel), text, None))
    return cases


def self_check(family: str, rel: Relation) -> list[str]:
    """Cross-check one generated relation against the oracles and closed forms."""
    n = rel.n
    if not validate(rel).ok:
        return [f"{family} n={n}: generated relation is not a quasi-order"]
    problems = []
    known = closed_form(family, n)
    if n <= 6:
        rank = brute_cocycle_rank(rel)
        expected = known[0] if known is not None else cocycle_rank(rel).rank
        if rank != expected:
            problems.append(f"{family} n={n}: brute rank {rank}, expected {expected}")
    if n <= 8:
        count = len(brute_relation_automorphisms(rel))
        expected = known[1] if known is not None else class_level_autos(rel)
        if count != expected:
            problems.append(f"{family} n={n}: brute automorphism count {count}, expected {expected}")
    return problems
