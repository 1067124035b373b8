"""The row-sparse elimination kernel against dense references.

The references below are the plain dense Gauss-Jordan routines (and the dense
cocycle_rank built on them) that the sparse kernel replaced, kept here so the
kernel is checked against an independent implementation: same reduced row
echelon form, rank, nullspace basis and inverse on random matrices, and the
same CocycleBasis, generator for generator, on every quasi-order with n <= 4
and on seeded families at n = 6-10.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sma import RATIONALS, Relation, Singular, cocycle_rank, enumerate_quasiorders, equivalence_classes, gf
from sma.algebra import Echelon, identity_grid, invert_grid, matrix_rank
from sma.relation import transitive_reflexive_closure
from sma.transitive import CocycleBasis, _primitive_integer

from conftest import crown, grown

GF101 = gf(101)


def dense_rref(field, rows):
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.reduce(x * inv) for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.reduce(x - f * y) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def dense_nullspace(field, rows, ncols):
    reduced, pivots = dense_rref(field, rows) if rows else ([], [])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero()] * ncols
        vec[f] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(reduced[r][f])
        basis.append(tuple(vec))
    return basis


def kernel_vectors(echelon, ncols):
    """The canonical nullspace basis `Echelon.kernel` returns, as dense vectors."""
    zero = echelon.field.zero()
    return [tuple(vec.get(c, zero) for c in range(ncols)) for vec in echelon.kernel(ncols)]


def dense_inverse(field, a):
    n = len(a)
    left = [list(row) for row in a]
    right = [list(row) for row in identity_grid(field, n)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if left[i][c] != 0), None)
        if pivot_row is None:
            return None
        left[c], left[pivot_row] = left[pivot_row], left[c]
        right[c], right[pivot_row] = right[pivot_row], right[c]
        inv = field.inv(left[c][c])
        left[c] = [field.reduce(x * inv) for x in left[c]]
        right[c] = [field.reduce(x * inv) for x in right[c]]
        for i in range(n):
            if i != c and left[i][c] != 0:
                f = left[i][c]
                left[i] = [field.reduce(x - f * y) for x, y in zip(left[i], left[c])]
                right[i] = [field.reduce(x - f * y) for x, y in zip(right[i], right[c])]
    return tuple(tuple(row) for row in right)


def dense_cocycle_rank(rel):
    """cocycle_rank as it was before the sparse kernel: dense Fraction rows,
    one elimination for the rank and another for the nullspace."""
    all_pairs = rel.off_diagonal_pairs()
    var_index, signed = {}, {}
    for i, j in all_pairs:
        if (j, i) in rel.pairs and (j, i) < (i, j):
            continue
        var_index[(i, j)] = len(var_index)
    for i, j in all_pairs:
        if (i, j) in var_index:
            signed[(i, j)] = (var_index[(i, j)], 1)
        else:
            signed[(i, j)] = (var_index[(j, i)], -1)
    nvars = len(var_index)
    zero, one = Fraction(0), Fraction(1)
    rows = []
    for i, j in all_pairs:
        for k in rel.successors(j):
            if k == j or k == i:
                continue
            row = [zero] * nvars
            for pair, coeff in (((i, j), one), ((j, k), one), ((i, k), -one)):
                var, sign = signed[pair]
                row[var] += sign * coeff
            if any(v != 0 for v in row):
                rows.append(row)
    solution_dim = nvars - (len(dense_rref(RATIONALS, rows)[1]) if rows else 0)
    forest = rel.forest
    coboundary_dim = rel.n - len(forest.roots)
    normalized_rows = list(rows)
    for i, j in sorted(forest.tree_edges):
        pair = (i, j) if (i, j) in rel.pairs else (j, i)
        row = [zero] * nvars
        row[signed[pair][0]] = one
        normalized_rows.append(row)
    basis = dense_nullspace(RATIONALS, normalized_rows, nvars) if nvars else []
    vectors = []
    for vec in basis:
        expanded = [signed[p][1] * vec[signed[p][0]] for p in all_pairs]
        vectors.append(_primitive_integer(Fraction(v) for v in expanded))
    assert len(vectors) == solution_dim - coboundary_dim
    return CocycleBasis(len(vectors), all_pairs, tuple(vectors))


def echelon_of(field, rows):
    """The echelon of dense rows."""
    echelon = Echelon(field)
    for row in rows:
        echelon.add(dict(enumerate(row)))
    return echelon


def sparse_rref(field, rows, ncols):
    """The nonzero rows of the echelon's reduced row echelon form, dense, and its pivots."""
    echelon = Echelon(field)
    for row in rows:
        echelon.add(dict(enumerate(row)))
    pivots = sorted(echelon.rows)
    dense = [[echelon.rows[p].get(c, field.zero()) for c in range(ncols)] for p in pivots]
    return dense, pivots


# ---------------------------------------------------------------------------
# random matrices: sparse, with zero rows and dependent rows mixed in

def _scalars(field):
    if field.is_rational:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, field.char - 1)


@st.composite
def matrices(draw, field):
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(field.zero()), st.just(field.zero()), _scalars(field))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(_scalars(field))
        rows.append([field.reduce(x + c * y) for x, y in zip(a, b)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [field.zero()] * ncols)
    return rows, ncols


@pytest.mark.parametrize("field", [RATIONALS, GF101], ids=lambda f: f.name)
class TestSparseKernel:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_dense_reference(self, field, data):
        rows, ncols = data.draw(matrices(field))
        reduced, pivots = dense_rref(field, rows)
        assert sparse_rref(field, rows, ncols) == (reduced[: len(pivots)], pivots)
        assert matrix_rank(field, rows) == len(pivots)
        assert kernel_vectors(echelon_of(field, rows), ncols) == dense_nullspace(field, rows, ncols)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_inverse_matches_dense_reference(self, field, data):
        n = data.draw(st.integers(1, 6))
        entry = st.one_of(st.just(field.zero()), _scalars(field))
        a = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(n))
        expected = dense_inverse(field, a)
        if expected is None:
            with pytest.raises(Singular):
                invert_grid(field, a)
        else:
            assert invert_grid(field, a) == expected

    def test_empty_and_zero_input(self, field):
        zero, one = field.zero(), field.one()
        assert sparse_rref(field, [], 2) == ([], [])
        assert matrix_rank(field, []) == 0
        assert kernel_vectors(echelon_of(field, []), 2) == [(one, zero), (zero, one)]
        assert matrix_rank(field, [[zero, zero]]) == 0
        assert kernel_vectors(echelon_of(field, [[zero, zero]]), 2) == [(one, zero), (zero, one)]
        assert sparse_rref(field, [[zero, zero]], 2) == ([], [])

    def test_insertion_order_does_not_change_the_echelon(self, field):
        rng = random.Random(7)
        rows = [{c: field.random_nonzero(rng) for c in rng.sample(range(8), 3)} for _ in range(12)]
        forward, backward = Echelon(field), Echelon(field)
        independent = [forward.add(r) for r in rows]
        for r in reversed(rows):
            backward.add(r)
        assert forward.rows == backward.rows
        assert sum(independent) == forward.rank


# ---------------------------------------------------------------------------
# cocycle_rank against the dense implementation it replaced

def _total(n):
    return Relation.from_pairs(n, [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)])


def _chain2(n):
    return Relation.from_pairs(
        n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if (i - 1) // 2 <= (j - 1) // 2]
    )


def _random(n, seed):
    """A random quasi-order: the closure of random pairs, or (odd seeds) a
    random height-2 order, which keeps nontrivial cocycles."""
    rng = random.Random(seed)
    diagonal = [(i, i) for i in range(1, n + 1)]
    if seed % 2:
        k = n // 2
        below = [(i, j) for i in range(1, k + 1) for j in range(k + 1, n + 1) if rng.random() < 0.6]
        return Relation.from_pairs(n, diagonal + below)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j and rng.random() < 0.12]
    return transitive_reflexive_closure(Relation.from_pairs(n, diagonal + pairs))


FAMILIES = (
    [("total", n, _total(n)) for n in range(6, 11)]
    + [("chain2", n, _chain2(n)) for n in (6, 8, 10)]
    + [("crown", n, crown(n)) for n in (6, 8, 10)]
    + [("random", n, _random(n, n)) for n in range(6, 11)]
)


class TestCocycleRankMatchesDense:
    def test_quasiorder_sweep(self):
        count = 0
        for n in range(1, 5):
            for rel in enumerate_quasiorders(n):
                assert cocycle_rank(rel) == dense_cocycle_rank(rel), rel
                count += 1
        assert count == 389

    @pytest.mark.parametrize("family,n,rel", FAMILIES, ids=[f"{f}{n}" for f, n, _ in FAMILIES])
    def test_families(self, family, n, rel):
        assert cocycle_rank(rel) == dense_cocycle_rank(rel)

    def test_families_reach_nonzero_rank(self):
        assert any(cocycle_rank(rel).rank > 1 for family, _, rel in FAMILIES if family == "random")


# ---------------------------------------------------------------------------
# cocycle_rank on classes of two to four elements, and past the dense reference's reach

def _with_twin_classes(rel, seed):
    """rel with a seeded choice of elements grown into 2-element classes, at
    most 12 elements in all, relabelled by a seeded shuffle."""
    rng = random.Random(seed)
    doubled = set(rng.sample(range(1, rel.n + 1), min(rel.n // 2, 12 - rel.n)))
    labels = list(range(1, rel.n + len(doubled) + 1))
    rng.shuffle(labels)
    return grown(rel, [2 if e in doubled else 1 for e in range(1, rel.n + 1)], labels)


def _shuffled(n, seed):
    labels = list(range(1, n + 1))
    random.Random(seed).shuffle(labels)
    return labels


TWIN_CLASSES = (
    [(f"crown{2 * k}_seed{seed}", _with_twin_classes(crown(2 * k), seed)) for k in (3, 4, 5) for seed in (0, 1)]
    + [(f"height2_{n}_seed{seed}", _with_twin_classes(_random(n, seed), seed)) for n in (7, 8, 9, 10) for seed in (1, 7)]
    # Classes of 3 and 4.  Labelled in order, crown 6's source class {1..4}
    # lies below its comparable outsiders, so the forest hub is an outsider,
    # and sink class {7,8,9} lies above them, so its hub is 9; labelled in
    # reverse, the two swap.
    + [("crown6_4_3_in_order", grown(crown(6), [4, 1, 1, 3, 1, 1], range(1, 12)))]
    + [("crown6_4_3_reversed", grown(crown(6), [4, 1, 1, 3, 1, 1], range(11, 0, -1)))]
    + [(f"crown8_3_3_seed{seed}", grown(crown(8), [3, 1, 1, 1, 1, 3, 1, 1], _shuffled(12, seed))) for seed in (0, 1)]
    + [(f"height2_8_4_seed{seed}", grown(_random(8, seed), [4, 1, 1, 1, 1, 1, 1, 1], _shuffled(11, seed))) for seed in (1, 3)]
    + [(f"height2_6_3_4_seed{seed}", grown(_random(6, seed), [1, 3, 1, 4, 1, 1], _shuffled(11, seed))) for seed in (3, 7)]
)


class TestCocycleRankOnTwinClasses:
    @pytest.mark.parametrize("rel", [rel for _, rel in TWIN_CLASSES], ids=[name for name, _ in TWIN_CLASSES])
    def test_matches_dense(self, rel):
        assert len(equivalence_classes(rel).classes) < rel.n <= 12
        basis = cocycle_rank(rel)
        assert basis.rank > 0
        assert basis == dense_cocycle_rank(rel)


class TestCocycleRankClosedForms:
    @pytest.mark.parametrize("rel", [_total(100), _chain2(60)], ids=["total100", "chain2_60"])
    def test_chains_of_classes_have_rank_zero(self, rel):
        assert cocycle_rank(rel) == CocycleBasis(0, rel.off_diagonal_pairs(), ())

    def test_crown_generators_are_the_pairs_off_the_forest(self):
        # no chain has three elements, so the generators are the unit vectors
        # of the k(k-1) - (2k-1) pairs that the spanning forest leaves out
        k = 10
        rel = crown(2 * k)
        basis = cocycle_rank(rel)
        pairs = rel.off_diagonal_pairs()
        free = [p for p in pairs if p not in rel.forest.tree_edges]
        assert basis.rank == k * (k - 1) - 2 * k + 1 == len(free) == 71
        assert basis.vectors == tuple(tuple(int(q == p) for q in pairs) for p in free)


class TestCocycleRankOnTheCondensation:
    def test_rank_is_the_condensations(self):
        # canonical cocycles vanish inside classes, so the rank is that of the
        # condensation taken as a poset on its p classes, here computed by the
        # dense reference
        ranks = []
        for seed in range(60):
            rng = random.Random(seed)
            base = _random(rng.randint(4, 9), seed)
            sizes = [rng.randint(1, 3) for _ in range(base.n)]
            sizes[0] = max(sizes[0], 2)
            rel = grown(base, sizes, _shuffled(sum(sizes), seed))
            dag = rel.condensation
            poset = Relation.from_pairs(dag.p, [(a, a) for a in range(1, dag.p + 1)] + [(a + 1, b + 1) for a, b in dag.edges])
            ranks.append(cocycle_rank(rel).rank)
            assert ranks[-1] == dense_cocycle_rank(poset).rank
        assert sum(rank > 0 for rank in ranks) >= 10
