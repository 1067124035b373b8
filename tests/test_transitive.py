import random
from fractions import Fraction

import pytest
from conftest import crown, grid_scale

from sma import (
    Mismatch,
    RATIONALS,
    Relation,
    ScalingVector,
    StructMatrix,
    TransitiveFn,
    ViolatingCycle,
    canonicalize,
    check_transitive,
    coboundary,
    cocycle_rank,
    compose,
    enumerate_quasiorders,
    equal_as_maps,
    gf,
    induced_automorphism,
    inner_automorphism,
    matrix_unit,
    triviality_witness,
    verify_automorphism,
)
from sma.oracle import brute_cocycle_rank, random_transitive_fn
from sma.transitive import exponential


def brute_composable_triples(rel):
    return [
        ((i, j), (j, k))
        for (i, j) in rel.sorted_pairs()
        for (j2, k) in rel.sorted_pairs()
        if j2 == j
    ]


def cycle_product(g, vertices):
    """Re-multiply a closed walk by hand, independent of the witness code."""
    rel, fld = g.relation, g.field
    total = fld.one()
    for u, v in zip(vertices, vertices[1:]):
        if (u, v) in rel.pairs:
            total = fld.reduce(total * g(u, v))
        else:
            total = fld.reduce(total * fld.inv(g(v, u)))
    return total


class TestCheckTransitive:
    def test_constant_one_is_transitive(self, sym6, vee3_block, crown6_block):
        for rel in (sym6, vee3_block, crown6_block):
            assert check_transitive(TransitiveFn.ones(rel, RATIONALS)).ok

    def test_crown_single_value_is_transitive(self, crown6_block):
        g = TransitiveFn.build(crown6_block, RATIONALS, {(1, 4): 2})
        assert check_transitive(g).ok

    def test_extra_value_breaks_a_chain(self, crown6_block):
        g = TransitiveFn.build(crown6_block, RATIONALS, {(1, 4): 2, (2, 4): 2})
        report = check_transitive(g)
        assert not report.ok
        witnessed = {(v.first, v.second) for v in report.violations}
        assert ((2, 3), (3, 4)) in witnessed
        # cross-check the full violation set against brute enumeration
        expected = set()
        for (p1, p2) in brute_composable_triples(crown6_block):
            lhs = g(*p1) * g(*p2)
            if lhs != g(p1[0], p2[1]):
                expected.add((p1, p2))
        assert witnessed == expected

    def test_domain_and_value_validation(self, vee3_block):
        with pytest.raises(Mismatch):
            TransitiveFn.build(vee3_block, RATIONALS, {(3, 1): 2})
        with pytest.raises(Mismatch):  # not read as (1, 3)
            TransitiveFn.build(vee3_block, RATIONALS, {(1, 3.5): 2})
        for key in ((1, 3.0), (True, 3)):  # equal to (1, 3), whose value they used to set
            with pytest.raises(Mismatch, match="not in the relation"):
                TransitiveFn.build(vee3_block, RATIONALS, {key: 2})
        with pytest.raises(ValueError):
            TransitiveFn.build(vee3_block, RATIONALS, {(1, 3): 0})
        with pytest.raises(ValueError):
            TransitiveFn.build(vee3_block, RATIONALS, {(1, 1): 2})

    def test_constructor_checks_what_build_checks(self, vee3_block):
        from sma import FactoredAutomorphism, Permutation, identity_matrix

        gf5 = gf(5)
        zeros = tuple((p, 0) for p in vee3_block.sorted_pairs())
        with pytest.raises(ValueError, match="nonzero"):
            TransitiveFn(vee3_block, gf5, zeros)
        # so no factored map can carry it (it used to construct, and
        # canonicalize then raised a bare ZeroDivisionError)
        with pytest.raises(ValueError, match="nonzero"):
            FactoredAutomorphism(
                identity_matrix(gf5, vee3_block), TransitiveFn(vee3_block, gf5, zeros), Permutation.identity_perm(3)
            )
        ones = TransitiveFn.ones(vee3_block, gf5).entries
        with pytest.raises(ValueError, match="diagonal"):
            TransitiveFn(vee3_block, gf5, ((ones[0][0], 2),) + ones[1:])
        with pytest.raises(Mismatch):
            TransitiveFn(vee3_block, gf5, ones[1:])
        with pytest.raises(Mismatch):
            TransitiveFn(vee3_block, gf5, ones + (((3, 1), 1),))

    def test_pointwise_product_stays_transitive(self, crown6_block):
        rng = random.Random(41)
        for field in (RATIONALS, gf(5)):
            s = [field.random_nonzero(rng) for _ in range(6)]
            g = coboundary(crown6_block, field, s)
            h = TransitiveFn.build(crown6_block, field, {(1, 4): field.element(2)})
            assert check_transitive(g.pointwise_mul(h)).ok
            assert check_transitive(g.pointwise_inv()).ok

    def test_operands_that_disagree_are_refused(self, vee3_block, crown6_block):
        g = TransitiveFn.ones(vee3_block, RATIONALS)
        for other in (TransitiveFn.ones(vee3_block, gf(5)), TransitiveFn.ones(crown6_block, RATIONALS)):
            with pytest.raises(Mismatch, match="same relation and field"):
                g.pointwise_mul(other)
        with pytest.raises(ValueError, match="nonzero"):
            coboundary(vee3_block, RATIONALS, [1, 0, 2])


class TestInducedAutomorphism:
    def test_ones_induce_identity(self, vee3_block):
        images = induced_automorphism(TransitiveFn.ones(vee3_block, RATIONALS)).as_basis_images().images()
        for (i, j) in vee3_block.sorted_pairs():
            assert images[(i, j)] == matrix_unit(vee3_block, RATIONALS, i, j).rows

    def test_crown_value_scales_one_unit(self, crown6_block):
        g = TransitiveFn.build(crown6_block, RATIONALS, {(1, 4): 2})
        G = induced_automorphism(g).as_basis_images()
        assert verify_automorphism(G).ok
        images = G.images()
        assert images[(1, 4)] == grid_scale(RATIONALS, 2, matrix_unit(crown6_block, RATIONALS, 1, 4).rows)
        for (i, j) in crown6_block.sorted_pairs():
            if (i, j) != (1, 4):
                assert images[(i, j)] == matrix_unit(crown6_block, RATIONALS, i, j).rows

    def test_coboundary_induces_inner_by_inverted_diagonal(self, vee3_block):
        # With conjugation B -> A^-1 B A, the coboundary of s acts like diag(1/s).
        s = [Fraction(2), Fraction(1), Fraction(1)]
        G = induced_automorphism(coboundary(vee3_block, RATIONALS, s))
        D = StructMatrix.from_values(RATIONALS, vee3_block, {(i, i): 1 / v for i, v in enumerate(s, start=1)})
        assert equal_as_maps(G, inner_automorphism(D))

    def test_products_become_compositions(self, crown6_block):
        rng = random.Random(43)
        field = gf(5)
        s = [field.random_nonzero(rng) for _ in range(6)]
        g = coboundary(crown6_block, field, s)
        h = TransitiveFn.build(crown6_block, field, {(1, 4): 3})
        lhs = induced_automorphism(g.pointwise_mul(h))
        rhs = compose(induced_automorphism(g), induced_automorphism(h))
        assert equal_as_maps(lhs, rhs)


class TestTrivialityWitness:
    def test_ones_yield_unit_scaling(self, sym6):
        w = triviality_witness(TransitiveFn.ones(sym6, RATIONALS))
        assert isinstance(w, ScalingVector)
        assert all(v == 1 for v in w.values)

    def test_scaling_witness_property(self, vee3_block):
        g = TransitiveFn.build(vee3_block, RATIONALS, {(1, 3): 7, (2, 3): 11})
        w = triviality_witness(g)
        assert isinstance(w, ScalingVector)
        for (i, j) in vee3_block.sorted_pairs():
            assert g(i, j) == w(i) / w(j)

    def test_crown_obstruction_cycle(self, crown6_block):
        g = TransitiveFn.build(crown6_block, RATIONALS, {(1, 4): 2})
        w = triviality_witness(g)
        assert isinstance(w, ViolatingCycle)
        assert w.vertices[0] == w.vertices[-1]
        assert w.product != 1
        assert cycle_product(g, w.vertices) == w.product

    def test_witness_matches_rank(self, sym6, vee3_block, crown6_block):
        rng = random.Random(47)
        for rel in (sym6, vee3_block, crown6_block):
            basis = cocycle_rank(rel)
            for field in (RATIONALS, gf(5)):
                for trial in range(10):
                    s = [field.random_nonzero(rng) for _ in range(rel.n)]
                    g = coboundary(rel, field, s)
                    assert isinstance(triviality_witness(g), ScalingVector)
                    if basis.rank and field.is_rational:
                        power = exponential(rel, field, basis.pairs, basis.vectors[0], 3)
                        w = triviality_witness(g.pointwise_mul(power))
                        assert isinstance(w, ViolatingCycle)
                        assert cycle_product(g.pointwise_mul(power), w.vertices) == w.product


    def test_cycle_closes_through_the_forest(self):
        # i, j, then forest edges up to where the root paths of i and j meet and down
        # to i again, no vertex but i visited twice.  In the 6-crown on 2..7 with 1 below
        # 7 alone, the root 1 has the one child 7, so the paths meet below the root.
        hung = Relation.from_pairs(
            7, [(i, i) for i in range(1, 8)] + [(s, t) for s in (2, 3, 4) for t in (5, 6, 7) if t != s + 3] + [(1, 7)]
        )
        rels = [rel for n in range(1, 5) for rel in enumerate_quasiorders(n)] + [crown(2 * k) for k in (3, 4, 5)] + [hung]
        cycles = 0
        for rel in rels:
            tree = rel.forest.tree_edges
            for field in (RATIONALS, gf(5)):
                g = random_transitive_fn(rel, field, random.Random(rel.n))
                w = triviality_witness(g)
                if isinstance(w, ScalingVector):
                    continue
                cycles += 1
                walk = w.vertices
                assert walk[0] == walk[-1] and len(set(walk)) == len(walk) - 1
                assert (min(walk[:2]), max(walk[:2])) not in tree
                assert all((min(e), max(e)) in tree for e in zip(walk[1:], walk[2:]))
                assert cycle_product(g, walk) == w.product != 1
        assert cycles


class TestCocycleRank:
    def test_vee_is_rank_zero(self, vee3_block):
        assert cocycle_rank(vee3_block).rank == 0

    def test_crown_generator_frozen(self, crown6_block):
        basis = cocycle_rank(crown6_block)
        assert basis.rank == 1
        assert basis.exponents(0) == {(1, 4): 1}

    def test_generator_with_a_negative_leading_entry_is_flipped(self):
        # elimination leaves this generator as (-1, 0, 1, 0, 1, 0, 0, 0); it is
        # scaled so its first nonzero entry is positive
        extra = [(1, 2), (1, 5), (3, 1), (3, 2), (3, 5), (3, 6), (4, 5), (4, 6)]
        rel = Relation.from_pairs(6, [(i, i) for i in range(1, 7)] + extra)
        basis = cocycle_rank(rel)
        assert basis.rank == 1 == brute_cocycle_rank(rel)
        assert basis.pairs == tuple(extra)
        assert basis.vectors == ((1, 0, -1, 0, -1, 0, 0, 0),)
        for field in (RATIONALS, gf(5)):
            g = exponential(rel, field, basis.pairs, basis.vectors[0], 2)
            assert check_transitive(g).ok
            assert isinstance(triviality_witness(g), ViolatingCycle)

    def test_identity_relation_is_rank_zero(self):
        assert cocycle_rank(Relation.identity(4)).rank == 0

    def test_generators_realize_transitive_functions(self, crown6_block):
        basis = cocycle_rank(crown6_block)
        for base in (Fraction(2), Fraction(1, 2), Fraction(-3)):
            g = exponential(crown6_block, RATIONALS, basis.pairs, basis.vectors[0], base)
            assert check_transitive(g).ok
        for base in (2, 3):
            g = exponential(crown6_block, gf(5), basis.pairs, basis.vectors[0], base)
            assert check_transitive(g).ok

    def test_generator_vanishes_on_forest(self, crown6_block):
        forest = crown6_block.forest
        basis = cocycle_rank(crown6_block)
        support = set(basis.exponents(0))
        for (i, j) in support:
            assert (min(i, j), max(i, j)) not in forest.tree_edges


class TestCanonicalize:
    def test_canonical_form_is_coboundary_invariant(self, crown6_block, vee3_block):
        rng = random.Random(53)
        for rel in (crown6_block, vee3_block):
            basis = cocycle_rank(rel)
            for field in (RATIONALS, gf(5)):
                for trial in range(10):
                    values = {}
                    if basis.rank:
                        base = field.element(rng.choice([2, 3]))
                        for pair, e in zip(basis.pairs, basis.vectors[0]):
                            if e:
                                values[pair] = field.pow(base, e)
                    g = TransitiveFn.build(rel, field, values)
                    s = [field.random_nonzero(rng) for _ in range(rel.n)]
                    shifted = g.pointwise_mul(coboundary(rel, field, s))
                    assert canonicalize(g)[1] == canonicalize(shifted)[1]

    def test_scaling_is_one_at_each_component_minimum(self):
        """Step 5 of the factor steps relies on this: the conjugator's row at
        each comparability component's minimum keeps its leading entry 1."""
        rng = random.Random(59)
        moved = 0
        for n in range(1, 5):
            for rel in enumerate_quasiorders(n):
                component = {v: {v} for v in range(1, n + 1)}
                for i, j in rel.pairs:
                    if component[i] is not component[j]:
                        merged = component[i] | component[j]
                        for v in merged:
                            component[v] = merged
                minima = {min(c) for c in component.values()}
                for field in (RATIONALS, gf(5)):
                    s = canonicalize(random_transitive_fn(rel, field, rng))[0].values
                    assert all(s[m - 1] == field.one() for m in minima), rel
                    moved += any(v != field.one() for v in s)
        assert moved > 0

    def test_split_reassembles(self, crown6_block):
        g = TransitiveFn.build(crown6_block, RATIONALS, {(1, 4): Fraction(5, 3)})
        scaling, canonical = canonicalize(g)
        rebuilt = coboundary(crown6_block, RATIONALS, scaling.values).pointwise_mul(canonical)
        assert rebuilt == g


class TestJson:
    def test_round_trip(self, crown6_block):
        g = TransitiveFn.build(crown6_block, RATIONALS, {(1, 4): Fraction(7, 2)})
        again = TransitiveFn.from_json(g.to_json(), crown6_block)
        assert again == g

    def test_omitted_pairs_default_to_one(self, crown6_block):
        g = TransitiveFn.from_json({"field": "Q", "values": [[1, 4, "2"]]}, crown6_block)
        assert g(1, 4) == 2
        assert g(2, 5) == 1
