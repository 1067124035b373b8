import hashlib
import json
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from conftest import grid_scale

import sma.automorphism as automorphism
from sma import (
    BasisImageAutomorphism,
    BoundExceeded,
    Mismatch,
    NotRelationAutomorphism,
    OffPattern,
    Permutation,
    RATIONALS,
    Relation,
    SmaError,
    StructMatrix,
    TransitiveFn,
    coboundary,
    compose,
    compose_permutations,
    enumerate_quasiorders,
    enumerate_relation_automorphisms,
    equal_as_maps,
    gf,
    identity_automorphism,
    identity_matrix,
    induced_automorphism,
    inner_automorphism,
    is_relation_automorphism,
    matrix_unit,
    permutation_similarity,
    spec_from_json,
    verify_automorphism,
)
from sma.algebra import Rational, grid_add, grid_mul, invert_grid, zero_grid
from sma.automorphism import listed_automorphism, stabilizer_chain
from sma.oracle import (
    brute_relation_automorphisms,
    random_factored_automorphism,
    random_in_pattern,
    random_invertible,
)


def crown(k: int) -> Relation:
    """Sources 1..k, sinks k+1..2k, source i below every sink except k+i."""
    pairs = [(i, i) for i in range(1, 2 * k + 1)]
    pairs += [(i, k + j) for i in range(1, k + 1) for j in range(1, k + 1) if j != i]
    return Relation.from_pairs(2 * k, pairs)


def chain2(n: int) -> Relation:
    """Classes {1,2}, {3,4}, ... stacked in a chain."""
    rng = range(1, n + 1)
    return Relation.from_pairs(n, [(i, j) for i in rng for j in rng if (i + 1) // 2 <= (j + 1) // 2])


class TestRelationAutomorphism:
    def test_vee_swap_is_automorphism(self, vee3_block):
        assert is_relation_automorphism(vee3_block, Permutation(3, (2, 1, 3)))

    def test_crown_swap_is_rejected(self, crown6_block):
        tau = Permutation(6, (4, 2, 3, 1, 5, 6))
        assert (1, 4) in crown6_block.pairs
        assert (4, 1) not in crown6_block.pairs  # the witness pair
        assert not is_relation_automorphism(crown6_block, tau)

    def test_identity_always_works(self, sym6, vee3, crown6):
        for rel in (sym6, vee3, crown6):
            assert is_relation_automorphism(rel, Permutation.identity_perm(rel.n))

    def test_sizes_that_disagree_are_domain_errors(self):
        rel = Relation.identity(3)
        with pytest.raises(SmaError) as refused:
            is_relation_automorphism(rel, Permutation.identity_perm(4))
        assert refused.type is Mismatch
        with pytest.raises(SmaError) as refused:
            coboundary(rel, RATIONALS, [1, 2])
        assert refused.type is Mismatch


class TestEnumeration:
    def test_sym6_count(self, sym6):
        autos = enumerate_relation_automorphisms(sym6)
        assert len(autos) == 12  # 3! * 2! * 1!, classes of distinct sizes stay put
        assert autos == brute_relation_automorphisms(sym6)

    def test_vee_block_pair(self, vee3_block):
        autos = enumerate_relation_automorphisms(vee3_block)
        assert [a.image for a in autos] == [(1, 2, 3), (2, 1, 3)]

    def test_identity_relation_gives_symmetric_group(self):
        autos = enumerate_relation_automorphisms(Relation.identity(3))
        assert len(autos) == 6

    def test_lexicographic_order(self, sym6):
        images = [a.image for a in enumerate_relation_automorphisms(sym6)]
        assert images == sorted(images)

    def test_bound_and_env_override(self, monkeypatch):
        big = Relation.identity(11)
        with pytest.raises(BoundExceeded):
            enumerate_relation_automorphisms(big)
        small = Relation.identity(3)
        monkeypatch.setenv("SMA_MAX_N", "2")
        with pytest.raises(BoundExceeded):
            enumerate_relation_automorphisms(small)
        monkeypatch.setenv("SMA_MAX_N", "3")
        assert len(enumerate_relation_automorphisms(small)) == 6

    @pytest.mark.parametrize(
        "rel, count",
        [(crown(k), factorial(k)) for k in range(4, 8)]
        + [(chain2(n), 2 ** (n // 2)) for n in range(8, 15, 2)]
        + [(Relation.from_pairs(14, [(i, j) for i in range(1, 15) for j in range(i, 15)]), 1)]
        + [(Relation.identity(8), factorial(8))],
        ids=[f"crown{2 * k}" for k in range(4, 8)]
        + [f"chain2_{n}" for n in range(8, 15, 2)]
        + ["total14", "identity8"],
    )
    def test_closed_form_counts_above_the_brute_force_bound(self, rel, count):
        autos = enumerate_relation_automorphisms(rel, bound=rel.n)
        images = [tau.image for tau in autos]
        assert len(autos) == count
        assert all(a < b for a, b in zip(images, images[1:]))
        assert all(is_relation_automorphism(rel, tau) for tau in autos)
        # one product per choice of one transversal element per level
        assert prod(len(level) for level in stabilizer_chain(rel, bound=rel.n)) == count

    @pytest.mark.parametrize(
        "rel",
        [crown(k) for k in range(4, 8)] + [Relation.identity(8)],
        ids=[f"crown{2 * k}" for k in range(4, 8)] + ["identity8"],
    )
    def test_listed_images_are_bijections(self, rel):
        # the listing builds its permutations without Permutation's own check
        everything = list(range(1, rel.n + 1))
        for tau in enumerate_relation_automorphisms(rel, bound=rel.n):
            assert tau.n == rel.n and sorted(tau.image) == everything


    @pytest.mark.parametrize(
        "n, extra, branches",
        [
            (5, [(1, 2), (3, 4), (5, 4)], {"narrowed to nothing", "pruned branch"}),
            # the search below each first placement is a loop, so a dead end there is seen as
            # _narrow returning None rather than as a call on a pruned branch
            (7, [(1, 3), (4, 6), (5, 2), (5, 3), (7, 6)], {"narrowed to nothing", "exhausted loop"}),
        ],
        ids=["poset5", "poset7"],
    )
    def test_pruned_searches_match_brute_force(self, monkeypatch, n, extra, branches):
        rel = Relation.from_pairs(n, [(i, i) for i in range(1, n + 1)] + extra)
        seen = set()
        narrow, first_leaf = automorphism._narrow, automorphism._first_leaf

        def spy_narrow(*args):
            out = narrow(*args)
            if out is None:
                seen.add("narrowed to nothing")
            return out

        def spy_first_leaf(i, domains, *rows):
            out = first_leaf(i, domains, *rows)
            if out is None:
                seen.add("pruned branch" if domains is None else "exhausted loop")
            return out

        monkeypatch.setattr(automorphism, "_narrow", spy_narrow)
        monkeypatch.setattr(automorphism, "_first_leaf", spy_first_leaf)
        autos = enumerate_relation_automorphisms(rel)
        assert autos == brute_relation_automorphisms(rel) and len(autos) == 2
        assert seen == branches

    def test_a_dead_end_below_a_placement_backtracks(self, monkeypatch):
        # minima 1, 3, 5 and maxima 8, 10, 12 form a 6-cycle, minima 2, 4, 6, 7 and maxima
        # 9, 11, 13, 14 an 8-cycle; all minima share one signature, so a search may send a
        # 6-cycle minimum into the 8-cycle, run out of images further down, return to an
        # earlier element and find a leaf from its next image
        pairs = [(i, i) for i in range(1, 15)]
        for mins, maxs in (((1, 3, 5), (8, 10, 12)), ((2, 4, 6, 7), (9, 11, 13, 14))):
            pairs += [(mins[t], maxs[u]) for t in range(len(mins)) for u in (t, (t + 1) % len(mins))]
        rel = Relation.from_pairs(14, pairs)
        narrow, first_leaf = automorphism._narrow, automorphism._first_leaf
        placed, found_after_backtracking = [], []

        def spy_narrow(domains, i, *rest):
            placed.append(i)
            return narrow(domains, i, *rest)

        def spy_first_leaf(*args):
            placed.clear()
            out = first_leaf(*args)
            if out is not None and any(b < a for a, b in zip(placed, placed[1:])):
                found_after_backtracking.append(out)
            return out

        monkeypatch.setattr(automorphism, "_narrow", spy_narrow)
        monkeypatch.setattr(automorphism, "_first_leaf", spy_first_leaf)
        autos = enumerate_relation_automorphisms(rel, bound=rel.n)
        assert found_after_backtracking
        # the rotations and reflections of each cycle, 6 * 8 maps, each listed once
        assert len({tau.image for tau in autos}) == len(autos) == 48
        assert all(sorted(tau.image) == list(range(1, 15)) for tau in autos)
        assert all(is_relation_automorphism(rel, tau) for tau in autos)

    def test_a_search_deeper_than_the_recursion_limit(self):
        # 1 and 2 incomparable, both below the chain 3 < 4 < ... < 1100: the search that
        # sends 1 to 2 places every element in turn
        n = 1100
        pairs = [(i, i) for i in range(1, n + 1)] + [(a, b) for a in (1, 2) for b in range(3, n + 1)]
        pairs += [(a, b) for a in range(3, n + 1) for b in range(a + 1, n + 1)]
        autos = enumerate_relation_automorphisms(Relation.from_pairs(n, pairs), bound=n)
        assert [tau.image for tau in autos] == [tuple(range(1, n + 1)), (2, 1, *range(3, n + 1))]

    @pytest.mark.parametrize(
        "rels",
        [[rel for n in range(1, 5) for rel in enumerate_quasiorders(n)], [crown(3), crown(4)], [Relation.full(5), Relation.full(6)]],
        ids=["sweep4", "crowns", "full"],
    )
    def test_an_entry_is_read_off_the_chain(self, rels):
        for rel in rels:
            autos = enumerate_relation_automorphisms(rel, bound=rel.n)
            chain = stabilizer_chain(rel, bound=rel.n)
            assert [listed_automorphism(chain, k) for k in range(len(autos))] == list(autos)


class TestPermutationSimilarity:
    def test_entry_convention(self, vee3_block):
        # result[i][j] = B[t(i)][t(j)] for t swapping 1 and 2
        tau = Permutation(3, (2, 1, 3))
        P = permutation_similarity(vee3_block, tau, RATIONALS)
        B = StructMatrix.from_values(
            RATIONALS, vee3_block,
            {(1, 1): 1, (1, 3): 2, (2, 2): 3, (2, 3): 4, (3, 3): 5},
        )
        out = P.apply(B)
        assert out.entry(1, 1) == 3   # was (2,2)
        assert out.entry(1, 3) == 4   # was (2,3)
        assert out.entry(2, 2) == 1   # was (1,1)
        assert out.entry(2, 3) == 2   # was (1,3)
        assert out.entry(3, 3) == 5

    def test_identity_and_involution(self, vee3_block):
        tau = Permutation(3, (2, 1, 3))
        P = permutation_similarity(vee3_block, tau, RATIONALS)
        twice = compose(P, P)
        assert equal_as_maps(twice, identity_automorphism(vee3_block, RATIONALS))

    def test_constructor_refuses_a_permutation(self, vee3_block):
        with pytest.raises(NotRelationAutomorphism, match="does not preserve the relation"):
            permutation_similarity(vee3_block, Permutation(3, (1, 3, 2)), RATIONALS)
        with pytest.raises(Mismatch, match="permutation size"):
            permutation_similarity(vee3_block, Permutation.identity_perm(4), RATIONALS)

    def test_composition_convention(self, sym6):
        # applying P_a then P_b equals the similarity of b-then-a
        autos = enumerate_relation_automorphisms(sym6)
        rng = random.Random(61)
        for _ in range(5):
            a, b = rng.choice(autos), rng.choice(autos)
            lhs = compose(permutation_similarity(sym6, a, RATIONALS),
                          permutation_similarity(sym6, b, RATIONALS))
            rhs = permutation_similarity(sym6, compose_permutations(b, a), RATIONALS)
            assert equal_as_maps(lhs, rhs)

    def test_every_enumerated_permutation_verifies(self, sym6, vee3_block, crown6_block):
        for rel in (sym6, vee3_block, crown6_block):
            for tau in enumerate_relation_automorphisms(rel):
                P = permutation_similarity(rel, tau, gf(5))
                assert verify_automorphism(P).ok


class TestInnerAutomorphism:
    def test_identity_conjugator(self, vee3_block):
        ident = inner_automorphism(identity_matrix(RATIONALS, vee3_block))
        assert equal_as_maps(ident, identity_automorphism(vee3_block, RATIONALS))

    def test_conjugation_inverse_composes_to_identity(self, crown6_block):
        rng = random.Random(67)
        A = random_invertible(crown6_block, gf(5), rng)
        lhs = compose(inner_automorphism(A), inner_automorphism(A.inverse()))
        assert equal_as_maps(lhs, identity_automorphism(crown6_block, gf(5)))

    def test_published_composite_closed_form(self, vee3_block):
        a, b = Fraction(7), Fraction(11)
        A = StructMatrix.from_values(
            RATIONALS, vee3_block, {(1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 3): a, (2, 3): b}
        )
        tau = Permutation(3, (2, 1, 3))
        phi = compose(inner_automorphism(A), permutation_similarity(vee3_block, tau, RATIONALS))
        B = StructMatrix.from_values(
            RATIONALS, vee3_block,
            {(1, 1): 1, (1, 3): 2, (2, 2): 3, (2, 3): 4, (3, 3): 5},
        )
        out = phi.apply(B)
        a11, a13, a22, a23, a33 = 1, 2, 3, 4, 5
        assert out.entry(1, 1) == a22
        assert out.entry(2, 2) == a11
        assert out.entry(3, 3) == a33
        assert out.entry(1, 3) == a23 + a * a22 - a * a33
        assert out.entry(2, 3) == a13 + b * a11 - b * a33

    def test_random_inner_maps_verify(self, sym6, vee3_block, crown6_block):
        rng = random.Random(71)
        for rel in (sym6, vee3_block, crown6_block):
            for field in (RATIONALS, gf(5)):
                for _ in range(100):
                    phi = inner_automorphism(random_invertible(rel, field, rng))
                    assert verify_automorphism(phi).ok


class TestComposeAndApply:
    def test_identity_is_neutral(self, crown6_block):
        g = TransitiveFn.build(crown6_block, RATIONALS, {(1, 4): 2})
        G = induced_automorphism(g)
        assert equal_as_maps(compose(identity_automorphism(crown6_block, RATIONALS), G), G)
        assert equal_as_maps(compose(G, identity_automorphism(crown6_block, RATIONALS)), G)

    def test_apply_is_linear(self, crown6_block):
        rng = random.Random(73)
        phi = inner_automorphism(random_invertible(crown6_block, gf(5), rng))
        x = random_in_pattern(crown6_block, gf(5), rng)
        y = random_in_pattern(crown6_block, gf(5), rng)
        assert phi.apply(x + y) == phi.apply(x) + phi.apply(y)

        def triple(m):
            return StructMatrix(m.field, m.pattern, grid_scale(m.field, 3, m.rows))

        assert phi.apply(triple(x)) == triple(phi.apply(x))

    def test_apply_matches_stored_images(self, crown6_block):
        g = TransitiveFn.build(crown6_block, RATIONALS, {(1, 4): 2})
        G = induced_automorphism(g).as_basis_images()
        images = G.images()
        for (i, j) in crown6_block.sorted_pairs():
            unit = matrix_unit(crown6_block, RATIONALS, i, j)
            assert G.apply(unit).rows == images[(i, j)]

    def test_operands_that_disagree_are_refused(self, vee3_block):
        phi = identity_automorphism(vee3_block, RATIONALS)
        other_relation = identity_automorphism(Relation.identity(3), RATIONALS)
        for m, message in (
            (identity_matrix(gf(5), vee3_block), "matrix over GF\\(5\\), map over Q"),
            (identity_matrix(RATIONALS, Relation.identity(3)), "different relations"),
        ):
            with pytest.raises(Mismatch, match=message):
                phi.apply(m)
        for other in (other_relation, identity_automorphism(vee3_block, gf(5))):
            with pytest.raises(Mismatch, match="same relation and field"):
                compose(phi, other)
            assert not equal_as_maps(phi, other)

    def test_compose_refuses_an_inner_image_off_the_pattern(self, vee3_block):
        images = identity_automorphism(vee3_block, RATIONALS).images()
        images[(1, 3)] = matrix_unit(Relation.full(3), RATIONALS, 3, 1).rows  # (3,1) is off the pattern
        inner = BasisImageAutomorphism.from_map(vee3_block, RATIONALS, images)
        outer = identity_automorphism(vee3_block, RATIONALS)
        for spec in (outer, outer.as_basis_images()):
            with pytest.raises(OffPattern, match="not in the algebra"):
                compose(spec, inner)

    def test_apply_trusts_the_matrix_constructor(self, monkeypatch, crown6_block):
        # StructMatrix refuses an off-pattern grid, so apply checks no pattern again
        def forbidden(*args):
            raise AssertionError("apply checked the pattern again")

        monkeypatch.setattr(automorphism, "is_member", forbidden)
        phi = random_factored_automorphism(crown6_block, gf(5), 3)
        m = random_in_pattern(crown6_block, gf(5), random.Random(3))
        assert phi.apply(m) == phi.as_basis_images().apply(m)
        with pytest.raises(OffPattern):
            StructMatrix(gf(5), crown6_block, matrix_unit(Relation.full(6), gf(5), 4, 1).rows)

    def test_factored_and_basis_images_apply_identically(self, crown6_block):
        # the reference is the dense sum of c * image over every unit, scaled and
        # added grid by grid
        rng = random.Random(79)
        relations = [rel for n in (1, 2, 3) for rel in enumerate_quasiorders(n)] + [crown6_block]
        for rel in relations:
            for field in (RATIONALS, gf(5), gf(101)):
                phi = random_factored_automorphism(rel, field, rng.randrange(10**6))
                as_images = phi.as_basis_images()
                m = random_in_pattern(rel, field, rng)
                expected = zero_grid(field, rel.n)
                for (i, j), img in as_images.images_table:
                    expected = grid_add(field, expected, grid_scale(field, m.entry(i, j), img))
                for spec in (phi, as_images):
                    out = spec.apply(m).rows
                    assert out == expected
                    for x in (x for row in out for x in row):
                        if field.is_rational:
                            assert type(x) is Rational
                        else:
                            assert type(x) is int and x in range(field.char)

    def test_recomposition_equals_the_dense_product(self, sym6, crown6, vee3):
        # each image is g(t^-1 i, t^-1 j) * A^-1 E A with E the unit at
        # (t^-1 i, t^-1 j), multiplied out in full; apply's JSON is pinned
        digests = {}
        for name, rel in (("sym6", sym6), ("crown6", crown6), ("vee3", vee3)):
            for field in (RATIONALS, gf(5)):
                for seed in range(3):
                    phi = random_factored_automorphism(rel, field, seed)
                    a = phi.conjugator.rows
                    a_inv = invert_grid(field, a)
                    tau_inv = phi.permutation.inverse()
                    for (i, j), img in phi.iter_images():
                        bi, bj = tau_inv(i), tau_inv(j)
                        unit = matrix_unit(rel, field, bi, bj).rows
                        dense = grid_mul(field, grid_mul(field, a_inv, unit), a)
                        assert img == grid_scale(field, phi.scaling(bi, bj), dense)
                    m = random_in_pattern(rel, field, random.Random(seed))
                    out = json.dumps(phi.apply(m).to_json())
                    assert json.dumps(phi.as_basis_images().apply(m).to_json()) == out
                    digests[f"{name}/{field.name}/{seed}"] = hashlib.sha256(out.encode()).hexdigest()
        assert digests == APPLY_DIGESTS


APPLY_DIGESTS = {
    "sym6/Q/0": "b8fdf0cabb89891bde90300eaae745f66b883231a22de45a039c8329266bced3",
    "sym6/Q/1": "29f99545527b0b47fede9a74ba0496e2ea6338112c5097460f574770ba390b5e",
    "sym6/Q/2": "d7de7dbe980eeacce62222f08cc99c994e6183525c3c07461ad4b9fe19728f59",
    "sym6/GF(5)/0": "1d6d486862ca397f7906a5b7726ae9d1589edfaa051c2903fce082d00dbed53a",
    "sym6/GF(5)/1": "bfaba66ef9c4aee7eab4468ee105e012c057ac1d802230e9c58a80382c5c5089",
    "sym6/GF(5)/2": "208bc9c71312c07d843fe6ec1ef16de79ed086a13ce283b564cec021a18b19f5",
    "crown6/Q/0": "38058bff24a7046815204f85ac9adf12543b9dfa0b7b6a60b0fc9954e865f9e0",
    "crown6/Q/1": "704b18e1bcbeeeefe3ba3e54cf3dc75ace154db01ed24d7fd5cb520f6a15914f",
    "crown6/Q/2": "4294addadd188f4f027c63edbe88b3d640e3a392c4671a88ac9b020b6c838520",
    "crown6/GF(5)/0": "6453a72bfae5a9027e700c56945f60a541ea960f0c4f25f9a1f42b4ff2d736c4",
    "crown6/GF(5)/1": "5876f90dcdf587b020917cdfbec1f008e7e5b921c30d814d58cd5b73e0d78135",
    "crown6/GF(5)/2": "058044fe8bd27c7d415c9580fef72fa0ab11966457ae025a67dc344054b24a24",
    "vee3/Q/0": "5baba170e6966c4683edd0a33131e5ec713b42ee753cd8536b06deb0e84aff15",
    "vee3/Q/1": "c53cca595f165107d9a9ef54eef497e89c6df27b1e1ccf254b809a39256d4ad3",
    "vee3/Q/2": "0a3f77cf0a7f9bcf8b63d8f170bd6fa6844e102c5b3e3845e66b88bfb45f4ded",
    "vee3/GF(5)/0": "465e855456f7167b0001bf091c34616bad8ba7e124d042f050a20bc02de871fb",
    "vee3/GF(5)/1": "29e2dce13417c86ec276a22f0ae1e8f4862828ad1268d7dd3ec6fe65ca6f70a6",
    "vee3/GF(5)/2": "ade602cf71b5ae5a5a86ad82c6dc2317e55f25195abb62241ce35993d08339dd",
}


class TestVerify:
    def test_identity_spec_verifies(self, vee3_block):
        assert verify_automorphism(identity_automorphism(vee3_block, RATIONALS)).ok

    def test_multiplicativity_failure_detected(self, vee3_block):
        images = {
            (i, j): matrix_unit(vee3_block, RATIONALS, i, j).rows
            for (i, j) in vee3_block.sorted_pairs()
        }
        bad = (matrix_unit(vee3_block, RATIONALS, 1, 3) + matrix_unit(vee3_block, RATIONALS, 2, 3))
        images[(1, 3)] = bad.rows
        phi = BasisImageAutomorphism.from_map(vee3_block, RATIONALS, images)
        report = verify_automorphism(phi)
        assert not report.ok
        assert report.check == "multiplicativity"

    def test_non_bijective_map_detected(self, vee3_block):
        # kill the strictly-upper units: multiplicative and unital, but not bijective
        zero = tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
        images = {}
        for (i, j) in vee3_block.sorted_pairs():
            images[(i, j)] = zero if i != j else matrix_unit(vee3_block, RATIONALS, i, j).rows
        phi = BasisImageAutomorphism.from_map(vee3_block, RATIONALS, images)
        report = verify_automorphism(phi)
        assert not report.ok
        assert report.check == "bijectivity"

    def test_unit_failure_detected(self, vee3_block):
        images = {
            (i, j): grid_scale(RATIONALS, 2, matrix_unit(vee3_block, RATIONALS, i, j).rows)
            for (i, j) in vee3_block.sorted_pairs()
        }
        phi = BasisImageAutomorphism.from_map(vee3_block, RATIONALS, images)
        report = verify_automorphism(phi)
        assert not report.ok

    def test_off_pattern_image_detected(self, vee3_block):
        images = {
            (i, j): matrix_unit(vee3_block, RATIONALS, i, j).rows
            for (i, j) in vee3_block.sorted_pairs()
        }
        off = [[Fraction(0)] * 3 for _ in range(3)]
        off[2][0] = Fraction(1)  # (3,1) is unrelated
        images[(1, 3)] = tuple(map(tuple, off))
        phi = BasisImageAutomorphism.from_map(vee3_block, RATIONALS, images)
        report = verify_automorphism(phi)
        assert not report.ok
        assert report.check == "pattern"


class TestSpecJson:
    def test_factored_round_trip(self, crown6_block):
        phi = random_factored_automorphism(crown6_block, gf(5), 11)
        again = spec_from_json(phi.to_json(), crown6_block)
        assert equal_as_maps(phi, again)

    def test_basis_images_round_trip(self, vee3_block):
        g = TransitiveFn.build(vee3_block, RATIONALS, {(1, 3): Fraction(1, 2)})
        phi = induced_automorphism(g).as_basis_images()
        again = spec_from_json(phi.to_json(), vee3_block)
        assert equal_as_maps(phi, again)
