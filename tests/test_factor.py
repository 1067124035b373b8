import hashlib
import json
import random
from fractions import Fraction

import pytest
from conftest import CROWN6_BLOCK_PAIRS, SYM6_BLOCK_PAIRS, VEE3_BLOCK_PAIRS, grid_scale

import sma.automorphism as automorphism
import sma.factor as factor
from sma import (
    InvalidRelation,
    Mismatch,
    NotAutomorphism,
    Permutation,
    RATIONALS,
    Relation,
    SmaError,
    StructMatrix,
    build_block_form,
    canonicalize,
    compose,
    conjugate_by_block_form,
    conjugate_relation,
    enumerate_quasiorders,
    enumerate_relation_automorphisms,
    equal_as_maps,
    factor_automorphism,
    gf,
    identity_automorphism,
    identity_matrix,
    inner_automorphism,
    is_block_form,
    is_semisimple,
    matrix_unit,
    permutation_similarity,
    verify_automorphism,
)
from sma.algebra import Echelon, grid_mul, invert_grid
from sma.automorphism import BasisImageAutomorphism
from sma.oracle import brute_verify, random_factored_automorphism, random_invertible


class TestWorkedExample:
    def test_unitriangular_swap_factors_back(self, vee3_block):
        a, b = Fraction(7), Fraction(11)
        A = StructMatrix.from_values(
            RATIONALS, vee3_block, {(1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 3): a, (2, 3): b}
        )
        tau = Permutation(3, (2, 1, 3))
        phi = compose(inner_automorphism(A), permutation_similarity(vee3_block, tau, RATIONALS))
        factored = factor_automorphism(phi)
        assert factored.permutation.image == (2, 1, 3)
        assert factored.scaling.nontrivial_values() == {}
        assert equal_as_maps(factored, phi)
        # only the conjugation matters, not the matrix entries themselves
        assert equal_as_maps(
            inner_automorphism(factored.conjugator),
            compose(phi, permutation_similarity(vee3_block, tau, RATIONALS)),
        )

    def test_identity_normalizes_completely(self, crown6_block):
        for field in (RATIONALS, gf(5)):
            factored = factor_automorphism(identity_automorphism(crown6_block, field))
            assert factored.permutation.is_identity()
            assert factored.scaling.nontrivial_values() == {}
            assert factored.conjugator == identity_matrix(field, crown6_block)

    def test_scaling_only_map_comes_back_canonical(self, crown6_block):
        from sma import TransitiveFn, induced_automorphism

        g = TransitiveFn.build(crown6_block, RATIONALS, {(1, 4): 2})
        factored = factor_automorphism(induced_automorphism(g))
        assert factored.permutation.is_identity()
        assert factored.scaling == g  # already canonical: supported off the forest
        assert equal_as_maps(factored, induced_automorphism(g))


class TestRoundTrip:
    def test_random_specs_recompose_exactly(self, sym6_block, vee3_block, crown6_block):
        for rel in (sym6_block, vee3_block, crown6_block):
            for field in (RATIONALS, gf(5)):
                for seed in range(10):
                    phi = random_factored_automorphism(rel, field, seed)
                    factored = factor_automorphism(phi)
                    assert equal_as_maps(factored, phi)
                    assert factored.scaling == canonicalize(phi.scaling)[1]

    def test_factoring_is_deterministic(self, crown6_block):
        phi = random_factored_automorphism(crown6_block, gf(5), 123)
        f1 = factor_automorphism(phi)
        f2 = factor_automorphism(phi)
        assert f1.permutation == f2.permutation
        assert f1.scaling == f2.scaling
        assert f1.conjugator == f2.conjugator

    def test_within_class_swap_absorbed_into_conjugator(self, sym6_block):
        tau = Permutation(6, (1, 2, 3, 5, 4, 6))  # swaps the two elements of one class
        phi = permutation_similarity(sym6_block, tau, RATIONALS)
        factored = factor_automorphism(phi)
        assert factored.permutation.is_identity()
        assert equal_as_maps(factored, phi)


class TestSemisimple:
    def test_symmetric_relations_factor_with_a_trivial_scaling(self, sym6, sym6_block):
        """A symmetric relation's cocycles are all coboundaries, so the
        canonical scaling is trivial, though each map carries a random one."""
        symmetric = [rel for n in range(1, 5) for rel in enumerate_quasiorders(n) if is_semisimple(rel)]
        assert len(symmetric) == 1 + 2 + 5 + 15  # the equivalence relations, by Bell numbers
        scaled = 0
        for rel in symmetric + [sym6, sym6_block]:
            for field in (RATIONALS, gf(5)):
                for seed in range(3):
                    phi = random_factored_automorphism(rel, field, seed)
                    scaled += bool(phi.scaling.nontrivial_values())
                    factored = factor_automorphism(phi)
                    assert factored.scaling.nontrivial_values() == {}
                    assert equal_as_maps(factored, phi)
        assert scaled > 0

    def test_block_diagonal_inner_map(self, sym6_block):
        rng = random.Random(83)
        for field in (RATIONALS, gf(5)):
            phi = inner_automorphism(random_invertible(sym6_block, field, rng))
            factored = factor_automorphism(phi)
            assert factored.permutation.is_identity()
            assert factored.scaling.nontrivial_values() == {}
            assert equal_as_maps(factored, phi)

    def test_class_swapping_permutation(self, sym6_block):
        tau = Permutation(6, (1, 2, 3, 5, 4, 6))
        phi = permutation_similarity(sym6_block, tau, gf(5))
        factored = factor_automorphism(phi)
        assert factored.scaling.nontrivial_values() == {}
        assert equal_as_maps(factored, phi)


class TestGuards:
    def test_any_layout_factors_over_its_own_relation(self, monkeypatch, sym6, crown6, vee3):
        calls = []
        real = factor._factor_steps
        monkeypatch.setattr(factor, "_factor_steps", lambda *a: calls.append(1) or real(*a))
        for rel in (sym6, crown6, vee3):
            assert not is_block_form(rel)
            for field in (RATIONALS, gf(5)):
                for seed in range(3):
                    phi = random_factored_automorphism(rel, field, seed).as_basis_images()
                    calls.clear()
                    assert verify_automorphism(phi).ok
                    factored = factor_automorphism(phi)
                    assert len(calls) == 1
                    assert factored.relation == rel and factored.scaling.relation == rel
                    assert equal_as_maps(factored, phi)

    def test_non_quasi_order_raises_invalid_relation(self):
        rel = Relation.from_pairs(3, [(1, 1), (2, 2), (1, 2), (2, 3)])
        zero = tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
        phi = BasisImageAutomorphism.from_map(rel, RATIONALS, {p: zero for p in rel.pairs})
        for _ in range(2):  # nothing is cached, so a second call raises too
            with pytest.raises(InvalidRelation, match=r"not a quasi-order: missing diagonal pair \(3,3\)"):
                factor_automorphism(phi)

    def test_each_certificate_checks_tau_once(self, monkeypatch, crown6):
        calls = []
        real = automorphism.is_relation_automorphism
        monkeypatch.setattr(automorphism, "is_relation_automorphism", lambda *a: calls.append(1) or real(*a))
        for field in (RATIONALS, gf(101)):
            for seed in range(3):
                phi = random_factored_automorphism(crown6, field, seed).as_basis_images()
                calls.clear()
                assert verify_automorphism(phi).ok
                factor_automorphism(phi)
                assert len(calls) == 1

    def test_tau_that_breaks_the_relation_is_refused(self, vee3_block):
        # images of the identity map with the units of the two minimal
        # elements exchanged and the rest kept: the class bijection swaps 1
        # and 3, which sends the pair (1,3) to (3,1), not a pair
        units = {p: matrix_unit(vee3_block, RATIONALS, *p).rows for p in vee3_block.sorted_pairs()}
        images = {**units, (1, 1): units[(3, 3)], (3, 3): units[(1, 1)]}
        phi = BasisImageAutomorphism.from_map(vee3_block, RATIONALS, images)
        with pytest.raises(NotAutomorphism, match=r"class bijection lifts to \(1 3\), which does not preserve"):
            factor_automorphism(phi)

    def test_non_automorphism_rejected(self, vee3_block):
        zero = tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
        images = {}
        for (i, j) in vee3_block.sorted_pairs():
            images[(i, j)] = zero if i != j else matrix_unit(vee3_block, RATIONALS, i, j).rows
        phi = BasisImageAutomorphism.from_map(vee3_block, RATIONALS, images)
        with pytest.raises(NotAutomorphism):
            factor_automorphism(phi)


class TestBlockFormTransport:
    def test_map_over_another_relation_is_a_mismatch(self, sym6, crown6):
        # the map is an automorphism; only the relations differ
        phi = random_factored_automorphism(crown6, gf(5), 0)
        with pytest.raises(Mismatch, match="source relation"):
            conjugate_by_block_form(phi, build_block_form(sym6))

    def test_factor_after_normalization(self, sym6):
        # a map over the unnormalized relation, moved across the relabelling and back
        rng = random.Random(97)
        bf = build_block_form(sym6)
        phi = inner_automorphism(random_invertible(sym6, gf(5), rng))
        moved = conjugate_by_block_form(phi, bf)
        factored = factor_automorphism(moved)
        assert equal_as_maps(factored, moved)

    def test_transport_preserves_verification(self, crown6):
        bf = build_block_form(crown6, class_order_override=(0, 3, 2, 1))
        phi = random_factored_automorphism(crown6, gf(5), 7)
        moved = conjugate_by_block_form(phi, bf)
        from sma import verify_automorphism

        assert verify_automorphism(moved).ok
        factored = factor_automorphism(moved)
        assert equal_as_maps(factored, moved)

    def test_transport_matches_the_per_entry_relabelling(self, sym6, crown6, vee3):
        def reference(phi, bf):
            pi_inv = bf.pi.inverse()
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

        relations = [rel for n in range(1, 5) for rel in enumerate_quasiorders(n) if not is_block_form(rel)]
        relations += [sym6, crown6, vee3]
        for k, rel in enumerate(relations):
            bf = build_block_form(rel)
            for field in (RATIONALS, gf(5)):
                phi = random_factored_automorphism(rel, field, k)
                for spec in (phi, phi.as_basis_images()):
                    assert conjugate_by_block_form(spec, bf) == reference(spec, bf)


def ascending_relabelling(rel, rng):
    """A seeded permutation that sends each class, ascending, onto ascending positions."""
    slots = list(range(1, rel.n + 1))
    rng.shuffle(slots)
    mapping = {}
    for cls in rel.partition.classes:
        mapping.update(zip(cls, sorted(slots[e - 1] for e in cls)))
    return Permutation.from_mapping(rel.n, mapping)


def relabelled(phi, sigma):
    """The map over sigma(relation) that sends unit (sigma(i), sigma(j)) to
    sigma^-1.relabel(phi(E_ij)), built image by image."""
    sigma_inv = sigma.inverse()
    moved = {(sigma(i), sigma(j)): sigma_inv.relabel(img) for (i, j), img in phi.images().items()}
    return BasisImageAutomorphism.from_map(conjugate_relation(phi.relation, sigma), phi.field, moved)


class TestCarryFactors:
    """Carrying canonical factors over a relabelling that is ascending within
    each class gives the canonical factors of the relabelled map."""

    RELATIONS = [rel for n in range(1, 5) for rel in enumerate_quasiorders(n)]

    def test_factoring_commutes_with_relabelling(self, sym6, crown6, vee3):
        rng = random.Random(19)
        for k, rel in enumerate(self.RELATIONS + [sym6, crown6, vee3]):
            sigma = ascending_relabelling(rel, rng)
            target = conjugate_relation(rel, sigma)
            for field in (RATIONALS, gf(5), gf(101)):
                phi = random_factored_automorphism(rel, field, k)
                expected = factor_automorphism(relabelled(phi, sigma))
                for spec in (phi, phi.as_basis_images()):
                    assert factor.carry_factors(factor_automorphism(spec), sigma, target) == expected

    def test_carried_factors_are_those_of_the_block_form_copy(self, sym6, crown6, vee3):
        for k, rel in enumerate(self.RELATIONS + [sym6, crown6, vee3]):
            bf = build_block_form(rel)
            if bf.pi.is_identity():
                continue
            for field in (RATIONALS, gf(5), gf(101)):
                phi = random_factored_automorphism(rel, field, k).as_basis_images()
                carried = factor.carry_factors(factor_automorphism(phi), bf.pi, bf.permuted)
                assert carried == factor_automorphism(conjugate_by_block_form(phi, bf))

    def test_a_relabelling_that_reorders_a_class_can_leave_the_factors_not_canonical(self):
        two_pairs = Relation.from_pairs(4, [(i, j) for c in ((1, 2), (3, 4)) for i in c for j in c])
        swap_classes = permutation_similarity(two_pairs, Permutation(4, (3, 4, 1, 2)), gf(101))
        phi = compose(inner_automorphism(random_invertible(two_pairs, gf(101), random.Random(4))), swap_classes)
        sigma = Permutation(4, (2, 1, 3, 4))  # reorders the class {1, 2}
        carried = factor.carry_factors(factor_automorphism(phi), sigma, two_pairs)
        moved = relabelled(phi, sigma)
        assert equal_as_maps(carried, moved)
        assert carried.permutation.image == (4, 3, 2, 1) != factor_automorphism(moved).permutation.image


def solved_conjugator(field, images, m):
    """The conjugator as a linear system: W solves W X = E_uw W for every unit
    E_uw of the full m x m algebra, X its image; the solution space is a line,
    and its basis vector is scaled so the first nonzero entry is 1."""
    nvars = m * m
    echelon = Echelon(field)
    for (u, w), x in images.items():
        # (W X)[r][c] - (E_uw W)[r][c] = 0, unknowns W[r][d] flattened row-major
        for r in range(m):
            for c in range(m):
                row = {r * m + d: x[d][c] for d in range(m)}
                if r == u:
                    row[w * m + c] = field.reduce(row.get(w * m + c, 0) - field.one())
                echelon.add(row)
    (vec,) = echelon.kernel(nvars)  # sparse: its nonzero entries only
    lead_inv = field.inv(vec[min(vec)])
    zero = field.zero()
    return tuple(tuple(field.reduce(vec.get(r * m + c, zero) * lead_inv) for c in range(m)) for r in range(m))


class TestBlockConjugator:
    @pytest.mark.parametrize("field", [RATIONALS, gf(101)], ids=lambda f: f.name)
    def test_read_agrees_with_the_linear_solve(self, field):
        """The conjugator read off the diagonal unit images of an inner map of a
        full matrix algebra is the solution of the linear system."""
        rng = random.Random(1993)
        moved_rows = first_row_zero = 0
        for m in range(1, 5):
            full = Relation.full(m)
            upper = Relation.from_pairs(m, [(i, j) for i in range(1, m + 1) for j in range(i, m + 1)])
            for trial in range(12):
                if trial % 2:
                    # an upper triangular matrix with its columns permuted: the
                    # image of E_11 is zero outside one row, which may be any row
                    order = list(range(m))
                    rng.shuffle(order)
                    a = tuple(tuple(row[k] for k in order) for row in random_invertible(upper, field, rng).rows)
                else:
                    a = random_invertible(full, field, rng).rows
                a_inv = invert_grid(field, a)
                # Theta(E_jj) = (A^-1 e_j)(e_j^T A) is nonzero in the rows where
                # column j of A^-1 is, so its first nonzero row need not be row j
                first_rows = [next(r for r in range(m) if a_inv[r][j] != 0) for j in range(m)]
                moved_rows += sum(r != j for j, r in enumerate(first_rows))
                first_row_zero += first_rows[0] != 0
                images = {}
                for u in range(m):
                    for w in range(m):
                        unit = StructMatrix.from_values(field, full, {(u + 1, w + 1): 1}).rows
                        images[(u, w)] = grid_mul(field, grid_mul(field, a_inv, unit), a)
                phi = BasisImageAutomorphism.from_map(
                    full, field, {(u + 1, w + 1): x for (u, w), x in images.items()}
                )
                factored = factor_automorphism(phi)
                read = factored.conjugator.rows
                assert factored.permutation.is_identity()
                assert factored.scaling.nontrivial_values() == {}
                assert read == solved_conjugator(field, images, m)
                assert next(v for row in read for v in row if v != 0) == field.one()
                lead = next(v for row in a for v in row if v != 0)
                assert read == grid_scale(field, field.inv(lead), a)
        assert moved_rows > 0 and first_row_zero > 0

    def test_each_unit_image_is_checked_against_the_conjugator(self):
        # The read takes one row of each diagonal image and one entry of each
        # unit image; step 4 must still compare every entry, so a map that is
        # not an automorphism raises even when verification is skipped.
        rng = random.Random(1993)
        checked = 0
        for k, rel in enumerate(r for n in range(1, 5) for r in enumerate_quasiorders(n)):
            block = build_block_form(rel).permuted
            field = (RATIONALS, gf(5))[k % 2]
            images = random_factored_automorphism(block, field, k).images()
            p = rng.choice(block.sorted_pairs())
            r, c = rng.choice(block.sorted_pairs())
            grid = [list(row) for row in images[p]]
            grid[r - 1][c - 1] = field.reduce(grid[r - 1][c - 1] + field.one())
            broken = BasisImageAutomorphism.from_map(block, field, {**images, p: tuple(map(tuple, grid))})
            if brute_verify(broken).ok:
                continue
            with pytest.raises(SmaError):
                factor_automorphism(broken)
            checked += 1
        assert checked > 300

    def test_scaled_diagonal_image_raises_a_domain_error(self):
        # Step 4 must reject a diagonal unit's scalar other than 1 itself:
        # TransitiveFn.build raises ValueError on one.
        rng = random.Random(389)
        gf5 = gf(5)
        for k, rel in enumerate(r for n in range(1, 5) for r in enumerate_quasiorders(n)):
            block = build_block_form(rel).permuted
            field = (RATIONALS, gf5)[k % 2]
            taus = enumerate_relation_automorphisms(block)
            images = compose(
                inner_automorphism(random_invertible(block, field, rng)),
                permutation_similarity(block, taus[rng.randrange(len(taus))], field),
            ).images()
            for i in range(1, block.n + 1):
                c = field.element(rng.choice((2, 3, 4)))
                scaled = dict(images)
                scaled[(i, i)] = grid_scale(field, c, images[(i, i)])
                with pytest.raises(SmaError):
                    factor_automorphism(BasisImageAutomorphism.from_map(block, field, scaled))


# Factor JSON of seeded maps, pinned by digest so a change to the factor steps
# that moves any conjugator entry, scaling value or permutation shows here.
PIN_FAMILIES = {
    "total8": [(i, j) for i in range(1, 9) for j in range(i, 9)],
    # classes {1,2}, {3,4}, {5,6}, {7,8} stacked in a chain
    "chain2_8": [(i, j) for i in range(1, 9) for j in range(1, 9) if (i + 1) // 2 <= (j + 1) // 2],
    # sources 1..4, sinks 5..8, source i below every sink except i+4
    "crown8": [(i, i) for i in range(1, 9)] + [(i, 4 + j) for i in range(1, 5) for j in range(1, 5) if j != i],
}

FACTOR_DIGESTS = {
    "sym6_block/Q/0": "42b9047b6dee6827fe119838c1c4b1f054031e4ad15cdfc1ce5eb01e2a721122",
    "sym6_block/Q/1": "0224497b4558277351fd1d2be536f7dd207f07a8d8feea22ccb62ad196cdcca5",
    "sym6_block/Q/2": "f84cba8b5d91dd207ade887386f2c8af9d8522207eb5af46a23f068cb0e2803b",
    "sym6_block/GF(5)/0": "9b4b7ef68a400355ecceda3c6f7ebc195dea7fd216833a6d4ad2df0704621980",
    "sym6_block/GF(5)/1": "4a90ce47bd3cfbfa18264bd469dd81d87f4aabd02f467984282e4583c45a4a6b",
    "sym6_block/GF(5)/2": "afae0829d4b22931791dfd6abad2c4c2c192b22ce2f752205624f5a9dec38ee0",
    "vee3_block/Q/0": "5c68507645cd09cddd45e322ef4599a69be2ee657655a8f8986ec6c7b31c6a1f",
    "vee3_block/Q/1": "fde480a105da0f9b4fcad5aef4799e7f7cae734c19e90f265f88d5c00be9bc1f",
    "vee3_block/Q/2": "da42c02f230a152e16c270d114456e2e54cb1b8687aa9598c95ca58d5b7842eb",
    "vee3_block/GF(5)/0": "b6291d2c3e5d7fa5bb4e51ad6e05b7fefced379d887207d8f4ad28933b16952a",
    "vee3_block/GF(5)/1": "db0c2ece6e6498a4e5c400df1081f3e5147708a877150b36a06970b007e91e38",
    "vee3_block/GF(5)/2": "e1fe0848160bbe9c3554f1b99c388ac9c47860745d3181a4e5d5e1df2ff7d943",
    "crown6_block/Q/0": "10f31d0b070a753d4df7c92b7c8d8398705b077737e44e9ad9259565260739bb",
    "crown6_block/Q/1": "fefaafa04fbc7b9f0c1ecb70b6cbe38a660d5596757d7ebdad161bad279f1a95",
    "crown6_block/Q/2": "b2fbe92bbf5687b0cbbfa32d81301ca21bf4e8be83d8c7e41c0d76a956318650",
    "crown6_block/GF(5)/0": "d12c507a093f0d603cbda6bac7c3c9b0f06bb640da345e08fa5ed3a88f2ed1cd",
    "crown6_block/GF(5)/1": "0c1438f590dd8e5a309e62f62e91a40954dfd68afb88aaf07c6ee61f4ace6df1",
    "crown6_block/GF(5)/2": "273c2aea22aa713c32970da925a289cc5508577d791da7d473b8f3abd0ee5fc2",
    "total8/GF(101)/0": "6aa03b2c41a37b69ef6dbe4353ed3da02f199d3c762ad14d6c849f9a19f56386",
    "total8/GF(101)/1": "53093a767882ea3a85064cb0866ba47b0f97ab562a427b5bcd7385b1ce7ebfcb",
    "total8/GF(101)/2": "bedb7d7561e5313f5b6692ed18a7e6b7f711d9d85aad1983bf7026c7d541e767",
    "chain2_8/GF(101)/0": "047dd25536fa1ff05cbf1a967cca6e26d9c315bb26d4b5012f591dfb0df90e60",
    "chain2_8/GF(101)/1": "e6c2b6d9a86a02a212dd821836e22376367795a2fc67edae49c969f660395009",
    "chain2_8/GF(101)/2": "51624d9f6e2f4feb0150de05bb01463a2d36d93988b1e27b9aa66b918c43d387",
    "crown8/GF(101)/0": "b0a644d2fb6eedcdcd522f318683bddb64d347b44d89061cf1d50aa6b8b53edb",
    "crown8/GF(101)/1": "4bf7c327faac40ab8facf8f1c02402be31af0bd210dba0944a24acdfd268fb4a",
    "crown8/GF(101)/2": "95cb6851fb03a7b25c1595458efe23c382cdd8a732b221b4738dee8c31ff4ca1",
}


def pinned_maps():
    golden = {"sym6_block": SYM6_BLOCK_PAIRS, "vee3_block": VEE3_BLOCK_PAIRS, "crown6_block": CROWN6_BLOCK_PAIRS}
    for name, pairs in golden.items():
        rel = Relation.from_pairs(max(max(p) for p in pairs), pairs)
        for field in (RATIONALS, gf(5)):
            for seed in range(3):
                yield f"{name}/{field.name}/{seed}", rel, field, seed
    for name, pairs in PIN_FAMILIES.items():
        rel = build_block_form(Relation.from_pairs(8, pairs)).permuted
        for seed in range(3):
            yield f"{name}/GF(101)/{seed}", rel, gf(101), seed


def test_factor_json_of_seeded_maps_is_pinned():
    digests = {}
    for key, rel, field, seed in pinned_maps():
        factored = factor_automorphism(random_factored_automorphism(rel, field, seed))
        digests[key] = hashlib.sha256(json.dumps(factored.to_json(), sort_keys=True).encode()).hexdigest()
    assert digests == FACTOR_DIGESTS
