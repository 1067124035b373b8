import random
from fractions import Fraction

import pytest

import sma.factor as factor
from sma import (
    NotAutomorphism,
    NotBlockForm,
    NotSemisimple,
    Permutation,
    RATIONALS,
    Relation,
    SmaError,
    StructMatrix,
    build_block_form,
    canonicalize,
    compose,
    conjugate_by_block_form,
    enumerate_quasiorders,
    enumerate_relation_automorphisms,
    equal_as_maps,
    factor_automorphism,
    factor_semisimple,
    gf,
    identity_automorphism,
    identity_matrix,
    inner_automorphism,
    matrix_unit,
    permutation_similarity,
)
from sma.algebra import Echelon, grid_mul, grid_scale, invert_grid
from sma.automorphism import BasisImageAutomorphism
from sma.oracle import random_factored_automorphism, random_invertible


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
    def test_block_diagonal_inner_map(self, sym6_block):
        rng = random.Random(83)
        for field in (RATIONALS, gf(5)):
            phi = inner_automorphism(random_invertible(sym6_block, field, rng))
            factored = factor_semisimple(phi)
            assert factored.permutation.is_identity()
            assert factored.scaling.nontrivial_values() == {}
            assert equal_as_maps(factored, phi)

    def test_identity_case(self, sym6_block):
        factored = factor_semisimple(identity_automorphism(sym6_block, RATIONALS))
        assert factored.conjugator == identity_matrix(RATIONALS, sym6_block)
        assert factored.permutation.is_identity()

    def test_class_swapping_permutation(self, sym6_block):
        tau = Permutation(6, (1, 2, 3, 5, 4, 6))
        phi = permutation_similarity(sym6_block, tau, gf(5))
        factored = factor_semisimple(phi)
        assert equal_as_maps(factored, phi)

    def test_rejects_non_semisimple(self, vee3_block):
        with pytest.raises(NotSemisimple):
            factor_semisimple(identity_automorphism(vee3_block, RATIONALS))


class TestGuards:
    def test_relation_must_be_in_block_form(self, sym6):
        with pytest.raises(NotBlockForm):
            factor_automorphism(identity_automorphism(sym6, RATIONALS))

    def test_non_automorphism_rejected(self, vee3_block):
        zero = tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
        images = {}
        for (i, j) in vee3_block.sorted_pairs():
            images[(i, j)] = zero if i != j else matrix_unit(vee3_block, RATIONALS, i, j).rows
        phi = BasisImageAutomorphism.from_map(vee3_block, RATIONALS, images)
        with pytest.raises(NotAutomorphism):
            factor_automorphism(phi)


class TestBlockFormTransport:
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


def solved_conjugator(field, images, m):
    """Step 4 as a linear system: the block conjugator W solves W X = E_uw W for
    every unit E_uw of the m x m block, X its image; the solution space is a
    line, and its basis vector is scaled so the first nonzero entry is 1."""
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
    (vec,) = echelon.nullspace(nvars)
    lead_inv = field.inv(next(v for v in vec if v != 0))
    return tuple(tuple(field.reduce(vec[r * m + c] * lead_inv) for c in range(m)) for r in range(m))


class TestBlockConjugator:
    @pytest.mark.parametrize("field", [RATIONALS, gf(101)], ids=lambda f: f.name)
    def test_read_agrees_with_the_linear_solve(self, field):
        rng = random.Random(1993)
        first_row_zero = 0
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
                first_row_zero += a_inv[0][0] == 0
                images = {}
                for u in range(m):
                    for w in range(m):
                        unit = StructMatrix.from_values(field, full, {(u + 1, w + 1): 1}).rows
                        images[(u, w)] = grid_mul(field, grid_mul(field, a_inv, unit), a)
                read = factor._read_conjugator(field, [images[(0, w)] for w in range(m)])
                assert read == solved_conjugator(field, images, m)
                assert next(v for row in read for v in row if v != 0) == field.one()
                lead = next(v for row in a for v in row if v != 0)
                assert read == grid_scale(field, field.inv(lead), a)
        assert first_row_zero > 0

    def test_scaled_diagonal_image_raises_a_domain_error(self):
        # Step 5 must reject a diagonal unit's scalar other than 1 itself:
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
                    factor_automorphism(
                        BasisImageAutomorphism.from_map(block, field, scaled), assume_verified=True
                    )
