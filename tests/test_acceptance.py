"""Acceptance suite: every criterion is exact (zero tolerance).

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""

import functools
import random
from fractions import Fraction

from conftest import (
    CROWN6_BLOCK_PAIRS,
    CROWN6_PAIRS,
    SYM6_BLOCK_PAIRS,
    SYM6_PAIRS,
    VEE3_BLOCK_PAIRS,
    VEE3_PAIRS,
)

from sma import (
    Permutation,
    RATIONALS,
    Relation,
    StructMatrix,
    TransitiveFn,
    ViolatingCycle,
    block_pattern,
    brute_cocycle_rank,
    brute_relation_automorphisms,
    build_block_form,
    canonicalize,
    check_transitive,
    cocycle_rank,
    compose,
    enumerate_quasiorders,
    enumerate_relation_automorphisms,
    equal_as_maps,
    equivalence_classes,
    factor_automorphism,
    gf,
    induced_automorphism,
    inner_automorphism,
    is_block_form,
    is_member,
    is_relation_automorphism,
    is_semisimple,
    permutation_similarity,
    triviality_witness,
    verify_automorphism,
)
from sma.algebra import grid_mul, invert_grid
from sma.oracle import random_factored_automorphism, random_in_pattern, random_invertible

GF5 = gf(5)

SYM6 = Relation.from_pairs(6, SYM6_PAIRS)
SYM6_BLOCK = Relation.from_pairs(6, SYM6_BLOCK_PAIRS)
VEE3 = Relation.from_pairs(3, VEE3_PAIRS)
VEE3_BLOCK = Relation.from_pairs(3, VEE3_BLOCK_PAIRS)
CROWN6 = Relation.from_pairs(6, CROWN6_PAIRS)
CROWN6_BLOCK = Relation.from_pairs(6, CROWN6_BLOCK_PAIRS)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return wrapper

    return decorate


@criterion(1, "symmetric 6-element relation: classes, permutation, block sizes, rank, automorphisms")
def test_criterion_1_sym6_golden():
    part = equivalence_classes(SYM6)
    assert part.classes == ((1, 5, 6), (2, 3), (4,))

    bf = build_block_form(SYM6)
    assert bf.pi.image == (1, 4, 5, 6, 2, 3)
    assert bf.block_sizes == (3, 2, 1)
    assert bf.permuted == SYM6_BLOCK

    pat = block_pattern(bf)
    assert all(pat.full[a][b] == (a == b) for a in range(3) for b in range(3))
    assert bf.num_isolated == 3 and bf.num_comparable == 0

    assert is_semisimple(SYM6)
    assert cocycle_rank(SYM6).rank == 0

    autos = enumerate_relation_automorphisms(SYM6)
    assert len(autos) == 12
    assert autos == brute_relation_automorphisms(SYM6)


@criterion(2, "3-element relation: permutation, relabelled pairs, closed-form composite, factoring")
def test_criterion_2_vee3_golden():
    bf = build_block_form(VEE3)
    assert bf.pi.image == (1, 3, 2)
    assert bf.permuted.pairs == frozenset([(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)])
    assert cocycle_rank(bf.permuted).rank == 0

    a, b = Fraction(7), Fraction(11)
    A = StructMatrix.from_values(
        RATIONALS, VEE3_BLOCK, {(1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 3): a, (2, 3): b}
    )
    tau = Permutation(3, (2, 1, 3))
    phi = compose(inner_automorphism(A), permutation_similarity(VEE3_BLOCK, tau, RATIONALS))

    rng = random.Random(2024)
    for _ in range(20):
        entries = {
            pair: Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            for pair in VEE3_BLOCK.sorted_pairs()
        }
        B = StructMatrix.from_values(RATIONALS, VEE3_BLOCK, entries)
        out = phi.apply(B)
        a11, a13 = entries[(1, 1)], entries[(1, 3)]
        a22, a23 = entries[(2, 2)], entries[(2, 3)]
        a33 = entries[(3, 3)]
        assert out.entry(1, 1) == a22
        assert out.entry(2, 2) == a11
        assert out.entry(3, 3) == a33
        assert out.entry(1, 2) == 0 and out.entry(2, 1) == 0
        assert out.entry(1, 3) == a23 + a * a22 - a * a33
        assert out.entry(2, 3) == a13 + b * a11 - b * a33

    factored = factor_automorphism(phi)
    assert equal_as_maps(factored, phi)
    assert factored.permutation.image == (2, 1, 3)
    assert factored.scaling.nontrivial_values() == {}


@criterion(3, "6-element crown relation: override layout, pattern, rejected swap, rank-1 generator")
def test_criterion_3_crown6_golden():
    bf = build_block_form(CROWN6, class_order_override=(0, 3, 2, 1))
    assert bf.pi.image == (1, 5, 6, 4, 2, 3)
    assert bf.block_sizes == (1, 2, 1, 2)
    assert bf.permuted == CROWN6_BLOCK

    pat = block_pattern(bf)
    above = {(r, c) for r in range(4) for c in range(4) if r != c and pat.full[r][c]}
    assert above == {(0, 2), (0, 3), (1, 2), (1, 3)}

    swap14 = Permutation(6, (4, 2, 3, 1, 5, 6))
    assert (1, 4) in CROWN6_BLOCK.pairs and (4, 1) not in CROWN6_BLOCK.pairs
    assert not is_relation_automorphism(CROWN6_BLOCK, swap14)

    basis = cocycle_rank(CROWN6_BLOCK)
    assert basis.rank == 1
    assert basis.exponents(0) == {(1, 4): 1}
    assert brute_cocycle_rank(CROWN6_BLOCK) == 1

    g = TransitiveFn.build(CROWN6_BLOCK, RATIONALS, {(1, 4): 2})
    assert check_transitive(g).ok
    witness = triviality_witness(g)
    assert isinstance(witness, ViolatingCycle)
    assert witness.product != 1
    assert verify_automorphism(induced_automorphism(g)).ok


@criterion(4, "factorization round-trip: 100 seeded random maps per relation per field recompose exactly")
def test_criterion_4_factorization_round_trip():
    for rel in (SYM6_BLOCK, VEE3_BLOCK, CROWN6_BLOCK):
        for field in (RATIONALS, GF5):
            for seed in range(100):
                phi = random_factored_automorphism(rel, field, seed)
                factored = factor_automorphism(phi)
                assert equal_as_maps(factored, phi), (rel.n, field.name, seed)
                assert factored.scaling == canonicalize(phi.scaling)[1], (rel.n, field.name, seed)


@criterion(5, "all 355 quasi-orders on 4 elements: oracle equivalence, triangularity, semisimplicity")
def test_criterion_5_exhaustive_sweep():
    rng = random.Random(355)
    count = 0
    for rel in enumerate_quasiorders(4):
        count += 1
        assert enumerate_relation_automorphisms(rel) == brute_relation_automorphisms(rel)
        assert cocycle_rank(rel).rank == brute_cocycle_rank(rel)

        bf = build_block_form(rel)
        part = equivalence_classes(bf.permuted)
        assert is_block_form(bf.permuted)
        for (i, j) in bf.permuted.pairs:
            assert part.class_of(i) <= part.class_of(j)

        blocked = bf.permuted
        A = random_invertible(blocked, GF5, rng)
        taus = enumerate_relation_automorphisms(blocked)
        tau = taus[rng.randrange(len(taus))]
        phi = compose(inner_automorphism(A), permutation_similarity(blocked, tau, GF5))
        factored = factor_automorphism(phi)
        assert equal_as_maps(factored, phi)
        assert factored.scaling.nontrivial_values() == {}

        semisimple = is_semisimple(rel)
        assert semisimple == all((j, i) in rel.pairs for (i, j) in rel.pairs)
        assert semisimple == (bf.num_isolated == len(bf.block_sizes))
    assert count == 355


@criterion(6, "algebra closure: products and inverses of random in-pattern matrices stay in pattern")
def test_criterion_6_algebra_closure():
    rng = random.Random(606)
    for rel in (SYM6, VEE3, CROWN6):
        for field in (RATIONALS, GF5):
            for _ in range(200):
                x = random_in_pattern(rel, field, rng)
                y = random_in_pattern(rel, field, rng)
                product = grid_mul(field, x.rows, y.rows)  # raw product, no constructor guard
                assert is_member(rel, product)
                assert (x * y).rows == product
            for _ in range(100):
                A = random_invertible(rel, field, rng)
                raw_inverse = invert_grid(field, A.rows)
                assert is_member(rel, raw_inverse)
                assert A.inverse().rows == raw_inverse
