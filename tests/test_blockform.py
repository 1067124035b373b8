import random

import pytest

from sma import (
    InvalidOverride,
    Permutation,
    Relation,
    block_pattern,
    build_block_form,
    compose_permutations,
    condensation,
    conjugate_relation,
    enumerate_quasiorders,
    equivalence_classes,
    is_block_form,
    is_semisimple,
    render_pattern_grid,
    transitive_reflexive_closure,
)

from conftest import crown


def random_quasiorder(rng, n):
    pairs = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 2 * n))}
    return transitive_reflexive_closure(Relation.from_pairs(n, pairs))


class TestPermutation:
    def test_not_bijective_rejected(self):
        with pytest.raises(ValueError):
            Permutation(3, (1, 1, 2))

    def test_images_must_be_ints(self):
        # sorted() takes 1.0 and True for 1, so these used to pass and fail later in relabel
        for image in ((1.0, 2, 3), (True, 2, 3), ("1", 2, 3)):
            with pytest.raises(ValueError, match="not a bijection"):
                Permutation(3, image)

    def test_sizes_that_disagree_are_refused(self):
        with pytest.raises(ValueError, match="size mismatch"):
            compose_permutations(Permutation.identity_perm(3), Permutation.identity_perm(4))
        with pytest.raises(ValueError, match="size mismatch"):
            conjugate_relation(Relation.identity(3), Permutation.identity_perm(4))

    def test_inverse_and_composition(self):
        p = Permutation(4, (2, 3, 1, 4))
        assert compose_permutations(p, p.inverse()).is_identity()
        q = Permutation(4, (4, 3, 2, 1))
        pq = compose_permutations(p, q)
        assert all(pq(i) == p(q(i)) for i in range(1, 5))

    def test_cycle_notation(self):
        assert Permutation(3, (1, 3, 2)).cycle_notation() == "(2 3)"
        assert Permutation.identity_perm(2).cycle_notation() == "id"

    def test_relabel_matches_its_definition(self):
        rng = random.Random(101)
        for n in range(1, 7):
            for _ in range(20):
                image = list(range(1, n + 1))
                rng.shuffle(image)
                p = Permutation(n, tuple(image))
                grid = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
                expected = tuple(
                    tuple(grid[p(i) - 1][p(j) - 1] for j in range(1, n + 1)) for i in range(1, n + 1)
                )
                assert p.relabel(grid) == expected


class TestBuildBlockForm:
    def test_sym6_default(self, sym6, sym6_block):
        bf = build_block_form(sym6)
        assert bf.pi.image == (1, 4, 5, 6, 2, 3)
        assert bf.block_sizes == (3, 2, 1)
        assert bf.permuted == sym6_block
        assert bf.num_comparable == 0
        assert bf.num_isolated == 3

    def test_vee3_default(self, vee3, vee3_block):
        bf = build_block_form(vee3)
        assert bf.pi.image == (1, 3, 2)
        assert bf.permuted == vee3_block

    def test_crown6_with_override(self, crown6, crown6_block):
        # diagonal order: {1}, {5,6}, {4}, {2,3}
        bf = build_block_form(crown6, class_order_override=(0, 3, 2, 1))
        assert bf.pi.image == (1, 5, 6, 4, 2, 3)
        assert bf.block_sizes == (1, 2, 1, 2)
        assert bf.permuted == crown6_block

    def test_crown6_default_order(self, crown6):
        bf = build_block_form(crown6)
        # topological with ties by representative: {1}, {5,6}, {2,3}, {4}
        assert bf.class_order == (0, 3, 1, 2)
        assert bf.block_sizes == (1, 2, 2, 1)

    def test_override_must_be_permutation(self, crown6):
        with pytest.raises(InvalidOverride):
            build_block_form(crown6, class_order_override=(0, 0, 1, 2))

    def test_override_entries_must_be_ints(self, crown6):
        assert build_block_form(crown6, class_order_override=[0, 3, 1, 2]).block_sizes == (1, 2, 2, 1)
        for order in ([0.2, 3.9, 1, 2], [0.0, 3.0, 1, 2], [False, 3, 1, 2]):
            with pytest.raises(InvalidOverride):
                build_block_form(crown6, class_order_override=order)

    def test_override_must_extend_condensation(self, crown6):
        # class {2,3} is above class {1}, so it cannot come first
        with pytest.raises(InvalidOverride):
            build_block_form(crown6, class_order_override=(1, 0, 2, 3))

    def test_override_must_put_isolated_last(self):
        rel = Relation.from_pairs(3, [(1, 1), (2, 2), (3, 3), (1, 2)])
        with pytest.raises(InvalidOverride):
            build_block_form(rel, class_order_override=(0, 2, 1))

    def test_conjugating_back_recovers_source(self, sym6, vee3, crown6):
        for rel in (sym6, vee3, crown6):
            bf = build_block_form(rel)
            assert conjugate_relation(bf.permuted, bf.pi.inverse()) == rel

    def test_identity_order_on_permuted_relation_is_identity(self, sym6, vee3, crown6):
        for rel in (sym6, vee3, crown6):
            bf = build_block_form(rel)
            p = len(bf.block_sizes)
            again = build_block_form(bf.permuted, class_order_override=tuple(range(p)))
            assert again.pi.is_identity()
            assert again.permuted == bf.permuted

    def test_permuted_relation_is_quasiorder_and_triangular(self):
        rng = random.Random(5150)
        for _ in range(60):
            rel = random_quasiorder(rng, rng.randint(1, 6))
            bf = build_block_form(rel)
            part = equivalence_classes(bf.permuted)
            assert is_block_form(bf.permuted)
            for (i, j) in bf.permuted.pairs:
                assert part.class_of(i) <= part.class_of(j)
            # normalizing the already-normalized relation moves nothing
            again = build_block_form(bf.permuted, class_order_override=range(len(bf.block_sizes)))
            assert again.pi.is_identity()

    def test_every_admissible_class_order(self):
        from itertools import permutations

        rng = random.Random(2718)
        for _ in range(15):
            rel = random_quasiorder(rng, rng.randint(1, 5))
            p = equivalence_classes(rel).p
            admissible = 0
            for order in permutations(range(p)):
                try:
                    bf = build_block_form(rel, class_order_override=order)
                except InvalidOverride:
                    continue
                admissible += 1
                assert is_block_form(bf.permuted)
                assert conjugate_relation(bf.permuted, bf.pi.inverse()) == rel
            assert admissible >= 1  # the default order is always admissible


def reference_is_block_form(rel):
    """Block form by its definition: each class on a contiguous ascending
    range in class order, each class below only later ones, the isolated
    classes last."""
    part = equivalence_classes(rel)
    dag = condensation(rel, part)
    starts = [1]
    for cls in part.classes:
        starts.append(starts[-1] + len(cls))
    return (
        all(cls == tuple(range(lo, hi)) for cls, lo, hi in zip(part.classes, starts, starts[1:]))
        and all(a < b for a, above in enumerate(dag.successors) for b in above)
        and all(k >= part.p - len(dag.isolated) for k in dag.isolated)
    )


def total_order(n):
    return Relation.from_pairs(n, [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)])


def chain_of_pairs(n):
    """Classes {1,2}, {3,4}, ... in a chain."""
    return Relation.from_pairs(
        n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if (i - 1) // 2 <= (j - 1) // 2]
    )


class TestIsBlockForm:
    def test_agrees_with_the_definition(self):
        rng = random.Random(830)
        relations = [rel for n in range(1, 5) for rel in enumerate_quasiorders(n)]
        for n in (5, 6, 7, 8):
            for base in (total_order(n), chain_of_pairs(n), crown(n), random_quasiorder(rng, n)):
                relations.append(base)
                for _ in range(6):
                    image = list(range(1, n + 1))
                    rng.shuffle(image)
                    relations.append(conjugate_relation(base, Permutation(n, tuple(image))))
        answers = [is_block_form(rel) for rel in relations]
        assert answers == [reference_is_block_form(rel) for rel in relations]
        assert 0 < sum(answers) < len(answers)


class TestBlockPattern:
    def test_sym6_diagonal_only(self, sym6):
        pat = block_pattern(build_block_form(sym6))
        assert pat.full == (
            (True, False, False),
            (False, True, False),
            (False, False, True),
        )

    def test_crown6_published_layout(self, crown6):
        pat = block_pattern(build_block_form(crown6, class_order_override=(0, 3, 2, 1)))
        full_cells = {
            (a, b) for a in range(4) for b in range(4) if a != b and pat.full[a][b]
        }
        assert full_cells == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_single_class(self):
        pat = block_pattern(build_block_form(Relation.full(3)))
        assert pat.full == ((True,),)

    def test_full_count_equals_comparable_edges(self):
        rng = random.Random(321)
        for _ in range(60):
            rel = random_quasiorder(rng, rng.randint(1, 6))
            bf = build_block_form(rel)
            pat = block_pattern(bf)
            above = sum(
                1 for a in range(pat.p) for b in range(pat.p) if a < b and pat.full[a][b]
            )
            dag = condensation(rel, equivalence_classes(rel))
            assert above == len(dag.edges)


class TestSemisimple:
    def test_golden_values(self, sym6, vee3):
        assert is_semisimple(sym6)
        assert not is_semisimple(vee3)
        assert is_semisimple(Relation.identity(3))

    def test_semisimple_iff_all_blocks_isolated(self):
        rng = random.Random(88)
        for _ in range(60):
            rel = random_quasiorder(rng, rng.randint(1, 6))
            bf = build_block_form(rel)
            assert is_semisimple(rel) == (bf.num_isolated == len(bf.block_sizes))


class TestRendering:
    def test_sym6_grid_shape(self, sym6):
        grid = render_pattern_grid(build_block_form(sym6))
        rows = [r for r in grid.splitlines() if "F" in r or "0" in r]
        assert len(rows) == 6
        assert rows[0].replace(" ", "") == "FFF|00|0"
        assert rows[5].replace(" ", "") == "000|00|F"
