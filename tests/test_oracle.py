import json
import random
import time
from pathlib import Path

import pytest

from sma import (
    BoundExceeded,
    RATIONALS,
    Relation,
    brute_cocycle_rank,
    brute_relation_automorphisms,
    cocycle_rank,
    enumerate_quasiorders,
    enumerate_relation_automorphisms,
    gf,
    is_block_form,
    build_block_form,
    validate,
    verify_automorphism,
)
import sma.oracle as oracle
from sma.oracle import random_factored_automorphism

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

# random_factored_automorphism(rel, gf(101), seed).to_json() on golden relations,
# as json.dumps prints it.  The permutation factor indexes the automorphism
# listing, so these pin the listing's order end to end.
PINNED_MAPS = {
    ("sym6", 1): '{"A": {"field": {"GF": 101}, "n": 6, "entries": [[17, 0, 0, 0, 72, 97], [0, 8, 32, 0, 0, 0], [0, 15, 63, 0, 0, 0], [0, 0, 0, 97, 0, 0], [57, 0, 0, 0, 60, 83], [48, 0, 0, 0, 100, 26]]}, "g": {"field": {"GF": 101}, "values": [[1, 5, 90], [1, 6, 35], [2, 3, 99], [3, 2, 50], [5, 1, 55], [5, 6, 6], [6, 1, 26], [6, 5, 17]]}, "tau": [1, 2, 3, 4, 6, 5]}',
    ("sym6", 2): '{"A": {"field": {"GF": 101}, "n": 6, "entries": [[7, 0, 0, 0, 11, 10], [0, 46, 21, 0, 0, 0], [0, 94, 85, 0, 0, 0], [0, 0, 0, 39, 0, 0], [32, 0, 0, 0, 77, 27], [77, 0, 0, 0, 4, 74]]}, "g": {"field": {"GF": 101}, "values": [[1, 5, 9], [1, 6, 78], [2, 3, 73], [3, 2, 18], [5, 1, 45], [5, 6, 76], [6, 1, 79], [6, 5, 4]]}, "tau": [6, 3, 2, 4, 1, 5]}',
    ("sym6", 3): '{"A": {"field": {"GF": 101}, "n": 6, "entries": [[30, 0, 0, 0, 75, 69], [0, 16, 47, 0, 0, 0], [0, 77, 60, 0, 0, 0], [0, 0, 0, 80, 0, 0], [74, 0, 0, 0, 8, 77], [1, 0, 0, 0, 60, 33]]}, "g": {"field": {"GF": 101}, "values": [[1, 5, 78], [1, 6, 74], [2, 3, 38], [3, 2, 8], [5, 1, 79], [5, 6, 89], [6, 1, 86], [6, 5, 42]]}, "tau": [6, 2, 3, 4, 1, 5]}',
    ("crown6", 1): '{"A": {"field": {"GF": 101}, "n": 6, "entries": [[17, 72, 97, 8, 0, 0], [0, 32, 15, 0, 0, 0], [0, 63, 97, 0, 0, 0], [0, 0, 0, 57, 0, 0], [0, 60, 83, 48, 100, 26], [0, 12, 62, 3, 49, 55]]}, "g": {"field": {"GF": 101}, "values": [[1, 2, 89], [1, 3, 69], [1, 4, 35], [2, 3, 70], [3, 2, 13], [5, 2, 20], [5, 3, 87], [5, 4, 8], [5, 6, 96], [6, 2, 97], [6, 3, 23], [6, 4, 59], [6, 5, 20]]}, "tau": [1, 2, 3, 4, 5, 6]}',
    ("crown6", 2): '{"A": {"field": {"GF": 101}, "n": 6, "entries": [[92, 65, 47, 69, 0, 0], [0, 56, 64, 0, 0, 0], [0, 34, 4, 0, 0, 0], [0, 0, 0, 3, 0, 0], [0, 46, 59, 40, 48, 54], [0, 67, 21, 71, 22, 30]]}, "g": {"field": {"GF": 101}, "values": [[1, 2, 11], [1, 3, 33], [1, 4, 69], [2, 3, 3], [3, 2, 34], [5, 2, 88], [5, 3, 62], [5, 4, 88], [5, 6, 36], [6, 2, 81], [6, 3, 41], [6, 4, 81], [6, 5, 87]]}, "tau": [1, 2, 3, 4, 6, 5]}',
    ("crown6", 3): '{"A": {"field": {"GF": 101}, "n": 6, "entries": [[30, 75, 69, 16, 0, 0], [0, 47, 77, 0, 0, 0], [0, 60, 80, 0, 0, 0], [0, 0, 0, 74, 0, 0], [0, 8, 77, 1, 60, 33], [0, 70, 29, 24, 91, 60]]}, "g": {"field": {"GF": 101}, "values": [[1, 2, 88], [1, 3, 19], [1, 4, 47], [2, 3, 84], [3, 2, 95], [5, 3, 84], [5, 4, 62], [5, 6, 84], [6, 2, 95], [6, 4, 32], [6, 5, 95]]}, "tau": [1, 3, 2, 4, 6, 5]}',
    ("vee3", 1): '{"A": {"field": {"GF": 101}, "n": 3, "entries": [[17, 72, 0], [0, 97, 0], [0, 8, 32]]}, "g": {"field": {"GF": 101}, "values": [[1, 2, 60], [3, 2, 11]]}, "tau": [1, 2, 3]}',
    ("vee3", 2): '{"A": {"field": {"GF": 101}, "n": 3, "entries": [[7, 11, 0], [0, 10, 0], [0, 46, 21]]}, "g": {"field": {"GF": 101}, "values": [[1, 2, 66], [3, 2, 62]]}, "tau": [3, 2, 1]}',
    ("vee3", 3): '{"A": {"field": {"GF": 101}, "n": 3, "entries": [[30, 75, 0], [0, 69, 0], [0, 16, 47]]}, "g": {"field": {"GF": 101}, "values": [[1, 2, 12], [3, 2, 82]]}, "tau": [3, 2, 1]}',
}


# The same over Q and GF(101) on the 4-crown (sources 1..4, sinks 5..8, source
# i below every sink but i+4), whose cocycle rank is 5: these pin the random
# scaling, a coboundary times powers of five canonical generators.
PINNED_CROWN8_MAPS = {
    ("Q", 1): '{"A": {"field": "Q", "n": 8, "entries": [["-5", "0", "0", "0", "0", "-1", "3/2", "3/2"], ["0", "-3", "0", "0", "6", "0", "3/4", "-9/4"], ["0", "0", "-1/2", "0", "9", "1", "0", "-9"], ["0", "0", "0", "8", "3/2", "4", "7/2", "0"], ["0", "0", "0", "0", "5/4", "0", "0", "0"], ["0", "0", "0", "0", "0", "4", "0", "0"], ["0", "0", "0", "0", "0", "0", "1", "0"], ["0", "0", "0", "0", "0", "0", "0", "-1/2"]]}, "g": {"field": "Q", "values": [[1, 6, "-9/7"], [1, 7, "-1"], [1, 8, "-9/7"], [2, 5, "224"], [2, 7, "32/9"], [2, 8, "32/7"], [3, 5, "-16/105"], [3, 6, "-8/21"], [3, 8, "-16/21"], [4, 5, "-8/7"], [4, 6, "-4/7"], [4, 7, "-8/9"]]}, "tau": [2, 3, 4, 1, 6, 7, 8, 5]}',
    ("Q", 2): '{"A": {"field": "Q", "n": 8, "entries": [["-8", "0", "0", "0", "0", "-7/3", "-4/3", "-1/2"], ["0", "-4", "0", "0", "1", "0", "7/3", "2"], ["0", "0", "7/3", "0", "-8", "1/2", "0", "1/4"], ["0", "0", "0", "2", "4", "-1", "-9/2", "0"], ["0", "0", "0", "0", "1/2", "0", "0", "0"], ["0", "0", "0", "0", "0", "-5/3", "0", "0"], ["0", "0", "0", "0", "0", "0", "7/2", "0"], ["0", "0", "0", "0", "0", "0", "0", "5/4"]]}, "g": {"field": "Q", "values": [[1, 6, "1/6"], [1, 7, "7/6"], [1, 8, "28/15"], [2, 5, "2/5"], [2, 7, "15/2"], [2, 8, "12/5"], [3, 5, "343/5"], [3, 6, "1/4"], [3, 8, "2/5"], [4, 5, "-2/5"], [4, 6, "-1/2"], [4, 7, "-1/2"]]}, "tau": [4, 3, 2, 1, 8, 7, 6, 5]}',
    ("GF101", 1): '{"A": {"field": {"GF": 101}, "n": 8, "entries": [[17, 0, 0, 0, 0, 72, 97, 8], [0, 32, 0, 0, 15, 0, 63, 97], [0, 0, 57, 0, 60, 83, 0, 48], [0, 0, 0, 100, 26, 12, 62, 0], [0, 0, 0, 0, 3, 0, 0, 0], [0, 0, 0, 0, 0, 49, 0, 0], [0, 0, 0, 0, 0, 0, 55, 0], [0, 0, 0, 0, 0, 0, 0, 77]]}, "g": {"field": {"GF": 101}, "values": [[1, 6, 38], [1, 7, 44], [1, 8, 30], [2, 5, 91], [2, 7, 51], [2, 8, 9], [3, 5, 13], [3, 6, 22], [3, 8, 16], [4, 5, 38], [4, 6, 12], [4, 7, 77]]}, "tau": [1, 2, 3, 4, 5, 6, 7, 8]}',
    ("GF101", 2): '{"A": {"field": {"GF": 101}, "n": 8, "entries": [[7, 0, 0, 0, 0, 11, 10, 46], [0, 21, 0, 0, 94, 0, 85, 39], [0, 0, 32, 0, 77, 27, 0, 77], [0, 0, 0, 4, 74, 87, 20, 0], [0, 0, 0, 0, 55, 0, 0, 0], [0, 0, 0, 0, 0, 81, 0, 0], [0, 0, 0, 0, 0, 0, 50, 0], [0, 0, 0, 0, 0, 0, 0, 92]]}, "g": {"field": {"GF": 101}, "values": [[1, 6, 37], [1, 7, 83], [1, 8, 12], [2, 5, 9], [2, 7, 24], [2, 8, 52], [3, 5, 15], [3, 6, 14], [3, 8, 10], [4, 5, 91], [4, 6, 16], [4, 7, 55]]}, "tau": [3, 4, 1, 2, 7, 8, 5, 6]}',
}


class TestBruteAutomorphisms:
    def test_sym6_count_matches_hand_count(self, sym6):
        # classes of sizes 3, 2, 1 cannot swap: 3! * 2! * 1! = 12
        assert len(brute_relation_automorphisms(sym6)) == 12

    def test_vee_block(self, vee3_block):
        autos = brute_relation_automorphisms(vee3_block)
        assert [a.image for a in autos] == [(1, 2, 3), (2, 1, 3)]

    def test_full_relation(self):
        assert len(brute_relation_automorphisms(Relation.full(3))) == 6

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            brute_relation_automorphisms(Relation.identity(9))


class TestBruteCocycleRank:
    def test_crown_block(self, crown6_block):
        assert brute_cocycle_rank(crown6_block) == 1

    def test_vee_block(self, vee3_block):
        assert brute_cocycle_rank(vee3_block) == 0

    def test_identity_relation(self):
        assert brute_cocycle_rank(Relation.identity(4)) == 0


class TestQuasiorderEnumeration:
    def test_known_counts(self):
        assert sum(1 for _ in enumerate_quasiorders(1)) == 1
        assert sum(1 for _ in enumerate_quasiorders(2)) == 4
        assert sum(1 for _ in enumerate_quasiorders(3)) == 29

    def test_two_element_relations_are_the_expected_four(self):
        found = {tuple(sorted(r.pairs)) for r in enumerate_quasiorders(2)}
        diag = ((1, 1), (2, 2))
        assert found == {
            diag,
            tuple(sorted(diag + ((1, 2),))),
            tuple(sorted(diag + ((2, 1),))),
            tuple(sorted(diag + ((1, 2), (2, 1)))),
        }

    def test_all_results_are_valid(self):
        for rel in enumerate_quasiorders(3):
            assert validate(rel).ok

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            next(enumerate_quasiorders(5))


class TestSmallSweeps:
    def test_enumeration_matches_brute_up_to_three(self):
        for n in (1, 2, 3):
            for rel in enumerate_quasiorders(n):
                assert enumerate_relation_automorphisms(rel) == brute_relation_automorphisms(rel)

    def test_rank_matches_brute_up_to_three(self):
        for n in (1, 2, 3):
            for rel in enumerate_quasiorders(n):
                assert cocycle_rank(rel).rank == brute_cocycle_rank(rel)

    def test_oracles_agree_on_golden_relations(self, sym6, vee3_block, crown6_block):
        for rel in (sym6, vee3_block, crown6_block):
            assert enumerate_relation_automorphisms(rel) == brute_relation_automorphisms(rel)
            assert cocycle_rank(rel).rank == brute_cocycle_rank(rel)

    def test_block_forms_up_to_three(self):
        for n in (1, 2, 3):
            for rel in enumerate_quasiorders(n):
                assert is_block_form(build_block_form(rel).permuted)


class TestRandomSpecs:
    def test_construction_verifies(self, crown6_block):
        for field in (RATIONALS, gf(5)):
            phi = random_factored_automorphism(crown6_block, field, 42)
            assert verify_automorphism(phi).ok

    def test_seed_determinism(self, crown6_block):
        a = random_factored_automorphism(crown6_block, gf(5), 9)
        b = random_factored_automorphism(crown6_block, gf(5), 9)
        assert a.conjugator == b.conjugator
        assert a.scaling == b.scaling
        assert a.permutation == b.permutation

    def test_seeds_differ(self, crown6_block):
        a = random_factored_automorphism(crown6_block, gf(5), 1)
        b = random_factored_automorphism(crown6_block, gf(5), 2)
        assert (a.conjugator, a.scaling, a.permutation) != (b.conjugator, b.scaling, b.permutation)

    def test_a_relation_over_the_bound_raises_before_any_draw(self, monkeypatch):
        """Over GF(2) a random conjugator on an n-element chain is invertible
        with probability 2^-n, so drawing it first would redraw for ages."""
        def no_draw(*args):
            raise AssertionError("drew a conjugator for a relation over the bound")

        monkeypatch.delenv("SMA_MAX_N", raising=False)
        monkeypatch.setattr(oracle, "random_invertible", no_draw)
        chain = Relation.from_pairs(12, [(i, j) for i in range(1, 13) for j in range(i, 13)])
        with pytest.raises(BoundExceeded):
            random_factored_automorphism(chain, gf(2), 1)

    def test_a_conjugator_unlikely_to_be_invertible_is_refused_before_any_draw(self, monkeypatch, capsys):
        """Over GF(2) a draw on an n-element chain is invertible with
        probability 2^-n: 1/P = 1024 draws at n = 10 is under the bound,
        2^24 at n = 24 is over it, and a 13-element class costs under 4."""
        from sma.cli import main

        def chain(n):
            return Relation.from_pairs(n, [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)])

        monkeypatch.setenv("SMA_MAX_N", "24")
        assert random_factored_automorphism(chain(10), gf(2), 1).permutation.is_identity()
        assert oracle.random_invertible(Relation.full(13), gf(2), random.Random(1)).n == 13

        def no_draw(*args):
            raise AssertionError("drew a conjugator that is unlikely to be invertible")

        monkeypatch.setattr(oracle, "random_in_pattern", no_draw)
        with pytest.raises(BoundExceeded, match="invertible with probability 5.96e-08"):
            random_factored_automorphism(chain(24), gf(2), 1)
        with pytest.raises(BoundExceeded):
            oracle.random_invertible(chain(14), gf(2), None)
        assert oracle.MAX_EXPECTED_DRAWS == 10_000

    def test_tau_is_drawn_from_a_large_group_without_listing_it(self, monkeypatch):
        # Aut of the full relation on 13 elements has 13! members
        monkeypatch.setenv("SMA_MAX_N", "24")
        start = time.process_time()
        phi = random_factored_automorphism(Relation.full(13), RATIONALS, 1)
        assert time.process_time() - start < 5
        assert sorted(phi.permutation.image) == list(range(1, 14))

    @pytest.mark.parametrize("name, seed", sorted(PINNED_MAPS))
    def test_seeded_maps_are_pinned(self, name, seed):
        rel = Relation.from_json(json.loads((GOLDEN / f"{name}.json").read_text()))
        phi = random_factored_automorphism(rel, gf(101), seed)
        assert json.dumps(phi.to_json()) == PINNED_MAPS[name, seed]

    @pytest.mark.parametrize("field, seed", sorted(PINNED_CROWN8_MAPS))
    def test_seeded_maps_of_cocycle_rank_five_are_pinned(self, field, seed):
        k = 4
        pairs = [(i, i) for i in range(1, 2 * k + 1)]
        pairs += [(i, k + j) for i in range(1, k + 1) for j in range(1, k + 1) if j != i]
        rel = Relation.from_pairs(2 * k, pairs)
        assert cocycle_rank(rel).rank == 5
        phi = random_factored_automorphism(rel, {"Q": RATIONALS, "GF101": gf(101)}[field], seed)
        assert json.dumps(phi.to_json()) == PINNED_CROWN8_MAPS[field, seed]
