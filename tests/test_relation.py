import random

import pytest

from sma import (
    InvalidRelation,
    ParseError,
    Relation,
    condensation,
    enumerate_quasiorders,
    equivalence_classes,
    transitive_reflexive_closure,
    validate,
)

from conftest import crown, grown


def brute_reachable(rel, src):
    """Independent reachability oracle: plain DFS over the pair digraph."""
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        for (a, b) in rel.pairs:
            if a == u and b not in seen:
                seen.add(b)
                stack.append(b)
    return seen


def random_quasiorder(rng, n):
    pairs = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 2 * n))}
    return transitive_reflexive_closure(Relation.from_pairs(n, pairs))


class TestValidate:
    def test_golden_relations_are_valid(self, sym6, vee3, crown6):
        for rel in (sym6, vee3, crown6):
            assert validate(rel).ok

    def test_identity_relation_is_valid(self):
        assert validate(Relation.identity(3)).ok

    def test_missing_transitive_pair_is_witnessed(self):
        rel = Relation.from_pairs(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
        report = validate(rel)
        assert not report.ok
        v = report.violations[0]
        assert v.kind == "transitivity"
        assert v.witness == ((1, 2), (2, 3))
        assert v.missing == (1, 3)

    def test_missing_diagonal_is_witnessed(self):
        rel = Relation.from_pairs(2, [(1, 1)])
        report = validate(rel)
        assert not report.ok
        assert report.violations[0].kind == "reflexivity"
        assert report.violations[0].missing == (2, 2)

    def test_violation_reporting_is_capped(self):
        # empty relation on a large ground set: one reflexivity violation per element
        rel = Relation(150, frozenset())
        report = validate(rel)
        assert not report.ok
        assert len(report.violations) == 100
        assert report.truncated

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError):
            Relation.from_pairs(3, [(1, 4)])

    def test_pairs_must_hold_ints(self):
        for bad in (2.7, 2.0, True, "2"):
            with pytest.raises(ValueError, match="out of range"):
                Relation.from_pairs(3, [(1, 1), (2, bad)])
            with pytest.raises(ValueError, match="out of range"):
                Relation(3, frozenset({(bad, 1)}))


class TestClosure:
    def test_chain_closes(self):
        rel = Relation.from_pairs(3, [(1, 2), (2, 3)])
        closed = transitive_reflexive_closure(rel)
        assert closed.pairs == frozenset([(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (1, 3)])

    def test_idempotent_on_valid_quasiorders(self, sym6, vee3, crown6):
        for rel in (sym6, vee3, crown6):
            assert transitive_reflexive_closure(rel) == rel

    def test_mutual_pair_closes_to_class(self):
        rel = Relation.from_pairs(2, [(1, 2), (2, 1)])
        assert transitive_reflexive_closure(rel) == Relation.full(2)

    def test_closure_always_validates(self):
        rng = random.Random(20240)
        for _ in range(200):
            n = rng.randint(1, 6)
            pairs = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 12))}
            closed = transitive_reflexive_closure(Relation.from_pairs(n, pairs))
            assert validate(closed).ok


class TestClasses:
    def test_sym6_classes(self, sym6):
        assert equivalence_classes(sym6).classes == ((1, 5, 6), (2, 3), (4,))

    def test_identity_gives_singletons(self):
        part = equivalence_classes(Relation.identity(4))
        assert part.classes == ((1,), (2,), (3,), (4,))

    def test_crown6_classes(self, crown6):
        assert equivalence_classes(crown6).classes == ((1,), (2, 3), (4,), (5, 6))

    def test_representatives_are_minima(self, sym6, crown6):
        for rel in (sym6, crown6):
            part = equivalence_classes(rel)
            assert part.representatives == tuple(min(c) for c in part.classes)

    def test_invalid_relation_rejected(self):
        rel = Relation.from_pairs(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
        with pytest.raises(InvalidRelation):
            equivalence_classes(rel)

    def test_classes_match_mutual_reachability(self):
        rng = random.Random(7)
        for _ in range(60):
            rel = random_quasiorder(rng, rng.randint(1, 6))
            part = equivalence_classes(rel)
            for i in range(1, rel.n + 1):
                for j in range(1, rel.n + 1):
                    mutual = j in brute_reachable(rel, i) and i in brute_reachable(rel, j)
                    assert (part.class_of(i) == part.class_of(j)) == mutual


class TestCondensation:
    def test_sym6_has_no_edges(self, sym6):
        part = equivalence_classes(sym6)
        assert condensation(sym6, part).edges == frozenset()

    def test_vee3_edges(self, vee3):
        part = equivalence_classes(vee3)
        dag = condensation(vee3, part)
        # classes {1},{2},{3}: 1 below 2 and 3 below 2
        assert dag.edges == frozenset([(0, 1), (2, 1)])

    def test_crown6_edges_match_brute_cross_pairs(self, crown6):
        part = equivalence_classes(crown6)
        dag = condensation(crown6, part)
        expected = set()
        for a in range(part.p):
            for b in range(part.p):
                if a == b:
                    continue
                crossings = {
                    (i, j) in crown6.pairs for i in part.classes[a] for j in part.classes[b]
                }
                assert len(crossings) == 1  # representative independence
                if crossings == {True}:
                    expected.add((a, b))
        assert dag.edges == frozenset(expected)
        assert dag.edges == frozenset([(0, 1), (0, 2), (3, 1), (3, 2)])

    def test_edges_transitively_closed_and_acyclic(self):
        rng = random.Random(99)
        for _ in range(60):
            rel = random_quasiorder(rng, rng.randint(1, 6))
            part = equivalence_classes(rel)
            dag = condensation(rel, part)
            for (a, b) in dag.edges:
                for (b2, c) in dag.edges:
                    if b2 == b and a != c:
                        assert (a, c) in dag.edges
            # acyclic: Kahn's algorithm consumes every class
            indeg = {k: 0 for k in range(part.p)}
            for (_, b) in dag.edges:
                indeg[b] += 1
            ready = [k for k in indeg if indeg[k] == 0]
            seen = 0
            while ready:
                k = ready.pop()
                seen += 1
                for (a, b) in dag.edges:
                    if a == k:
                        indeg[b] -= 1
                        if indeg[b] == 0:
                            ready.append(b)
            assert seen == part.p


class TestCovers:
    def test_covers_are_the_edges_with_nothing_between(self):
        rng = random.Random(7)
        for _ in range(80):
            rel = random_quasiorder(rng, rng.randint(1, 8))
            dag = rel.condensation
            expected = [
                tuple(b for b in above if not any((a, c) in dag.edges and (c, b) in dag.edges for c in range(dag.p)))
                for a, above in enumerate(dag.successors)
            ]
            assert dag.covers == tuple(expected)

    def test_total_order_and_crown(self, crown6):
        total = Relation.from_pairs(4, [(i, j) for i in range(1, 5) for j in range(i, 5)])
        assert total.condensation.covers == ((1,), (2,), (3,), ())
        assert crown6.condensation.covers == tuple(crown6.condensation.successors)


def _grown_crown(k, seed):
    """The 2k-element crown with each element grown into a class of 2-4
    members, relabelled by a seeded shuffle."""
    rng = random.Random(seed)
    sizes = [rng.randint(2, 4) for _ in range(2 * k)]
    labels = list(range(1, sum(sizes) + 1))
    rng.shuffle(labels)
    return grown(crown(2 * k), sizes, labels)


class TestForestHubs:
    """The spanning forest joins every member of a class to one hub: the
    largest comparable element outside the class when that is larger than
    every member, else the class's largest member.  `cocycle_rank` relies on
    this to keep its coordinates on the condensation."""

    @staticmethod
    def hub_cases(rel):
        """Check each class of two or more members; return whether its hub
        lies inside it, per class."""
        cases = []
        for members in equivalence_classes(rel).classes:
            if len(members) < 2:
                continue
            c = members[-1]
            outside = [w for w in range(1, rel.n + 1) if w not in members and ((c, w) in rel.pairs or (w, c) in rel.pairs)]
            hub = max([c, *outside])
            for u in members:
                if u != hub:
                    assert (min(u, hub), max(u, hub)) in rel.forest.tree_edges, (rel, members, hub)
            cases.append(hub == c)
        return cases

    def test_every_quasiorder_up_to_four(self):
        cases = [case for n in range(1, 5) for rel in enumerate_quasiorders(n) for case in self.hub_cases(rel)]
        assert True in cases and False in cases

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_crowns_with_shuffled_classes(self, k):
        cases = [case for seed in range(6) for case in self.hub_cases(_grown_crown(k, seed))]
        assert len(cases) == 6 * 2 * k
        assert True in cases and False in cases


class TestIsolated:
    def test_sym6_all_isolated(self, sym6):
        part = equivalence_classes(sym6)
        assert condensation(sym6, part).isolated == frozenset({0, 1, 2})

    def test_crown6_none_isolated(self, crown6):
        part = equivalence_classes(crown6)
        assert condensation(crown6, part).isolated == frozenset()

    def test_single_class_is_isolated(self):
        rel = Relation.full(3)
        part = equivalence_classes(rel)
        assert condensation(rel, part).isolated == frozenset({0})


class TestParsing:
    def test_json_round_trip(self, sym6):
        assert Relation.from_json(sym6.to_json()) == sym6

    def test_text_format(self):
        rel = Relation.parse("3\n1 1\n2 2\n3 3\n1 2\n")
        assert rel == Relation.from_pairs(3, [(1, 1), (2, 2), (3, 3), (1, 2)])

    def test_bad_json_is_parse_error(self):
        with pytest.raises(ParseError):
            Relation.from_json({"n": 3})

    def test_out_of_range_is_parse_error(self):
        with pytest.raises(ParseError):
            Relation.from_json({"n": 2, "pairs": [[1, 3]]})

    def test_bad_text_line_is_named(self):
        with pytest.raises(ParseError, match="line 2"):
            Relation.parse("3\n1 2 3\n")

    def test_integer_literal_over_the_digit_limit_is_parse_error(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            Relation.parse('{"n": ' + "9" * 5000 + ', "pairs": []}')
