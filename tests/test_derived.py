"""A Relation's derived structure: equal to the definitions it replaced, and
computed once per relation.

The successors read off the bit rows, the validation report, the classes and
the condensation are compared with their plain definitions, written out here
without the rows, on every quasi-order with n <= 4, on every relation with
n <= 3 and on seeded relations up to n = 40, truncated reports included.  The
reflexive-transitive closure is compared with a Warshall closure over pair
sets on every relation with n <= 4.  A verify-then-factor run counts how often
each structure is computed.  The names the benchmark imports must stay
importable.
"""

import ast
import random
from pathlib import Path

import pytest

import sma
import sma.oracle as oracle
import sma.relation as relation_module
from sma import (
    RATIONALS,
    BoundExceeded,
    InvalidRelation,
    Relation,
    build_block_form,
    condensation,
    conjugate_by_block_form,
    enumerate_quasiorders,
    equivalence_classes,
    factor_automorphism,
    gf,
    random_factored_automorphism,
    spec_from_json,
    transitive_reflexive_closure,
    validate,
    verify_automorphism,
)
from sma.factor import carry_factors
from sma.relation import ValidationReport, Violation

ROOT = Path(__file__).resolve().parent.parent
CAP = 100  # MAX_REPORTED_VIOLATIONS


# ---------------------------------------------------------------------------
# the definitions, by scans over all pairs or all elements

def plain_successors(rel, i):
    return tuple(sorted(j for (a, j) in rel.pairs if a == i))


def plain_validate(rel):
    found = []
    for i in range(1, rel.n + 1):
        if (i, i) not in rel.pairs:
            found.append(Violation("reflexivity", ((i, i),), (i, i)))
    for i, j in sorted(rel.pairs):
        for k in plain_successors(rel, j):
            if (i, k) not in rel.pairs:
                found.append(Violation("transitivity", ((i, j), (j, k)), (i, k)))
    return ValidationReport(not found, tuple(found[:CAP]), len(found) > CAP)


def plain_closure(rel):
    reach = set(rel.pairs) | {(i, i) for i in range(1, rel.n + 1)}
    for k in range(1, rel.n + 1):
        for i in range(1, rel.n + 1):
            if (i, k) in reach:
                reach.update((i, j) for j in range(1, rel.n + 1) if (k, j) in reach)
    return Relation(rel.n, frozenset(reach))


def plain_classes(rel):
    seen, classes = set(), []
    for i in range(1, rel.n + 1):
        if i not in seen:
            cls = tuple(j for j in range(1, rel.n + 1) if (i, j) in rel.pairs and (j, i) in rel.pairs)
            seen.update(cls)
            classes.append(cls)
    return tuple(classes)


def plain_condensation_edges(rel, classes):
    reps = [c[0] for c in classes]
    p = len(classes)
    return frozenset((a, b) for a in range(p) for b in range(p) if a != b and (reps[a], reps[b]) in rel.pairs)


def small_quasiorders():
    for n in range(1, 5):
        yield from enumerate_quasiorders(n)


def every_relation(n):
    """Each of the 2^(n*n) pair sets on {1..n}."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for mask in range(1 << len(cells)):
        yield Relation(n, frozenset(cell for k, cell in enumerate(cells) if mask >> k & 1))


def non_quasiorders(count=50):
    """Seeded random relations that fail reflexivity, transitivity or both;
    the denser ones on larger ground sets exceed the reporting cap."""
    rng = random.Random(20261018)
    found = []
    while len(found) < count:
        n = rng.randint(2, 14)
        density = rng.choice((0.2, 0.5, 0.8))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < density]
        if rng.random() < 0.5:
            pairs += [(i, i) for i in range(1, n + 1)]
        rel = Relation.from_pairs(n, pairs)
        if not plain_validate(rel).ok:
            found.append(rel)
    return found


def check_index_and_report(rel):
    for i in range(-1, rel.n + 2):  # -1 would index the rows from the end
        assert rel.successors(i) == plain_successors(rel, i)
    assert rel.in_rows == tuple(sum(1 << t for t, j in rel.pairs if j == i) for i in range(rel.n + 1))
    assert validate(rel) == plain_validate(rel)


def test_structure_matches_the_definitions_on_small_quasiorders():
    count = 0
    for rel in small_quasiorders():
        check_index_and_report(rel)
        part = equivalence_classes(rel)
        assert part.classes == plain_classes(rel)
        dag = condensation(rel, part)
        edges = plain_condensation_edges(rel, part.classes)
        assert dag.edges == edges
        assert dag.successors == tuple(
            tuple(sorted(b for a2, b in edges if a2 == a)) for a in range(part.p)
        )
        touched = {a for e in edges for a in e}
        assert dag.isolated == frozenset(k for k in range(part.p) if k not in touched)
        count += 1
    assert count == 389


def test_structure_matches_the_definitions_on_non_quasiorders():
    capped = 0
    for rel in non_quasiorders():
        check_index_and_report(rel)
        report = validate(rel)
        capped += report.truncated
        with pytest.raises(InvalidRelation) as exc:
            equivalence_classes(rel)
        assert str(exc.value) == f"not a quasi-order: {report.violations[0]}"
    assert capped > 0  # the cap is exercised too


def test_index_and_report_match_the_definitions_on_every_relation_up_to_three():
    count = 0
    for n in (1, 2, 3):
        for rel in every_relation(n):
            check_index_and_report(rel)
            count += 1
    assert count == 2 + 2**4 + 2**9


def test_index_and_report_match_the_definitions_up_to_forty_elements():
    """Seeded relations of every density, and stars whose chains break around
    the reporting cap: (1, 2) and (2, k) for 3 <= k <= m, each k one violation."""
    rng = random.Random(20261020)
    relations = []
    for n in range(1, 41, 3):  # 1, 4, ..., 40
        for density in (0.05, 0.3, 0.7, 0.95):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < density]
            relations.append(Relation.from_pairs(n, pairs + [(i, i) for i in range(1, n + 1)]))
            relations.append(Relation.from_pairs(n, pairs))
    for m in (CAP + 1, CAP + 2, CAP + 3):
        star = [(1, 2)] + [(2, k) for k in range(3, m + 1)] + [(i, i) for i in range(1, m + 1)]
        relations.append(Relation.from_pairs(m, star))
    reports = []
    for rel in relations:
        check_index_and_report(rel)
        reports.append(validate(rel))
    assert sum(report.ok for report in reports) > 0
    assert sum(report.truncated for report in reports) > 3
    assert [(len(r.violations), r.truncated) for r in reports[-3:]] == [(CAP - 1, False), (CAP, False), (CAP, True)]


def test_closure_matches_warshall_on_every_relation_up_to_four():
    for n in (1, 2, 3, 4):
        for rel in every_relation(n):
            assert transitive_reflexive_closure(rel) == plain_closure(rel)


def test_condensation_needs_the_relations_own_partition(vee3, crown6):
    with pytest.raises(ValueError):
        condensation(vee3, equivalence_classes(crown6))


def test_identity_on_ten_thousand_elements():
    """Each element is its own class and nothing moves.  Every step reads
    each bit row once, and the rows take about n²/16 bytes."""
    n = 10_000
    rel = Relation.identity(n)
    assert validate(rel) == ValidationReport(True, ())
    assert equivalence_classes(rel).classes == tuple((i,) for i in range(1, n + 1))
    assert build_block_form(rel).pi.is_identity()


def test_rows_are_refused_over_their_bound_but_a_missing_diagonal_is_reported():
    big = Relation.identity(relation_module.MAX_ROWS_N + 1)
    for rows in ("out_rows", "in_rows"):
        with pytest.raises(BoundExceeded, match="bit rows"):
            getattr(big, rows)
    with pytest.raises(BoundExceeded):
        validate(big)
    bare = Relation(10**8, frozenset())
    report = validate(bare)
    assert report.truncated and report.violations[-1] == Violation("reflexivity", ((100, 100),), (100, 100))
    assert "out_rows" not in vars(bare)


# ---------------------------------------------------------------------------
# computed once per relation

COMPUTATIONS = ("_build_rows", "_validate", "_classes", "_condensation", "_forest")


def _fresh_crown6_map():
    text = (ROOT / "golden" / "crown6.json").read_text()
    generated = random_factored_automorphism(Relation.parse(text), gf(101), 11)
    rel = Relation.parse(text)  # fresh, as the CLI reads it; not in block form
    return rel, spec_from_json(generated.as_basis_images().to_json(), rel)


def _count_computations(monkeypatch):
    """The relations each structure is computed on, from here on."""
    seen = {name: [] for name in COMPUTATIONS}
    for name in COMPUTATIONS:
        def counting(r, _name=name, _compute=getattr(relation_module, name)):
            seen[_name].append(r)
            return _compute(r)
        monkeypatch.setattr(relation_module, name, counting)
    return seen


def _assert_once_per_relation(seen):
    # equal relations count as one: the relabelled relation is built once
    for name, relations in seen.items():
        assert len(relations) == len(set(relations)), f"{name} ran twice on equal relations"


def test_verify_then_factor_computes_each_structure_once_per_relation(monkeypatch):
    rel, phi = _fresh_crown6_map()
    seen = _count_computations(monkeypatch)

    assert verify_automorphism(phi).ok
    target = conjugate_by_block_form(phi, build_block_form(rel))
    factored = factor_automorphism(target)
    assert factored.images() == target.images()

    _assert_once_per_relation(seen)
    assert any(r is rel for r in seen["_validate"])
    assert seen["_forest"]
    assert build_block_form(rel) is build_block_form(rel)
    overridden = build_block_form(rel, class_order_override=(0, 3, 1, 2))  # the default order
    assert overridden == build_block_form(rel) and overridden is not build_block_form(rel)


def test_verify_then_carried_factors_compute_each_structure_once_per_relation(monkeypatch):
    """`sma factor`'s path: the input map's own certificate, then its factors
    carried over the block form's relabelling."""
    rel, phi = _fresh_crown6_map()
    seen = _count_computations(monkeypatch)

    assert verify_automorphism(phi).ok
    bf = build_block_form(rel)
    carried = carry_factors(factor_automorphism(phi), bf.pi, bf.permuted)
    assert carried.relation is bf.permuted

    _assert_once_per_relation(seen)
    assert any(r is rel for r in seen["_validate"])
    assert any(r is rel for r in seen["_forest"]) and any(r is bf.permuted for r in seen["_forest"])


def test_sorted_pairs_are_sorted_once(crown6):
    assert crown6.sorted_pairs() is crown6.sorted_pairs()
    assert crown6.off_diagonal_pairs() is crown6.off_diagonal_pairs()
    assert crown6.sorted_pairs() == tuple(sorted(crown6.pairs))
    assert crown6.off_diagonal_pairs() == tuple((i, j) for i, j in sorted(crown6.pairs) if i != j)


# ---------------------------------------------------------------------------
# the benchmark's import surface

def test_benchmark_imports_resolve():
    names = set()
    for path in sorted((ROOT / "benchmark").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "sma":
                names.update(alias.name for alias in node.names)
    assert names
    assert sorted(name for name in names if not hasattr(sma, name)) == []


def test_random_maps_look_up_the_oracle_module_names_at_call_time(monkeypatch, vee3):
    """The traced benchmark run rebinds these two names on sma.oracle; a draw
    reads tau off the stabilizer chain, so only cocycle_rank is called."""
    called = set()
    for name in ("cocycle_rank", "enumerate_relation_automorphisms"):
        def spy(*args, _name=name, _original=getattr(oracle, name), **kwargs):
            called.add(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(oracle, name, spy)
    random_factored_automorphism(vee3, RATIONALS, 0)
    assert called == {"cocycle_rank"}
