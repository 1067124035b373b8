"""verify_automorphism against the full product scan, and factor on broken maps.

verify_automorphism certifies a map by factoring and recomposing it, and
multiplies basis images only to name a failure; brute_verify always runs the
whole scan.  Their reports must agree field for field, on automorphisms and
on broken maps alike.
"""

import functools
import gc
import json
import random
import time
import weakref

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import CROWN6_BLOCK_PAIRS, CROWN6_PAIRS, SYM6_BLOCK_PAIRS, SYM6_PAIRS, VEE3_BLOCK_PAIRS, VEE3_PAIRS

import sma.algebra as algebra
import sma.automorphism as automorphism
import sma.factor as factor
import sma.transitive as transitive
from sma import (
    RATIONALS,
    BasisImageAutomorphism,
    FactoredAutomorphism,
    NotAutomorphism,
    Permutation,
    Relation,
    Singular,
    StructMatrix,
    TransitiveFn,
    VerifyReport,
    brute_verify,
    build_block_form,
    compose,
    conjugate_by_block_form,
    enumerate_quasiorders,
    enumerate_relation_automorphisms,
    factor_automorphism,
    gf,
    identity_automorphism,
    inner_automorphism,
    is_block_form,
    permutation_similarity,
    verify_automorphism,
)
from sma.algebra import matrix_rank, sparse_mul
from sma.oracle import random_factored_automorphism, random_invertible
from sma.relation import transitive_reflexive_closure

GF5 = gf(5)
FIELDS = (RATIONALS, GF5)
SYM6 = Relation.from_pairs(6, SYM6_PAIRS)
SYM6_BLOCK = Relation.from_pairs(6, SYM6_BLOCK_PAIRS)
VEE3_BLOCK = Relation.from_pairs(3, VEE3_BLOCK_PAIRS)
CROWN6_BLOCK = Relation.from_pairs(6, CROWN6_BLOCK_PAIRS)
CROWN6 = Relation.from_pairs(6, CROWN6_PAIRS)
VEE3 = Relation.from_pairs(3, VEE3_PAIRS)


def total_order(n):
    return Relation.from_pairs(n, [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)])


TOTAL4 = total_order(4)

DEFECTS = ("perturb", "swap", "off_pattern", "non_unital", "scaled_chain")


def _nonzero_other_than_one(field, rng):
    while True:
        c = field.random_nonzero(rng)
        if c != 1:
            return c


def _set_entry(grid, r, s, value):
    rows = [list(row) for row in grid]
    rows[r][s] = value
    return tuple(map(tuple, rows))


def _scale(field, c, grid):
    return tuple(tuple(field.reduce(c * v) for v in row) for row in grid)


def _chains(rel):
    """Pairs (i,k) with i -> j -> k for some j, all three distinct."""
    pairs = rel.sorted_pairs()
    return [(i, k) for (i, j) in pairs for (j2, k) in pairs if j2 == j and len({i, j, k}) == 3]


def applicable_defects(rel):
    full = len(rel.pairs) == rel.n * rel.n
    return [
        d for d in DEFECTS
        if not (d == "off_pattern" and full) and not (d == "scaled_chain" and not _chains(rel))
    ]


def break_map(defect, phi, rng):
    """A copy of phi's basis images with one seeded defect."""
    rel, field = phi.relation, phi.field
    images = phi.images()
    pairs = rel.sorted_pairs()
    if defect == "perturb":
        p = rng.choice(pairs)
        r, s = rng.choice(pairs)
        old = images[p][r - 1][s - 1]
        images[p] = _set_entry(images[p], r - 1, s - 1, field.reduce(old + field.random_nonzero(rng)))
    elif defect == "swap":
        p, q = rng.sample(pairs, 2)
        images[p], images[q] = images[q], images[p]
    elif defect == "off_pattern":
        p = rng.choice(pairs)
        outside = [(r, s) for r in range(1, rel.n + 1) for s in range(1, rel.n + 1) if (r, s) not in rel.pairs]
        r, s = rng.choice(outside)
        images[p] = _set_entry(images[p], r - 1, s - 1, field.one())
    elif defect == "non_unital":
        i = rng.randrange(1, rel.n + 1)
        images[(i, i)] = _scale(field, _nonzero_other_than_one(field, rng), images[(i, i)])
    elif defect == "scaled_chain":
        p = rng.choice(_chains(rel))
        images[p] = _scale(field, _nonzero_other_than_one(field, rng), images[p])
    return BasisImageAutomorphism.from_map(rel, field, images)


def random_quasiorder(n, rng):
    """Two classes of size 2 and singletons, random forward edges closed
    transitively, labels shuffled until the layout is not block form."""
    while True:
        label = rng.sample(range(1, n + 1), n)
        pairs = [(label[0], label[1]), (label[1], label[0]), (label[2], label[3]), (label[3], label[2])]
        pairs += [(label[a], label[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.25]
        rel = transitive_reflexive_closure(Relation.from_pairs(n, pairs))
        if not is_block_form(rel):
            return rel


def _units(rel, field):
    """The zero grid and each pair's matrix unit."""
    zero = ((field.zero(),) * rel.n,) * rel.n
    return zero, {(i, j): _set_entry(zero, i - 1, j - 1, field.one()) for (i, j) in rel.sorted_pairs()}


def rank_one_branch_maps(phi, rng):
    """Maps that reach each branch of the rank-one failure scan, made from an
    automorphism phi.  Every image is rank one or zero, except in "rank_two",
    where one perturbed entry makes an image rank two."""
    rel, field = phi.relation, phi.field
    images = phi.images()
    pairs = rel.sorted_pairs()
    zero, units = _units(rel, field)
    maps = {
        # algebra endomorphisms over a partial order: the whole product table holds
        "diagonal_projection": {p: units[p] if p[0] == p[1] else zero for p in pairs},
        "zero": {p: zero for p in pairs},
        "scaled_diagonal": break_map("non_unital", phi, rng).images(),
    }
    if len(pairs) > 1:
        maps["swap"] = break_map("swap", phi, rng).images()
    if _chains(rel):  # image(i,j) * image(j,k) is rank one, image(i,k) is zero
        maps["zero_expected"] = {**images, rng.choice(_chains(rel)): zero}
    candidates = [(p, r, s) for p in pairs for (r, s) in pairs]
    rng.shuffle(candidates)
    for p, r, s in candidates:
        old = images[p][r - 1][s - 1]
        perturbed = _set_entry(images[p], r - 1, s - 1, field.reduce(old + field.random_nonzero(rng)))
        if matrix_rank(field, perturbed) == 2:
            maps["rank_two"] = {**images, p: perturbed}
            break
    return {name: BasisImageAutomorphism.from_map(rel, field, m) for name, m in maps.items()}


def _forbidden(*args):
    raise AssertionError("verify or factor called a function its certificate path must not call")


def failing_row(report, rel):
    """Index of the left operand in a multiplicativity failure's detail."""
    left = report.detail.split(" * ")[0]
    i, j = (int(v) for v in left[len("image("):-1].split(","))
    return rel.sorted_pairs().index((i, j))


class TestAgreesWithFullScan:
    @pytest.mark.parametrize("seed", [0, 8])
    def test_quasiorder_sweep(self, seed):
        # Two independent sweeps of random maps; seed 0 is the original one.
        rng = random.Random(355 + seed)
        outcomes = set()
        for rel in enumerate_quasiorders(4):
            field = FIELDS[rng.randrange(2)]
            taus = enumerate_relation_automorphisms(rel)
            phi = compose(
                inner_automorphism(random_invertible(rel, field, rng)),
                permutation_similarity(rel, taus[rng.randrange(len(taus))], field),
            )
            assert verify_automorphism(phi) == brute_verify(phi)
            broken = break_map(rng.choice(applicable_defects(rel)), phi, rng)
            report = verify_automorphism(broken)
            assert report == brute_verify(broken)
            outcomes.add(report.check)
        assert {None, "pattern", "multiplicativity"} <= outcomes

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    @pytest.mark.parametrize("defect", DEFECTS)
    def test_broken_goldens(self, field, defect):
        for rel in (SYM6_BLOCK, CROWN6_BLOCK, SYM6):
            for seed in range(3):
                phi = random_factored_automorphism(rel, field, seed)
                assert verify_automorphism(phi) == brute_verify(phi)
                broken = break_map(defect, phi, random.Random(seed))
                report = verify_automorphism(broken)
                assert report == brute_verify(broken), (rel.n, seed)
                assert not report.ok
                assert (report.check == "pattern") == (defect == "off_pattern")

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_failure_in_a_late_row(self, field):
        # SYM6_BLOCK's first 9 pairs span the class {1,2,3}, and every
        # automorphism keeps each class's units inside its own diagonal block,
        # so a defect on the class {4,5} breaks only products of later rows:
        # the certificate fails and the scan runs past the first 9 rows.
        first_rows = SYM6_BLOCK.sorted_pairs()[:9]
        assert all(max(p) <= 3 for p in first_rows)
        for seed in range(4):
            images = random_factored_automorphism(SYM6_BLOCK, field, seed).images()
            images[(5, 4)] = _scale(field, 2, images[(5, 4)])
            broken = BasisImageAutomorphism.from_map(SYM6_BLOCK, field, images)
            report = verify_automorphism(broken)
            assert report == brute_verify(broken)
            assert report.check == "multiplicativity"
            assert failing_row(report, SYM6_BLOCK) >= len(first_rows)

    def test_factors_that_do_not_recompose_certify_nothing(self, monkeypatch):
        # Soundness rests on the recomposition check, not on the factor steps:
        # wrong factors send verify back to the scan.
        monkeypatch.setattr(factor, "_factor_steps", lambda rel, fld, images: identity_automorphism(rel, fld))
        phi = random_factored_automorphism(SYM6_BLOCK, GF5, 0)
        images = phi.images()
        images[(5, 4)] = _scale(GF5, 2, images[(5, 4)])
        broken = BasisImageAutomorphism.from_map(SYM6_BLOCK, GF5, images)
        for psi in (phi, broken):
            assert verify_automorphism(psi) == brute_verify(psi)
        assert not verify_automorphism(broken).ok

    def test_factor_refuses_factors_the_certificate_rejects(self, monkeypatch):
        # Factors that do not recompose fail the certificate, and factor
        # refuses the map rather than return them.  phi's certificate is
        # cached, so the patched steps run on a fresh map with the same seed.
        phi = random_factored_automorphism(VEE3_BLOCK, GF5, 0)
        assert factor_automorphism(phi).images() == phi.images()
        wrong = identity_automorphism(VEE3_BLOCK, GF5)
        assert wrong.images() != phi.images()
        monkeypatch.setattr(factor, "_factor_steps", lambda rel, fld, images: wrong)
        with pytest.raises(NotAutomorphism, match="recompose"):
            factor_automorphism(random_factored_automorphism(VEE3_BLOCK, GF5, 0))

    def test_unit_and_bijectivity_reached_after_the_certificate(self):
        # Both maps are multiplicative, so only the checks after the scan fail.
        zero, units = _units(TOTAL4, GF5)
        diagonal_only = {p: units[p] if p[0] == p[1] else zero for p in units}
        without_4 = {p: zero if 4 in p else units[p] for p in units}
        for images, check in ((diagonal_only, "bijectivity"), (without_4, "unit")):
            phi = BasisImageAutomorphism.from_map(TOTAL4, GF5, images)
            assert verify_automorphism(phi) == brute_verify(phi)
            assert verify_automorphism(phi).check == check


class TestRankOneScan:
    """The failure scan multiplies rank-one images through their (u, v)
    splits; every report still equals the full scan's."""

    def _check(self, rel, field, seed, monkeypatch):
        """Every branch map of one random automorphism against brute_verify;
        the names of the maps that made a dense product, and the checks
        reported."""
        calls = []
        monkeypatch.setattr(factor, "sparse_mul", lambda *a: calls.append(1) or sparse_mul(*a))
        rng = random.Random(seed)
        phi = random_factored_automorphism(rel, field, seed)
        dense, checks = set(), set()
        for name, psi in rank_one_branch_maps(phi, rng).items():
            calls.clear()
            report = verify_automorphism(psi)
            assert report == brute_verify(psi), (name, rel.sorted_pairs(), field.name, seed)
            if calls:
                dense.add(name)
            checks.add((name, report.check))
        return dense, checks

    def test_branch_maps_on_the_sweep(self, monkeypatch):
        dense, checks = set(), set()
        for k, rel in enumerate(enumerate_quasiorders(4)):
            for field in FIELDS:
                d, c = self._check(rel, field, k, monkeypatch)
                dense |= d
                checks |= c
        assert dense == {"rank_two"}  # only an image of rank above one takes sparse_mul
        assert {("diagonal_projection", "bijectivity"), ("zero", "unit"), ("swap", "multiplicativity"),
                ("zero_expected", "multiplicativity"), ("scaled_diagonal", "multiplicativity"),
                ("rank_two", "multiplicativity")} <= checks

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_branch_maps_on_the_goldens(self, monkeypatch, field):
        for rel in (SYM6_BLOCK, CROWN6_BLOCK, SYM6, CROWN6, VEE3_BLOCK, VEE3):
            for seed in range(3):
                dense, checks = self._check(rel, field, seed, monkeypatch)
                assert dense <= {"rank_two"}
                # E_ij E_ji = E_ii breaks the projection inside a class of size two or more
                partial_order = all((j, i) not in rel.pairs for (i, j) in rel.pairs if i != j)
                assert ("diagonal_projection", "bijectivity" if partial_order else "multiplicativity") in checks
                assert ("zero", "unit") in checks

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_rank_one_product_against_a_rank_two_image(self, field):
        # image(1,2) * image(2,3) = E13 is rank one and image(1,3) = E11 + E22
        # is not, and every product before it holds: image(1,1) = E11 + E22
        # takes sparse_mul, E13 * E13 has v.u' = 0, E13 * E33 = image(1,2).
        rel = total_order(3)
        zero, units = _units(rel, field)
        p = _set_entry(units[(1, 1)], 1, 1, field.one())
        images = {(1, 1): p, (1, 2): units[(1, 3)], (1, 3): p, (2, 2): units[(3, 3)],
                  (2, 3): units[(3, 3)], (3, 3): units[(3, 3)]}
        phi = BasisImageAutomorphism.from_map(rel, field, images)
        report = verify_automorphism(phi)
        assert report == brute_verify(phi)
        assert report.detail == "image(1,2) * image(2,3) != image(1,3)"

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_vanishing_rank_one_product_against_a_zero_image(self, field):
        # image(1,2) * image(2,3) = E12 E33 = 0 = image(1,3) holds, with
        # v.u' = 0 and both operands nonzero; the first product that fails
        # comes a row later.
        rel = total_order(3)
        zero, units = _units(rel, field)
        images = {**units, (1, 3): zero, (2, 3): units[(3, 3)]}
        phi = BasisImageAutomorphism.from_map(rel, field, images)
        report = verify_automorphism(phi)
        assert report == brute_verify(phi)
        assert report.detail == "image(2,2) * image(2,3) != image(2,3)"


class TestScanBounds:
    """Rejecting a map costs O(n) per rank-one product."""

    def test_diagonal_projection_of_a_20_element_total_order(self):
        # an algebra endomorphism: the whole table of 210^2 products holds
        rel = total_order(20)
        zero, units = _units(rel, RATIONALS)
        phi = BasisImageAutomorphism.from_map(
            rel, RATIONALS, {p: units[p] if p[0] == p[1] else zero for p in rel.sorted_pairs()}
        )
        start = time.process_time()
        report = verify_automorphism(phi)
        assert time.process_time() - start < 2.0
        assert report.check == "bijectivity"

    def test_an_early_failure_splits_only_its_operands(self, monkeypatch):
        # splits are built on first use, so a map broken at image(1,1) splits one image
        rel, field = total_order(30), gf(101)
        a = random_invertible(rel, field, random.Random(1))
        images = inner_automorphism(a).images()
        images[(1, 1)] = _scale(field, 2, images[(1, 1)])
        phi = BasisImageAutomorphism.from_map(rel, field, images)
        calls = []
        real = factor._rank_one
        monkeypatch.setattr(factor, "_rank_one", lambda *args: calls.append(1) or real(*args))
        report = verify_automorphism(phi)
        assert report.detail == "image(1,1) * image(1,1) != image(1,1)"
        assert len(calls) == 1


class TestCertificateFirst:
    """A map is accepted only through the certificate, on its own layout."""

    def test_accepted_maps_take_no_product(self, monkeypatch):
        monkeypatch.setattr(factor, "sparse_mul", _forbidden)
        rng = random.Random(4)
        for rel in enumerate_quasiorders(4):
            field = FIELDS[rng.randrange(2)]
            taus = enumerate_relation_automorphisms(rel)
            phi = compose(
                inner_automorphism(random_invertible(rel, field, rng)),
                permutation_similarity(rel, taus[rng.randrange(len(taus))], field),
            )
            assert verify_automorphism(phi).ok
        for rel in (SYM6, SYM6_BLOCK, VEE3, VEE3_BLOCK, CROWN6, CROWN6_BLOCK):
            for field in FIELDS:
                for seed in range(3):
                    phi = random_factored_automorphism(rel, field, seed).as_basis_images()
                    assert verify_automorphism(phi).ok

    def test_verify_does_not_relabel(self, monkeypatch):
        monkeypatch.setattr(factor, "conjugate_by_block_form", _forbidden)
        rng = random.Random(8)
        for rel in (SYM6, CROWN6, random_quasiorder(8, rng)):
            assert not is_block_form(rel)
            for seed in range(3):
                phi = random_factored_automorphism(rel, gf(101), seed).as_basis_images()
                assert verify_automorphism(phi).ok
                broken = break_map("perturb", phi, random.Random(seed))
                assert verify_automorphism(broken) == brute_verify(broken)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    @pytest.mark.parametrize("defect", DEFECTS)
    def test_factor_refuses_broken_goldens_without_a_product(self, monkeypatch, field, defect):
        monkeypatch.setattr(factor, "sparse_mul", _forbidden)
        for rel in (SYM6_BLOCK, CROWN6_BLOCK, SYM6):
            for seed in range(3):
                phi = random_factored_automorphism(rel, field, seed)
                broken = break_map(defect, phi, random.Random(seed))
                with pytest.raises(NotAutomorphism):
                    factor_automorphism(broken)
                if not is_block_form(rel):
                    with pytest.raises(NotAutomorphism):
                        factor_automorphism(conjugate_by_block_form(broken, build_block_form(rel)))


class TestOneCertificatePerMap:
    """A map caches its certificate: verify and factor on one map object run
    the factor steps once between them."""

    def _broken(self, seed):
        phi = random_factored_automorphism(SYM6_BLOCK, GF5, seed)
        return break_map("perturb", phi, random.Random(seed))

    def test_verify_then_factor_runs_the_steps_once(self, monkeypatch):
        calls = []
        real = factor._factor_steps
        monkeypatch.setattr(factor, "_factor_steps", lambda *a: calls.append(1) or real(*a))
        accepted = random_factored_automorphism(SYM6_BLOCK, GF5, 0).as_basis_images()
        assert verify_automorphism(accepted).ok
        factor_automorphism(accepted)
        assert len(calls) == 1
        rejected = self._broken(0)
        assert not verify_automorphism(rejected).ok
        with pytest.raises(NotAutomorphism):
            factor_automorphism(rejected)
        assert len(calls) == 2

    def test_assume_verified_changes_nothing(self):
        # Two map objects per case, so each call computes its own certificate.
        rng = random.Random(93)
        compared = raised = 0
        for k, rel in enumerate(r for n in range(2, 5) for r in enumerate_quasiorders(n)):
            block = build_block_form(rel).permuted
            field = FIELDS[k % 2]
            defect = rng.choice(applicable_defects(block))
            for broken in (False, True):
                outcomes = []
                for flag in (False, True):
                    phi = random_factored_automorphism(block, field, k)
                    if broken:
                        phi = break_map(defect, phi, random.Random(k))
                    try:
                        outcomes.append(json.dumps(factor_automorphism(phi, assume_verified=flag).to_json()))
                    except NotAutomorphism as exc:
                        outcomes.append(("NotAutomorphism", str(exc)))
                assert outcomes[0] == outcomes[1], (rel.sorted_pairs(), field.name, broken)
                compared += 1
                raised += isinstance(outcomes[0], tuple)
        assert compared > 700 and raised > 300

    def test_a_certified_map_takes_no_pattern_check(self, monkeypatch):
        monkeypatch.setattr(factor, "is_member", _forbidden)
        for rel in (SYM6, SYM6_BLOCK, VEE3, CROWN6_BLOCK):
            for field in FIELDS:
                assert verify_automorphism(random_factored_automorphism(rel, field, 1).as_basis_images()).ok

    def test_a_rejected_map_is_freed_without_the_cycle_collector(self):
        # The cache holds the failing step's message, not an exception whose
        # traceback would reach back to the map.
        phi = self._broken(1)
        gc.disable()
        try:
            assert not verify_automorphism(phi).ok
            with pytest.raises(NotAutomorphism):
                factor_automorphism(phi)
            assert isinstance(phi.certificate, str)
            ref = weakref.ref(phi)
            del phi
            assert ref() is None
        finally:
            gc.enable()


class TestEachFactCheckedOnce:
    """The factor steps only read the factors, FactoredAutomorphism's
    constructor checks them, and _certify's compare checks the recomposition."""

    def _count(self, monkeypatch, name):
        """Calls of `name` through every sma module that binds it."""
        calls = []
        for module in (algebra, automorphism, factor, transitive):
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(1) or real(*a))
        return calls

    def test_a_valid_map_inverts_and_checks_transitivity_once(self, monkeypatch):
        for rel, field in ((CROWN6_BLOCK, GF5), (SYM6, RATIONALS), (total_order(8), gf(101))):
            phi = random_factored_automorphism(rel, field, 3).as_basis_images()
            inversions = self._count(monkeypatch, "invert_grid")
            transitivity = self._count(monkeypatch, "check_transitive")
            assert verify_automorphism(phi).ok
            assert (len(inversions), len(transitivity)) == (1, 1)
            monkeypatch.undo()

    def test_a_map_broken_at_its_first_unit_builds_one_recomposed_image(self, monkeypatch):
        # image(1,1) alone scaled by 2 leaves h transitive (every h(1,j) is
        # halved), so only the compare refuses it, at the first unit
        rel, field = total_order(30), gf(101)
        images = inner_automorphism(random_invertible(rel, field, random.Random(1))).images()
        images[(1, 1)] = _scale(field, 2, images[(1, 1)])
        phi = BasisImageAutomorphism.from_map(rel, field, images)
        built = []
        real = FactoredAutomorphism.iter_images

        def counting(self):
            for pair, image in real(self):
                built.append(pair)
                yield pair, image

        monkeypatch.setattr(FactoredAutomorphism, "iter_images", counting)
        assert not verify_automorphism(phi).ok
        assert built == [(1, 1)]
        with pytest.raises(NotAutomorphism, match=r"unit \(1, 1\)"):
            factor_automorphism(phi)


class TestFactorOnBrokenMaps:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rel=st.sampled_from([VEE3_BLOCK, TOTAL4, SYM6_BLOCK, CROWN6_BLOCK]),
        field=st.sampled_from(FIELDS),
        seed=st.integers(0, 10**6),
        edits=st.lists(
            st.tuples(st.integers(0, 99), st.integers(0, 5), st.integers(0, 5), st.integers(-3, 3)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_raises_only_sma_errors(self, rel, field, seed, edits):
        """Arbitrary entries, in or out of the pattern, written into the images
        of a random automorphism."""
        images = random_factored_automorphism(rel, field, seed).images()
        pairs = rel.sorted_pairs()
        for k, r, s, v in edits:
            p = pairs[k % len(pairs)]
            images[p] = _set_entry(images[p], r % rel.n, s % rel.n, field.element(v))
        phi = BasisImageAutomorphism.from_map(rel, field, images)
        assume(not brute_verify(phi).ok)
        with pytest.raises(NotAutomorphism):
            factor_automorphism(phi)


class TestConjugatorInverse:
    def test_singular_conjugator_rejected_at_construction(self):
        A = StructMatrix.from_values(RATIONALS, VEE3_BLOCK, {(1, 1): 1, (1, 3): 2, (3, 3): 1})
        with pytest.raises(Singular):
            FactoredAutomorphism(A, TransitiveFn.ones(VEE3_BLOCK, RATIONALS), Permutation.identity_perm(3))

    def test_compose_inverts_no_conjugator(self, monkeypatch):
        outer = random_factored_automorphism(CROWN6_BLOCK, GF5, 1)
        inner = random_factored_automorphism(CROWN6_BLOCK, GF5, 2)
        calls = []
        real = automorphism.invert_grid
        monkeypatch.setattr(automorphism, "invert_grid", lambda *a: calls.append(1) or real(*a))
        compose(outer, inner)
        assert calls == []


@functools.cache
def quasiorders_up_to_4():
    return [rel for n in range(1, 5) for rel in enumerate_quasiorders(n)]


class TestTheoremReads:
    """Verify and factor step 1 read what the factorization theorem
    guarantees: after the product scan, bijectivity is that no image is zero,
    and a diagonal unit image's class is the class of its first nonzero
    diagonal entry."""

    def test_zeroed_image_sweep(self):
        # A random automorphism over every quasi-order with n <= 4, with a random
        # subset of its images zeroed, or with E11's image made E11's plus E22's
        # and E22's zeroed, which keeps the identity.
        rng = random.Random(2025)
        outcomes = set()
        for rel in quasiorders_up_to_4():
            for field in (gf(2), GF5, RATIONALS):
                phi = random_factored_automorphism(rel, field, rng.randrange(10**6))
                images = phi.images()
                zero = ((field.zero(),) * rel.n,) * rel.n
                altered = [{p: zero if rng.random() < 0.3 else img for p, img in images.items()}]
                if rel.n > 1:
                    e11 = algebra.grid_add(field, images[(1, 1)], images[(2, 2)])
                    altered.append({**images, (1, 1): e11, (2, 2): zero})
                for m in altered:
                    psi = BasisImageAutomorphism.from_map(rel, field, m)
                    report = verify_automorphism(psi)
                    assert report == brute_verify(psi), (rel, field.name)
                    outcomes.add(report.check)
        assert {"unit", "bijectivity"} <= outcomes

    @pytest.mark.parametrize("field", (gf(2), RATIONALS), ids=lambda f: f.name)
    def test_a_unital_multiplicative_map_with_a_zero_image(self, field):
        # E11 -> I and E22 -> 0 on the diagonal relation: the scan and the unit
        # check pass, and only bijectivity fails.
        rel = Relation.identity(2)
        zero, _ = _units(rel, field)
        phi = BasisImageAutomorphism.from_map(rel, field, {(1, 1): algebra.identity_grid(field, 2), (2, 2): zero})
        assert verify_automorphism(phi) == brute_verify(phi) == VerifyReport(
            False, "bijectivity", "induced linear map is not bijective"
        )

    def test_step_1_reference(self):
        # Each diagonal unit image of an automorphism meets the diagonal block of
        # exactly one class, and its nonzero diagonal entries all lie in that class.
        rng = random.Random(25)
        for rel in quasiorders_up_to_4():
            part = rel.partition
            for field in FIELDS:
                images = random_factored_automorphism(rel, field, rng.randrange(10**6)).images()
                for c in range(1, rel.n + 1):
                    img = images[(c, c)]
                    support = [
                        m for m, members in enumerate(part.classes)
                        if any(img[r - 1][s - 1] for r in members for s in members)
                    ]
                    assert len(support) == 1
                    diagonal = {part.class_of(r) for r in range(1, rel.n + 1) if img[r - 1][r - 1]}
                    assert diagonal == set(support)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_a_unit_image_with_a_zero_diagonal_is_refused(self, field):
        # E11's image is the nilpotent E12: nonzero, with a zero diagonal
        _, units = _units(TOTAL4, field)
        images = {**random_factored_automorphism(TOTAL4, field, 0).images(), (1, 1): units[(1, 2)]}
        phi = BasisImageAutomorphism.from_map(TOTAL4, field, images)
        with pytest.raises(NotAutomorphism, match=r"image of unit \(1,1\) has a zero diagonal"):
            factor_automorphism(phi)
        assert verify_automorphism(phi) == brute_verify(phi)
