import math
import operator
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sma import (
    Field,
    Mismatch,
    OffPattern,
    ParseError,
    RATIONALS,
    Relation,
    Singular,
    StructMatrix,
    gf,
    identity_matrix,
    is_member,
    matrix_unit,
)
from sma.algebra import Rational, grid_from_json, zero_grid
from sma.oracle import random_factored_automorphism, random_in_pattern, random_invertible


def dense_multiply(a, b):
    """Reference dense product, independent of the sparse kernel."""
    n = a.n
    return [
        [sum(a.rows[i][k] * b.rows[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


class TestField:
    def test_rational_elements_are_canonical(self):
        assert RATIONALS.element("3/6") == Fraction(1, 2)
        assert RATIONALS.element(4) == Fraction(4)

    def test_every_rational_zero_is_one_object(self, crown6):
        # one shared Rational zero, so compares of zeros take the identity shortcut
        zero = RATIONALS.zero()
        assert RATIONALS.element(0) is zero and RATIONALS.element("0/7") is zero
        assert RATIONALS.element(Fraction(0)) is zero
        _, parsed = grid_from_json({"field": "Q", "entries": [[0, "0", "-0"], ["0/3", 1, 0], [0, 0, "2/4"]]}, 3)
        phi = random_factored_automorphism(crown6, RATIONALS, 5)
        grids = [parsed, zero_grid(RATIONALS, 4), identity_matrix(RATIONALS, crown6).rows]
        grids += [img for _, img in phi.iter_images()]
        for grid in grids:
            assert all(x is zero for row in grid for x in row if x == 0)

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            RATIONALS.element(0.5)

    def test_a_value_is_read_by_the_file_grammar(self):
        for field in (RATIONALS, gf(5)):
            for bad in (" 0.5 ", "1_0", "+3", "\u0663", "1.5", "1e3", True, 0.5, None):
                with pytest.raises(ValueError, match="scalar must be"):
                    field.element(bad)
            assert field.element(4) == 4 and type(field.element(4)) is type(field.one())
        assert RATIONALS.element("3/6") == Fraction(1, 2)
        assert gf(5).element(Fraction(6, 3)) == 2 and gf(5).element("-7") == 3

    def test_gf_refuses_a_fraction_that_is_not_an_integer(self, vee3_block):
        with pytest.raises(ValueError, match=r"^not a GF\(5\) value: Fraction\(3, 2\)$"):
            gf(5).element(Fraction(3, 2))
        with pytest.raises(ValueError):
            StructMatrix.from_values(gf(5), vee3_block, {(1, 3): Fraction(1, 2)})

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() reads a string of any length")
    def test_digits_over_the_limit_are_refused(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        for field, text in ((RATIONALS, digits), (RATIONALS, "1/" + digits), (gf(5), digits)):
            with pytest.raises(ValueError, match="not a (rational|GF\\(5\\)) value"):
                field.element(text)

    def test_an_exponent_string_is_refused_at_once(self):
        for field in (RATIONALS, gf(5)):
            start = time.process_time()
            with pytest.raises(ValueError, match="scalar must be"):
                field.element("1e10000000")
            assert time.process_time() - start < 0.1

    def test_pow_reads_its_value_through_element(self):
        x = RATIONALS.pow("2/3", -2)
        assert x == Fraction(9, 4) and type(x) is Rational
        assert gf(5).pow("2", -1) == 3
        for field in (RATIONALS, gf(5)):
            with pytest.raises(ValueError):
                field.pow("1e5", 2)

    def test_gf_reduction_and_inverse(self):
        F = gf(5)
        assert F.element(7) == 2
        assert F.inv(2) == 3
        assert F.pow(2, -1) == 3
        assert F.pow(3, 4) == 1
        for field in (F, RATIONALS):
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                field.inv(field.zero())

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            gf(6)

    def test_primality_matches_trial_division(self):
        for p in range(2000):
            if p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1)):
                assert gf(p).char == p
            else:
                with pytest.raises(ValueError):
                    gf(p)
        assert gf(2**61 - 1).char == 2**61 - 1
        assert gf(2**64 - 59).char == 2**64 - 59  # the largest prime below 2^64
        # strong pseudoprimes: to bases 2, 3, 5, 7 and to the first nine primes
        for composite in (3215031751, 3825123056546413051):
            with pytest.raises(ValueError):
                gf(composite)

    def test_large_characteristic_refused_quickly(self):
        start = time.monotonic()
        with pytest.raises(ParseError):
            Field.from_json({"GF": 10**30 + 57})  # a 31-digit prime
        assert time.monotonic() - start < 1.0
        with pytest.raises(ParseError):
            Field.from_json({"GF": 2**64})
        with pytest.raises(ParseError):
            Field.from_json({"GF": [5]})

    def test_characteristic_must_be_an_integer(self):
        for char in (5.5, 5.0, True):
            with pytest.raises(ParseError):
                Field.from_json({"GF": char})
        assert Field.from_json({"GF": 5}) == gf(5)

    def test_division_by_zero_entry_is_a_parse_error(self):
        with pytest.raises(ParseError):
            RATIONALS.parse_scalar("1/0")

    def test_field_axioms_on_samples(self):
        rng = random.Random(11)
        for field in (RATIONALS, gf(5), gf(11)):
            for _ in range(50):
                a, b, c = (field.random(rng) for _ in range(3))
                assert field.reduce((a + b) + c) == field.reduce(a + (b + c))
                assert field.reduce((a * b) * c) == field.reduce(a * (b * c))
                assert field.reduce(a * (b + c)) == field.reduce(a * b + a * c)
                if a != 0:
                    assert field.reduce(a * field.inv(a)) == field.one()

    def test_json_round_trip(self):
        for field in (RATIONALS, gf(7)):
            assert Field.from_json(field.to_json()) == field

    def test_a_parse_tests_each_characteristic_once(self, monkeypatch):
        # A GF(101) basis-image spec of a 10-element total order has 55 grids.
        import sma.algebra as algebra
        from sma import spec_from_json

        rel = Relation.from_pairs(10, [(i, j) for i in range(1, 11) for j in range(i, 11)])
        unit = {"field": {"GF": 101}, "n": 10, "entries": [[0] * 10 for _ in range(10)]}
        spec = {"images": [[i, j, unit] for i, j in rel.sorted_pairs()]}
        calls = []
        real = algebra._is_prime
        monkeypatch.setattr(algebra, "_is_prime", lambda p: calls.append(p) or real(p))
        gf.cache_clear()
        spec_from_json(spec, rel)
        assert calls == [101]


def _plain(x):
    """x as a plain Fraction, built from its parts, so no Rational arithmetic runs."""
    return Fraction(x.numerator, x.denominator)


# numerators and denominators from small to past 2^64, with 0 and negatives
_parts = st.integers(-9, 9) | st.integers(-(2**80), 2**80)
_denominators = st.integers(1, 9) | st.integers(1, 2**80)
_operands = st.one_of(
    st.builds(lambda n, d: RATIONALS.element(Fraction(n, d)), _parts, _denominators),
    _parts,
    st.builds(Fraction, _parts, _denominators),
)


class TestRational:
    """Rational against plain Fraction, the reference for every field operation
    over Q that the kernels and brute_verify run."""

    def test_fraction_slot_layout(self):
        # the direct path reads and writes these two slots of every Rational
        assert Fraction.__slots__ == ("_numerator", "_denominator"), (
            f"fractions.Fraction now has slots {Fraction.__slots__}; Rational relies on _numerator and _denominator"
        )
        x = RATIONALS.element("-6/4")
        assert (x._numerator, x._denominator) == (x.numerator, x.denominator) == (-3, 2)
        assert Rational.__slots__ == () and not hasattr(x, "__dict__")

    @settings(max_examples=400, deadline=None)
    @given(a=_operands, b=_operands)
    def test_matches_fraction(self, a, b):
        if Rational not in (type(a), type(b)):
            a = RATIONALS.element(a)
        zero = RATIONALS.zero()
        kinds = {type(a), type(b)}
        for x, y in ((a, b), (b, a)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                try:
                    expected = op(_plain(x), _plain(y))
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        op(x, y)
                    continue
                got = op(x, y)
                assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
                # closed among Rationals and ints; a plain Fraction operand gives a plain Fraction
                assert type(got) is (Fraction if Fraction in kinds else Rational)
                if type(got) is Rational and not got:
                    assert got is zero
            for op in (operator.eq, operator.ne, operator.lt):
                assert op(x, y) is op(_plain(x), _plain(y))
        for x in (a, b):
            if type(x) is Rational:
                neg, ref = -x, _plain(x)
                assert type(neg) is Rational and _plain(neg) == -ref
                assert (hash(x), str(x), repr(x), bool(x)) == (hash(ref), str(ref), repr(ref), bool(ref))
                assert x == ref and ref == x and not x != ref

    def test_the_field_returns_rationals(self):
        rng = random.Random(3)
        values = [RATIONALS.zero(), RATIONALS.one(), RATIONALS.element("-2/6"), RATIONALS.element(Fraction(5, 7))]
        values += [RATIONALS.inv(values[2]), RATIONALS.pow(values[2], -3), RATIONALS.random(rng)]
        assert all(type(x) is Rational for x in values)
        assert RATIONALS.zero() is RATIONALS.element(0) and RATIONALS.one() is RATIONALS.one()


class TestStructMatrix:
    def test_off_pattern_entry_rejected(self, vee3):
        with pytest.raises(OffPattern):
            StructMatrix.from_values(RATIONALS, vee3, {(2, 1): 1})

    def test_a_grid_of_the_wrong_shape_is_refused(self, vee3):
        for rows in (((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1), (0, 0, 1))):
            with pytest.raises(ValueError, match="expected a 3x3 grid"):
                StructMatrix(RATIONALS, vee3, rows)

    def test_an_index_outside_1_to_n_is_refused_before_writing(self):
        # (0, 1) and (-1, 2) used to land at (3, 1) and (2, 2); (4, 1) and (1.0, 1) escaped
        # as IndexError and TypeError
        full3 = Relation.full(3)
        for key in ((0, 1), (-1, 2), (4, 1), (1, 4), (1.0, 1), (True, 1), ("1", 1)):
            with pytest.raises(ValueError, match=r"pair \(.*\) out of range 1..3"):
                StructMatrix.from_values(RATIONALS, full3, {key: 1})
        with pytest.raises(ValueError, match="out of range"):
            matrix_unit(full3, RATIONALS, 1.0, 1)

    def test_matrix_unit_on_and_off_pattern(self, crown6_block, vee3_block):
        e = matrix_unit(crown6_block, RATIONALS, 1, 4)
        assert e.entry(1, 4) == 1
        assert sum(v != 0 for row in e.rows for v in row) == 1
        with pytest.raises(OffPattern):
            matrix_unit(vee3_block, RATIONALS, 3, 1)

    def test_unit_products_follow_delta_rule(self, sym6, crown6_block):
        for rel in (sym6, crown6_block):
            pairs = rel.sorted_pairs()
            for (i, j) in pairs:
                for (k, l) in pairs:
                    if j == k and (i, l) not in rel.pairs:
                        continue  # product would leave the pattern only if the chain did
                    prod = matrix_unit(rel, RATIONALS, i, j) * matrix_unit(rel, RATIONALS, k, l)
                    if j == k:
                        assert prod == matrix_unit(rel, RATIONALS, i, l)
                    else:
                        assert prod.rows == zero_grid(RATIONALS, rel.n)

    def test_identity_is_neutral(self, crown6_block):
        rng = random.Random(3)
        ident = identity_matrix(RATIONALS, crown6_block)
        m = random_in_pattern(crown6_block, RATIONALS, rng)
        assert ident * m == m
        assert m * ident == m

    def test_unitriangular_square(self, vee3_block):
        a, b = Fraction(7), Fraction(11)
        A = StructMatrix.from_values(
            RATIONALS, vee3_block, {(1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 3): a, (2, 3): b}
        )
        square = A * A
        expected = StructMatrix.from_values(
            RATIONALS, vee3_block,
            {(1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 3): 2 * a, (2, 3): 2 * b},
        )
        assert square == expected
        assert [list(r) for r in square.rows] == dense_multiply(A, A)

    def test_multiply_matches_dense_oracle(self, sym6, vee3_block, crown6_block):
        rng = random.Random(17)
        for rel in (sym6, vee3_block, crown6_block):
            for field in (RATIONALS, gf(5)):
                for _ in range(10):
                    a = random_in_pattern(rel, field, rng)
                    b = random_in_pattern(rel, field, rng)
                    prod = a * b
                    dense = dense_multiply(a, b)
                    assert all(
                        prod.rows[i][j] == field.reduce(dense[i][j])
                        for i in range(rel.n)
                        for j in range(rel.n)
                    )

    def test_mismatched_operands_rejected(self, vee3, vee3_block):
        a = identity_matrix(RATIONALS, vee3)
        with pytest.raises(Mismatch):
            a * identity_matrix(RATIONALS, vee3_block)
        with pytest.raises(Mismatch):
            a * identity_matrix(gf(5), vee3)


class TestInverse:
    def test_unitriangular_closed_form(self, vee3_block):
        a, b = Fraction(7), Fraction(11)
        A = StructMatrix.from_values(
            RATIONALS, vee3_block, {(1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 3): a, (2, 3): b}
        )
        expected = StructMatrix.from_values(
            RATIONALS, vee3_block, {(1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 3): -a, (2, 3): -b}
        )
        assert A.inverse() == expected

    def test_identity_inverts_to_itself(self, crown6_block):
        ident = identity_matrix(gf(5), crown6_block)
        assert ident.inverse() == ident

    def test_generate_and_check_over_gf5(self):
        rel = Relation.from_pairs(4, [(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)])
        rng = random.Random(23)
        ident = identity_matrix(gf(5), rel)
        for _ in range(25):
            A = random_invertible(rel, gf(5), rng)
            assert A * A.inverse() == ident
            assert A.inverse() * A == ident

    def test_inversion_is_an_involution(self, sym6):
        rng = random.Random(29)
        for field in (RATIONALS, gf(5)):
            for _ in range(10):
                A = random_invertible(sym6, field, rng)
                assert A.inverse().inverse() == A

    def test_an_inverse_off_a_non_transitive_pattern_is_refused(self):
        # 1 -> 2 -> 3 without (1, 3): the inverse of I + E12 + E23 holds E13
        path = Relation.from_pairs(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
        m = StructMatrix.from_values(RATIONALS, path, {(1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 2): 1, (2, 3): 1})
        with pytest.raises(OffPattern, match="inverse left the pattern"):
            m.inverse()

    def test_singular_matrix_raises(self, vee3_block):
        zero = StructMatrix.from_values(RATIONALS, vee3_block, {})
        with pytest.raises(Singular):
            zero.inverse()


class TestMembership:
    def test_zero_matrix_is_member(self, vee3):
        zero = [[0] * 3 for _ in range(3)]
        assert is_member(vee3, tuple(map(tuple, zero)))

    def test_unit_off_pattern_is_not_member(self, vee3):
        grid = [[0] * 3 for _ in range(3)]
        grid[0][2] = 1  # (1,3) is unrelated here
        assert not is_member(vee3, tuple(map(tuple, grid)))

    def test_all_ones_on_pattern_is_member(self, sym6):
        grid = [[1 if (i, j) in sym6.pairs else 0 for j in range(1, 7)] for i in range(1, 7)]
        assert is_member(sym6, tuple(map(tuple, grid)))


class TestMatrixJson:
    def test_round_trip_both_fields(self, vee3_block):
        rng = random.Random(31)
        for field in (RATIONALS, gf(5)):
            m = random_in_pattern(vee3_block, field, rng)
            again = StructMatrix.from_json(m.to_json(), vee3_block)
            assert again == m

    def test_rational_entries_serialized_as_strings(self, vee3_block):
        m = StructMatrix.from_values(RATIONALS, vee3_block, {(1, 3): Fraction(3, 2)})
        obj = m.to_json()
        assert obj["entries"][0][2] == "3/2"
        assert obj["field"] == "Q"

    def test_integer_entries_accepted_for_rationals(self, vee3_block):
        obj = {"field": "Q", "n": 3, "entries": [[1, 0, 2], [0, 1, 0], [0, 0, 1]]}
        m = StructMatrix.from_json(obj, vee3_block)
        assert m.entry(1, 3) == Fraction(2)
