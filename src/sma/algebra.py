"""Exact scalar fields and pattern-constrained matrices.

Scalars are either `Rational` (the rationals) or plain ints kept reduced mod a
prime (GF(p)).  `Rational` is a `fractions.Fraction` whose arithmetic with
another `Rational` or an int takes a direct path: one gcd on the raw numerator
and denominator, and the result built without Fraction's constructor.  Both
kinds support the native + and * operators, so matrix kernels accumulate with
ordinary arithmetic and reduce once per entry; division and inversion go
through the `Field` descriptor, and every value becomes a scalar through
`Field.element`, by the file grammar.  No floating point is used anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import Mismatch, OffPattern, ParseError, Singular
from .relation import INTEGER, Relation, json_int

Scalar = Union[Fraction, int]  # a Rational over Q; a plain Fraction is accepted and gives equal results
Grid = tuple[tuple[Scalar, ...], ...]
SparseRows = tuple[tuple[tuple[int, Scalar], ...], ...]
SparseRow = dict[int, Scalar]  # column -> nonzero value


# Largest characteristic accepted, exclusive.  Miller-Rabin with the first 12
# primes as bases has no strong pseudoprime below 3.18e23 (Sorenson and
# Webster, Math. Comp. 2017), so the test below is exact for every p under it.
MAX_CHAR = 2**64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Rational strings Field.element accepts (INTEGER over GF(p)); Fraction alone would
# also take decimals and exponents, and expand "1e100000000" digit by digit.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

_new = object.__new__


def _make(n: int, d: int) -> Rational:
    """The Rational n/d, from coprime n and d > 0; every zero is the one object _Q_ZERO."""
    if not n:
        return _Q_ZERO
    q = _new(Rational)
    q._numerator, q._denominator = n, d
    return q


# The kernels take raw parts: coprime na, da and nb, db with da, db > 0.  Their
# reductions are Fraction's own, so each result is in lowest terms.
def _add(na: int, da: int, nb: int, db: int) -> Rational:
    g = gcd(da, db)
    if g == 1:
        return _make(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    return _make(t // g2, s * (db // g2))


def _sub(na: int, da: int, nb: int, db: int) -> Rational:
    return _add(na, da, -nb, db)


def _mul(na: int, da: int, nb: int, db: int) -> Rational:
    g1, g2 = gcd(na, db), gcd(nb, da)
    return _make((na // g1) * (nb // g2), (da // g2) * (db // g1))


def _div(na: int, da: int, nb: int, db: int) -> Rational:
    if nb < 0:
        nb, db = -nb, -db
    elif not nb:
        raise ZeroDivisionError(f"Fraction({na * db}, 0)")
    return _mul(na, da, db, nb)


def _operator(kernel, fallback, reflected=False):
    """A Rational operator: `kernel` on the raw parts of (a, b), or of (b, a)
    when reflected, for a Rational or int b; Fraction's `fallback` for any other b."""

    def op(a, b):
        if type(b) is Rational:
            nb, db = b._numerator, b._denominator
        elif type(b) is int:
            nb, db = b, 1
        else:
            return fallback(a, b)
        if reflected:
            return kernel(nb, db, a._numerator, a._denominator)
        return kernel(a._numerator, a._denominator, nb, db)

    return op


class Rational(Fraction):
    """The scalar of Q.  + - * / unary - == != with a Rational or an int take the
    direct path; any other operand goes to Fraction, so a plain Fraction operand
    gives a Fraction of equal value.  Hash, str and repr are Fraction's."""

    __slots__ = ()

    __add__ = _operator(_add, Fraction.__add__)
    __radd__ = _operator(_add, Fraction.__radd__)
    __sub__ = _operator(_sub, Fraction.__sub__)
    __rsub__ = _operator(_sub, Fraction.__rsub__, reflected=True)
    __mul__ = _operator(_mul, Fraction.__mul__)
    __rmul__ = _operator(_mul, Fraction.__rmul__)
    __truediv__ = _operator(_div, Fraction.__truediv__)
    __rtruediv__ = _operator(_div, Fraction.__rtruediv__, reflected=True)

    def __neg__(a):
        return _make(-a._numerator, a._denominator)

    __eq__ = _operator(lambda na, da, nb, db: na == nb and da == db, Fraction.__eq__)
    __ne__ = _operator(lambda na, da, nb, db: na != nb or da != db, Fraction.__ne__)
    __hash__ = Fraction.__hash__

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"


# Every zero over Q is this one object, so compares of zeros take the identity shortcut.
_Q_ZERO, _Q_ONE = Rational(0), Rational(1)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for every p < MAX_CHAR."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """Scalar field descriptor: rationals when char is None, else GF(char)."""

    char: Optional[int] = None

    def __post_init__(self) -> None:
        if self.char is None:
            return
        if self.char >= MAX_CHAR:
            raise ValueError(f"characteristic {self.char} is not below 2^64")
        if not _is_prime(self.char):
            raise ValueError(f"{self.char} is not prime")

    @property
    def name(self) -> str:
        return "Q" if self.char is None else f"GF({self.char})"

    @property
    def is_rational(self) -> bool:
        return self.char is None

    def zero(self) -> Scalar:
        return _Q_ZERO if self.char is None else 0

    def one(self) -> Scalar:
        return _Q_ONE if self.char is None else 1

    def element(self, value) -> Scalar:
        """The scalar of an int, a Fraction (integral over GF(p)) or a string of the file
        grammar, INTEGER and over Q also "num/den"; anything else is a ValueError."""
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            num, den = value.numerator, value.denominator
        elif isinstance(value, str) and (INTEGER if self.char else _RATIONAL).fullmatch(value):
            num, _, den = value.partition("/")
            try:
                num, den = int(num), int(den or 1)
            except ValueError:  # over int()'s digit limit
                den = 0
        else:
            what = "an integer" if self.char else 'an integer or "num/den"'
            raise ValueError(f"{self.name} scalar must be {what}, got {value!r}")
        if not den or self.char and den != 1:
            raise ValueError(f"not a {self.name if self.char else 'rational'} value: {value!r}")
        return num % self.char if self.char else _div(num, 1, den, 1)

    def reduce(self, value: Scalar) -> Scalar:
        return value if self.char is None else value % self.char

    def neg(self, value: Scalar) -> Scalar:
        return -value if self.char is None else (-value) % self.char

    def inv(self, value: Scalar) -> Scalar:
        if value == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        if self.char is None:
            return _Q_ONE / value
        return pow(value, -1, self.char)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.reduce(a * self.inv(b))

    def pow(self, value: Scalar, exponent: int) -> Scalar:
        value = self.element(value)
        if exponent < 0:
            value, exponent = self.inv(value), -exponent
        return self.element(value**exponent) if self.char is None else pow(value, exponent, self.char)

    def random(self, rng) -> Scalar:
        if self.char is None:
            return _div(rng.randint(-9, 9), 1, rng.randint(1, 4), 1)
        return rng.randrange(self.char)

    def random_nonzero(self, rng) -> Scalar:
        while True:
            v = self.random(rng)
            if v != 0:
                return v

    def to_json(self):
        return "Q" if self.char is None else {"GF": self.char}

    @classmethod
    def from_json(cls, obj) -> Field:
        if obj == "Q":
            return RATIONALS
        if isinstance(obj, dict) and set(obj) == {"GF"}:
            char = json_int(obj["GF"], "characteristic")
            try:
                return gf(char)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        raise ParseError(f'field must be "Q" or {{"GF": p}}, got {obj!r}')

    def scalar_to_json(self, value: Scalar):
        return str(value) if self.char is None else int(value)

    def parse_scalar(self, obj) -> Scalar:
        """A scalar read from JSON: `element`, its refusal a ParseError."""
        try:
            return self.element(obj)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


RATIONALS = Field(None)


@cache
def gf(p: int) -> Field:
    """GF(p), one instance per characteristic, so p is tested for primality once."""
    return Field(p)


# ---------------------------------------------------------------------------
# raw grid arithmetic (dense, row-major tuples; callers keep entries reduced)

def zero_grid(field: Field, n: int) -> Grid:
    z = field.zero()
    return tuple(tuple(z for _ in range(n)) for _ in range(n))


def identity_grid(field: Field, n: int) -> Grid:
    one, z = field.one(), field.zero()
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


def grid_add(field: Field, a: Grid, b: Grid) -> Grid:
    return tuple(tuple(field.reduce(x + y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sparse_rows(b: Grid) -> SparseRows:
    """Each row's nonzero entries as (column, value) pairs: the right operand of sparse_mul."""
    return tuple(tuple((j, v) for j, v in enumerate(row) if v != 0) for row in b)


def sparse_mul(field: Field, a: Grid, b_rows: SparseRows) -> Grid:
    """Matrix product a * b, with b given by its sparse rows; zero entries of a are skipped.

    Callers that multiply by the same right operand many times build its
    sparse rows once."""
    n = len(a)
    zero = field.zero()
    out = []
    for row in a:
        acc = [zero] * n
        for k, av in enumerate(row):
            if av == 0:
                continue
            for j, bv in b_rows[k]:
                acc[j] = acc[j] + av * bv
        out.append(tuple(field.reduce(x) for x in acc))
    return tuple(out)


def grid_mul(field: Field, a: Grid, b: Grid) -> Grid:
    """Matrix product, skipping zero entries (patterns here are typically sparse)."""
    return sparse_mul(field, a, sparse_rows(b))


class Echelon:
    """Row space of sparse rows, kept in reduced row echelon form.

    A row maps columns to nonzero values.  Each stored row is keyed by its
    pivot, its smallest column, where it holds 1, and no other stored row has
    an entry in a pivot column.  So a new row is reduced by one subtraction per
    pivot column it meets, and the stored rows are the unique reduced row
    echelon form of everything added, in whatever order it came.
    """

    def __init__(self, field: Field) -> None:
        self.field = field
        self.rows: dict[int, SparseRow] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row: Mapping[int, Scalar]) -> bool:
        """Reduce a row (entries reduced, zeros allowed) into the echelon; True iff
        it was independent of the rows already added."""
        fld, rows = self.field, self.rows
        row = {c: v for c, v in row.items() if v != 0}
        # pivot rows are zero in every other pivot column, so each subtraction
        # clears one pivot column of `row` and leaves the others as they were
        for c in [c for c in row if c in rows]:
            _subtract(fld, row, row[c], rows[c])
        if not row:
            return False
        pivot = min(row)
        inv = fld.inv(row[pivot])
        row = {c: fld.reduce(v * inv) for c, v in row.items()}
        for other in rows.values():
            f = other.get(pivot)
            if f is not None:
                _subtract(fld, other, f, row)
        rows[pivot] = row
        return True

    def kernel(self, ncols: int) -> list[SparseRow]:
        """Canonical nullspace basis, sparse: one vector per free column, that
        column set to 1, in ascending order of the free column."""
        fld = self.field
        basis = {f: {f: fld.one()} for f in range(ncols) if f not in self.rows}
        for pivot, row in self.rows.items():
            for c, v in row.items():
                if c != pivot:  # every other column of a reduced row is free
                    basis[c][pivot] = fld.neg(v)
        return list(basis.values())


def _subtract(field: Field, row: SparseRow, factor: Scalar, other: SparseRow) -> None:
    """row -= factor * other, in place, dropping entries that cancel."""
    for c, v in other.items():
        x = field.reduce(row.get(c, 0) - factor * v)
        if x == 0:
            del row[c]
        else:
            row[c] = x


def matrix_rank(field: Field, rows: Iterable[Sequence[Scalar]]) -> int:
    """Rank of dense rows."""
    ech = Echelon(field)
    for r in rows:
        ech.add(dict(enumerate(r)))
    return ech.rank


def invert_grid(field: Field, a: Grid) -> Grid:
    """Exact inverse, read off the reduced echelon form of [a | I]; raise
    Singular when none exists."""
    n = len(a)
    one, zero = field.one(), field.zero()
    ech = Echelon(field)
    for i, row in enumerate(a):
        augmented = dict(enumerate(row))
        augmented[n + i] = one
        ech.add(augmented)  # independent, through its identity part
        if max(ech.rows) >= n:  # its left part reduced to zero
            raise Singular("matrix is singular")
    return tuple(tuple(ech.rows[i].get(n + j, zero) for j in range(n)) for i in range(n))


def _off_pattern_entry(rel: Relation, rows: Grid) -> Optional[tuple[int, int]]:
    """The first (i, j), 1-based in row-major order, holding a nonzero entry
    outside the relation's pairs, or None.  Each entry's truth is tested
    first, so only a nonzero entry costs a pair lookup."""
    pairs = rel.pairs
    for i, row in enumerate(rows, start=1):
        for j, x in enumerate(row, start=1):
            if x and (i, j) not in pairs:
                return i, j
    return None


def is_member(rel: Relation, rows: Grid) -> bool:
    """True iff every entry outside the relation's pairs is zero."""
    return len(rows) == rel.n and _off_pattern_entry(rel, rows) is None


# ---------------------------------------------------------------------------
# pattern-constrained matrices

@dataclass(frozen=True)
class StructMatrix:
    """Dense n x n matrix whose support is constrained to a relation's pairs."""

    field: Field
    pattern: Relation
    rows: Grid

    def __post_init__(self) -> None:
        n = self.pattern.n
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError(f"expected a {n}x{n} grid")
        off = _off_pattern_entry(self.pattern, self.rows)
        if off is not None:
            raise OffPattern(f"nonzero entry at ({off[0]},{off[1]}) outside the pattern")

    @property
    def n(self) -> int:
        return self.pattern.n

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i - 1][j - 1]

    @classmethod
    def from_values(cls, field: Field, pattern: Relation, values: dict[tuple[int, int], Scalar]) -> StructMatrix:
        n = pattern.n
        zero = field.zero()
        grid = [[zero] * n for _ in range(n)]
        for (i, j), v in values.items():
            grid[i - 1][j - 1] = field.element(v)
        return cls(field, pattern, tuple(tuple(r) for r in grid))

    def _check_compatible(self, other: StructMatrix) -> None:
        if self.field != other.field:
            raise Mismatch(f"{self.field.name} vs {other.field.name}")
        if self.pattern != other.pattern:
            raise Mismatch("matrices are constrained by different relations")

    def __add__(self, other: StructMatrix) -> StructMatrix:
        self._check_compatible(other)
        return StructMatrix(self.field, self.pattern, grid_add(self.field, self.rows, other.rows))

    def __mul__(self, other: StructMatrix) -> StructMatrix:
        self._check_compatible(other)
        return StructMatrix(self.field, self.pattern, grid_mul(self.field, self.rows, other.rows))

    def inverse(self) -> StructMatrix:
        """Exact inverse.  The inverse of an invertible algebra element stays in
        the algebra; this is asserted by the pattern check rather than assumed."""
        inv = invert_grid(self.field, self.rows)
        if not is_member(self.pattern, inv):
            raise OffPattern("inverse left the pattern; input was not an algebra element")
        return StructMatrix(self.field, self.pattern, inv)

    def to_json(self) -> dict:
        return grid_to_json(self.field, self.rows)

    @classmethod
    def from_json(cls, obj, pattern: Relation) -> StructMatrix:
        field, rows = grid_from_json(obj, pattern.n)
        return cls(field, pattern, rows)


def grid_to_json(field: Field, grid: Grid) -> dict:
    return {
        "field": field.to_json(),
        "n": len(grid),
        "entries": [[field.scalar_to_json(v) for v in row] for row in grid],
    }


class _Scalars(dict):
    """One field's wire values: each distinct int or str is parsed on first
    lookup, so equal entries share one scalar; a value that fails is not stored."""

    __slots__ = ("field",)

    def __init__(self, field: Field) -> None:
        self.field = field

    def __missing__(self, value) -> Scalar:
        x = self[value] = self.field.parse_scalar(value)
        return x


# The only keys of a _Scalars memo: a bool or a float would find the entry of an equal int
_WIRE = frozenset((int, str))


def grid_from_json(obj, n: int, memos: Optional[dict] = None) -> tuple[Field, Grid]:
    """The field and the n x n grid of matrix JSON, with no pattern check.
    Grids decoded with one `memos` dict share one scalar memo per field."""
    if not isinstance(obj, dict) or "field" not in obj or "entries" not in obj:
        raise ParseError('matrix JSON must be {"field": ..., "n": ..., "entries": [[...], ...]}')
    field = Field.from_json(obj["field"])
    entries = obj["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ParseError("matrix entries must be a list of rows, each a list")
    size = json_int(obj.get("n", len(entries)), "matrix size n")
    if size != n:
        raise ParseError(f"matrix size {size} does not match the relation size {n}")
    if len(entries) != n or any(len(r) != n for r in entries):
        raise ParseError(f"expected a {n}x{n} entries grid")
    scalar = ({} if memos is None else memos).setdefault(field, _Scalars(field)).__getitem__
    return field, tuple(
        tuple(map(scalar, row)) if _WIRE.issuperset(map(type, row))
        # else entry by entry, so the first bad entry in row-major order raises
        else tuple(scalar(v) if type(v) in _WIRE else field.parse_scalar(v) for v in row)
        for row in entries
    )


def identity_matrix(field: Field, pattern: Relation) -> StructMatrix:
    return StructMatrix(field, pattern, identity_grid(field, pattern.n))


def matrix_unit(rel: Relation, field: Field, i: int, j: int) -> StructMatrix:
    """The matrix with a single 1 at position (i,j); the pair must lie in the relation."""
    if (i, j) not in rel.pairs:
        raise OffPattern(f"({i},{j}) is not in the relation")
    return StructMatrix.from_values(field, rel, {(i, j): field.one()})
