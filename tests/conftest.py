"""Shared fixtures: the golden relations and the two scalar fields, and the
crown and class-growing builders and the grid scaling that several test
modules share.

Naming: sym6 is symmetric (three mutually incomparable classes of sizes 3, 2,
1); vee3 has two minimal elements below one maximal; crown6 condenses to four
classes {1}, {2,3}, {4}, {5,6} with the source classes {1} and {5,6} each
below both sink classes {2,3} and {4}, so the class comparability graph is a
4-cycle.  The *_block variants are the same relations relabelled into block
upper triangular form.
"""

import os
from pathlib import Path

import pytest

from sma import RATIONALS, Relation, gf

SYM6_PAIRS = [
    (1, 1), (1, 5), (1, 6), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4),
    (5, 1), (5, 5), (5, 6), (6, 1), (6, 5), (6, 6),
]

SYM6_BLOCK_PAIRS = [
    (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
    (4, 4), (4, 5), (5, 4), (5, 5), (6, 6),
]

VEE3_PAIRS = [(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)]

VEE3_BLOCK_PAIRS = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]

CROWN6_PAIRS = [
    (1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4),
    (5, 2), (5, 3), (5, 4), (5, 5), (5, 6), (6, 2), (6, 3), (6, 4), (6, 5), (6, 6),
]

CROWN6_BLOCK_PAIRS = [
    (1, 1), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
    (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (5, 5), (5, 6), (6, 5), (6, 6),
]



def child_env():
    """The environment for `python -m sma.cli` in a child process: this
    checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def grid_scale(field, c, grid):
    """c times every entry of the grid."""
    return tuple(tuple(field.reduce(c * x) for x in row) for row in grid)


def crown(n):
    """Sources 1..k, sinks k+1..2k (k = n // 2), source i below every sink except i+k."""
    k = n // 2
    pairs = [(i, i) for i in range(1, n + 1)]
    pairs += [(i, k + j) for i in range(1, k + 1) for j in range(1, k + 1) if j != i]
    return Relation.from_pairs(n, pairs)


def grown(rel, sizes, labels):
    """rel with element e grown into a class of sizes[e - 1] members, which
    take the next of the given labels in turn."""
    fresh = iter(labels)
    members = {e: [next(fresh) for _ in range(sizes[e - 1])] for e in range(1, rel.n + 1)}
    return Relation.from_pairs(sum(sizes), [(a, b) for i, j in rel.pairs for a in members[i] for b in members[j]])


@pytest.fixture
def sym6():
    return Relation.from_pairs(6, SYM6_PAIRS)


@pytest.fixture
def sym6_block():
    return Relation.from_pairs(6, SYM6_BLOCK_PAIRS)


@pytest.fixture
def vee3():
    return Relation.from_pairs(3, VEE3_PAIRS)


@pytest.fixture
def vee3_block():
    return Relation.from_pairs(3, VEE3_BLOCK_PAIRS)


@pytest.fixture
def crown6():
    return Relation.from_pairs(6, CROWN6_PAIRS)


@pytest.fixture
def crown6_block():
    return Relation.from_pairs(6, CROWN6_BLOCK_PAIRS)


@pytest.fixture
def QQ():
    return RATIONALS


@pytest.fixture
def GF5():
    return gf(5)
