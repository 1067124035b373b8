"""Arbitrary JSON values through the JSON decoders: each either decodes or
raises ParseError, which the CLI turns into exit code 2.

Each decoder gets plain JSON values and values shaped like its format with
arbitrary parts, which reach past the first shape check.  The patterns are
chosen so that no input is off the pattern or outside the relation's domain,
where a domain error (exit 1) would be the right answer.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import VEE3_BLOCK_PAIRS

from sma import ParseError, Relation, StructMatrix, TransitiveFn, spec_from_json
from sma.algebra import Field, grid_from_json
from sma.relation import parse_json

VEE3_BLOCK = Relation.from_pairs(3, VEE3_BLOCK_PAIRS)
FULL3 = Relation.full(3)

leaves = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["1", "-2/3", "1/0", "x", "3.5", "0"])
)
values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)
fields = st.sampled_from(["Q", {"GF": 5}, {"GF": 4}, {"GF": 5.0}]) | values
indices = st.integers(0, 4) | leaves


def _rows(entry, n):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


matrices = st.fixed_dictionaries(
    {"field": fields, "entries": _rows(leaves, 3) | st.lists(st.lists(leaves, max_size=4), max_size=4) | values},
    optional={"n": st.integers(2, 4) | values},
)
relations = st.fixed_dictionaries(
    {"n": st.integers(1, 4) | values, "pairs": st.lists(st.lists(indices, min_size=1, max_size=3), max_size=6) | values}
)
scalings = st.fixed_dictionaries(
    {"field": fields},
    optional={"values": st.lists(st.lists(indices | values, min_size=2, max_size=4), max_size=4) | values},
)
image_specs = st.fixed_dictionaries(
    {"images": st.lists(st.lists(indices | matrices, min_size=2, max_size=4), max_size=5) | values}
)

DECODERS = {
    "relation": (Relation.from_json, relations),
    "matrix": (lambda obj: StructMatrix.from_json(obj, FULL3), matrices),
    "scaling": (lambda obj: TransitiveFn.from_json(obj, VEE3_BLOCK), scalings),
    "spec": (lambda obj: spec_from_json(obj, VEE3_BLOCK), image_specs),
}


@pytest.mark.parametrize("name", sorted(DECODERS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_only_parse_errors_escape(name, data):
    decode, shaped = DECODERS[name]
    obj = data.draw(values | shaped)
    try:
        decode(obj)
    except ParseError:
        pass


def _reference_grid(obj, n):
    """grid_from_json's answer on a well-shaped grid, one parse_scalar per entry."""
    field = Field.from_json(obj["field"])
    return field, tuple(tuple(field.parse_scalar(v) for v in row) for row in obj["entries"])


# few distinct values, so most grids repeat entries: equal ints and digit
# strings, bools beside the ints they equal, and invalid values
repeated = st.sampled_from(
    [0, 1, -1, 7, 2**70, "0", "1", "-1", "7", "3/4", "-2/6", "1/0", "x", "", "1.5", "1e3", True, False, None, 1.5, []]
)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(["Q", {"GF": 5}, {"GF": 7}]), n=st.integers(1, 4), data=st.data())
def test_grid_decoder_matches_one_parse_per_entry(field, n, data):
    obj = {"field": field, "n": n, "entries": data.draw(_rows(repeated, n))}
    try:
        expected = _reference_grid(obj, n)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            grid_from_json(obj, n)
        assert str(raised.value) == str(exc)
    else:
        got = grid_from_json(obj, n)
        assert got == expected
        assert [list(map(type, row)) for row in got[1]] == [list(map(type, row)) for row in expected[1]]


@settings(max_examples=30, deadline=None)
@given(depth=st.integers(1, 100_000), opener=st.sampled_from(["[", '{"a": ']))
def test_parse_json_decodes_or_refuses_any_nesting(depth, opener):
    closer = "]" if opener == "[" else "}"
    try:
        parse_json(opener * depth + "0" + closer * depth, "nested")
    except ParseError as exc:
        assert str(exc) == "nested: invalid JSON: nesting is too deep"


# entries every field reads, and values some field refuses
WIRE_VALUES = [0, 1, -1, 7, 2**70, "0", "1", "-1", "7", "007"]
REFUSED = ["3/4", "-2/6", "1/0", "x", "", "1.5", True, False, None, 1.5, []]


def _images(field, grids):
    pairs = VEE3_BLOCK.sorted_pairs()
    return {"images": [[i, j, {"field": field, "n": 3, "entries": g}] for (i, j), g in zip(pairs, grids)]}


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(["Q", {"GF": 5}]), data=st.data())
def test_map_decoder_matches_one_parse_per_entry(field, data):
    """Every image through one shared memo reads as each image parsed on its
    own, one parse_scalar per entry, or raises that parse's first error."""
    grids = [data.draw(_rows(st.sampled_from(WIRE_VALUES), 3)) for _ in VEE3_BLOCK.sorted_pairs()]
    spots = st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2), st.sampled_from(REFUSED))
    for k, r, c, bad in data.draw(st.lists(spots, max_size=3)):
        grids[k][r][c] = bad
    obj = _images(field, grids)
    try:
        expected = [_reference_grid(mat, 3)[1] for _, _, mat in obj["images"]]
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            spec_from_json(obj, VEE3_BLOCK)
        assert str(raised.value) == str(exc)
        return
    images = spec_from_json(obj, VEE3_BLOCK).images()
    got = [images[pair] for pair in VEE3_BLOCK.sorted_pairs()]
    assert got == expected
    assert [[list(map(type, row)) for row in g] for g in got] == [[list(map(type, row)) for row in g] for g in expected]
    # one wire value, in any image, is one scalar object
    shared = {}
    for grid, decoded in zip(grids, got):
        for row, out in zip(grid, decoded):
            for v, x in zip(row, out):
                assert shared.setdefault((type(v), v), x) is x


def test_map_decoder_keeps_the_first_error_of_a_later_image():
    ones = [[1] * 3 for _ in range(3)]
    grids = [ones] * 5
    # a bool in a later image does not find the memo slot of 1 from an earlier one
    with pytest.raises(ParseError, match=r"^Q scalar must be an integer or \"num/den\", got True$"):
        spec_from_json(_images("Q", grids[:3] + [[[1, True, 1]] * 3] + grids[4:]), VEE3_BLOCK)
    # a string that fails in a later image is refused there, after every good one, with the parse's message
    later = [[1, "x", 1], ["1/0", 1, 1], [1, 1, 1]]
    with pytest.raises(ParseError, match=r"^Q scalar must be an integer or \"num/den\", got 'x'$"):
        spec_from_json(_images("Q", grids[:4] + [later]), VEE3_BLOCK)
    later[0][1] = 1
    with pytest.raises(ParseError, match=r"^not a rational value: '1/0'$"):
        spec_from_json(_images("Q", grids[:4] + [later]), VEE3_BLOCK)
    # a bad string ahead of a bool in its row raises first
    with pytest.raises(ParseError, match=r"^not a rational value: '1/0'$"):
        spec_from_json(_images("Q", grids[:4] + [[["1/0", True, 1]] * 3]), VEE3_BLOCK)
