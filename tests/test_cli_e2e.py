"""End to end through the CLI, in process: generated relation, map and matrix
files through `sma --json verify|factor|apply`.

The maps are random automorphisms over every quasi-order with n <= 4, with a
few entries overwritten, in or out of the pattern.  Every run keeps the exit
code contract (0 success, 1 domain error, 2 parse or usage error) with no
exception escaping, and verify exits 0 exactly when the full product scan
accepts the map.
"""

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sma import RATIONALS, BasisImageAutomorphism, brute_verify, enumerate_quasiorders, gf
from sma.cli import main
from sma.oracle import random_factored_automorphism, random_in_pattern

RELATIONS = [rel for n in range(1, 5) for rel in enumerate_quasiorders(n)]
FIELDS = (RATIONALS, gf(5))
entry_edits = st.tuples(st.integers(0, 99), st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3))


def _set_entry(grid, r, s, value):
    rows = [list(row) for row in grid]
    rows[r][s] = value
    return tuple(map(tuple, rows))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    rel=st.sampled_from(RELATIONS),
    field=st.sampled_from(FIELDS),
    seed=st.integers(0, 10**6),
    edits=st.lists(entry_edits, max_size=4),
    matrix_edit=st.none() | entry_edits,
)
def test_verify_factor_and_apply_keep_the_exit_code_contract(
    tmp_path, capsys, rel, field, seed, edits, matrix_edit
):
    images = random_factored_automorphism(rel, field, seed).images()
    pairs = rel.sorted_pairs()
    for k, r, s, v in edits:
        p = pairs[k % len(pairs)]
        images[p] = _set_entry(images[p], r % rel.n, s % rel.n, field.element(v))
    phi = BasisImageAutomorphism.from_map(rel, field, images)
    matrix = random_in_pattern(rel, field, random.Random(seed)).to_json()
    if matrix_edit is not None:
        _, r, s, v = matrix_edit
        matrix["entries"][r % rel.n][s % rel.n] = field.scalar_to_json(field.element(v))
    paths = {}
    for name, obj in (("relation", rel.to_json()), ("phi", phi.to_json()), ("matrix", matrix)):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as f:
            json.dump(obj, f)

    codes = {}
    for cmd, *files in (("verify", "relation", "phi"), ("factor", "relation", "phi"),
                        ("apply", "relation", "phi", "matrix")):
        codes[cmd] = main(["--json", cmd, *(paths[f] for f in files)])
        err = capsys.readouterr().err
        assert codes[cmd] in (0, 1, 2), (cmd, err)
        assert "Traceback" not in err
    assert (codes["verify"] == 0) == brute_verify(phi).ok
    assert codes["factor"] == codes["verify"]
