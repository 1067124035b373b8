"""End to end through the CLI, in process: generated relation, map, matrix
and function files through every `sma --json` subcommand.

The maps are random automorphisms over every quasi-order with n <= 4, with a
few entries overwritten, in or out of the pattern, run through `verify`,
`factor` and `apply`; verify exits 0 exactly when the full product scan
accepts the map.  The relation-only subcommands, the relation oracles and
`trivial` take any relation with n <= 4, quasi-order or not, with a drawn
`--class-order` or function; all but `validate` exit 1 when the relation,
after `--close-reflexive`, is not a quasi-order.  `oracle quasiorders` takes
any n, integer or not.  Every run keeps the exit code contract (0 success, 1 domain
error, 2 parse or usage error) with no exception escaping.
"""

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sma import RATIONALS, BasisImageAutomorphism, Relation, brute_verify, enumerate_quasiorders, gf
from sma.cli import main
from sma.oracle import random_factored_automorphism, random_in_pattern

RELATIONS = [rel for n in range(1, 5) for rel in enumerate_quasiorders(n)]
FIELDS = (RATIONALS, gf(5))
entry_edits = st.tuples(st.integers(0, 99), st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3))
any_relation = st.integers(1, 4).flatmap(
    lambda n: st.sets(st.tuples(st.integers(1, n), st.integers(1, n))).map(
        lambda pairs: Relation.from_pairs(n, pairs)
    )
)
class_order_text = st.lists(st.integers(0, 5), max_size=5).map(lambda ks: ",".join(map(str, ks)))


def _run(capsys, argv):
    code = main(["--json", *argv])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    return code


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
        codes[cmd] = _run(capsys, [cmd, *(paths[f] for f in files)])
    assert (codes["verify"] == 0) == brute_verify(phi).ok
    assert codes["factor"] == codes["verify"]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    rel=any_relation,
    close_reflexive=st.booleans(),
    field=st.sampled_from(FIELDS),
    values=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-3, 3)), max_size=6),
    data=st.data(),
)
def test_relation_subcommands_keep_the_exit_code_contract(
    tmp_path, capsys, rel, close_reflexive, field, values, data
):
    if rel.validation.ok:  # an order of every class, admissible or not, as often as any list
        p = rel.partition.p
        orders = st.permutations(range(1, p + 1)).map(lambda ks: ",".join(map(str, ks))) | class_order_text
    else:
        orders = class_order_text
    class_order = data.draw(st.none() | orders, label="class_order")
    fn = {
        "field": field.to_json(),
        "values": [[i, j, field.scalar_to_json(field.element(v))] for i, j, v in values],
    }
    paths = {}
    for name, obj in (("relation", rel.to_json()), ("fn", fn)):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as f:
            json.dump(obj, f)
    flags = ["--close-reflexive"] if close_reflexive else []
    closed = rel.pairs | {(i, i) for i in range(1, rel.n + 1)} if close_reflexive else rel.pairs
    refused = not Relation.from_pairs(rel.n, closed).validation.ok
    order = [] if class_order is None else ["--class-order", class_order]
    _run(capsys, ["validate", paths["relation"], *flags])
    for cmd, *extra in (
        ["classes"], ["semisimple"], ["autos"], ["transrank"],
        ["blockform", *order], ["pattern", *order], ["trivial", paths["fn"]],
        ["oracle", "autos"], ["oracle", "rank"], ["oracle", "randphi"],
    ):
        command = [cmd, *extra] if cmd == "oracle" else [cmd]
        operands = [] if cmd == "oracle" else extra
        code = _run(capsys, [*command, paths["relation"], *operands, *flags])
        if refused:  # every subcommand but validate refuses a non-quasi-order
            assert code == 1, (command, sorted(closed))


QUASIORDER_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(-2, 6).map(str) | st.sampled_from(["x", "", "2.0", "1/2", "3e0", "--"]))
def test_oracle_quasiorders_keeps_the_exit_code_contract(monkeypatch, capsys, n):
    monkeypatch.delenv("SMA_MAX_N", raising=False)
    try:
        code = main(["--json", "oracle", "quasiorders", n])
    except SystemExit as exc:  # argparse refuses n before the command runs
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err
    if n in ("1", "2", "3", "4"):  # larger n exceeds the default bound (exit 1)
        assert code == 0 and json.loads(out) == {"n": int(n), "count": QUASIORDER_COUNTS[int(n)]}
    else:
        assert code != 0
