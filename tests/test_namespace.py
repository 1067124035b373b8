"""What a program loads: `import sma` binds each public name on first use to
the object its submodule defines, and each `sma` subcommand loads only the
modules it runs, checked in a fresh interpreter per command."""

import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import sma
from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = """
    Field RATIONALS StructMatrix gf identity_matrix is_member matrix_unit
    AutomorphismSpec BasisImageAutomorphism FactoredAutomorphism apply compose
    enumerate_relation_automorphisms equal_as_maps identity_automorphism induced_automorphism
    inner_automorphism is_relation_automorphism permutation_similarity spec_from_json
    BlockForm BlockPattern Permutation block_pattern build_block_form compose_permutations
    conjugate_relation is_block_form is_semisimple render_pattern_grid
    BoundExceeded InvalidOverride InvalidRelation Mismatch NotAutomorphism NotRelationAutomorphism
    NotTransitive OffPattern ParseError Singular SmaError
    VerifyReport conjugate_by_block_form factor_automorphism verify_automorphism
    brute_cocycle_rank brute_relation_automorphisms brute_verify enumerate_quasiorders
    random_factored_automorphism
    ClassPartition CondensationDAG Relation ValidationReport condensation equivalence_classes
    transitive_reflexive_closure validate
    CocycleBasis ScalingVector TransitiveFn ViolatingCycle canonicalize
    check_transitive coboundary cocycle_rank triviality_witness
""".split()


def _child(code: str, *argv: str):
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_all_lists_the_public_names_once():
    assert sorted(sma.__all__) == sorted(PUBLIC_NAMES)
    assert len(sma.__all__) == len(set(sma.__all__))


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_submodules_object(name):
    assert getattr(sma, name) is getattr(import_module(f"sma.{sma._SUBMODULE[name]}"), name)
    assert name in vars(sma)  # resolved once, then an ordinary global


def test_dir_covers_all():
    assert set(sma.__all__) <= set(dir(sma))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sma.no_such_name
    assert not hasattr(sma, "_factor_steps")


def test_import_loads_no_submodule_and_star_binds_all():
    loaded, star = _child(
        "import json, sys\n"
        "import sma\n"
        "loaded = sorted(k for k in sys.modules if k.startswith('sma.'))\n"
        "ns = {}\n"
        "exec('from sma import *', ns)\n"
        "print(json.dumps([loaded, sorted(set(ns) - {'__builtins__'})]))\n"
    )
    assert loaded == []
    assert star == sorted(sma.__all__)


RUN_COMMAND = """
import contextlib, io, json, sys
import sma.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = sma.cli.main(["--json", *sys.argv[1:]])
print(json.dumps([code, sorted(k[len("sma."):] for k in sys.modules if k.startswith("sma."))]))
"""

RELATION_ONLY = {"cli", "errors", "relation"}
BLOCK_FORM = RELATION_ONLY | {"blockform"}
COCYCLES = RELATION_ONLY | {"algebra", "transitive"}


def _loaded_by(*argv: str) -> set[str]:
    code, modules = _child(RUN_COMMAND, *argv)
    assert code == 0
    return set(modules)


@pytest.mark.parametrize("argv, modules", [
    (("validate", "golden/sym6.json"), RELATION_ONLY),
    (("classes", "golden/sym6.json"), RELATION_ONLY),
    (("blockform", "golden/crown6.json"), BLOCK_FORM),
    (("pattern", "golden/crown6.json"), BLOCK_FORM),
    (("semisimple", "golden/sym6.json"), BLOCK_FORM),
    (("transrank", "golden/crown6_block.json"), COCYCLES),
    (("trivial", "golden/crown6_block.json", "golden/crown6_block_scaling.json"), COCYCLES),
], ids=lambda v: v[0] if isinstance(v, tuple) else None)
def test_a_subcommand_loads_exactly_the_modules_it_runs(argv, modules):
    assert _loaded_by(*argv) == modules


@pytest.mark.parametrize("argv, unloaded", [
    (("autos", "golden/sym6.json"), {"factor", "oracle"}),
    (("apply", "golden/vee3_block.json", "golden/vee3_block_phi.json", "golden/vee3_block_matrix.json"),
     {"factor", "oracle"}),
    (("verify", "golden/vee3_block.json", "golden/vee3_block_phi.json"), {"oracle"}),
    (("factor", "golden/vee3_block.json", "golden/vee3_block_phi.json"), {"oracle"}),
], ids=lambda v: v[0] if isinstance(v, tuple) else None)
def test_a_map_subcommand_loads_no_module_it_does_not_run(argv, unloaded):
    assert _loaded_by(*argv) & unloaded == set()
