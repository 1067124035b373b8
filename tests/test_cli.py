import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import child_env
from sma.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

RELATION_FILES = [
    "sym6.json", "sym6_block.json", "vee3.json", "vee3_block.json",
    "crown6.json", "crown6_block.json", "vee3.txt",
]

# subcommands applicable to every golden relation file
RELATION_SUBCOMMANDS = [
    ["validate"],
    ["classes"],
    ["blockform"],
    ["pattern"],
    ["semisimple"],
    ["autos"],
    ["transrank"],
    ["oracle", "autos"],
    ["oracle", "rank"],
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGoldenCorpus:
    @pytest.mark.parametrize("relfile", RELATION_FILES)
    @pytest.mark.parametrize("sub", RELATION_SUBCOMMANDS, ids=lambda s: "-".join(s))
    def test_every_relation_through_every_subcommand(self, capsys, relfile, sub):
        code, out, err = run(capsys, "--json", sub[0], *sub[1:], str(GOLDEN / relfile))
        assert code == 0, err
        json.loads(out)  # machine output parses

    def test_scaling_files(self, capsys):
        code, out, _ = run(
            capsys, "--json", "trivial",
            str(GOLDEN / "crown6_block.json"), str(GOLDEN / "crown6_block_scaling.json"),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trivial"] is False
        assert payload["product"] != "1"

        code, out, _ = run(
            capsys, "--json", "trivial",
            str(GOLDEN / "vee3_block.json"), str(GOLDEN / "vee3_block_scaling.json"),
        )
        assert code == 0
        assert json.loads(out)["trivial"] is True

    def test_phi_files_verify_and_factor(self, capsys):
        for rel, phi in (
            ("vee3_block.json", "vee3_block_phi.json"),
            ("crown6_block.json", "crown6_block_phi.json"),
        ):
            code, out, _ = run(capsys, "--json", "verify", str(GOLDEN / rel), str(GOLDEN / phi))
            assert code == 0
            assert json.loads(out)["ok"] is True
            code, out, _ = run(capsys, "--json", "factor", str(GOLDEN / rel), str(GOLDEN / phi))
            assert code == 0
            assert json.loads(out)["recomposition_matches"] is True

    def test_apply(self, capsys):
        code, out, _ = run(
            capsys, "--json", "apply",
            str(GOLDEN / "vee3_block.json"),
            str(GOLDEN / "vee3_block_phi.json"),
            str(GOLDEN / "vee3_block_matrix.json"),
        )
        assert code == 0
        payload = json.loads(out)
        # closed form of the worked composite on entries (1..5) with a=7, b=11
        assert payload["entries"][0] == ["3", "0", "-10"]
        assert payload["entries"][1] == ["0", "1", "-42"]
        assert payload["entries"][2] == ["0", "0", "5"]


class TestGoldenValues:
    def test_blockform_pi_table(self, capsys):
        code, out, _ = run(capsys, "--json", "blockform", str(GOLDEN / "sym6.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["pi"] == [1, 4, 5, 6, 2, 3]
        assert payload["block_sizes"] == [3, 2, 1]
        assert payload["pattern"] == ["F00", "0F0", "00F"]

    def test_blockform_ascii_grid(self, capsys):
        code, out, _ = run(capsys, "blockform", str(GOLDEN / "sym6.json"))
        assert code == 0
        assert "F F F | 0 0 | 0" in out

    def test_blockform_class_order_override(self, capsys):
        code, out, _ = run(
            capsys, "--json", "blockform", str(GOLDEN / "crown6.json"),
            "--class-order", "1,4,3,2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pi"] == [1, 5, 6, 4, 2, 3]
        assert payload["block_sizes"] == [1, 2, 1, 2]

    def test_transrank_generator(self, capsys):
        code, out, _ = run(capsys, "--json", "transrank", str(GOLDEN / "crown6_block.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 1
        assert payload["generators"] == [{"1,4": 1}]

    def test_semisimple_answers(self, capsys):
        code, out, _ = run(capsys, "--json", "semisimple", str(GOLDEN / "sym6.json"))
        assert json.loads(out)["semisimple"] is True
        code, out, _ = run(capsys, "--json", "semisimple", str(GOLDEN / "vee3.json"))
        assert json.loads(out)["semisimple"] is False

    def test_oracle_quasiorder_count(self, capsys):
        code, out, _ = run(capsys, "--json", "oracle", "quasiorders", "4")
        assert code == 0
        assert json.loads(out)["count"] == 355

    def test_oracle_randphi_is_seed_stable(self, capsys):
        args = ("--json", "oracle", "randphi", str(GOLDEN / "crown6_block.json"), "--seed", "5")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_oracle_randphi_over_prime_field(self, capsys):
        code, out, _ = run(
            capsys, "--json", "oracle", "randphi", str(GOLDEN / "crown6_block.json"),
            "--field", '{"GF": 5}', "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["A"]["field"] == {"GF": 5}

    def test_factor_normalizes_nonblock_relations(self, capsys, tmp_path):
        # an inner map over the unnormalized symmetric relation
        import random

        from sma import Relation, gf, inner_automorphism
        from sma.oracle import random_invertible

        rel = Relation.from_json(json.loads((GOLDEN / "sym6.json").read_text()))
        phi = inner_automorphism(random_invertible(rel, gf(5), random.Random(3)))
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(phi.to_json()))
        code, out, _ = run(capsys, "--json", "factor", str(GOLDEN / "sym6.json"), str(phi_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["recomposition_matches"] is True
        assert payload["pi"] == [1, 4, 5, 6, 2, 3]

    def test_factor_certifies_the_input_map_and_carries_its_factors(self, capsys, monkeypatch, tmp_path):
        """On a relation not in block form the factor steps run once, on the
        map as given; no image is relabelled, and a refusal is that map's own
        certificate, in the input's labels."""
        import sma.cli
        import sma.factor as factor
        from sma import Relation, gf, spec_from_json
        from sma.automorphism import BasisImageAutomorphism
        from sma.oracle import random_factored_automorphism

        def forbidden(*args):
            raise AssertionError("sma factor relabelled the basis images")

        monkeypatch.setattr(factor, "conjugate_by_block_form", forbidden)
        monkeypatch.setattr(sma.cli, "conjugate_by_block_form", forbidden, raising=False)
        calls = []
        steps = factor._factor_steps
        monkeypatch.setattr(factor, "_factor_steps", lambda *args: calls.append(args) or steps(*args))

        relfile = str(GOLDEN / "crown6.json")
        rel = Relation.parse((GOLDEN / "crown6.json").read_text())
        images = random_factored_automorphism(rel, gf(101), 1).images()
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(BasisImageAutomorphism.from_map(rel, gf(101), images).to_json()))
        images[(1, 2)] = tuple(tuple(2 * v % 101 for v in row) for row in images[(1, 2)])
        bad.write_text(json.dumps(BasisImageAutomorphism.from_map(rel, gf(101), images).to_json()))

        code, out, err = run(capsys, "--json", "factor", relfile, str(good))
        assert code == 0, err
        assert json.loads(out)["pi"] == [1, 4, 5, 6, 2, 3]
        assert len(calls) == 1 and calls[0][0] == rel

        calls.clear()
        code, out, err = run(capsys, "--json", "factor", relfile, str(bad))
        assert (code, out, len(calls)) == (1, "", 1)
        certificate = spec_from_json(json.loads(bad.read_text()), rel).certificate
        assert err == f"error: {certificate}\n"
        assert "g(1,2)*g(2,3)" in certificate  # the unit whose image was broken, unrelabelled

    def test_factor_transcript_names_the_map_its_factors_recompose_to(self, capsys, tmp_path):
        """Factors carried over pi recompose to the input map relabelled by pi,
        and the transcript's last line says so; in block form it names the input map."""
        from sma import Relation, build_block_form, conjugate_by_block_form, equal_as_maps, spec_from_json

        code, out, err = run(
            capsys, "--json", "oracle", "randphi", str(GOLDEN / "vee3.json"), "--field", '{"GF": 101}', "--seed", "1"
        )
        assert code == 0, err
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(out)
        verification = "verification: recomposing inner(A) o scaling(g) o permutation(tau) reproduces "

        code, out, err = run(capsys, "factor", str(GOLDEN / "vee3.json"), str(phi_path))
        assert code == 0, err
        assert out.splitlines()[-1] == verification + "the input map relabelled by pi exactly"
        code, out, err = run(capsys, "--json", "factor", str(GOLDEN / "vee3.json"), str(phi_path))
        assert code == 0, err
        payload = json.loads(out)
        assert payload.pop("pi") == [1, 3, 2] and payload.pop("recomposition_matches") is True
        rel = Relation.parse((GOLDEN / "vee3.json").read_text())
        bf = build_block_form(rel)
        relabelled = conjugate_by_block_form(spec_from_json(json.loads(phi_path.read_text()), rel), bf)
        assert equal_as_maps(spec_from_json(payload, bf.permuted), relabelled)

        code, out, err = run(
            capsys, "factor", str(GOLDEN / "vee3_block.json"), str(GOLDEN / "vee3_block_phi.json")
        )
        assert code == 0, err
        assert out.splitlines()[-1] == verification + "the input map exactly"


# Exit code and SHA-256 of stdout, human form then --json form, for README's CLI
# list and a few more runs; a file argument is named relative to golden/.
PINNED_OUTPUT = [
    (["validate", "sym6.json"], 0,
     "1f0e6223b3873862bff0ea99b29962853f27212118fbf5af1553b4fd8fbe8e36",
     "a8c9aaca6722bed7ca7e9961df030c41055ec56913b775deb7576eac2a117fe3"),
    (["classes", "sym6.json"], 0,
     "0445235e7a1a26dd57e5ae418dc0d8667a281a5a345ac7c923b4d16a7f0e0839",
     "bb153b39ebe9e9cfc744e5707dc561451869804c3de19594f499dd407c3aa980"),
    (["blockform", "crown6.json", "--class-order", "1,4,3,2"], 0,
     "84ece637b42dd5b7aaf0200e0897276b9927c6f352d6a43dd7082bb976c75afd",
     "62e0035a4ccaf62eb0e386127dd8a5831ee596a2223786ba2006b0e7166c2a32"),
    (["pattern", "crown6.json"], 0,
     "359993c96edf97dbfd3528bc9b97be9c6d4f24509fd0e6ad448dd8880b6dc947",
     "dc3fc0d4c6aa96ed02c92caaae2c24427b1cd560cbc301c2ad4cf00c6b23c901"),
    (["pattern", "crown6.json", "--class-order", "1,4,3,2"], 0,
     "359993c96edf97dbfd3528bc9b97be9c6d4f24509fd0e6ad448dd8880b6dc947",
     "40ab0815c6d7c7808ba514b3c2913e69ab75eaba7a96c894f66d88fefdfba762"),
    (["semisimple", "sym6.json"], 0,
     "565551b3ebdde2fb2a8d9949f3219c6db6250aade787344fa8d0c6c1efa00a52",
     "437e6240cb5ca043aea57f0eb1e1de595f5a6522bd39374efe43addf0329e92d"),
    (["autos", "sym6.json"], 0,
     "3a6b4d134cbf944908618ce462c1edc800b437ddac91191a705c08a122f587a9",
     "ded23e021b735795022305e56adf4001fe29c81c24f5f91e2a644485ffa9930f"),
    (["transrank", "crown6_block.json"], 0,
     "172290c05b7e11d3fb4abd344cf53f3d4dd4fa691f9aff556673fd5c665eb327",
     "02dbd873ecee5fdcb354e8c1dd55b083dc6d80d3f03a8981d302ac8697fba705"),
    (["trivial", "crown6_block.json", "crown6_block_scaling.json"], 0,
     "38627486c68a7ba965fcb7cae89ae1540cafb711e106d549f9d8dd93778ae2d9",
     "35f4a49c2ffc8a1dbdc4c74db6bd1fa3b2873bea576049d2f028815d680fbeba"),
    (["trivial", "vee3_block.json", "vee3_block_scaling.json"], 0,
     "4f0fd7d0af141a9f47305c2ee7347d127fd0ef9da3d0b9c399fdaf61fca28a87",
     "f48fef3d7dcd93bb0edcaee658c7a3af51271c487a282c968818294ea1f36a67"),
    (["verify", "vee3_block.json", "vee3_block_phi.json"], 0,
     "ffd53f78aba9eaa25ac3b456075875aab0c2641b9c341b8c367b9452810846f3",
     "ff601bf23fe4269bb1d84af8dcb83039ceaea8d7a6436712e887a5952068ae98"),
    (["apply", "vee3_block.json", "vee3_block_phi.json", "vee3_block_matrix.json"], 0,
     "4c774eb1d344eaab8086591fa7d7011dec673b43335bd7d4a15fbbc7ce3d3ba8",
     "9e1d701cbc5248854813ea8e0b75eddbfe1641e005cebf256deb75dc9987ebaa"),
    (["factor", "vee3_block.json", "vee3_block_phi.json"], 0,
     "cc840ec2c8e274558cfe77850052151d0e82f4bca7c8c6d67591501dec10e20c",
     "24f1e1c3f32fba93db9347c9ef012b8b902ea5a694afc3abb34659646b65100c"),
    (["oracle", "quasiorders", "4"], 0,
     "41fd09d6681e4690a4df213522da8916ce2a0f28f4251f48dc75fd4618822799",
     "baf51b53eaa0c86c3cb9dc2e84af3a53213fc9ae63ebc2b8aa68a5a4ecda2ec5"),
    (["oracle", "randphi", "crown6_block.json", "--field", '{"GF": 5}', "--seed", "7"], 0,
     "c1f2a92ba61651770566d6e663bca4a93b70bb8a92c22f2593bf244d0c01380f",
     "c1f2a92ba61651770566d6e663bca4a93b70bb8a92c22f2593bf244d0c01380f"),
    (["oracle", "randphi", "crown6.json", "--field", '{"GF": 101}', "--seed", "1"], 0,
     "8d886141216c3a97e9e7e3070d80eecf904a11645cbef489177e88c8265920e6",
     "8d886141216c3a97e9e7e3070d80eecf904a11645cbef489177e88c8265920e6"),
]


class TestPinnedOutput:
    """Every subcommand's human and --json stdout, byte for byte."""

    @staticmethod
    def _check(capsys, argv, code, human_sha, json_sha):
        for prefix, sha in (([], human_sha), (["--json"], json_sha)):
            got, out, err = run(capsys, *prefix, *argv)
            assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, sha), err

    @pytest.mark.parametrize(
        "argv, code, human_sha, json_sha", PINNED_OUTPUT, ids=lambda v: " ".join(v) if isinstance(v, list) else None
    )
    def test_golden_runs(self, capsys, argv, code, human_sha, json_sha):
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
        self._check(capsys, argv, code, human_sha, json_sha)

    def test_factor_carried_over_pi(self, capsys, tmp_path):
        """A seeded GF(101) map over crown6, which is not in block form."""
        code, out, err = run(
            capsys, "--json", "oracle", "randphi", str(GOLDEN / "crown6.json"), "--field", '{"GF": 101}', "--seed", "1"
        )
        assert code == 0, err
        phi = tmp_path / "phi.json"
        phi.write_text(out)
        self._check(
            capsys, ["factor", str(GOLDEN / "crown6.json"), str(phi)], 0,
            "b726735a12c989a714a702da7b7c4eefb02643a773d47531177030912a5f0e0a",
            "9cc7fa8144bd5fde854cd8810f745c250c3cd732ddc1e5673755b2427b3ce109",
        )


class TestExitCodes:
    def test_invalid_relation_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps({"n": 3, "pairs": [[1, 1], [2, 2], [3, 3], [1, 2], [2, 3]]}))
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "(1,3)" in out

    def test_missing_diagonal_rejected_by_default(self, capsys, tmp_path):
        f = tmp_path / "nodiag.json"
        f.write_text(json.dumps({"n": 2, "pairs": [[1, 2]]}))
        code, _, _ = run(capsys, "validate", str(f))
        assert code == 1
        code, _, _ = run(capsys, "validate", str(f), "--close-reflexive")
        assert code == 0

    def test_close_reflexive_refuses_a_ground_set_over_its_bound(self, capsys, tmp_path):
        from sma.relation import MAX_ROWS_N

        f = tmp_path / "huge.json"
        f.write_text(json.dumps({"n": 10**8, "pairs": []}))
        code, _, err = run(capsys, "validate", str(f), "--close-reflexive")
        assert code == 2
        assert str(MAX_ROWS_N) in err and "Traceback" not in err
        # without the flag nothing is built over the ground set: the first
        # missing diagonal pairs are reported at once
        code, out, _ = run(capsys, "validate", str(f))
        assert code == 1
        assert "missing diagonal pair (1,1)" in out

    def test_a_billion_missing_diagonal_pairs_are_reported_without_building_rows(self, capsys, tmp_path):
        # rows over 10**9 elements would take gigabytes; past MAX_ROWS_N their
        # build raises BoundExceeded, which would print an error, not this report
        f = tmp_path / "huge.json"
        f.write_text(json.dumps({"n": 10**9, "pairs": []}))
        code, out, err = run(capsys, "--json", "validate", str(f))
        report = json.loads(out)
        assert (code, err, report["ok"], report["truncated"]) == (1, "", False, True)
        assert report["violations"] == [f"missing diagonal pair ({i},{i})" for i in range(1, 101)]

    def test_relations_over_the_row_bound_are_refused(self, capsys, tmp_path):
        from sma.relation import MAX_ROWS_N, Relation

        def validate_file(rel_json, *flags):
            f = tmp_path / "rel.json"
            f.write_text(json.dumps(rel_json))
            code, _, err = run(capsys, "--json", "validate", str(f), *flags)
            return code, err

        n = MAX_ROWS_N
        assert validate_file({"n": n, "pairs": []}, "--close-reflexive") == (0, "")
        assert validate_file(Relation.identity(n).to_json()) == (0, "")
        n = MAX_ROWS_N + 1
        assert validate_file({"n": n, "pairs": []}, "--close-reflexive") == (
            2, f"error: --close-reflexive accepts n up to {MAX_ROWS_N}, got n = {n}\n")
        assert validate_file(Relation.identity(n).to_json()) == (
            1, f"error: n = {n} is over {MAX_ROWS_N}, the largest ground set whose bit rows are built\n")

    def test_parse_error_exits_two(self, capsys, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("{not json")
        code, _, err = run(capsys, "validate", str(junk))
        assert code == 2
        assert "line 1" in err

    # Nesting past the recursion limit made json raise RecursionError, which
    # escaped as a traceback; each file kind is read through parse_json.
    @pytest.mark.parametrize("kind", ["relation", "map", "matrix", "scaling"])
    def test_nesting_too_deep_exits_two(self, capsys, tmp_path, kind):
        nested = "[" * 100_000 + "]" * 100_000
        rel, phi = str(GOLDEN / "vee3_block.json"), str(GOLDEN / "vee3_block_phi.json")
        text, argv = {
            "relation": ('{"n": 3, "pairs": %s}', ["validate"]),
            "map": ('{"images": %s}', ["verify", rel]),
            "matrix": ('{"field": "Q", "n": 3, "entries": %s}', ["apply", rel, phi]),
            "scaling": ('{"field": "Q", "values": %s}', ["trivial", rel]),
        }[kind]
        f = tmp_path / f"{kind}.json"
        f.write_text(text % nested)
        code, _, err = run(capsys, "--json", *argv, str(f))
        assert code == 2
        assert "nesting is too deep" in err and "Traceback" not in err

    # A file that is not UTF-8 escaped as a UnicodeDecodeError traceback;
    # every file argument is read as UTF-8 and a decoding failure names its file.
    @pytest.mark.parametrize("kind", ["relation", "map", "matrix", "scaling"])
    def test_undecodable_file_exits_two(self, capsys, tmp_path, kind):
        rel, phi = str(GOLDEN / "vee3_block.json"), str(GOLDEN / "vee3_block_phi.json")
        argv = {
            "relation": ["validate"],
            "map": ["verify", rel],
            "matrix": ["apply", rel, phi],
            "scaling": ["trivial", rel],
        }[kind]
        f = tmp_path / f"{kind}.json"
        f.write_bytes(b"\xff\xfe{}")
        code, _, err = run(capsys, "--json", *argv, str(f))
        assert code == 2
        assert err.startswith(f"error: cannot read {f}: ") and "utf-8" in err and "Traceback" not in err

    # A UTF-8 file starting with a byte-order mark (EF BB BF), as some editors
    # write it, was refused with exit 2; it reads as the same file without one.
    @pytest.mark.parametrize("kind", ["relation", "relation_text", "map", "matrix", "scaling"])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, kind):
        rel, phi = str(GOLDEN / "vee3_block.json"), str(GOLDEN / "vee3_block_phi.json")
        argv, name = {
            "relation": (["validate"], "vee3_block.json"),
            "relation_text": (["classes"], "vee3.txt"),
            "map": (["verify", rel], "vee3_block_phi.json"),
            "matrix": (["apply", rel, phi], "vee3_block_matrix.json"),
            "scaling": (["trivial", rel], "vee3_block_scaling.json"),
        }[kind]
        f = tmp_path / name
        f.write_bytes(b"\xef\xbb\xbf" + (GOLDEN / name).read_bytes())
        plain = run(capsys, "--json", *argv, str(GOLDEN / name))
        assert plain[0] == 0
        assert run(capsys, "--json", *argv, str(f)) == plain

    @pytest.mark.parametrize("sub", ["blockform", "pattern"])
    def test_empty_class_order_exits_two(self, capsys, sub):
        code, out, err = run(capsys, sub, str(GOLDEN / "crown6.json"), "--class-order", "")
        assert (code, out) == (2, "")
        assert err == "error: --class-order must list every class index 1..4 exactly once\n"

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = run(capsys, "classes", "/nonexistent/rel.json")
        assert code == 2

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    def test_singular_conjugator_exits_one(self, capsys, tmp_path):
        singular = {"field": "Q", "n": 3, "entries": [["1", "0", "2"], ["0", "0", "0"], ["0", "0", "1"]]}
        f = tmp_path / "phi.json"
        f.write_text(json.dumps({"A": singular, "g": {"field": "Q", "values": []}, "tau": [1, 2, 3]}))
        code, _, err = run(capsys, "verify", str(GOLDEN / "vee3_block.json"), str(f))
        assert code == 1
        assert "singular" in err

    def test_division_by_zero_entry_exits_two(self, capsys, tmp_path):
        f = tmp_path / "matrix.json"
        f.write_text(json.dumps(
            {"field": "Q", "n": 3, "entries": [["1/0", "0", "2"], ["0", "3", "4"], ["0", "0", "5"]]}
        ))
        code, _, err = run(
            capsys, "apply",
            str(GOLDEN / "vee3_block.json"), str(GOLDEN / "vee3_block_phi.json"), str(f),
        )
        assert code == 2
        assert "1/0" in err

    # A relation without (1,3) or (3,3), with the unit images of its pairs.
    # Each command used to fail inside its own lookups (KeyError), or, for
    # randphi, resample an invertible matrix forever (row 3 is empty); each
    # runs in its own process so a hang fails the test instead of the run.
    @pytest.mark.parametrize(
        "sub", [["verify"], ["factor"], ["oracle", "rank"], ["oracle", "randphi"]], ids="-".join
    )
    def test_non_quasi_order_exits_one(self, tmp_path, sub):
        pairs = [[1, 1], [2, 2], [1, 2], [2, 3]]
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({"n": 3, "pairs": pairs}))
        images = []
        for i, j in pairs:
            entries = [["0"] * 3 for _ in range(3)]
            entries[i - 1][j - 1] = "1"
            images.append([i, j, {"field": "Q", "n": 3, "entries": entries}])
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({"images": images}))
        argv = [*sub, str(rel)] + ([str(phi)] if sub in (["verify"], ["factor"]) else [])
        env = child_env()
        proc = subprocess.run(
            [sys.executable, "-m", "sma.cli", "--json", *argv],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 1, proc.stderr
        assert "not a quasi-order: missing diagonal pair (3,3)" in proc.stderr
        assert "Traceback" not in proc.stderr

    # Over GF(2) a conjugator drawn on a 40-element chain is invertible with
    # probability 2^-40: randphi must refuse the size before drawing one.
    def test_randphi_over_a_small_field_above_the_bound_exits_one(self, tmp_path):
        n = 40
        rel = tmp_path / "total40.json"
        rel.write_text(json.dumps({"n": n, "pairs": [[i, j] for i in range(1, n + 1) for j in range(i, n + 1)]}))
        env = child_env()
        env.pop("SMA_MAX_N", None)
        proc = subprocess.run(
            [sys.executable, "-m", "sma.cli", "--json", "oracle", "randphi", str(rel), "--field", '{"GF": 2}'],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 1, proc.stderr
        assert "exceeds the enumeration bound" in proc.stderr
        assert "Traceback" not in proc.stderr

    # Symmetric but not transitive: (1,3) and (3,1) are missing.
    @pytest.mark.parametrize("sub", [
        ["classes"], ["blockform"], ["pattern"], ["semisimple"], ["autos"], ["transrank"],
        ["trivial", "fn"], ["verify", "phi"], ["apply", "phi", "matrix"], ["factor", "phi"],
        ["oracle", "autos"], ["oracle", "rank"], ["oracle", "randphi"],
    ], ids="-".join)
    def test_every_subcommand_refuses_a_symmetric_non_quasi_order(self, capsys, tmp_path, sub):
        pairs = [[1, 1], [2, 2], [3, 3], [1, 2], [2, 1], [2, 3], [3, 2]]
        units = []
        for i, j in pairs:
            entries = [["0"] * 3 for _ in range(3)]
            entries[i - 1][j - 1] = "1"
            units.append([i, j, {"field": "Q", "n": 3, "entries": entries}])
        identity = [["1" if r == c else "0" for c in range(3)] for r in range(3)]
        files = {
            "relation": {"n": 3, "pairs": pairs},
            "fn": {"field": "Q", "values": []},
            "phi": {"images": units},
            "matrix": {"field": "Q", "n": 3, "entries": identity},
        }
        paths = {name: tmp_path / f"{name}.json" for name in files}
        for name, obj in files.items():
            paths[name].write_text(json.dumps(obj))
        command = sub[:2] if sub[0] == "oracle" else sub[:1]
        operands = [str(paths[name]) for name in sub[len(command):]]
        code, out, err = run(capsys, "--json", *command, str(paths["relation"]), *operands)
        assert code == 1, out
        assert "not a quasi-order: pairs (1,2) and (2,3) are present but (1,3) is missing" in err
        assert "Traceback" not in err

    def test_closed_stdout_exits_one_without_a_traceback(self):
        # the pipe's only reader is closed before the child starts, so its
        # first write to stdout fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = child_env()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sma.cli", "--json", "validate", str(GOLDEN / "sym6.json")],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=30,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_non_integer_size_bound_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SMA_MAX_N", "abc")
        for argv in (("autos", str(GOLDEN / "sym6.json")), ("oracle", "quasiorders", "3")):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert "SMA_MAX_N" in err

    @pytest.mark.parametrize("n", ["0", "-1", "x"])
    def test_quasiorders_needs_a_positive_size(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "quasiorders", n])
        assert exc.value.code == 2
        assert "argument n" in capsys.readouterr().err

    def test_integer_literal_over_the_digit_limit_exits_two(self, capsys, tmp_path):
        huge = "9" * 5000
        rel = tmp_path / "huge.json"
        rel.write_text('{"n": ' + huge + ', "pairs": []}')
        code, _, err = run(capsys, "validate", str(rel))
        assert code == 2
        assert "invalid JSON" in err and "Traceback" not in err
        phi = tmp_path / "phi.json"
        phi.write_text('{"A": ' + huge + "}")
        code, _, err = run(capsys, "verify", str(GOLDEN / "vee3_block.json"), str(phi))
        assert code == 2
        assert str(phi) in err and "invalid JSON" in err

    def test_malformed_relation_json_names_its_file(self, capsys, tmp_path):
        rel = tmp_path / "malformed.json"
        rel.write_text('{"n": 2, "pairs": [[1, 1], [2, 2]')
        code, _, err = run(capsys, "--json", "validate", str(rel))
        assert code == 2
        assert err.startswith(f"error: {rel}: invalid JSON") and "Traceback" not in err

    def test_non_integer_characteristic_exits_two(self, capsys, tmp_path):
        rel = tmp_path / "one.json"
        rel.write_text(json.dumps({"n": 1, "pairs": [[1, 1]]}))
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({"images": [[1, 1, {"field": {"GF": 5.5}, "n": 1, "entries": [[1]]}]]}))
        code, _, err = run(capsys, "--json", "verify", str(rel), str(phi))
        assert code == 2
        assert "5.5" in err

    def test_factors_over_different_fields_exit_two(self, capsys, tmp_path):
        identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        spec = {
            "A": {"field": "Q", "n": 3, "entries": identity},
            "g": {"field": {"GF": 5}, "values": []},
            "tau": [1, 2, 3],
        }
        f = tmp_path / "phi.json"
        f.write_text(json.dumps(spec))
        code, _, err = run(capsys, "verify", str(GOLDEN / "vee3_block.json"), str(f))
        assert code == 2
        assert "one field" in err
        # a permutation that breaks the relation is still a domain error
        spec["g"]["field"] = "Q"
        spec["tau"] = [3, 2, 1]
        f.write_text(json.dumps(spec))
        code, _, err = run(capsys, "verify", str(GOLDEN / "vee3_block.json"), str(f))
        assert code == 1
        assert "does not preserve the relation" in err

    def test_failed_verify_exits_one(self, capsys, tmp_path):
        # images that kill the strictly-upper units: unital but not bijective
        from sma import RATIONALS, Relation, matrix_unit

        rel = Relation.from_json(json.loads((GOLDEN / "vee3_block.json").read_text()))
        images = []
        for (i, j) in rel.sorted_pairs():
            m = matrix_unit(rel, RATIONALS, i, j if i == j else i)
            grid = m.to_json()
            if i != j:
                grid["entries"] = [["0"] * 3 for _ in range(3)]
            images.append([i, j, grid])
        f = tmp_path / "phi.json"
        f.write_text(json.dumps({"images": images}))
        code, out, _ = run(capsys, "--json", "verify", str(GOLDEN / "vee3_block.json"), str(f))
        assert code == 1
        assert json.loads(out)["ok"] is False


VEE3_MATRIX = {"field": "Q", "n": 3, "entries": [["1", "0", "2"], ["0", "3", "4"], ["0", "0", "5"]]}
VEE3_PAIRS = [[1, 1], [1, 3], [2, 2], [2, 3], [3, 3]]


def _vee3_images():
    """The golden vee3_block map as [i, j, matrix] triples."""
    from sma import Relation, spec_from_json

    rel = Relation.parse((GOLDEN / "vee3_block.json").read_text())
    phi = spec_from_json(json.loads((GOLDEN / "vee3_block_phi.json").read_text()), rel)
    return phi.as_basis_images().to_json()["images"]


VEE3_ZERO = {"field": "Q", "n": 3, "entries": [["0"] * 3 for _ in range(3)]}

# (subcommand, which argument is replaced, its malformed JSON): each shape used
# to escape its decoder as a TypeError or ValueError, or was read silently
MALFORMED_SHAPES = {
    "matrix-n-string": ("apply", "matrix", {**VEE3_MATRIX, "n": "x"}),
    "matrix-n-null": ("apply", "matrix", {**VEE3_MATRIX, "n": None}),
    "matrix-n-float": ("apply", "matrix", {**VEE3_MATRIX, "n": 3.5}),
    "matrix-entries-number": ("apply", "matrix", {**VEE3_MATRIX, "entries": 5}),
    "matrix-rows-not-lists": ("apply", "matrix", {**VEE3_MATRIX, "entries": [1, 2, 3]}),
    "images-number": ("verify", "phi", {"images": 5}),
    "image-index-string": ("verify", "phi", {"images": [["x", 1, VEE3_MATRIX]]}),
    "values-number": ("trivial", "fn", {"field": "Q", "values": 5}),
    "value-index-string": ("trivial", "fn", {"field": "Q", "values": [["a", 2, "3"]]}),
    # a repeated pair used to be read silently, the last value winning
    "image-repeated": ("verify", "phi", {"images": [[1, 1, VEE3_ZERO], *_vee3_images()]}),
    "value-repeated": ("trivial", "fn", {"field": "Q", "values": [[1, 3, "2"], [1, 3, "3"]]}),
    "relation-n-float": ("validate", "relation", {"n": 3.5, "pairs": VEE3_PAIRS}),
    "relation-n-bool": ("validate", "relation", {"n": True, "pairs": [[1, 1]]}),
}


class TestMalformedShapes:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SHAPES))
    def test_exits_two(self, capsys, tmp_path, case):
        sub, replaced, obj = MALFORMED_SHAPES[case]
        paths = {
            "relation": str(GOLDEN / "vee3_block.json"),
            "phi": str(GOLDEN / "vee3_block_phi.json"),
            "matrix": str(GOLDEN / "vee3_block_matrix.json"),
            "fn": str(GOLDEN / "vee3_block_scaling.json"),
        }
        bad = tmp_path / f"{replaced}.json"
        bad.write_text(json.dumps(obj))
        paths[replaced] = str(bad)
        args = {
            "apply": ("relation", "phi", "matrix"),
            "verify": ("relation", "phi"),
            "trivial": ("relation", "fn"),
            "validate": ("relation",),
        }[sub]
        code, out, err = run(capsys, "--json", sub, *(paths[a] for a in args))
        assert code == 2, out
        assert err.startswith("error: ")

    def test_empty_images_over_a_large_relation_exit_two_at_once(self, capsys, tmp_path):
        # images are read as plain n x n grids, with no relation built for them
        rel = tmp_path / "identity2000.json"
        rel.write_text(json.dumps({"n": 2000, "pairs": [[i, i] for i in range(1, 2001)]}))
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({"images": []}))
        start = time.monotonic()
        code, out, err = run(capsys, "--json", "verify", str(rel), str(phi))
        assert code == 2, out
        assert "images list is empty" in err
        assert time.monotonic() - start < 1.0


class TestScalarGrammar:
    def _apply(self, capsys, tmp_path, entry):
        bad = tmp_path / "matrix.json"
        bad.write_text(json.dumps({**VEE3_MATRIX, "entries": [[entry, "0", "2"], ["0", "3", "4"], ["0", "0", "5"]]}))
        return run(
            capsys, "--json", "apply",
            str(GOLDEN / "vee3_block.json"), str(GOLDEN / "vee3_block_phi.json"), str(bad),
        )

    def test_exponent_string_exits_two_at_once(self, capsys, tmp_path):
        # Fraction("1e100000000") would expand the exponent digit by digit
        start = time.monotonic()
        code, out, err = self._apply(capsys, tmp_path, "1e100000000")
        assert code == 2, out
        assert err.startswith("error: ")
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_scalar_exits_two(self, capsys, tmp_path, value):
        code, out, err = self._apply(capsys, tmp_path, value)
        assert code == 2, out
        assert err.startswith("error: ")

    # Equal scalars in one grid are decoded once; a bool equals and hashes
    # like 0 or 1, so it must not be handed the value decoded for them.
    BOOL_AFTER_NUMBER = {"one-true": [1, True, "2"], "zero-false": ["0", False, "2"], "int-zero-false": [0, False, "2"]}

    @pytest.mark.parametrize("row", sorted(BOOL_AFTER_NUMBER))
    def test_boolean_after_an_equal_matrix_entry_exits_two(self, capsys, tmp_path, row):
        bad = tmp_path / "matrix.json"
        entries = [self.BOOL_AFTER_NUMBER[row], ["0", "3", "4"], ["0", "0", "5"]]
        bad.write_text(json.dumps({**VEE3_MATRIX, "entries": entries}))
        code, out, err = run(
            capsys, "--json", "apply",
            str(GOLDEN / "vee3_block.json"), str(GOLDEN / "vee3_block_phi.json"), str(bad),
        )
        assert code == 2, out
        assert err.startswith("error: ")
        assert "scalar must be" in err

    @pytest.mark.parametrize("row", sorted(BOOL_AFTER_NUMBER))
    def test_boolean_after_an_equal_image_entry_exits_two(self, capsys, tmp_path, row):
        images = _vee3_images()
        images[0][2]["entries"][0] = self.BOOL_AFTER_NUMBER[row]
        bad = tmp_path / "phi.json"
        bad.write_text(json.dumps({"images": images}))
        code, out, err = run(capsys, "--json", "verify", str(GOLDEN / "vee3_block.json"), str(bad))
        assert code == 2, out
        assert err.startswith("error: ")
        assert "scalar must be" in err


# Integers that int() reads but that are not a string of ASCII digits with an
# optional minus sign: each input kind refuses them as a parse error.
LENIENT_INTEGERS = {
    "json-relation-n": ("relation.json", {"n": "\u0663", "pairs": [[1, 1], [2, 2], [3, 3]]}),
    "json-relation-element": ("relation.json", {"n": 3, "pairs": [["+1", 1], [2, 2], [3, 3]]}),
    "text-relation-n": ("relation.txt", "\uff13\n1 1\n2 2\n3 3\n"),
    "text-relation-element": ("relation.txt", "3\n1 1\n2 2\n3 \u0663\n"),
    "map-image-index": ("phi.json", {"images": [[" 1", 1, {"field": "Q", "n": 1, "entries": [["1"]]}]]}),
    "gf-characteristic": ("phi.json", {"images": [[1, 1, {"field": {"GF": "+5"}, "n": 1, "entries": [[1]]}]]}),
}


class TestIntegerGrammar:
    @pytest.mark.parametrize("case", sorted(LENIENT_INTEGERS))
    def test_file_integer_exits_two(self, capsys, tmp_path, case):
        name, content = LENIENT_INTEGERS[case]
        f = tmp_path / name
        f.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
        if name == "phi.json":
            rel = tmp_path / "one.json"
            rel.write_text(json.dumps({"n": 1, "pairs": [[1, 1]]}))
            argv = ("verify", str(rel), str(f))
        else:
            argv = ("validate", str(f))
        code, out, err = run(capsys, "--json", *argv)
        assert (code, out) == (2, ""), err
        assert "must be an integer" in err and "Traceback" not in err

    def test_class_order_entry_exits_two(self, capsys):
        crown6 = str(GOLDEN / "crown6.json")
        assert run(capsys, "blockform", crown6, "--class-order", "1, 4, 3, 2")[0] == 0
        code, out, err = run(capsys, "blockform", crown6, "--class-order", "1,+4,3,2")
        assert (code, out) == (2, "")
        assert err == "error: --class-order entry must be an integer, got '+4'\n"

    def test_size_bound_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SMA_MAX_N", "1_0")
        code, out, err = run(capsys, "autos", str(GOLDEN / "sym6.json"))
        assert (code, out) == (2, "")
        assert err == "error: SMA_MAX_N must be an integer, got '1_0'\n"

    @pytest.mark.parametrize("text", ["\u0663", "+3", "1_0"])
    def test_quasiorders_size_exits_two(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["--json", "oracle", "quasiorders", text])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument n: value must be an integer, got {text!r}" in err

    @pytest.mark.parametrize("text", ["\u0661", "+3", "1_0"])
    def test_seed_exits_two(self, capsys, text):
        vee3 = str(GOLDEN / "vee3.json")
        assert run(capsys, "--json", "oracle", "randphi", vee3, "--seed", "-1")[0] == 0  # signed
        with pytest.raises(SystemExit) as exc:
            main(["--json", "oracle", "randphi", vee3, "--seed", text])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument --seed: value must be an integer, got {text!r}" in err


class TestJsonFixpoint:
    def test_relation_json_round_trips(self, capsys):
        from sma import Relation

        for name in RELATION_FILES:
            if name.endswith(".txt"):
                continue
            text = (GOLDEN / name).read_text()
            rel = Relation.from_json(json.loads(text))
            assert Relation.from_json(rel.to_json()) == rel

    def test_json_output_builds_no_human_text(self, capsys, monkeypatch):
        import sma.blockform

        def render(bf):
            raise AssertionError("the human block grid was built")

        monkeypatch.setattr(sma.blockform, "render_pattern_grid", render)
        code, out, err = run(capsys, "--json", "blockform", str(GOLDEN / "crown6.json"))
        assert code == 0, err
        assert json.loads(out)["pattern"]
        with pytest.raises(AssertionError, match="human block grid"):  # the patch does reach the human form
            run(capsys, "blockform", str(GOLDEN / "crown6.json"))

    def test_machine_output_is_stable(self, capsys):
        code, out1, _ = run(capsys, "--json", "blockform", str(GOLDEN / "crown6.json"))
        code, out2, _ = run(capsys, "--json", "blockform", str(GOLDEN / "crown6.json"))
        assert out1 == out2

    def test_emitted_phi_parses_and_reprints_identically(self, capsys):
        from sma import Relation, spec_from_json

        code, out, _ = run(
            capsys, "--json", "oracle", "randphi", str(GOLDEN / "crown6_block.json"), "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        payload.pop("pi", None)
        rel = Relation.from_json(json.loads((GOLDEN / "crown6_block.json").read_text()))
        phi = spec_from_json(payload, rel)
        assert phi.to_json() == payload

    def test_emitted_factor_output_parses_back(self, capsys):
        code, out, _ = run(
            capsys, "--json", "factor",
            str(GOLDEN / "vee3_block.json"), str(GOLDEN / "vee3_block_phi.json"),
        )
        assert code == 0
        payload = json.loads(out)
        payload.pop("recomposition_matches")
        from sma import Relation, spec_from_json

        rel = Relation.from_json(json.loads((GOLDEN / "vee3_block.json").read_text()))
        phi = spec_from_json(payload, rel)
        assert phi.to_json() == payload
