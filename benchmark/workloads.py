"""The four workloads: tiers, seeded inputs, warm-up and per-op checks.

A batch is one pass over a tier's cases; every latency the benchmark reports
is a batch latency, a sum over families and fields, because single ops of
different families differ by two orders of magnitude.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
from pathlib import Path

from sma import (
    Relation,
    StructMatrix,
    build_block_form,
    cocycle_rank,
    conjugate_by_block_form,
    enumerate_relation_automorphisms,
    factor_automorphism,
    is_block_form,
    spec_from_json,
)

import inputs as gen
import ops
from inputs import FAMILIES, FIELDS

TIERS = ("small", "large")


def _rng(seed: int, *parts) -> random.Random:
    return random.Random("/".join(map(str, (seed, *parts))))


class Workload:
    """Base: subclasses give `generate`, `op` and `check`."""

    name = ""

    def generate(self, tr, seed: int) -> dict[str, list]:
        raise NotImplementedError

    def op(self, tr, case):
        raise NotImplementedError

    def check(self, case, outcome) -> str | None:
        raise NotImplementedError

    def warm_up(self, tr, cases: dict[str, list]) -> list[str]:
        """One untimed pass over every case, checked like a timed one."""
        problems = []
        for tier in TIERS:
            for case in cases[tier]:
                if problem := self.check(case, self.op(tr, case)):
                    problems.append(problem)
        return problems

    def relations(self, cases: dict[str, list]):
        """(family, relation) of every valid generated relation, for self_check."""
        seen = set()
        for tier in TIERS:
            for case in cases[tier]:
                if getattr(case, "dropped", None) is None and case.relation_text not in seen:
                    seen.add(case.relation_text)
                    yield case.family, Relation.parse(case.relation_text)

    def probe(self, tr) -> None:
        """Extra traced measurements outside the ops; none by default."""


class Factor(Workload):
    name = "factor"
    sizes = {"small": 6, "large": 8}

    def __init__(self) -> None:
        # Factors of each map from its first op (the warm-up pass); every
        # later op must reproduce them exactly.
        self.first: dict[str, str] = {}

    def generate(self, tr, seed):
        return {
            tier: [
                gen.map_case(tr, fam, fld, n, _rng(seed, self.name, n, fam, fld))
                for fam in FAMILIES
                for fld in FIELDS
            ]
            for tier, n in self.sizes.items()
        }

    def op(self, tr, case):
        return ops.factor_op(tr, case)

    def check(self, case, outcome):
        first = self.first.setdefault(case.phi_text, outcome.factors_json)
        return ops.check_factor(case, outcome, first)


class Invariants(Workload):
    name = "invariants"
    sizes = {
        "small": {fam: 6 for fam in FAMILIES},
        "large": {"total": 10, "chain2": 10, "crown": 14, "random": 10},
    }

    def generate(self, tr, seed):
        return {
            tier: [
                gen.relation_case(fam, n, _rng(seed, self.name, n, fam))
                for fam, n in sizes.items()
            ]
            for tier, sizes in self.sizes.items()
        }

    def op(self, tr, case):
        return ops.invariants_op(tr, case)

    def check(self, case, outcome):
        return ops.check_invariants(case, outcome)


class Reject(Workload):
    name = "reject"
    sizes = Factor.sizes
    # Random maps per (family, field), each broken by every defect.  How far
    # verify gets before it fails depends on the map, so with one map a
    # batch's cost swings with the seed; over three it swings less.
    maps = 3

    def generate(self, tr, seed):
        return {
            tier: [
                case
                for fam in FAMILIES
                for fld in FIELDS
                for k in range(self.maps)
                for case in gen.reject_cases(tr, fam, fld, n, _rng(seed, self.name, n, fam, fld, k))
            ]
            for tier, n in self.sizes.items()
        }

    def op(self, tr, case):
        return ops.reject_op(tr, case)

    def check(self, case, outcome):
        return ops.check_reject(case, outcome)


class Cli(Workload):
    """Fresh `python -m sma.cli --json` processes on files.

    Small tier: the golden files.  Large tier: generated files, n=10 for the
    relation subcommands and n=8 over GF(101) for the map subcommands, one
    family per subcommand so that all four families appear, plus three user
    errors with their documented exit codes.
    """

    name = "cli"
    golden = (
        ("validate", "sym6.json"),
        ("blockform", "crown6.json"),
        ("transrank", "crown6_block.json"),
        ("autos", "sym6.json"),
        ("verify", "vee3_block.json", "vee3_block_phi.json"),
        ("apply", "vee3_block.json", "vee3_block_phi.json", "vee3_block_matrix.json"),
        ("factor", "crown6_block.json", "crown6_block_phi.json"),
    )

    def __init__(self, root: Path, python: str, files: Path) -> None:
        self.root = root
        self.python = python
        self.files = files
        self.env = {k: v for k, v in os.environ.items() if k != "SMA_MAX_N"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.generated: list[tuple[str, Relation]] = []

    def _write(self, name: str, text: str) -> str:
        path = self.files / name
        path.write_text(text)
        return str(path.relative_to(self.root))

    def _read(self, rel_path: str) -> str:
        return (self.root / rel_path).read_text()

    def _expected(self, sub: str, paths: list[str]) -> dict:
        """The library's answer for the same files, computed in process."""
        rel = Relation.parse(self._read(paths[0]))
        if sub == "validate":
            return {"ok": True, "violations": []}
        if sub == "blockform":
            bf = build_block_form(rel)
            return {"pi": bf.pi.to_json(), "block_sizes": list(bf.block_sizes)}
        if sub == "transrank":
            basis = cocycle_rank(rel)
            return {
                "rank": basis.rank,
                "generators": [
                    {f"{i},{j}": e for (i, j), e in basis.exponents(k).items()}
                    for k in range(basis.rank)
                ],
            }
        if sub == "autos":
            autos = enumerate_relation_automorphisms(rel)
            return {"count": len(autos), "automorphisms": [t.to_json() for t in autos]}
        phi = spec_from_json(json.loads(self._read(paths[1])), rel)
        if sub == "verify":
            return {"ok": True}
        if sub == "apply":
            m = StructMatrix.from_json(json.loads(self._read(paths[2])), rel)
            return {"entries": phi.apply(m).to_json()["entries"]}
        expected = {"recomposition_matches": True}
        if not is_block_form(rel):
            bf = build_block_form(rel)
            phi = conjugate_by_block_form(phi, bf)
            expected["pi"] = bf.pi.to_json()
        factored = factor_automorphism(phi, assume_verified=True)
        expected.update(factored.to_json())
        return expected

    def generate(self, tr, seed):
        self.files.mkdir(parents=True, exist_ok=True)
        golden = self.root / "golden"
        small = []
        for sub, *names in self.golden:
            paths = [str((golden / name).relative_to(self.root)) for name in names]
            small.append(ops.CliCase(f"{sub} {names[0]}", (sub, *paths), 0, self._expected(sub, paths)))

        self.generated = []
        relations = {}
        for fam in ("random", "total", "crown"):
            rel = gen.make_relation(fam, 10, _rng(seed, self.name, 10, fam))
            relations[fam] = self._write(f"{fam}10.json", gen.relation_text(rel))
            self.generated.append((fam, rel))
        random10 = self.generated[0][1]
        maps = {}
        for fam in ("chain2", "total", "random"):
            case = gen.map_case(tr, fam, "GF101", 8, _rng(seed, self.name, 8, fam))
            maps[fam] = (
                self._write(f"{fam}8.json", case.relation_text),
                self._write(f"{fam}8_phi.json", case.phi_text),
                self._write(f"{fam}8_matrix.json", case.matrix_text),
            )
            self.generated.append((fam, Relation.parse(case.relation_text)))
        random8 = self.generated[-1][1]
        phi = spec_from_json(json.loads(self._read(maps["random"][1])), random8)
        broken_phi = self._write("broken8_phi.json", gen.broken_map_text(
            random8, FIELDS["GF101"], phi.images(), "perturb", _rng(seed, self.name, "broken")))

        large = []
        for sub, fam in (("validate", "random"), ("blockform", "random"), ("transrank", "total"), ("autos", "crown")):
            paths = [relations[fam]]
            large.append(ops.CliCase(f"{sub} {fam}10", (sub, *paths), 0, self._expected(sub, paths)))
        for sub, fam, k in (("verify", "chain2", 2), ("apply", "total", 3), ("factor", "random", 2)):
            paths = list(maps[fam][:k])
            large.append(ops.CliCase(f"{sub} {fam}8", (sub, *paths), 0, self._expected(sub, paths)))

        pair = gen.dropped_pair(random10, _rng(seed, self.name, "drop"))
        intransitive = self._write("intransitive.json", gen.relation_text(Relation(10, random10.pairs - {pair})))
        malformed = self._write("malformed.json", self._read(relations["random"])[:-2])
        large += [
            ops.CliCase("malformed JSON", ("validate", malformed), 2, None),
            ops.CliCase("intransitive relation", ("validate", intransitive), 1, {"ok": False}),
            ops.CliCase("non-automorphism", ("verify", maps["random"][0], broken_phi), 1, {"ok": False}),
        ]
        return {"small": small, "large": large}

    def op(self, tr, case):
        return ops.cli_op(tr, case, self.python, self.env, str(self.root))

    def check(self, case, outcome):
        return ops.check_cli(case, outcome)

    def relations(self, cases):
        return iter(self.generated)

    def probe(self, tr) -> None:
        """Traced run only: interpreter start, `import sma.cli`, and the known
        "1/0" defect, which is left out of the timed ops because it tracebacks."""
        run = lambda *argv: subprocess.run(  # noqa: E731
            [self.python, *argv], capture_output=True, text=True, env=self.env, cwd=self.root, timeout=120
        )
        tr.call("cli.interpreter", run, "-c", "pass")
        tr.call("cli.import", run, "-c", "import sma.cli")
        matrix = self._write("one_over_zero.json", json.dumps(
            {"field": "Q", "n": 3, "entries": [["1/0", "0", "2"], ["0", "3", "4"], ["0", "0", "5"]]}
        ))
        proc = tr.call(
            "cli.known_defect", run, "-m", "sma.cli", "--json", "apply",
            "golden/vee3_block.json", "golden/vee3_block_phi.json", matrix,
        )
        tr.count("cli.contract_breaks", "Traceback" in proc.stderr or proc.returncode not in (0, 1, 2))
