"""Command-line interface.

Exit codes: 0 success, 1 domain errors (invalid relation, failed verification,
singular matrix, ...) or a standard output pipe whose reader closed it
before the output was written, 2 usage or parse errors.  No exit prints a
traceback.  Every subcommand but `validate` refuses a relation that is not a
quasi-order (exit 1).  `--json` switches every subcommand to machine-readable
output.  Every file argument is read as UTF-8; one that cannot be read or
decoded is a parse error.

A subcommand is a function of the parsed arguments and the loaded relation
(None for `oracle quasiorders`, the one subcommand without a relation file).
It returns its JSON payload, a function of no arguments that builds its human
text and, when it is not 0, its exit code.  `main` alone loads the relation,
applies `--close-reflexive` and the quasi-order gate, prints the payload or
the text, building the text only when it prints it, and maps errors to exit
codes.  Each subcommand imports the modules it calls, so a command that only
reads a relation loads no algebra.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import ParseError, SmaError
from .relation import MAX_ROWS_N, Relation, equivalence_classes, json_int, parse_json, validate

if TYPE_CHECKING:
    from .blockform import BlockForm

RANK_CAVEAT = (
    "rank counts independent multiplicative parameters over the rationals; "
    "over fields with multiplicative torsion the parameter count is exact only up to torsion"
)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str):
    return parse_json(_read_text(path), path)


def _load_relation(args) -> Relation:
    """The relation argument, after --close-reflexive; InvalidRelation when it
    is not a quasi-order, unless the subcommand is `validate`."""
    rel = Relation.parse(_read_text(args.relation), args.relation)
    if args.close_reflexive:
        # the closed relation is reflexive, so every subcommand builds its bit
        # rows; refuse before the diagonal is listed
        if rel.n > MAX_ROWS_N:
            raise ParseError(f"--close-reflexive accepts n up to {MAX_ROWS_N}, got n = {rel.n}")
        missing = {(i, i) for i in range(1, rel.n + 1)} - rel.pairs
        if missing:
            rel = Relation(rel.n, rel.pairs | missing)
    if args.command != "validate":
        rel.require_quasi_order()
    return rel


def _block_form(args, rel: Relation) -> BlockForm:
    """The relation's block form, in the --class-order layout when given."""
    from .blockform import build_block_form

    if args.class_order is None:
        return build_block_form(rel)
    p = equivalence_classes(rel).p
    tokens = args.class_order.split(",") if args.class_order else []
    order = [json_int(tok.strip(), "--class-order entry") - 1 for tok in tokens]
    if sorted(order) != list(range(p)):
        raise ParseError(f"--class-order must list every class index 1..{p} exactly once")
    return build_block_form(rel, order)


def _pattern_rows(bf: BlockForm) -> list[str]:
    """The block pattern, one string of F (full block) and 0 per block row."""
    from .blockform import block_pattern

    return ["".join("F" if c else "0" for c in row) for row in block_pattern(bf).full]


def _cmd_validate(args, rel: Relation):
    report = validate(rel)
    payload = {
        "ok": report.ok,
        "violations": [str(v) for v in report.violations],
        "truncated": report.truncated,
    }

    def text():
        lines = ["valid quasi-order" if report.ok else "not a quasi-order:"]
        lines += [f"  {v}" for v in report.violations]
        if report.truncated:
            lines.append("  (more violations suppressed)")
        return "\n".join(lines)

    return payload, text, 0 if report.ok else 1


def _cmd_classes(args, rel: Relation):
    part = equivalence_classes(rel)
    payload = {
        "classes": [list(c) for c in part.classes],
        "representatives": list(part.representatives),
    }
    return payload, lambda: "\n".join(
        f"class {k + 1}: {{{', '.join(map(str, cls))}}} (representative {cls[0]})"
        for k, cls in enumerate(part.classes)
    )


def _cmd_blockform(args, rel: Relation):
    from .blockform import class_order_permutation, compose_permutations, render_pattern_grid

    bf = _block_form(args, rel)
    part = bf.partition
    stage1 = class_order_permutation(part, range(part.p))
    isolation = compose_permutations(bf.pi, stage1.inverse())
    payload = {
        "pi": bf.pi.to_json(),
        "pi_cycles": bf.pi.cycle_notation(),
        "stage1_pi": stage1.to_json(),
        "isolation_pi": isolation.to_json(),
        "block_sizes": list(bf.block_sizes),
        "class_order": [k + 1 for k in bf.class_order],
        "num_comparable": bf.num_comparable,
        "num_isolated": bf.num_isolated,
        "permuted_pairs": [list(p) for p in bf.permuted.sorted_pairs()],
        "pattern": _pattern_rows(bf),
    }
    return payload, lambda: "\n".join([
        "permutation: " + ", ".join(f"{i + 1}->{img}" for i, img in enumerate(bf.pi.image)),
        f"cycles: {bf.pi.cycle_notation()}",
        f"class order (1-based): {[k + 1 for k in bf.class_order]}",
        f"block sizes: {list(bf.block_sizes)}",
        f"comparable blocks: {bf.num_comparable}, isolated blocks: {bf.num_isolated}",
        "",
        render_pattern_grid(bf),
    ])


def _cmd_pattern(args, rel: Relation):
    bf = _block_form(args, rel)
    rows = _pattern_rows(bf)
    payload = {"p": bf.p, "pattern": rows, "block_sizes": list(bf.block_sizes)}
    return payload, lambda: "\n".join(" ".join(row) for row in rows)


def _cmd_semisimple(args, rel: Relation):
    from .blockform import is_semisimple

    result = is_semisimple(rel)
    return {"semisimple": result}, lambda: "semisimple" if result else "not semisimple"


def _cmd_autos(args, rel: Relation):
    from .automorphism import enumerate_relation_automorphisms

    autos = enumerate_relation_automorphisms(rel)
    payload = {"count": len(autos), "automorphisms": [t.to_json() for t in autos]}
    return payload, lambda: "\n".join(
        [f"{len(autos)} relation automorphisms:"] + [f"  {t.cycle_notation():<20} {list(t.image)}" for t in autos]
    )


def _cmd_transrank(args, rel: Relation):
    from .transitive import cocycle_rank

    basis = cocycle_rank(rel)
    generators = [
        {f"{i},{j}": e for (i, j), e in basis.exponents(k).items()}
        for k in range(basis.rank)
    ]
    payload = {"rank": basis.rank, "generators": generators, "note": RANK_CAVEAT}

    def text():
        lines = [f"rank: {basis.rank}"]
        for k in range(basis.rank):
            terms = ", ".join(f"({i},{j})^{e}" for (i, j), e in sorted(basis.exponents(k).items()))
            lines.append(f"  generator {k + 1}: {terms}")
        lines.append(f"note: {RANK_CAVEAT}")
        return "\n".join(lines)

    return payload, text


def _cmd_trivial(args, rel: Relation):
    from .transitive import ScalingVector, TransitiveFn, triviality_witness

    g = TransitiveFn.from_json(_load_json(args.fn), rel)
    witness = triviality_witness(g)
    if isinstance(witness, ScalingVector):
        payload = {"trivial": True, "scaling": witness.to_json()}
        return payload, lambda: "trivial: g(i,j) = s(i)/s(j) for s = " + str(witness.to_json())
    payload = {
        "trivial": False,
        "cycle": list(witness.vertices),
        "product": g.field.scalar_to_json(witness.product),
    }
    return payload, lambda: (
        "nontrivial: closed walk "
        + " -> ".join(map(str, witness.vertices))
        + f" has oriented product {witness.product}"
    )


def _cmd_verify(args, rel: Relation):
    from .automorphism import spec_from_json
    from .factor import verify_automorphism

    phi = spec_from_json(_load_json(args.phi), rel)
    report = verify_automorphism(phi)
    payload = {"ok": report.ok, "check": report.check, "detail": report.detail}
    text = "automorphism verified" if report.ok else f"not an automorphism ({report.check}): {report.detail}"
    return payload, lambda: text, 0 if report.ok else 1


def _cmd_apply(args, rel: Relation):
    from .algebra import StructMatrix
    from .automorphism import spec_from_json

    phi = spec_from_json(_load_json(args.phi), rel)
    m = StructMatrix.from_json(_load_json(args.matrix), rel)
    result = phi.apply(m)
    return result.to_json(), lambda: "\n".join("  ".join(str(v) for v in row) for row in result.rows)


def _cmd_factor(args, rel: Relation):
    from .automorphism import spec_from_json
    from .blockform import build_block_form
    from .factor import carry_factors, factor_automorphism

    phi = spec_from_json(_load_json(args.phi), rel)
    factored = factor_automorphism(phi)  # its recomposition has been compared with phi
    bf = build_block_form(rel)
    payload = {"recomposition_matches": True}
    relabelled = not bf.pi.is_identity()
    if relabelled:  # the paper's block-form factors, read off phi's own
        factored = carry_factors(factored, bf.pi, bf.permuted)
        payload["pi"] = bf.pi.to_json()
    payload.update(factored.to_json())

    def text():
        lines = []
        if relabelled:
            lines.append(
                "relation was not in block form; factors carried over by "
                + ", ".join(f"{i + 1}->{img}" for i, img in enumerate(bf.pi.image))
            )
        lines += [
            f"tau: {factored.permutation.cycle_notation()}  {list(factored.permutation.image)}",
            "g (canonical, value on pairs not listed is 1): "
            + json.dumps(factored.scaling.to_json()["values"]),
            "A:",
        ]
        lines += ["  " + "  ".join(str(v) for v in row) for row in factored.conjugator.rows]
        lines.append(
            "verification: recomposing inner(A) o scaling(g) o permutation(tau) reproduces "
            + ("the input map relabelled by pi" if relabelled else "the input map")
            + " exactly"
        )
        return "\n".join(lines)

    return payload, text


def _cmd_oracle_autos(args, rel: Relation):
    from .oracle import brute_relation_automorphisms

    autos = brute_relation_automorphisms(rel)
    payload = {"count": len(autos), "automorphisms": [t.to_json() for t in autos]}
    return payload, lambda: f"{len(autos)} automorphisms (brute force)"


def _cmd_oracle_rank(args, rel: Relation):
    from .oracle import brute_cocycle_rank

    rank = brute_cocycle_rank(rel)
    return {"rank": rank}, lambda: f"rank: {rank} (brute force)"


def _cmd_oracle_quasiorders(args, rel: None):
    from .oracle import enumerate_quasiorders

    count = sum(1 for _ in enumerate_quasiorders(args.n))
    return {"n": args.n, "count": count}, lambda: f"{count} quasi-orders on {args.n} elements"


def _cmd_oracle_randphi(args, rel: Relation):
    from .algebra import Field
    from .oracle import random_factored_automorphism

    field_obj = args.field
    if field_obj.lstrip().startswith("{"):
        field_obj = parse_json(field_obj, "--field")
    payload = random_factored_automorphism(rel, Field.from_json(field_obj), args.seed).to_json()
    return payload, lambda: json.dumps(payload, indent=2, sort_keys=True)


def _int_argument(text: str) -> int:
    """An integer option or argument, read by the grammar of the file formats."""
    try:
        return json_int(text, "value")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = _int_argument(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


_PHI = ("phi", {"help": "automorphism JSON file"})
_CLASS_ORDER = ("--class-order", {"help": "comma-separated 1-based class indices on the diagonal"})

# Each subparser: name, help, function, and the arguments after the relation file
COMMANDS = (
    ("validate", "check reflexivity and transitivity", _cmd_validate, ()),
    ("classes", "mutual-relation classes", _cmd_classes, ()),
    ("blockform", "block upper triangular relabelling", _cmd_blockform, (_CLASS_ORDER,)),
    ("pattern", "full/zero block grid", _cmd_pattern, (_CLASS_ORDER,)),
    ("semisimple", "is the relation symmetric?", _cmd_semisimple, ()),
    ("autos", "enumerate relation automorphisms", _cmd_autos, ()),
    ("transrank", "rank and generators of nontrivial scaling functions", _cmd_transrank, ()),
    ("trivial", "coboundary witness or violating cycle", _cmd_trivial,
     (("fn", {"help": "transitive-function JSON file"}),)),
    ("verify", "check an automorphism spec", _cmd_verify, (_PHI,)),
    ("apply", "apply an automorphism to a matrix", _cmd_apply, (_PHI, ("matrix", {"help": "matrix JSON file"}))),
    ("factor", "split into inner o scaling o permutation", _cmd_factor, (_PHI,)),
)
ORACLE_COMMANDS = (
    ("autos", "automorphisms by filtering all permutations", _cmd_oracle_autos, ()),
    ("rank", "cocycle rank from the raw constraint system", _cmd_oracle_rank, ()),
    ("quasiorders", "count quasi-orders on n elements", _cmd_oracle_quasiorders, (("n", {"type": _positive_int}),)),
    ("randphi", "seeded random factored automorphism", _cmd_oracle_randphi,
     (("--field", {"default": "Q", "help": '"Q" or {"GF": p}'}), ("--seed", {"type": _int_argument, "default": 0}))),
)


def _add_subcommands(subs, table) -> None:
    for name, help_text, func, arguments in table:
        sub = subs.add_parser(name, help=help_text)
        if func is not _cmd_oracle_quasiorders:  # the one subcommand without a relation file
            sub.add_argument("relation", help="relation file (JSON or plain text)")
            sub.add_argument(
                "--close-reflexive",
                action="store_true",
                help="add missing diagonal pairs instead of rejecting them",
            )
        for name_or_flag, options in arguments:
            sub.add_argument(name_or_flag, **options)
        sub.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sma",
        description="Block triangular structure and automorphism factorization for structural matrix algebras.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_subcommands(subs, COMMANDS)
    oracle = subs.add_parser("oracle", help="brute-force cross-checks")
    _add_subcommands(oracle.add_subparsers(dest="oracle_cmd", required=True), ORACLE_COMMANDS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rel = _load_relation(args) if "relation" in args else None
        payload, text, *code = args.func(args, rel)
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text())
        sys.stdout.flush()  # a closed reader raises here, not at interpreter exit
        return code[0] if code else 0
    except SmaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    except BrokenPipeError:
        # Python flushes stdout again at exit; send that flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
