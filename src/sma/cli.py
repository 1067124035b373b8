"""Command-line interface.

Exit codes: 0 success, 1 domain errors (invalid relation, failed verification,
singular matrix, ...) or a standard output pipe whose reader closed it
before the output was written, 2 usage or parse errors.  No exit prints a
traceback.  Every subcommand but `validate` refuses a relation that is not a
quasi-order (exit 1).  `--json` switches every subcommand to machine-readable
output.  Each subcommand imports the modules it calls, so a command that only
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
from .relation import Relation, equivalence_classes, parse_json, validate

if TYPE_CHECKING:
    from .blockform import BlockForm

RANK_CAVEAT = (
    "rank counts independent multiplicative parameters over the rationals; "
    "over fields with multiplicative torsion the parameter count is exact only up to torsion"
)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str):
    return parse_json(_read_text(path), path)


# Largest n --close-reflexive accepts: the closure lists all n diagonal pairs.
MAX_CLOSE_REFLEXIVE_N = 100_000


def _load_relation(path: str, close_reflexive: bool, require_quasi_order: bool = True) -> Relation:
    """The relation argument, after --close-reflexive; unless told otherwise,
    InvalidRelation when it is not a quasi-order."""
    rel = Relation.parse(_read_text(path), path)
    if close_reflexive:
        if rel.n > MAX_CLOSE_REFLEXIVE_N:
            raise ParseError(
                f"--close-reflexive accepts n up to {MAX_CLOSE_REFLEXIVE_N}, got n = {rel.n}"
            )
        missing = {(i, i) for i in range(1, rel.n + 1)} - rel.pairs
        if missing:
            rel = Relation(rel.n, rel.pairs | missing)
    if require_quasi_order:
        rel.require_quasi_order()
    return rel


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _load_block_form(args) -> BlockForm:
    """The block form of the relation argument, in the --class-order layout when given."""
    from .blockform import build_block_form

    rel = _load_relation(args.relation, args.close_reflexive)
    if not args.class_order:
        return build_block_form(rel)
    p = equivalence_classes(rel).p
    try:
        order = [int(tok) - 1 for tok in args.class_order.split(",")]
    except ValueError as exc:
        raise ParseError(f"--class-order must be comma-separated integers: {exc}") from exc
    if sorted(order) != list(range(p)):
        raise ParseError(f"--class-order must list every class index 1..{p} exactly once")
    return build_block_form(rel, order)


def _cmd_validate(args) -> int:
    rel = _load_relation(args.relation, args.close_reflexive, require_quasi_order=False)
    report = validate(rel)
    payload = {
        "ok": report.ok,
        "violations": [str(v) for v in report.violations],
        "truncated": report.truncated,
    }
    lines = ["valid quasi-order" if report.ok else "not a quasi-order:"]
    lines += [f"  {v}" for v in report.violations]
    if report.truncated:
        lines.append("  (more violations suppressed)")
    _emit(args, payload, "\n".join(lines))
    return 0 if report.ok else 1


def _cmd_classes(args) -> int:
    rel = _load_relation(args.relation, args.close_reflexive)
    part = equivalence_classes(rel)
    payload = {
        "classes": [list(c) for c in part.classes],
        "representatives": list(part.representatives),
    }
    lines = [
        f"class {k + 1}: {{{', '.join(map(str, cls))}}} (representative {cls[0]})"
        for k, cls in enumerate(part.classes)
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def _blockform_payload(bf):
    from .blockform import block_pattern, class_order_permutation, compose_permutations

    part = bf.partition
    stage1 = class_order_permutation(part, range(part.p))
    isolation = compose_permutations(bf.pi, stage1.inverse())
    pat = block_pattern(bf)
    return {
        "pi": bf.pi.to_json(),
        "pi_cycles": bf.pi.cycle_notation(),
        "stage1_pi": stage1.to_json(),
        "isolation_pi": isolation.to_json(),
        "block_sizes": list(bf.block_sizes),
        "class_order": [k + 1 for k in bf.class_order],
        "num_comparable": bf.num_comparable,
        "num_isolated": bf.num_isolated,
        "permuted_pairs": [list(p) for p in bf.permuted.sorted_pairs()],
        "pattern": ["".join("F" if c else "0" for c in row) for row in pat.full],
    }


def _cmd_blockform(args) -> int:
    from .blockform import render_pattern_grid

    bf = _load_block_form(args)
    payload = _blockform_payload(bf)
    lines = [
        "permutation: " + ", ".join(f"{i + 1}->{img}" for i, img in enumerate(bf.pi.image)),
        f"cycles: {bf.pi.cycle_notation()}",
        f"class order (1-based): {[k + 1 for k in bf.class_order]}",
        f"block sizes: {list(bf.block_sizes)}",
        f"comparable blocks: {bf.num_comparable}, isolated blocks: {bf.num_isolated}",
        "",
        render_pattern_grid(bf),
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_pattern(args) -> int:
    from .blockform import block_pattern, render_block_pattern

    bf = _load_block_form(args)
    pat = block_pattern(bf)
    payload = {
        "p": pat.p,
        "pattern": ["".join("F" if c else "0" for c in row) for row in pat.full],
        "block_sizes": list(bf.block_sizes),
    }
    _emit(args, payload, render_block_pattern(pat))
    return 0


def _cmd_semisimple(args) -> int:
    from .blockform import is_semisimple

    rel = _load_relation(args.relation, args.close_reflexive)
    result = is_semisimple(rel)
    _emit(args, {"semisimple": result}, "semisimple" if result else "not semisimple")
    return 0


def _cmd_autos(args) -> int:
    from .automorphism import enumerate_relation_automorphisms

    rel = _load_relation(args.relation, args.close_reflexive)
    autos = enumerate_relation_automorphisms(rel)
    payload = {"count": len(autos), "automorphisms": [t.to_json() for t in autos]}
    lines = [f"{len(autos)} relation automorphisms:"]
    lines += [f"  {t.cycle_notation():<20} {list(t.image)}" for t in autos]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_transrank(args) -> int:
    from .transitive import cocycle_rank

    rel = _load_relation(args.relation, args.close_reflexive)
    basis = cocycle_rank(rel)
    generators = [
        {f"{i},{j}": e for (i, j), e in basis.exponents(k).items()}
        for k in range(basis.rank)
    ]
    payload = {"rank": basis.rank, "generators": generators, "note": RANK_CAVEAT}
    lines = [f"rank: {basis.rank}"]
    for k in range(basis.rank):
        terms = ", ".join(f"({i},{j})^{e}" for (i, j), e in sorted(basis.exponents(k).items()))
        lines.append(f"  generator {k + 1}: {terms}")
    lines.append(f"note: {RANK_CAVEAT}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_trivial(args) -> int:
    from .transitive import ScalingVector, TransitiveFn, triviality_witness

    rel = _load_relation(args.relation, args.close_reflexive)
    g = TransitiveFn.from_json(_load_json(args.fn), rel)
    witness = triviality_witness(g)
    if isinstance(witness, ScalingVector):
        payload = {"trivial": True, "scaling": witness.to_json()}
        human = "trivial: g(i,j) = s(i)/s(j) for s = " + str(witness.to_json())
    else:
        payload = {
            "trivial": False,
            "cycle": list(witness.vertices),
            "product": g.field.scalar_to_json(witness.product),
        }
        human = (
            "nontrivial: closed walk "
            + " -> ".join(map(str, witness.vertices))
            + f" has oriented product {witness.product}"
        )
    _emit(args, payload, human)
    return 0


def _cmd_verify(args) -> int:
    from .automorphism import spec_from_json
    from .factor import verify_automorphism

    rel = _load_relation(args.relation, args.close_reflexive)
    phi = spec_from_json(_load_json(args.phi), rel)
    report = verify_automorphism(phi)
    payload = {"ok": report.ok, "check": report.check, "detail": report.detail}
    human = "automorphism verified" if report.ok else f"not an automorphism ({report.check}): {report.detail}"
    _emit(args, payload, human)
    return 0 if report.ok else 1


def _cmd_apply(args) -> int:
    from .algebra import StructMatrix
    from .automorphism import spec_from_json

    rel = _load_relation(args.relation, args.close_reflexive)
    phi = spec_from_json(_load_json(args.phi), rel)
    m = StructMatrix.from_json(_load_json(args.matrix), rel)
    result = phi.apply(m)
    payload = result.to_json()
    lines = [
        "  ".join(str(v) for v in row)
        for row in result.rows
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_factor(args) -> int:
    from .automorphism import spec_from_json
    from .blockform import build_block_form
    from .factor import carry_factors, factor_automorphism

    rel = _load_relation(args.relation, args.close_reflexive)
    phi = spec_from_json(_load_json(args.phi), rel)
    factored = factor_automorphism(phi)  # its recomposition has been compared with phi
    bf = build_block_form(rel)
    payload = {"recomposition_matches": True}
    lines = []
    reproduced = "the input map"
    if not bf.pi.is_identity():  # the paper's block-form factors, read off phi's own
        factored = carry_factors(factored, bf.pi, bf.permuted)
        payload["pi"] = bf.pi.to_json()
        reproduced = "the input map relabelled by pi"
        lines.append(
            "relation was not in block form; factors carried over by "
            + ", ".join(f"{i + 1}->{img}" for i, img in enumerate(bf.pi.image))
        )
    payload.update(factored.to_json())
    lines += [
        f"tau: {factored.permutation.cycle_notation()}  {list(factored.permutation.image)}",
        "g (canonical, value on pairs not listed is 1): "
        + json.dumps(factored.scaling.to_json()["values"]),
        "A:",
    ]
    lines += ["  " + "  ".join(str(v) for v in row) for row in factored.conjugator.rows]
    lines.append(
        "verification: recomposing inner(A) o scaling(g) o permutation(tau) "
        f"reproduces {reproduced} exactly"
    )
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_oracle_autos(args) -> int:
    from .oracle import brute_relation_automorphisms

    rel = _load_relation(args.relation, args.close_reflexive)
    autos = brute_relation_automorphisms(rel)
    payload = {"count": len(autos), "automorphisms": [t.to_json() for t in autos]}
    _emit(args, payload, f"{len(autos)} automorphisms (brute force)")
    return 0


def _cmd_oracle_rank(args) -> int:
    from .oracle import brute_cocycle_rank

    rank = brute_cocycle_rank(_load_relation(args.relation, args.close_reflexive))
    _emit(args, {"rank": rank}, f"rank: {rank} (brute force)")
    return 0


def _cmd_oracle_quasiorders(args) -> int:
    from .oracle import enumerate_quasiorders

    count = sum(1 for _ in enumerate_quasiorders(args.n))
    _emit(args, {"n": args.n, "count": count}, f"{count} quasi-orders on {args.n} elements")
    return 0


def _cmd_oracle_randphi(args) -> int:
    from .algebra import Field
    from .oracle import random_factored_automorphism

    rel = _load_relation(args.relation, args.close_reflexive)
    field_obj = args.field
    if field_obj.lstrip().startswith("{"):
        field_obj = parse_json(field_obj, "--field")
    phi = random_factored_automorphism(rel, Field.from_json(field_obj), args.seed)
    payload = phi.to_json()
    _emit(args, payload, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _add_relation_arg(sub) -> None:
    sub.add_argument("relation", help="relation file (JSON or plain text)")
    sub.add_argument(
        "--close-reflexive",
        action="store_true",
        help="add missing diagonal pairs instead of rejecting them",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sma",
        description="Block triangular structure and automorphism factorization for structural matrix algebras.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate", help="check reflexivity and transitivity")
    _add_relation_arg(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = subs.add_parser("classes", help="mutual-relation classes")
    _add_relation_arg(sub)
    sub.set_defaults(func=_cmd_classes)

    sub = subs.add_parser("blockform", help="block upper triangular relabelling")
    _add_relation_arg(sub)
    sub.add_argument("--class-order", help="comma-separated 1-based class indices on the diagonal")
    sub.set_defaults(func=_cmd_blockform)

    sub = subs.add_parser("pattern", help="full/zero block grid")
    _add_relation_arg(sub)
    sub.add_argument("--class-order", help="comma-separated 1-based class indices on the diagonal")
    sub.set_defaults(func=_cmd_pattern)

    sub = subs.add_parser("semisimple", help="is the relation symmetric?")
    _add_relation_arg(sub)
    sub.set_defaults(func=_cmd_semisimple)

    sub = subs.add_parser("autos", help="enumerate relation automorphisms")
    _add_relation_arg(sub)
    sub.set_defaults(func=_cmd_autos)

    sub = subs.add_parser("transrank", help="rank and generators of nontrivial scaling functions")
    _add_relation_arg(sub)
    sub.set_defaults(func=_cmd_transrank)

    sub = subs.add_parser("trivial", help="coboundary witness or violating cycle")
    _add_relation_arg(sub)
    sub.add_argument("fn", help="transitive-function JSON file")
    sub.set_defaults(func=_cmd_trivial)

    sub = subs.add_parser("verify", help="check an automorphism spec")
    _add_relation_arg(sub)
    sub.add_argument("phi", help="automorphism JSON file")
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("apply", help="apply an automorphism to a matrix")
    _add_relation_arg(sub)
    sub.add_argument("phi", help="automorphism JSON file")
    sub.add_argument("matrix", help="matrix JSON file")
    sub.set_defaults(func=_cmd_apply)

    sub = subs.add_parser("factor", help="split into inner o scaling o permutation")
    _add_relation_arg(sub)
    sub.add_argument("phi", help="automorphism JSON file")
    sub.set_defaults(func=_cmd_factor)

    sub = subs.add_parser("oracle", help="brute-force cross-checks")
    oracle_subs = sub.add_subparsers(dest="oracle_cmd", required=True)
    osub = oracle_subs.add_parser("autos", help="automorphisms by filtering all permutations")
    _add_relation_arg(osub)
    osub.set_defaults(func=_cmd_oracle_autos)
    osub = oracle_subs.add_parser("rank", help="cocycle rank from the raw constraint system")
    _add_relation_arg(osub)
    osub.set_defaults(func=_cmd_oracle_rank)
    osub = oracle_subs.add_parser("quasiorders", help="count quasi-orders on n elements")
    osub.add_argument("n", type=_positive_int)
    osub.set_defaults(func=_cmd_oracle_quasiorders)
    osub = oracle_subs.add_parser("randphi", help="seeded random factored automorphism")
    _add_relation_arg(osub)
    osub.add_argument("--field", default="Q", help='"Q" or {"GF": p}')
    osub.add_argument("--seed", type=int, default=0)
    osub.set_defaults(func=_cmd_oracle_randphi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not at interpreter exit
        return code
    except SmaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    except BrokenPipeError:
        # Python flushes stdout again at exit; send that flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
