"""One timed operation per workload, and the check of its outcome.

Each operation is the sequence of public calls the matching `sma` subcommand
makes, every call wrapped by `tr.call` so a traced run sees one span per call.
Checks run outside the operation, on the values it returned, so they are not
part of the measured latency.
"""

from __future__ import annotations

import json
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import sma.oracle as oracle
from sma import (
    InvalidRelation,
    NotAutomorphism,
    Relation,
    SmaError,
    StructMatrix,
    apply,
    block_pattern,
    build_block_form,
    cocycle_rank,
    condensation,
    conjugate_by_block_form,
    enumerate_relation_automorphisms,
    equal_as_maps,
    equivalence_classes,
    factor_automorphism,
    is_block_form,
    spec_from_json,
    validate,
    verify_automorphism,
)

from inputs import MapCase, RejectCase, RelationCase

# Explicit enumeration bound: the largest relation any tier enumerates (crown 14).
ENUMERATION_BOUND = 14


def _parse_spec(text: str, rel: Relation):
    return spec_from_json(json.loads(text), rel)


def _parse_matrix(text: str, rel: Relation) -> StructMatrix:
    return StructMatrix.from_json(json.loads(text), rel)


def _dump(phi) -> str:
    return json.dumps(phi.to_json(), sort_keys=True)


def _classes(rel: Relation):
    part = equivalence_classes(rel)
    return part, condensation(rel, part)


def _normalize(tr, rel: Relation, phi):
    """`sma factor`'s first step: relabel into block form when needed."""
    if tr.call("blockform.is_block_form", is_block_form, rel):
        return phi
    bf = tr.call("blockform.build", build_block_form, rel)
    return tr.call("factor.conjugate", conjugate_by_block_form, phi, bf)


@contextmanager
def traced_oracle(tr):
    """Spans for the calls `random_factored_automorphism` makes inside
    `sma.oracle`, which a call from the benchmark's side cannot reach."""
    saved = (oracle.cocycle_rank, oracle.enumerate_relation_automorphisms)
    oracle.cocycle_rank = partial(tr.call, "transitive.cocycle_rank", saved[0])
    oracle.enumerate_relation_automorphisms = partial(enumerate_autos, tr)
    try:
        yield
    finally:
        oracle.cocycle_rank, oracle.enumerate_relation_automorphisms = saved


# ---------------------------------------------------------------------------
# factor: parse -> normalize -> verify -> factor -> recompose -> apply -> emit

@dataclass(frozen=True)
class FactorOutcome:
    verified: bool
    recomposed: bool
    applied: tuple
    factors_json: str


def factor_op(tr, case: MapCase) -> FactorOutcome:
    rel = tr.call("relation.parse", Relation.parse, case.relation_text)
    phi = tr.call("automorphism.parse", _parse_spec, case.phi_text, rel)
    target = _normalize(tr, rel, phi)
    report = tr.call("automorphism.verify", verify_automorphism, target)
    factored = tr.call("factor.factor", factor_automorphism, target, assume_verified=True)
    same = tr.call("automorphism.equal", equal_as_maps, factored, target)
    x = tr.call("algebra.matrix_parse", _parse_matrix, case.matrix_text, rel)
    y = tr.call("automorphism.apply", apply, phi, x)
    text = tr.call("automorphism.to_json", _dump, factored)
    return FactorOutcome(report.ok, same, y.rows, text)


def check_factor(case: MapCase, out: FactorOutcome, first_factors: str) -> str | None:
    if not out.verified:
        return "verify rejected a generated automorphism"
    if not out.recomposed:
        return "recomposed factors differ from the input map"
    if out.applied != case.expected_apply:
        return "apply disagrees with the factored form"
    if out.factors_json != first_factors:
        return "factors differ from the first pass"
    return None


# ---------------------------------------------------------------------------
# invariants: parse -> validate -> classes -> block form -> pattern -> rank -> autos

@dataclass(frozen=True)
class InvariantsOutcome:
    valid: bool
    rank: int
    autos: int


def invariants_op(tr, case: RelationCase) -> InvariantsOutcome:
    rel = tr.call("relation.parse", Relation.parse, case.relation_text)
    report = tr.call("relation.validate", validate, rel)
    tr.call("relation.classes", _classes, rel)
    bf = tr.call("blockform.build", build_block_form, rel)
    tr.call("blockform.pattern", block_pattern, bf)
    basis = tr.call("transitive.cocycle_rank", cocycle_rank, rel)
    autos = enumerate_autos(tr, rel, ENUMERATION_BOUND)
    return InvariantsOutcome(report.ok, basis.rank, len(autos))


def enumerate_autos(tr, rel: Relation, bound=None):
    autos = tr.call("automorphism.enumerate", enumerate_relation_automorphisms, rel, bound)
    tr.count("automorphism.enumerate.found", len(autos))
    return autos


def check_invariants(case: RelationCase, out: InvariantsOutcome) -> str | None:
    if not out.valid:
        return "validate rejected a quasi-order"
    if out.rank != case.rank:
        return f"cocycle rank {out.rank}, expected {case.rank}"
    if out.autos != case.autos:
        return f"{out.autos} relation automorphisms, expected {case.autos}"
    return None


# ---------------------------------------------------------------------------
# reject: a broken map must fail verify and factor; a broken relation must
# fail validate and build_block_form

@dataclass(frozen=True)
class RejectOutcome:
    verdict: bool                        # verify's ok, or validate's ok
    check: str | None                    # verify's failing check
    missing: frozenset                   # pairs validate reports as missing
    raised: str | None                   # class name of what factor/build raised


def _raised(tr, name, fn, *args) -> str | None:
    try:
        tr.call(name, fn, *args)
    except SmaError as exc:
        return type(exc).__name__
    return None


def reject_op(tr, case: RejectCase) -> RejectOutcome:
    rel = tr.call("relation.parse", Relation.parse, case.relation_text)
    if case.phi_text is None:
        report = tr.call("relation.validate", validate, rel)
        raised = _raised(tr, "blockform.build", build_block_form, rel)
        missing = frozenset(v.missing for v in report.violations)
        return RejectOutcome(report.ok, None, missing, raised)
    phi = tr.call("automorphism.parse", _parse_spec, case.phi_text, rel)
    report = tr.call("automorphism.verify", verify_automorphism, phi)
    tr.count("automorphism.verify.rejected", not report.ok)
    target = _normalize(tr, rel, phi)
    # As `sma factor` does, factor verifies again and must refuse the map.
    raised = _raised(tr, "factor.factor", factor_automorphism, target)
    tr.count("factor.factor.raised", raised is not None)
    return RejectOutcome(report.ok, report.check, frozenset(), raised)


def check_reject(case: RejectCase, out: RejectOutcome) -> str | None:
    if out.verdict:
        return f"{case.defect}: the broken input was accepted"
    if case.phi_text is None:
        if case.dropped not in out.missing:
            return f"validate did not name the dropped pair {case.dropped}"
        if out.raised != InvalidRelation.__name__:
            return f"build_block_form raised {out.raised}, expected InvalidRelation"
        return None
    if case.defect == "off_pattern" and out.check != "pattern":
        return f"off-pattern defect reported as {out.check!r}"
    if out.raised != NotAutomorphism.__name__:
        return f"factor raised {out.raised}, expected NotAutomorphism"
    return None


# ---------------------------------------------------------------------------
# cli: one fresh `python -m sma.cli --json ...` process

@dataclass(frozen=True)
class CliCase:
    label: str
    argv: tuple[str, ...]        # arguments after `--json`
    exit_code: int
    expected: dict | None        # library result the --json output must equal


def cli_op(tr, case: CliCase, python: str, env: dict, cwd: str) -> subprocess.CompletedProcess:
    return tr.call(
        f"cli.{case.argv[0]}",
        subprocess.run,
        [python, "-m", "sma.cli", "--json", *case.argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def check_cli(case: CliCase, out: subprocess.CompletedProcess) -> str | None:
    if "Traceback" in out.stderr:
        return f"{case.label}: traceback on stderr"
    if out.returncode != case.exit_code:
        return f"{case.label}: exit {out.returncode}, expected {case.exit_code}"
    if case.expected is not None:
        try:
            payload = json.loads(out.stdout)
        except json.JSONDecodeError:
            return f"{case.label}: --json output does not parse"
        wrong = [k for k, v in case.expected.items() if payload.get(k) != v]
        if wrong:
            return f"{case.label}: --json output differs from the library on {wrong}"
    return None
