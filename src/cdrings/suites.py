"""Named verification suites: the library's claims, re-checked end to end.

Each suite sweeps a family of instances and cross-checks two independent
routes (closed form vs. linear solve, criterion vs. definitional scan,
presentation vs. tower). Suites are deterministic: instance order is fixed
and nothing is sampled, so repeated runs produce identical reports.

Suite names are stable CLI keys:

    thm-1.3     pair closed form of the associative center + N-essential
                criterion vs. definitional scans
    thm-1.4     pair closed form of the center + centrally essential
                criterion vs. definitional scans
    thm-1.5     the flagship rank-8 tower over Z4: alternative,
                non-associative, non-commutative, centrally essential; its
                double is not right-alternative
    prop-5.2    quaternion criterion vs. definitional verdicts per modulus
    prop-5.3    octonion criterion vs. definitional verdicts per modulus
    lemma-5.1   I essential in B  <=>  Ann(2) essential in the base ring
    remark-2.5  double associative <=> stage associative and commutative
    lemma-2.1   identity-system membership <=> associative-center membership
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .algebra import is_alternative, is_associative, is_commutative, is_right_alternative
from .analysis import (
    associative_center,
    center,
    essentiality_data,
    n_membership_by_identities,
    pair_coordinates,
    predicted_associative_center,
    predicted_center,
)
from .doubling import TowerSpec, build_tower, double
from .errors import AlgebraError
from .essentiality import (
    ann2_ideal,
    is_centrally_essential,
    is_essential_ideal,
    is_left_n_essential,
    centrally_essential_criterion,
    n_essential_criterion,
    noncommutative_centrally_essential_definitional,
    octonion_criterion,
    quaternion_criterion,
)
from .presentations import quaternion_algebra
from .residue import DEFAULT_ENUMERATION_BUDGET, all_vectors

DEFAULT_SWEEP_BASES = (2, 3, 4, 5, 6)
DEFAULT_SWEEP_DEPTH = 3
EXTRA_DEPTHS = {2: 4}  # base -> deeper default sweep depth


@dataclass(frozen=True)
class InstanceResult:
    instance: str
    passed: bool
    kind: str = "check"
    detail: str = ""
    witness: tuple | None = None
    skipped: bool = False


@dataclass
class VerificationReport:
    suite: str
    instances: list[InstanceResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed or r.skipped for r in self.instances)

    @property
    def counts(self) -> dict[str, int]:
        return {
            "total": len(self.instances),
            "passed": sum(1 for r in self.instances if r.passed and not r.skipped),
            "failed": sum(1 for r in self.instances if not r.passed and not r.skipped),
            "skipped": sum(1 for r in self.instances if r.skipped),
        }

    def render(self) -> str:
        lines = [f"suite {self.suite}"]
        for r in self.instances:
            status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
            line = f"  [{status}] {r.instance}"
            if r.detail:
                line += f" -- {r.detail}"
            if r.witness is not None and not r.passed:
                line += f" (witness {r.witness})"
            lines.append(line)
        c = self.counts
        lines.append(
            f"  {c['passed']} passed, {c['failed']} failed, {c['skipped']} skipped"
            f" in {self.elapsed:.2f}s"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "instances": [
                {
                    "instance": r.instance,
                    "passed": r.passed,
                    "kind": r.kind,
                    "detail": r.detail,
                    "witness": r.witness,
                    "skipped": r.skipped,
                }
                for r in self.instances
            ],
        }


def unit_parameter_tuples(base: int, depth: int):
    units = [u for u in range(1, base) if math.gcd(u, base) == 1]
    return itertools.product(units, repeat=depth)


def sweep_towers(bases=DEFAULT_SWEEP_BASES, depth=None):
    """Yield (base, params, stages) for every unit-parameter tower.

    Covers all depths 1..depth for each base. Without a depth the sweep is
    the paper's: DEFAULT_SWEEP_DEPTH plus the EXTRA_DEPTHS of each base.
    """
    for base in bases:
        top = EXTRA_DEPTHS.get(base, DEFAULT_SWEEP_DEPTH) if depth is None else depth
        for dep in range(1, top + 1):
            for params in unit_parameter_tuples(base, dep):
                stages = build_tower(TowerSpec(base, params))
                yield base, params, stages


def _tower_id(base: int, params) -> str:
    return f"Z{base};{','.join(str(p) for p in params)}"


def _formula_and_criterion_suite(
    name: str,
    formula_check,
    criterion_check,
    definitional_check,
    bases,
    depth,
    budget: int,
) -> VerificationReport:
    report = VerificationReport(name)
    start = time.perf_counter()
    for base, params, stages in sweep_towers(bases, depth):
        stage, doubled = stages[-2], stages[-1]
        data = essentiality_data(stage)
        tid = _tower_id(base, params)
        ok, detail = formula_check(data, doubled)
        report.instances.append(
            InstanceResult(f"{tid} formula", ok, kind="formula", detail=detail)
        )
        crit = criterion_check(stage, params[-1], data=data, budget=budget)
        ambient = doubled.modulus**doubled.rank
        if ambient > budget:
            report.instances.append(
                InstanceResult(
                    f"{tid} criterion-agreement",
                    True,
                    kind="criterion-agreement",
                    detail=f"definitional check skipped: |R| = {ambient} exceeds budget"
                    f" {budget}; criterion verdict = {crit.verdict}",
                    skipped=True,
                )
            )
            continue
        defn = definitional_check(doubled, budget=budget)
        agree = crit.verdict == defn.verdict
        report.instances.append(
            InstanceResult(
                f"{tid} criterion-agreement",
                agree,
                kind="criterion-agreement",
                detail=f"criterion={crit.verdict} definitional={defn.verdict}",
                witness=None if agree else (defn.witness or crit.witness),
            )
        )
    report.elapsed = time.perf_counter() - start
    return report


def suite_thm_1_3(
    bases=DEFAULT_SWEEP_BASES,
    depth=None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> VerificationReport:
    """Associative-center closed form and the N-essential criterion.

    depth=None sweeps the paper's depths (see `sweep_towers`); an explicit
    depth bounds every base, Z2 included.
    """

    def formula(data, doubled):
        predicted = predicted_associative_center(data, doubled)
        direct = associative_center(doubled)
        return predicted == direct, f"|N| = {direct.order()}"

    return _formula_and_criterion_suite(
        "thm-1.3", formula, n_essential_criterion, is_left_n_essential, bases, depth, budget
    )


def suite_thm_1_4(
    bases=DEFAULT_SWEEP_BASES,
    depth=None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> VerificationReport:
    """Center closed form and the centrally essential criterion, over the
    same sweep as `suite_thm_1_3`."""

    def formula(data, doubled):
        predicted = predicted_center(data, doubled)
        direct = center(doubled).Z
        return predicted == direct, f"|Z| = {direct.order()}"

    return _formula_and_criterion_suite(
        "thm-1.4", formula, centrally_essential_criterion, is_centrally_essential,
        bases, depth, budget,
    )


def suite_thm_1_5(budget: int = DEFAULT_ENUMERATION_BUDGET) -> VerificationReport:
    """The flagship example: rank-8 unit-parameter tower over Z4."""
    report = VerificationReport("thm-1.5")
    start = time.perf_counter()
    stages = build_tower(TowerSpec(4, (1, 1, 1, 1)))
    R = stages[3]
    checks = [
        ("alternative", is_alternative(R), True),
        ("associative", is_associative(R), False),
        ("commutative", is_commutative(R), False),
    ]
    for flag, got, expected in checks:
        report.instances.append(
            InstanceResult(
                f"rank-8 Z4 tower {flag}",
                got == expected,
                detail=f"expected {expected}, got {got}",
            )
        )
    ce = is_centrally_essential(R, budget=budget)
    report.instances.append(
        InstanceResult(
            "rank-8 Z4 tower centrally essential (definitional)",
            ce.verdict and ce.method == "definitional",
            detail=f"scanned all {R.modulus**R.rank - 1} nonzero elements,"
            f" {ce.cost} products",
            witness=ce.witness,
        )
    )
    further = stages[4]
    report.instances.append(
        InstanceResult(
            "rank-16 further double not right-alternative",
            not is_right_alternative(further),
            detail="right-alternative identity must fail",
        )
    )
    report.elapsed = time.perf_counter() - start
    return report


def _scalar_criterion_suite(
    name: str, n_range, budget: int, rank: int, criterion, definitional
) -> VerificationReport:
    """Per modulus n: a scalar criterion verdict vs. a definitional
    (verdict, witness) on the rank-`rank` algebra over Z/nZ."""
    report = VerificationReport(name)
    start = time.perf_counter()
    for n in n_range:
        crit = criterion(n)
        ambient = n**rank
        if ambient > budget:
            report.instances.append(
                InstanceResult(
                    f"n={n}",
                    True,
                    detail=f"definitional skipped (|A| = {ambient}); criterion = {crit.verdict}",
                    skipped=True,
                )
            )
            continue
        defn, witness = definitional(n)
        report.instances.append(
            InstanceResult(
                f"n={n}",
                crit.verdict == defn,
                detail=f"criterion={crit.verdict} definitional={defn}",
                witness=None if crit.verdict == defn else witness,
            )
        )
    report.elapsed = time.perf_counter() - start
    return report


def suite_prop_5_2(
    n_range=range(2, 10), budget: int = DEFAULT_ENUMERATION_BUDGET
) -> VerificationReport:
    """Quaternion criterion vs. definitional verdicts."""

    def definitional(n):
        alg = quaternion_algebra(n, 1, 1)
        defn = noncommutative_centrally_essential_definitional(alg, budget=budget)
        return defn.verdict, defn.witness

    return _scalar_criterion_suite(
        "prop-5.2", n_range, budget, 4, lambda n: quaternion_criterion(n, 1, 1), definitional
    )


def suite_prop_5_3(
    n_range=range(2, 10), budget: int = DEFAULT_ENUMERATION_BUDGET
) -> VerificationReport:
    """Octonion criterion vs. definitional verdicts."""

    def definitional(n):
        alg = build_tower(TowerSpec(n, (1, 1, 1)))[-1]
        ce = is_centrally_essential(alg, budget=budget)
        return ce.verdict and not is_associative(alg), ce.witness

    return _scalar_criterion_suite(
        "prop-5.3", n_range, budget, 8, lambda n: octonion_criterion(n, 1, 1, 1), definitional
    )


def suite_lemma_5_1(n_range=range(2, 10)) -> VerificationReport:
    """I essential in B on the quaternions <=> Ann(2) essential in the base."""
    report = VerificationReport("lemma-5.1")
    start = time.perf_counter()
    for n in n_range:
        alg = quaternion_algebra(n, 1, 1)
        data = essentiality_data(alg)
        lhs = is_essential_ideal(data.I, data.B, alg).verdict
        rhs = is_essential_ideal(*ann2_ideal(n)).verdict
        report.instances.append(
            InstanceResult(
                f"n={n}",
                lhs == rhs,
                detail=f"I-in-B={lhs} Ann(2)-in-base={rhs}",
            )
        )
    report.elapsed = time.perf_counter() - start
    return report


def suite_remark_2_5(
    bases=(2, 3, 4), depth=3, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> VerificationReport:
    """Double associative <=> stage associative and commutative."""
    report = VerificationReport("remark-2.5")
    start = time.perf_counter()
    for base, params, stages in sweep_towers(bases, depth):
        stage, doubled = stages[-2], stages[-1]
        lhs = is_associative(doubled)
        rhs = is_associative(stage) and is_commutative(stage)
        report.instances.append(
            InstanceResult(
                f"{_tower_id(base, params)}",
                lhs == rhs,
                detail=f"double-associative={lhs} stage-assoc-and-comm={rhs}",
            )
        )
    report.elapsed = time.perf_counter() - start
    return report


def suite_lemma_2_1(budget: int = DEFAULT_ENUMERATION_BUDGET) -> VerificationReport:
    """Identity-system membership equals associative-center membership.

    Exhaustive over all pairs (x, y) for the rank-4 tower over Z2 and the
    rank-2 tower over Z4.
    """
    report = VerificationReport("lemma-2.1")
    start = time.perf_counter()
    cases = [("Z2 quaternion stage", build_tower(TowerSpec(2, (1, 1)))[-1]),
             ("Z4 doubled base", build_tower(TowerSpec(4, (1,)))[-1])]
    for label, stage in cases:
        doubled = double(stage, 1)
        N = associative_center(doubled)
        n, d = stage.modulus, stage.rank
        mismatches = 0
        total = 0
        first_witness = None
        for x in all_vectors(n, d):
            for y in all_vectors(n, d):
                total += 1
                via_identities = n_membership_by_identities(doubled, x, y)
                via_center = N.contains(pair_coordinates(doubled, x, y))
                if via_identities != via_center:
                    mismatches += 1
                    if first_witness is None:
                        first_witness = (tuple(map(int, x)), tuple(map(int, y)))
        report.instances.append(
            InstanceResult(
                label,
                mismatches == 0,
                detail=f"{total} pairs swept, {mismatches} disagreements",
                witness=first_witness,
            )
        )
    report.elapsed = time.perf_counter() - start
    return report


SUITES = {
    "thm-1.3": suite_thm_1_3,
    "thm-1.4": suite_thm_1_4,
    "thm-1.5": suite_thm_1_5,
    "prop-5.2": suite_prop_5_2,
    "prop-5.3": suite_prop_5_3,
    "lemma-5.1": suite_lemma_5_1,
    "remark-2.5": suite_remark_2_5,
    "lemma-2.1": suite_lemma_2_1,
}


def run_suite(name: str, **kwargs) -> VerificationReport:
    if name not in SUITES:
        raise AlgebraError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    return SUITES[name](**kwargs)
