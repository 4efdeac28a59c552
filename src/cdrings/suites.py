"""Named verification suites: the library's claims, re-checked end to end.

Each suite sweeps a family of instances and cross-checks two independent
routes (closed form vs. linear solve, criterion vs. definitional check,
presentation vs. tower). A definitional check scans its module while it
fits the budget and is decided on the socle-bounded universe beyond it
(`essentiality._socle`); a check that raises is a skipped row. Suites are
deterministic: instance order is fixed and nothing is sampled, so repeated
runs produce identical reports.

A suite is a generator of `InstanceResult` rows registered under its name
with `@_suite(name)`; the registered function (also the `SUITES` entry)
runs the generator and returns the timed `VerificationReport`.

Suite names are stable CLI keys:

    thm-1.3     pair closed form and default route of the associative
                center vs. its kernel + N-essential criterion vs.
                definitional checks
    thm-1.4     pair closed form and default route of the center vs. its
                kernel + centrally essential criterion vs. definitional
                checks
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

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import is_alternative, is_associative, is_commutative, is_right_alternative
from .analysis import (
    _associative_center_kernel,
    _kernel_center,
    associative_center,
    center,
    essentiality_data,
    n_membership_by_identities,
    predicted_associative_center,
    predicted_center,
)
from .doubling import TowerSpec, build_tower, double, unit_towers
from .errors import AlgebraError, EnumerationBudgetExceeded
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


def sweep_towers(bases=DEFAULT_SWEEP_BASES, depth=None):
    """Yield (base, params, stages) for every unit-parameter tower.

    Covers all depths 1..depth of each base in `unit_towers` order and
    raises the first construction error. Without a depth the sweep is the
    paper's: DEFAULT_SWEEP_DEPTH plus the EXTRA_DEPTHS of each base.
    """
    for base in bases:
        top = EXTRA_DEPTHS.get(base, DEFAULT_SWEEP_DEPTH) if depth is None else depth
        for params, stages in itertools.islice(unit_towers(base, top), 1, None):
            if isinstance(stages, AlgebraError):
                raise stages
            yield base, params, stages


def _tower_id(base: int, params) -> str:
    return f"Z{base};{','.join(str(p) for p in params)}"


SUITES: dict[str, Callable[..., VerificationReport]] = {}


def _suite(name: str):
    """Register a generator of `InstanceResult` rows as the suite `name`.

    The registered function takes the generator's parameters (its signature,
    kept by `functools.wraps`, is where `cmd_verify` reads the flags a suite
    takes), runs it and returns the timed report.
    """

    def register(rows):
        @functools.wraps(rows)
        def run(*args, **kwargs) -> VerificationReport:
            report = VerificationReport(name)
            start = time.perf_counter()
            report.instances.extend(rows(*args, **kwargs))
            report.elapsed = time.perf_counter() - start
            return report

        SUITES[name] = run
        return run

    return register


def _formula_and_criterion_rows(
    label: str, predicted, direct, default, criterion_check, definitional_check,
    bases, depth, budget: int,
):
    """Per tower: the paper's closed form `predicted(data, doubled)` and the
    library's default route `default(doubled)` against the kernel
    `direct(doubled)` (a submodule named `label`), then the stage criterion
    against the definitional check on the double."""
    for base, params, stages in sweep_towers(bases, depth):
        stage, doubled = stages[-2], stages[-1]
        data = essentiality_data(stage)
        tid = _tower_id(base, params)
        closed_form = predicted(data, doubled)
        computed = direct(doubled)
        yield InstanceResult(
            f"{tid} formula",
            closed_form == computed and default(doubled) == computed,
            kind="formula",
            detail=f"|{label}| = {computed.order()}",
        )
        try:
            crit = criterion_check(stage, params[-1], budget=budget)
        except EnumerationBudgetExceeded as exc:
            yield InstanceResult(
                f"{tid} criterion-agreement", True, kind="criterion-agreement",
                detail=f"criterion skipped: {exc}", skipped=True,
            )
            continue
        try:
            defn = definitional_check(doubled, budget=budget)
        except EnumerationBudgetExceeded as exc:
            yield InstanceResult(
                f"{tid} criterion-agreement",
                True,
                kind="criterion-agreement",
                detail=f"definitional check skipped: {exc}; criterion verdict = {crit.verdict}",
                skipped=True,
            )
            continue
        agree = crit.verdict == defn.verdict
        yield InstanceResult(
            f"{tid} criterion-agreement",
            agree,
            kind="criterion-agreement",
            detail=f"criterion={crit.verdict} definitional={defn.verdict}",
            witness=None if agree else (defn.witness or crit.witness),
        )


@_suite("thm-1.3")
def suite_thm_1_3(bases=DEFAULT_SWEEP_BASES, depth=None, budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Associative-center closed form and the N-essential criterion.

    depth=None sweeps the paper's depths (see `sweep_towers`); an explicit
    depth bounds every base, Z2 included.
    """
    return _formula_and_criterion_rows(
        "N", predicted_associative_center, _associative_center_kernel, associative_center,
        n_essential_criterion, is_left_n_essential, bases, depth, budget,
    )


@_suite("thm-1.4")
def suite_thm_1_4(bases=DEFAULT_SWEEP_BASES, depth=None, budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Center closed form and the centrally essential criterion, over the
    same sweep as `suite_thm_1_3`."""
    return _formula_and_criterion_rows(
        "Z", predicted_center, lambda doubled: _kernel_center(doubled).Z,
        lambda doubled: center(doubled).Z,
        centrally_essential_criterion, is_centrally_essential, bases, depth, budget,
    )


@_suite("thm-1.5")
def suite_thm_1_5(budget: int = DEFAULT_ENUMERATION_BUDGET):
    """The flagship example: rank-8 unit-parameter tower over Z4."""
    stages = build_tower(TowerSpec(4, (1, 1, 1, 1)))
    R = stages[3]
    checks = [
        ("alternative", is_alternative(R), True),
        ("associative", is_associative(R), False),
        ("commutative", is_commutative(R), False),
    ]
    for flag, got, expected in checks:
        yield InstanceResult(
            f"rank-8 Z4 tower {flag}",
            got == expected,
            detail=f"expected {expected}, got {got}",
        )
    ce = is_centrally_essential(R, budget=budget)
    if ce.method != "definitional":
        # The row claims the definitional scan; a socle verdict is not one.
        yield InstanceResult(
            "rank-8 Z4 tower centrally essential (definitional)",
            True,
            detail=f"definitional scan skipped: enumeration needs {R.modulus**R.rank}"
            f" elements, budget is {budget}; {ce.method} verdict = {ce.verdict} ({ce.detail})",
            skipped=True,
        )
    else:
        yield InstanceResult(
            "rank-8 Z4 tower centrally essential (definitional)",
            ce.verdict,
            detail=f"scanned all {R.modulus**R.rank - 1} nonzero elements, {ce.cost} products",
            witness=ce.witness,
        )
    yield InstanceResult(
        "rank-16 further double not right-alternative",
        not is_right_alternative(stages[4]),
        detail="right-alternative identity must fail",
    )


def _scalar_criterion_rows(n_range, criterion, definitional):
    """Per modulus n: a scalar criterion verdict vs. a definitional
    (verdict, witness) on an algebra over Z/nZ."""
    for n in n_range:
        crit = criterion(n)
        try:
            defn, witness = definitional(n)
        except EnumerationBudgetExceeded as exc:
            yield InstanceResult(
                f"n={n}",
                True,
                detail=f"definitional skipped ({exc}); criterion = {crit.verdict}",
                skipped=True,
            )
            continue
        yield InstanceResult(
            f"n={n}",
            crit.verdict == defn,
            detail=f"criterion={crit.verdict} definitional={defn}",
            witness=None if crit.verdict == defn else witness,
        )


@_suite("prop-5.2")
def suite_prop_5_2(n_range=range(2, 10), budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Quaternion criterion vs. definitional verdicts."""

    def definitional(n):
        alg = quaternion_algebra(n, 1, 1)
        defn = noncommutative_centrally_essential_definitional(alg, budget=budget)
        return defn.verdict, defn.witness

    return _scalar_criterion_rows(
        n_range, lambda n: quaternion_criterion(n, 1, 1), definitional
    )


@_suite("prop-5.3")
def suite_prop_5_3(n_range=range(2, 10), budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Octonion criterion vs. definitional verdicts."""

    def definitional(n):
        alg = build_tower(TowerSpec(n, (1, 1, 1)))[-1]
        ce = is_centrally_essential(alg, budget=budget)
        return ce.verdict and not is_associative(alg), ce.witness

    return _scalar_criterion_rows(
        n_range, lambda n: octonion_criterion(n, 1, 1, 1), definitional
    )


@_suite("lemma-5.1")
def suite_lemma_5_1(n_range=range(2, 10)):
    """I essential in B on the quaternions <=> Ann(2) essential in the base."""
    for n in n_range:
        alg = quaternion_algebra(n, 1, 1)
        data = essentiality_data(alg)
        lhs = is_essential_ideal(data.I, data.B, alg).verdict
        rhs = is_essential_ideal(*ann2_ideal(n)).verdict
        yield InstanceResult(f"n={n}", lhs == rhs, detail=f"I-in-B={lhs} Ann(2)-in-base={rhs}")


@_suite("remark-2.5")
def suite_remark_2_5(bases=(2, 3, 4), depth=3):
    """Double associative <=> stage associative and commutative."""
    for base, params, stages in sweep_towers(bases, depth):
        stage, doubled = stages[-2], stages[-1]
        lhs = is_associative(doubled)
        rhs = is_associative(stage) and is_commutative(stage)
        yield InstanceResult(
            _tower_id(base, params),
            lhs == rhs,
            detail=f"double-associative={lhs} stage-assoc-and-comm={rhs}",
        )


@_suite("lemma-2.1")
def suite_lemma_2_1():
    """Identity-system membership equals associative-center membership.

    Exhaustive over all pairs (x, y) for the rank-4 tower over Z2 and the
    rank-2 tower over Z4, with one call of each side per case:
    `n_membership_by_identities` tabulates every pair of the listed vectors,
    and `N.contains` reduces all pairs concat(x, y) as one stack, built
    x-major (`np.repeat` for x, `np.tile` for y) in `itertools.product`
    order, so the first disagreeing index is the first witness of the
    pair-by-pair sweep.
    """
    cases = [("Z2 quaternion stage", build_tower(TowerSpec(2, (1, 1)))[-1]),
             ("Z4 doubled base", build_tower(TowerSpec(4, (1,)))[-1])]
    for label, stage in cases:
        doubled = double(stage, 1)
        N = associative_center(doubled)
        vectors = all_vectors(stage.modulus, stage.rank)
        k = len(vectors)
        via_identities = n_membership_by_identities(doubled, vectors, vectors).ravel()
        pairs = np.hstack([np.repeat(vectors, k, axis=0), np.tile(vectors, (k, 1))])
        disagreements = np.flatnonzero(via_identities != N.contains(pairs))
        first_witness = None
        if len(disagreements):
            x, y = divmod(int(disagreements[0]), k)
            first_witness = (tuple(map(int, vectors[x])), tuple(map(int, vectors[y])))
        yield InstanceResult(
            label,
            len(disagreements) == 0,
            detail=f"{k ** 2} pairs swept, {len(disagreements)} disagreements",
            witness=first_witness,
        )


def run_suite(name: str, **kwargs) -> VerificationReport:
    if name not in SUITES:
        raise AlgebraError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    return SUITES[name](**kwargs)
