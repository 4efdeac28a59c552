"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact (boolean or canonical-form equality).
"""

import random
import time

import pytest

from cdrings.algebra import is_associative, is_commutative
from cdrings.analysis import (
    associative_center,
    n_membership_by_identities,
    pair_coordinates,
)
from cdrings.doubling import TowerSpec, build_tower
from cdrings.essentiality import quaternion_criterion
from cdrings.residue import (
    ResidueMatrix,
    all_vectors,
    canonicalize,
    intersect,
    kernel,
)
from cdrings.suites import (
    suite_lemma_2_1,
    suite_lemma_5_1,
    suite_prop_5_2,
    suite_thm_1_3,
    suite_thm_1_4,
    suite_thm_1_5,
    sweep_towers,
)

from conftest import brute_kernel, brute_span, random_matrix, submodule_set


def _report(criterion: int, text: str):
    print(f"[acceptance] criterion {criterion}: PASS -- {text}")


@pytest.fixture(scope="module")
def thm_1_3_report():
    return suite_thm_1_3()


@pytest.fixture(scope="module")
def thm_1_4_report():
    return suite_thm_1_4()


def test_criterion_1_flagship_tower_flags_and_essentiality():
    start = time.perf_counter()
    report = suite_thm_1_5()
    elapsed = time.perf_counter() - start
    assert report.passed, report.render()
    by_name = {r.instance: r for r in report.instances}
    assert by_name["rank-8 Z4 tower alternative"].passed
    assert by_name["rank-8 Z4 tower associative"].passed  # expected False, matched
    assert by_name["rank-8 Z4 tower commutative"].passed
    ce_row = by_name["rank-8 Z4 tower centrally essential (definitional)"]
    assert ce_row.passed
    assert "all 65535 nonzero elements" in ce_row.detail
    assert by_name["rank-16 further double not right-alternative"].passed
    assert elapsed < 60, f"suite took {elapsed:.1f}s, target is < 60s"
    _report(1, f"flagship tower verified in {elapsed:.2f}s")


def test_criterion_2_associative_center_formula_equality(thm_1_3_report):
    formula_rows = [r for r in thm_1_3_report.instances if r.kind == "formula"]
    assert len(formula_rows) >= 40
    failures = [r for r in formula_rows if not r.passed]
    assert failures == [], [r.instance for r in failures]
    _report(2, f"{len(formula_rows)} tower stages, closed form exact on all")


def test_criterion_3_center_formula_equality(thm_1_4_report):
    formula_rows = [r for r in thm_1_4_report.instances if r.kind == "formula"]
    assert len(formula_rows) >= 40
    failures = [r for r in formula_rows if not r.passed]
    assert failures == [], [r.instance for r in failures]
    _report(3, f"{len(formula_rows)} tower stages, closed form exact on all")


def test_criterion_4_criterion_definition_agreement(thm_1_3_report, thm_1_4_report):
    checked = 0
    for report in (thm_1_3_report, thm_1_4_report):
        rows = [r for r in report.instances if r.kind == "criterion-agreement"]
        in_budget = [r for r in rows if not r.skipped]
        checked += len(in_budget)
        disagreements = [r for r in in_budget if not r.passed]
        assert disagreements == [], [
            (r.instance, r.detail) for r in disagreements
        ]
        # out-of-budget rows must be explicitly marked, never silently dropped
        for r in rows:
            if r.skipped:
                assert "budget" in r.detail
    assert checked >= 40
    _report(4, f"{checked} in-budget instances, criteria match definitions")


def test_criterion_5_quaternion_criterion_sweep():
    # Independent one-line oracle, computed before comparing:
    # Ann = {x : 2x = 0 mod n}, proper iff != whole ring, essential by
    # enumeration of principal multiple sets.
    oracle_true = set()
    for n in range(2, 10):
        ann = {x for x in range(n) if (2 * x) % n == 0}
        proper = ann != set(range(n))
        essential = all(
            ({(s * c) % n for s in range(n)} & ann) - {0} for c in range(1, n)
        )
        if proper and essential:
            oracle_true.add(n)
    assert oracle_true == {4, 8}

    report = suite_prop_5_2(range(2, 10))
    assert report.passed, report.render()
    for n in range(2, 10):
        verdict = quaternion_criterion(n, 1, 1).verdict
        assert verdict == (n in oracle_true), n
    assert all(not r.skipped for r in report.instances)  # n^4 <= 6561 all in budget
    _report(5, "criterion true exactly for n in {4, 8}; definitional agreement 8/8")


def test_criterion_6_identity_membership_equivalence():
    report = suite_lemma_2_1()
    assert report.passed, report.render()
    for row in report.instances:
        assert "0 disagreements" in row.detail
    # spot re-check through the public API on the rank-2 stage
    stage = build_tower(TowerSpec(4, (1,)))[-1]
    from cdrings.doubling import double

    doubled = double(stage, 1)
    N = associative_center(doubled)
    agree = all(
        n_membership_by_identities(doubled, x, y)
        == N.contains(pair_coordinates(doubled, x, y))
        for x in all_vectors(4, 2)
        for y in all_vectors(4, 2)
    )
    assert agree
    _report(6, "identity systems match center membership on every pair")


def test_criterion_7_associativity_transfer():
    count = 0
    for base, params, stages in sweep_towers((2, 3, 4, 5, 6)):
        stage, doubled = stages[-2], stages[-1]
        assert is_associative(doubled) == (
            is_associative(stage) and is_commutative(stage)
        ), (base, params)
        count += 1
    _report(7, f"associativity transfer holds on all {count} doublings")


def test_criterion_8_essential_ideal_bridge():
    report = suite_lemma_5_1(range(2, 10))
    assert report.passed, report.render()
    assert len(report.instances) == 8
    _report(8, "I-in-B equals Ann(2)-in-base for every n in 2..9")


def test_criterion_9_residue_linalg_oracle_suite():
    rng = random.Random(20240809)
    total = 0
    for modulus in (4, 6):
        for _ in range(100):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            mat = random_matrix(rng, modulus, rows, cols)
            rm = ResidueMatrix(modulus, mat)
            # kernel vs exhaustive enumeration
            assert submodule_set(kernel(rm)) == brute_kernel(mat, modulus)
            # canonical span vs additive closure
            span = canonicalize(rm)
            assert submodule_set(span) == brute_span(mat, modulus)
            # membership vs enumeration on a sample of vectors
            elems = submodule_set(span)
            for _ in range(10):
                v = [rng.randrange(modulus) for _ in range(cols)]
                assert span.contains(v) == (tuple(v) in elems)
            # intersection vs set intersection
            other = canonicalize(
                ResidueMatrix(modulus, random_matrix(rng, modulus, rows, cols))
            )
            assert submodule_set(intersect(span, other)) == (
                submodule_set(span) & submodule_set(other)
            )
            total += 1
    assert total == 200
    _report(9, "200 random matrices over Z4 and Z6: kernels, spans, memberships, intersections all exact")
