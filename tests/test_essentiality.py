import itertools
import math
import random

import numpy as np
import pytest

from cdrings import algebra, essentiality
from cdrings.algebra import FiniteAlgebra, product_tensors, scalar_ring
from cdrings.analysis import center, essentiality_data
from cdrings.doubling import double, tower, unit_towers
from cdrings.errors import AlgebraError, EnumerationBudgetExceeded, NotInvertible
from cdrings.essentiality import (
    ann2_ideal,
    centrally_essential_criterion,
    is_centrally_essential,
    is_essential_ideal,
    is_essential_submodule,
    is_left_n_essential,
    is_right_n_essential,
    n_essential_criterion,
    noncommutative_centrally_essential_definitional,
    octonion_criterion,
    quaternion_criterion,
)
from cdrings.residue import Submodule, _exact_dtype, _reduce, all_vectors, intersect
from cdrings.suites import sweep_towers

from conftest import (
    batch_mul,
    batch_mul_right,
    brute_associative_center_set,
    brute_commutative_center_set,
    submodule_set,
)


@pytest.fixture(scope="module")
def z4_quaternion():
    return tower(4, 1, 1)


def naive_essential_submodule(algebra, sub):
    """Literal double loop over enumerated sets; the oracle's oracle."""
    n, d = algebra.modulus, algebra.rank
    sub_set = submodule_set(sub)
    for r in all_vectors(n, d):
        if not r.any():
            continue
        hit = False
        for z in sub.elements():
            prod = algebra.mul(z, r)
            if prod.any() and tuple(int(t) for t in prod) in sub_set:
                hit = True
                break
        if not hit:
            return False, tuple(int(t) for t in r)
    return True, None


def ring_multiples_meet(algebra, c, ring, ideal_set):
    """Does {s c : s in ring} meet the ideal outside 0? Element by element."""
    for s in ring.elements():
        prod = algebra.mul(s, c)
        if prod.any() and tuple(int(t) for t in prod) in ideal_set:
            return True
    return False


def naive_essential_ideal(algebra, ideal, ring):
    """Literal double loop: every nonzero c of the ring against every s."""
    ideal_set = submodule_set(ideal)
    for c in ring.elements():
        if c.any() and not ring_multiples_meet(algebra, c, ring, ideal_set):
            return False
    return True


def test_essential_ideal_matches_double_loop_on_stage_data():
    stages = {}
    for base, params, tower_stages in sweep_towers((2, 3, 4, 5, 6), 2):
        for idx, stage in enumerate(tower_stages):
            stages[(base, params[:idx])] = stage
    checked = 0
    for key, stage in stages.items():
        data = essentiality_data(stage)
        for ideal, ring in ((data.I, data.C), (intersect(data.J, data.I), data.B)):
            got = is_essential_ideal(ideal, ring, stage)
            assert got.verdict == naive_essential_ideal(stage, ideal, ring), key
            if not got.verdict:
                c = np.array(got.witness)
                assert c.any() and ring.contains(c), key
                assert not ring_multiples_meet(stage, c, ring, submodule_set(ideal)), key
            checked += 1
    assert checked == 2 * len(stages) == 90


def test_essential_ideal_trivial_cases():
    base = scalar_ring(4)
    C = Submodule.full(4, 1)
    assert is_essential_ideal(C, C, base).verdict
    two = Submodule.span(4, [[2]])
    assert is_essential_ideal(two, C, base).verdict
    zero3 = Submodule.zero(3, 1)
    v = is_essential_ideal(zero3, Submodule.full(3, 1), scalar_ring(3))
    assert not v.verdict
    assert v.witness == (1,)


def test_essential_ideal_of_a_small_ring_in_a_large_ambient():
    # The scalars of Z5 in the rank-32 tower: 5^32 > 2^63, so a product
    # cannot be keyed by an int64 integer below n^d.
    rank32 = tower(5, 1, 1, 1, 1, 1)
    scalars = Submodule.span(5, [[1] + [0] * 31], 32)
    got = is_essential_ideal(scalars, scalars, rank32)
    assert (got.verdict, got.method, got.cost) == (True, "definitional", 25)
    # 3^16 >= 2^24, so these scans take the float32 route.
    rank16 = tower(3, 1, 1, 1, 1)
    data, Z = essentiality_data(rank16), center(rank16).Z
    for ideal, ring in ((data.I, data.C), (Z, Z)):
        got = is_essential_ideal(ideal, ring, rank16)
        assert got.verdict == naive_essential_ideal(rank16, ideal, ring)


def test_essential_ideal_requires_containment(z4_quaternion):
    big = Submodule.full(4, 4)
    small = Submodule.span(4, [[2, 0, 0, 0]])
    with pytest.raises(ValueError):
        is_essential_ideal(big, small, z4_quaternion)


def test_centrally_essential_z4_quaternion(z4_quaternion):
    v = is_centrally_essential(z4_quaternion)
    assert v.verdict and v.method == "definitional"


def test_centrally_essential_commutative_algebra():
    assert is_centrally_essential(tower(6, 1)).verdict


def test_z3_quaternion_not_centrally_essential():
    A = tower(3, 1, 1)
    v = is_centrally_essential(A)
    assert not v.verdict
    assert v.witness is not None
    # re-check the witness independently
    Z = center(A).Z
    zset = submodule_set(Z)
    r = np.array(v.witness)
    assert r.any()
    for z in Z.elements():
        prod = A.mul(z, r)
        assert not (prod.any() and tuple(int(t) for t in prod) in zset)


def test_scan_agrees_with_naive_double_loop():
    for alg in (tower(3, 1, 1), tower(4, 1, 1), tower(2, 1, 1), tower(6, 1)):
        Z = center(alg).Z
        got = is_essential_submodule(Z, alg, property_name="Z essential")
        want, witness = naive_essential_submodule(alg, Z)
        assert got.verdict == want
        if not want:
            # both witnesses must independently violate the condition
            assert got.witness is not None


def witness_rule_oracle(algebra, members, side):
    """(verdict, witness) of "members r (side 'left') or r members (side
    'right') meets members outside 0 for every nonzero r", by a literal loop
    over r in code order, with the documented witness rule: the first unmet
    r among the pre-pass candidates (codes 1..32 and the powers n^k),
    otherwise the first unmet r."""
    n, d = algebra.modulus, algebra.rank
    # code order: coordinate 0 varies fastest
    ring = [tuple(reversed(t)) for t in itertools.product(range(n), repeat=d)]
    S = np.array(sorted(members), dtype=np.int64)
    unmet = []
    for code, r in enumerate(ring[1:], start=1):
        prods = batch_mul(algebra, S, r) if side == "left" else batch_mul_right(algebra, r, S)
        if not any(p.any() and tuple(int(t) for t in p) in members for p in prods):
            unmet.append(code)
    if not unmet:
        return True, None
    candidates = sorted(set(range(1, 33)) | {n**k for k in range(d)})
    first = next((k for k in candidates if k in unmet), unmet[0])
    return False, ring[first]


def test_ambient_scans_match_the_witness_rule_oracle():
    stages = {}
    for base, params, tower_stages in sweep_towers((2, 3, 4, 5, 6), 2):
        for idx, stage in enumerate(tower_stages):
            stages[(base, params[:idx])] = stage
    assert len(stages) == 45
    false_verdicts = 0
    for key, stage in stages.items():
        elems = all_vectors(stage.modulus, stage.rank)
        N = brute_associative_center_set(stage, elems)
        Z = N & brute_commutative_center_set(stage, elems)
        for check, members, side in (
            (is_centrally_essential, Z, "left"),
            (is_left_n_essential, N, "left"),
            (is_right_n_essential, N, "right"),
        ):
            got = check(stage)
            assert (got.verdict, got.witness) == witness_rule_oracle(stage, members, side), (
                key,
                check.__name__,
            )
            false_verdicts += not got.verdict
    assert false_verdicts > 0


def test_witness_outside_the_pre_pass_candidates():
    # In Z/99Z the multiples of the ideal (3) miss it exactly at 33 and 66;
    # neither is a code up to 32 or a power of 99, so the first one is the
    # witness.
    ring = scalar_ring(99)
    ideal = Submodule.span(99, [[3]], 1)
    got = is_essential_submodule(ideal, ring)
    assert (got.verdict, got.witness) == (False, (33,))
    assert witness_rule_oracle(ring, submodule_set(ideal), "left") == (False, (33,))


def test_pre_pass_candidate_met_past_the_first_chunk():
    # In Z68 x Z68 (componentwise product) the unit (1, 1) is the 70th
    # element in code order. The candidate u = (0, 1) gives s u = 0 for the
    # 68 elements (a, 0), so its first hit (0, 1) is the 69th multiplier,
    # in the second chunk; the ring is essential in itself.
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 0] = c[1, 1, 1] = 1
    ring = FiniteAlgebra(68, c, [1, 1], np.eye(2, dtype=np.int64))
    got = is_essential_submodule(Submodule.full(68, 2), ring)
    assert got.verdict and got.witness is None


@pytest.mark.parametrize("check", [is_left_n_essential, is_right_n_essential])
def test_witness_pre_pass_stops_each_candidate_at_its_first_hit(check):
    # S = N = R has 65,536 elements; walking all of S for each of the 42
    # pre-pass candidates would cost 2,752,512 products on its own.
    v = check(tower(2, 1, 1, 1, 1))
    assert v.verdict
    assert v.cost < 2 * 65_536


def sequential_scan(algebra, multipliers, target, universe, side):
    """`_scan` with its witness pre-pass walked literally, one candidate at a
    time, each with its own products of every chunk of 64, 256, 1024, ...
    multipliers in `np.lexsort` order; the sweep is the same s-outer loop.
    Products come from the structure tensor (`batch_mul`), membership in
    target \\ {0} from a table indexed by mixed-radix codes. Returns the
    verdict, witness and cost, and per walked candidate the pair (chunks
    walked, refuted)."""
    n, d = algebra.modulus, algebra.rank
    weights = n ** np.arange(d)
    member = np.zeros(n**d, dtype=bool)
    member[target.elements() @ weights] = True
    member[0] = False
    order = np.lexsort(multipliers.T)
    total = len(universe)
    cost, walks = 0, []

    def hits(prods):
        nonlocal cost
        cost += len(prods)
        return member[prods @ weights]

    def times_candidate(rows, u):
        return batch_mul(algebra, rows, u) if side == "left" else batch_mul_right(algebra, u, rows)

    def times_multiplier(s, rows):
        return batch_mul_right(algebra, s, rows) if side == "left" else batch_mul(algebra, rows, s)

    candidates = sorted(set(range(1, min(33, total))) | {n**k for k in range(d) if n**k < total})
    for uid in candidates:
        u = universe[uid]
        start, size, chunks = 0, 64, 0
        while start < len(order):
            chunks += 1
            if hits(times_candidate(multipliers[order[start : start + size]], u)).any():
                walks.append((chunks, False))
                break
            start, size = start + size, 4 * size
        else:
            walks.append((chunks, True))
            return False, tuple(int(t) for t in u), cost, walks
    satisfied = np.zeros(total, dtype=bool)
    satisfied[0] = True
    for i in order:
        s = multipliers[i]
        if not s.any():
            continue
        remaining = np.flatnonzero(~satisfied)
        if len(remaining) == 0:
            break
        if len(remaining) > total // 4:
            satisfied |= hits(times_multiplier(s, universe))
        else:
            satisfied[remaining[hits(times_multiplier(s, universe[remaining]))]] = True
    if satisfied.all():
        return True, None, cost, walks
    return False, tuple(int(t) for t in universe[np.flatnonzero(~satisfied)[0]]), cost, walks


def _random_submodule(rng, n, d):
    rows = [[rng.randrange(n) for _ in range(d)] for _ in range(rng.randint(1, d + 1))]
    return Submodule.span(n, rows, d)


def test_batched_pre_pass_matches_the_sequential_reference():
    # Random submodules S and T of unit towers over Z2..Z9 (at most 6,561
    # elements), scanned on both sides: verdict, witness and cost must be
    # those of the candidate-by-candidate walk.
    rng = random.Random(14)
    cases = {"refuted in chunk 1", "hit past chunk 1", "refuted past chunk 1", "later refuted"}
    seen = set()
    for base in range(2, 10):
        units = [u for u in range(1, base) if math.gcd(u, base) == 1]
        max_depth = 3 if base <= 3 else 2
        for _ in range(8):
            params = [rng.choice(units) for _ in range(rng.randint(1, max_depth))]
            alg = tower(base, *params)
            n, d = alg.modulus, alg.rank
            S = _random_submodule(rng, n, d)
            T = S if rng.random() < 0.5 else _random_submodule(rng, n, d)
            universe = all_vectors(n, d)
            for side in ("left", "right"):
                got = essentiality._scan(
                    alg, S.elements(), T, universe, side=side, property_name="p", detail=""
                )
                verdict, witness, cost, walks = sequential_scan(
                    alg, S.elements(), T, universe, side
                )
                assert (got.verdict, got.witness, got.cost) == (verdict, witness, cost), (
                    base, params, side
                )
                refuted = walks and walks[-1][1]
                seen |= {
                    label
                    for label, happened in (
                        ("refuted in chunk 1", refuted and walks[-1][0] == 1),
                        ("hit past chunk 1", any(c > 1 and not r for c, r in walks)),
                        ("refuted past chunk 1", refuted and walks[-1][0] > 1),
                        ("later refuted", refuted and len(walks) > 1),
                    )
                    if happened
                }
    assert seen == cases


@pytest.mark.parametrize(
    "n, d",
    [(2**31 - 1, 4), (2**31 - 1, 5), (2**31, 3), (2, 61), (2, 62), (3, 39), (3, 40), (7, 9)],
)
def test_packed_keys_give_the_lexsort_order(n, d):
    # (2^31 - 1)^2 < 2^62 <= (2^31)^2, 2^61 < 2^62 and 3^39 < 2^62 < 3^40:
    # each pair sits on both sides of a key boundary. Ties and the extreme
    # residues 0 and n - 1 are drawn often.
    rng = np.random.default_rng(d)
    picks = np.array([0, 1, n - 2, n - 1], dtype=np.int64)
    rows = np.where(
        rng.random((500, d)) < 0.5,
        picks[rng.integers(0, 4, (500, d))],
        rng.integers(0, n, (500, d), dtype=np.int64),
    )
    rows = np.vstack([rows, rows[:100]])
    assert np.array_equal(essentiality._code_order(rows, n), np.lexsort(rows.T))


_REDUCTION_MODULI = [*range(2, 13), 41, 47, 97, 1000, 2047, 2048]


@pytest.mark.parametrize("n", _REDUCTION_MODULI)
def test_float32_reduction_is_exact_up_to_its_bound(n):
    # Every x = qn + r with x + n <= 2^24. Rounding is monotone, so the rounded
    # x / n lies between those of qn and qn + n - 1: checking both ends for
    # every q checks every x in range, at a fraction of the cost of all of them.
    top = 2**24 - n
    for r in (0, n - 1):
        x = np.arange(r, top + 1, n, dtype=np.int32).astype(np.float32)
        assert (_reduce(x, n) == r).all()
    window = np.arange(top - 4096, top + 1)
    assert np.array_equal(_reduce(window.astype(np.float32), n), window % n)


@pytest.mark.parametrize("n", [*_REDUCTION_MODULI, 8194, 94_906_265])
def test_float64_reduction_is_exact_near_its_bound(n):
    # Sampled below x + n <= 2^53: both ends of the top 2048 quotients, the
    # top 2048 values and 2048 random ones, against Python ints; int64 too.
    top = 2**53 - n
    rng = random.Random(n)
    xs = [q * n + r for q in range(top // n - 2047, top // n + 1) for r in (0, n - 1)]
    xs = [x for x in xs if x <= top] + list(range(top - 2047, top + 1))
    xs += [rng.randrange(top + 1) for _ in range(2048)]
    expected = [x % n for x in xs]
    for dtype in (np.float64, np.int64):
        assert _reduce(np.array(xs, dtype=dtype), n).tolist() == expected


def _verdicts_and_tensors(base):
    """The three ambient checks on every unit tower over Z/base of depth <= 2,
    both criteria for its last doubling, and its product tensors, built anew
    so no memoized center carries over between routes."""
    out = []
    for params, stages in unit_towers(base, 2):
        if isinstance(stages, AlgebraError):
            continue
        alg = stages[-1]
        for check in (is_centrally_essential, is_left_n_essential, is_right_n_essential):
            out.append(check(alg))
        for criterion in (n_essential_criterion, centrally_essential_criterion):
            if params:
                out.append(criterion(stages[-2], params[-1]))
        out += [t.tolist() for t in product_tensors(alg)]
    return out


@pytest.mark.parametrize("base", [2, 3, 4, 5, 6])
def test_every_route_of_the_exactness_rule_agrees(base, monkeypatch):
    # Every dtype is exact at these moduli, so forcing each one in turn on the
    # scans and the product tensors must leave every verdict, witness and
    # cost, and every tensor, as it is.
    results = {}
    for dtype in (np.float32, np.float64, np.int64):
        callers = set()
        for module in (essentiality, algebra):

            def forced(n, terms, name=module.__name__, dtype=dtype):
                callers.add(name)
                return dtype

            monkeypatch.setattr(module, "_exact_dtype", forced)
        results[dtype] = _verdicts_and_tensors(base)
        assert callers == {"cdrings.essentiality", "cdrings.algebra"}
    assert results[np.float32] == results[np.float64] == results[np.int64]


def test_float64_route_scan():
    # 8193^2 + 8194 > 2^24, so this scan runs in float64.
    assert _exact_dtype(8194, 1) is np.float64
    v = quaternion_criterion(8194, 1, 1)
    assert (v.verdict, v.witness, v.cost) == (False, (2,), 13_634)


@pytest.mark.parametrize(
    "criterion, params", [(quaternion_criterion, (1, 1)), (octonion_criterion, (1, 1, 1))]
)
def test_scalar_criteria_report_the_products_they_evaluate(criterion, params):
    for n in [*range(2, 13), 8194]:
        v = criterion(n, *params)
        ann2, ring, base = ann2_ideal(n)
        # Z2 is its own annihilator of 2: not proper, and nothing is scanned.
        expected = 0 if ann2 == ring else is_essential_ideal(ann2, ring, base).cost
        assert v.cost == expected, n


def test_left_and_right_n_essential_on_octonion():
    R = tower(4, 1, 1, 1)
    left = is_left_n_essential(R)
    right = is_right_n_essential(R)
    assert left.verdict and right.verdict


def test_left_n_essential_false_for_z3_octonion():
    R = tower(3, 1, 1, 1)
    v = is_left_n_essential(R)
    assert not v.verdict


def test_budget_error():
    R = tower(6, 1, 1, 1)  # 6^8 ambient elements
    with pytest.raises(EnumerationBudgetExceeded):
        is_centrally_essential(R)


def test_monotonicity_of_essential_submodules(z4_quaternion):
    # if S <= T and S essential then T essential
    A = z4_quaternion
    Z = center(A).Z
    assert is_essential_submodule(Z, A).verdict
    T = Submodule.span(4, np.vstack([Z.generators, A.basis_element(1)]))
    for g in Z.generators:
        assert T.contains(g)
    assert is_essential_submodule(T, A).verdict


def test_lemma_about_composed_essentiality(z4_quaternion):
    # If B is essential in the stage module and I essential ideal in B, then
    # every nonzero r has B r cap I != 0 (desk scale check).
    A = z4_quaternion
    data = essentiality_data(A)
    assert is_essential_submodule(data.B, A).verdict
    assert is_essential_ideal(data.I, data.B, A).verdict
    iset = submodule_set(data.I)
    for r in all_vectors(4, 4):
        if not r.any():
            continue
        assert any(
            tuple(int(t) for t in A.mul(b, r)) in iset and A.mul(b, r).any()
            for b in data.B.elements()
        ), r


def test_n_essential_criterion_matches_definition_on_doubles():
    cases = [
        (scalar_ring(4), 1),
        (tower(4, 1), 1),
        (tower(4, 1, 1), 1),
        (tower(3, 1, 1), 1),
        (tower(2, 1, 1), 1),
        (tower(5, 1, 2), 2),
    ]
    for stage, alpha in cases:
        crit = n_essential_criterion(stage, alpha)
        R = double(stage, alpha)
        defn = is_left_n_essential(R)
        assert crit.verdict == defn.verdict, stage.name


def test_centrally_essential_criterion_matches_definition_on_doubles():
    cases = [
        (scalar_ring(4), 1),
        (tower(4, 1), 1),
        (tower(4, 1, 1), 1),
        (tower(3, 1, 1), 1),
        (tower(2, 1, 1), 1),
        (tower(5, 1, 1), 1),
    ]
    for stage, alpha in cases:
        crit = centrally_essential_criterion(stage, alpha)
        R = double(stage, alpha)
        defn = is_centrally_essential(R)
        assert crit.verdict == defn.verdict, stage.name


def test_criterion_agreement_extended_bases():
    # Bases 7..9, depths with the double still inside the budget.
    import itertools
    import math

    for base in (7, 8, 9):
        units = [u for u in range(1, base) if math.gcd(u, base) == 1]
        for depth in (1, 2):
            if base ** (2**depth) > 2**20:
                continue
            for params in itertools.product(units, repeat=depth):
                stage = tower(base, *params[:-1]) if depth > 1 else tower(base)
                R = double(stage, params[-1])
                assert (
                    n_essential_criterion(stage, params[-1]).verdict
                    == is_left_n_essential(R).verdict
                ), (base, params)
                assert (
                    centrally_essential_criterion(stage, params[-1]).verdict
                    == is_centrally_essential(R).verdict
                ), (base, params)


def test_criterion_agreement_for_nonscalar_parameter():
    stage = tower(4, 1, 1)
    alpha = [1, 2, 0, 0]
    R = double(stage, alpha)
    assert (
        n_essential_criterion(stage, alpha).verdict
        == is_left_n_essential(R).verdict
    )
    assert (
        centrally_essential_criterion(stage, alpha).verdict
        == is_centrally_essential(R).verdict
    )


def test_quaternion_criterion_sweep():
    # Independent one-line oracle: Ann = {x : 2x = 0 mod n}; proper iff not
    # the whole ring; essential iff every nonzero principal multiple set
    # meets it. Expected true set computed by hand from that oracle: {4, 8}.
    expected_true = set()
    for n in range(2, 10):
        ann = {x for x in range(n) if (2 * x) % n == 0}
        proper = ann != set(range(n))
        essential = all(
            ({(s * c) % n for s in range(n)} & ann) - {0} for c in range(1, n)
        )
        if proper and essential:
            expected_true.add(n)
    assert expected_true == {4, 8}
    for n in range(2, 10):
        v = quaternion_criterion(n, 1, 1)
        assert v.verdict == (n in expected_true), n


def test_quaternion_criterion_agrees_with_definitional_check():
    for n in range(2, 10):
        crit = quaternion_criterion(n, 1, 1)
        alg = tower(n, 1, 1)
        defn = noncommutative_centrally_essential_definitional(alg)
        assert crit.verdict == defn.verdict, n


def test_quaternion_criterion_rejects_non_units():
    with pytest.raises(NotInvertible):
        quaternion_criterion(4, 1, 2)


def test_octonion_criterion_examples():
    assert octonion_criterion(4, 1, 1, 1).verdict
    assert not octonion_criterion(3, 1, 1, 1).verdict
    assert not octonion_criterion(2, 1, 1, 1).verdict  # commutative over Z2
    with pytest.raises(NotInvertible):
        octonion_criterion(6, 1, 3, 1)


def test_octonion_criterion_agrees_with_definitional():
    for n in (2, 3, 4, 5):
        crit = octonion_criterion(n, 1, 1, 1)
        alg = tower(n, 1, 1, 1)
        ce = is_centrally_essential(alg)
        from cdrings.algebra import is_associative

        defn = ce.verdict and not is_associative(alg)
        assert crit.verdict == defn, n


def test_witness_validity_for_false_scans():
    for alg in (tower(3, 1, 1), tower(5, 1, 1)):
        v = is_centrally_essential(alg)
        assert not v.verdict and v.witness is not None
        Z = center(alg).Z
        zset = submodule_set(Z)
        r = np.array(v.witness)
        hits = [
            z
            for z in Z.elements()
            if alg.mul(z, r).any()
            and tuple(int(t) for t in alg.mul(z, r)) in zset
        ]
        assert hits == []


def test_verdict_cost_is_reported(z4_quaternion):
    v = is_centrally_essential(z4_quaternion)
    assert v.cost > 0
