import ast
import collections
import inspect
import itertools
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdrings import algebra, analysis, essentiality, residue
from cdrings.algebra import FiniteAlgebra, product_tensors, scalar_ring
from cdrings.analysis import annihilator, associative_center, center, essentiality_data
from cdrings.doubling import double, tower, unit_towers
from cdrings.errors import (
    AlgebraError,
    DimensionMismatch,
    EnumerationBudgetExceeded,
    ModulusTooLarge,
    NotInvertible,
    StageMismatch,
)
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


def sequential_scan(algebra, multipliers, target, universe, side, branches=None):
    """`_scan` with its witness pre-pass walked literally, one candidate at a
    time, each with its own products of every chunk of 64, 256, 1024, ...
    of the listed multiplier rows, in their listed order; the sweep is the
    same s-outer loop over the universe rows. Products come from the structure tensor
    (`batch_mul`), membership in target \\ {0} from a table indexed by
    mixed-radix codes. Returns the verdict, witness and cost, and per walked
    candidate the pair (chunks walked, refuted); the sweep's dense and
    sparse steps are counted in the Counter `branches` when one is given."""
    n, d = algebra.modulus, algebra.rank
    branches = collections.Counter() if branches is None else branches
    weights = n ** np.arange(d)
    member = np.zeros(n**d, dtype=bool)
    member[target.elements() @ weights] = True
    member[0] = False
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
        while start < len(multipliers):
            chunks += 1
            if hits(times_candidate(multipliers[start : start + size], u)).any():
                walks.append((chunks, False))
                break
            start, size = start + size, 4 * size
        else:
            walks.append((chunks, True))
            return False, tuple(int(t) for t in u), cost, walks
    satisfied = np.zeros(total, dtype=bool)
    satisfied[0] = True
    for s in multipliers:
        if not s.any():
            continue
        remaining = np.flatnonzero(~satisfied)
        if len(remaining) == 0:
            break
        if len(remaining) > total // 4:
            branches["dense"] += 1
            satisfied |= hits(times_multiplier(s, universe))
        else:
            branches["sparse"] += 1
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
                got = essentiality._scan(alg, S, T, Submodule.full(n, d), side=side)
                verdict, witness, cost, walks = sequential_scan(
                    alg, _listed(S), T, universe, side
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


def _listed(sub):
    """The elements of sub in walk order, listed without the walk:
    `itertools.product` over the coefficients of the canonical generators,
    taken last first and reversed back, so that the first one varies
    fastest."""
    radices = [sub.modulus // p for _, p in sub.pivots]
    coeffs = [c[::-1] for c in itertools.product(*map(range, radices[::-1]))]
    return np.array(coeffs, dtype=np.int64) @ sub.generators % sub.modulus


def _recording(monkeypatch, module, walks):
    """Append (dtype, rows) of every array `module._combinations` returns to
    walks."""
    real = module._combinations

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        walks.append((out.dtype, len(out)))
        return out

    monkeypatch.setattr(module, "_combinations", recorded)


def _recording_decodes(monkeypatch, module, decoded):
    """Append (dtype, rows) of every array that a function made by
    `module._walker` returns to decoded."""
    real = module._walker

    def walker(*args):
        rows_at = real(*args)

        def recorded(ids):
            out = rows_at(ids)
            decoded.append((out.dtype, len(out)))
            return out

        return recorded

    monkeypatch.setattr(module, "_walker", walker)


def _walk_scan_cases(n, rank, trials):
    """(algebra, S, T, U, listed U) for random S and T and a universe U that
    is the whole algebra or a random submodule with non-unit radices."""
    alg = scalar_ring(n) if rank == 1 else tower(n, *[1] * (rank.bit_length() - 1))
    rng = random.Random(n * rank)
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    for trial in range(trials):
        # Beyond 4,096 elements S is kept small: scalars or one scaled row.
        if n**rank <= 4096:
            S = _random_submodule(rng, n, rank)
        elif trial % 3 == 0 and n < 1000:
            S = Submodule.span(n, [[rng.randrange(n)] + [0] * (rank - 1)], rank)
        else:
            k = rng.choice([k for k in divisors if k <= 64])
            S = Submodule.span(n, [[n // k * rng.randrange(n) for _ in range(rank)]], rank)
        if trial % 2:
            T = _random_submodule(rng, n, rank)
        else:
            k = rng.choice([k for k in divisors if k <= 4])
            T = Submodule.span(n, [[k * rng.randrange(n) for _ in range(rank)]
                                   for _ in range(rank + 1)], rank)
        if trial % 4 > 1:
            k = rng.choice(divisors[:-1])
            U = Submodule.span(n, [[k * rng.randrange(n) for _ in range(rank)]
                                   for _ in range(rng.randint(1, rank))], rank)
            yield alg, S, T, U, _listed(U)
        else:
            yield alg, S, T, Submodule.full(n, rank), all_vectors(n, rank)


@pytest.mark.parametrize(
    "n, rank, walk_dtype",
    [
        (4, 4, np.uint8),
        (8, 2, np.uint8),
        (9, 4, np.uint8),
        (12, 2, np.uint8),
        (128, 1, np.uint8),
        (128, 2, np.uint8),
        (129, 1, np.uint16),
        (129, 2, np.uint16),
        (40_000, 1, np.uint32),
    ],
)
def test_walk_scan_matches_the_sequential_reference(n, rank, walk_dtype, monkeypatch):
    # Random S and T scanned over the whole algebra and over random
    # submodules U with non-unit radices, on both sides: verdict, witness and
    # cost must be those of the literal scan of the listed universe. 2(n - 1)
    # fits uint8 up to n = 128 and uint16 up to n = 32,768.
    dense_walks = []
    _recording(monkeypatch, essentiality, dense_walks)
    branches, verdicts, radices = collections.Counter(), set(), set()
    for alg, S, T, universe, rows in _walk_scan_cases(n, rank, 32):
        radices |= set(universe.walk()[1])
        for side in ("left", "right"):
            got = essentiality._scan(alg, S, T, universe, side=side)
            verdict, witness, cost, _ = sequential_scan(
                alg, _listed(S), T, rows, side, branches
            )
            assert (got.verdict, got.witness, got.cost) == (verdict, witness, cost), side
            verdicts.add(verdict)
    # Each dense step of the reference is one tiled pass of the scan, which
    # walks its tile once and reaches the rest of the universe by offsets;
    # with equal costs, the products of the sparse steps were evaluated too.
    assert len(dense_walks) == branches["dense"] > 0 and branches["sparse"] > 0
    assert {dtype for dtype, _ in dense_walks} == {np.dtype(walk_dtype)}
    # No walk exceeds one tile: `_TILE` elements, or one generator's
    # multiples, at most n, where those alone are more.
    assert max(rows for _, rows in dense_walks) <= max(essentiality._TILE, n)
    assert verdicts == {True, False}
    assert radices - {n}


@pytest.mark.parametrize("n, rank, tile", [(4, 4, 32), (9, 4, 4), (9, 4, 32), (12, 2, 8)])
def test_small_tiles_match_the_sequential_reference(n, rank, tile, monkeypatch):
    # With `_TILE` cut to a few elements, dense passes walk many tiles, with
    # several offsets per comparison (a partial last group among them) and
    # more than `_TILE` offsets in batches, and pre-pass chunks and sparse
    # passes decode in many slices: verdict, witness and cost stay the
    # reference's.
    monkeypatch.setattr(essentiality, "_TILE", tile)
    branches = collections.Counter()
    cases = list(_walk_scan_cases(n, rank, 12))
    # The random trials reach no sparse pass at (4, 4); S = R and T the span
    # of every basis vector but the last, over the whole algebra, do.
    R, alg = Submodule.full(n, rank), cases[0][0]
    first = Submodule.span(n, np.eye(rank, dtype=np.int64)[:-1], rank)
    cases.append((alg, R, first, R, all_vectors(n, rank)))
    for alg, S, T, universe, rows in cases:
        for side in ("left", "right"):
            got = essentiality._scan(alg, S, T, universe, side=side)
            verdict, witness, cost, _ = sequential_scan(
                alg, _listed(S), T, rows, side, branches
            )
            assert (got.verdict, got.witness, got.cost) == (verdict, witness, cost), side
    assert branches["dense"] > 0 and branches["sparse"] > 0


def test_ambient_scan_builds_no_int64_table_of_the_algebra(monkeypatch):
    # The rank-8 Z4 tower has 4^8 = 65,536 elements: its scan walks them a
    # tile at a time in uint8, decodes multipliers and unmet elements by
    # index, and never lists the algebra as int64 rows.
    walks, decoded = [], []
    for module in (essentiality, residue):
        _recording(monkeypatch, module, walks)
        _recording_decodes(monkeypatch, module, decoded)
    assert is_centrally_essential(tower(4, 1, 1, 1)).verdict
    assert (np.dtype(np.uint8), essentiality._TILE) in walks
    assert max(rows for _, rows in walks) <= essentiality._TILE
    assert (np.dtype(np.int64), 4**8) not in walks + decoded
    assert max(rows for _, rows in decoded) <= essentiality._TILE


@pytest.mark.parametrize(
    "n, d",
    [
        (2**31 - 1, 4), (2**31 - 1, 5), (2**31, 3), (2, 61), (2, 62), (3, 39), (3, 40), (7, 9),
        (2**31 - 2, 2), (4, 4), (12, 3), (30, 2), (36, 3),
    ],
)
def test_packed_keys_give_the_lexsort_order(n, d):
    # The scan reads its multipliers by walk index (`Submodule.walk`,
    # `residue._walker`), with no key packed from the rows. On every
    # coordinate sum, the whole algebra among them, that walk is the order of
    # `np.lexsort`, the order every golden cost was recorded in. (2^31 - 1)^2
    # < 2^62 <= (2^31)^2, 2^61 < 2^62 and 3^39 < 2^62 < 3^40, so each pair
    # sits on both sides of where one int64 key per row of Z_n^d ran out.
    # Where the modulus rule refuses rank d, no submodule of Z_n^d exists and
    # the largest rank it admits is read instead. Walk indices are int64, so
    # a drawn sum with more than 2^62 elements loses nontrivial orders first.
    rank = d
    while True:
        try:
            Submodule.zero(n, rank)
            break
        except ModulusTooLarge:
            rank -= 1
    assert rank == d or (rank == 2 and n >= 2**31 - 1)
    rng = np.random.default_rng(d)
    divisors = sorted({math.gcd(n, k) for k in range(1, 65)} | {n})
    sums = [Submodule.zero(n, rank), Submodule.full(n, rank)]
    for _ in range(30):
        g = rng.choice(divisors, rank)
        while math.prod(int(x) for x in g) > 2**62:
            g[rng.choice(np.flatnonzero(g > 1))] = 1
        sums.append(Submodule.coordinate_sum(n, g))
    for s in sums:
        size = s.order()
        if size > 2**62:
            assert s == Submodule.full(n, rank) and n**rank == size
            continue
        rows_at = residue._walker(*s.walk(), n)
        if size <= 2**16:
            listed = s.elements()
            assert np.array_equal(rows_at(np.arange(size)), listed)
            assert np.array_equal(np.lexsort(listed.T), np.arange(size))
            assert len(np.unique(listed, axis=0)) == size and s.contains(listed).all()
            continue
        # Too many to list: sorted ids, the ends and runs of neighbours among
        # them, read rows of s strictly increasing in lexsort order.
        ends = [0, 1, 2, size - 3, size - 2, size - 1]
        starts = rng.integers(0, size - 3, 100, dtype=np.int64)
        ids = np.unique(np.concatenate([ends, rng.integers(0, size, 300), starts, starts + 1]))
        got = rows_at(ids)
        assert got.dtype == np.int64 and s.contains(got).all()
        assert not got[0].any()
        assert np.array_equal(np.lexsort(got.T), np.arange(len(ids)))
        assert (got[1:] != got[:-1]).any(axis=1).all()
        assert np.array_equal(rows_at(ids[::-1]), got[::-1])


def test_n_essential_scan_of_the_rank_16_z2_tower_stays_small():
    # S = N = R has 65,536 elements, which the scan once listed as an 8 MB
    # int64 table before reading its first 64 multipliers.
    R = tower(2, 1, 1, 1, 1)
    associative_center(R)  # memoized: only the scan is measured
    tracemalloc.start()
    try:
        assert is_left_n_essential(R).verdict
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_scan_refuses_more_multipliers_than_the_budget(monkeypatch):
    # As `Submodule.elements(budget)` did: the scan raises with |S| and the
    # budget before it forms any product.
    R = tower(3, 1, 1)
    S = Submodule.full(3, 4)

    def no_products(*args, **kwargs):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(essentiality, "_matmul_mod", no_products)
    monkeypatch.setattr(FiniteAlgebra, "mul_matrices", no_products)
    with pytest.raises(EnumerationBudgetExceeded) as info:
        essentiality._scan(R, S, S, Submodule.full(3, 4), side="left", budget=80)
    assert (info.value.required, info.value.budget) == (81, 80)


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
        for module in (essentiality, residue):

            def forced(n, terms, name=module.__name__, dtype=dtype):
                callers.add(name)
                return dtype

            monkeypatch.setattr(module, "_exact_dtype", forced)
        results[dtype] = _verdicts_and_tensors(base)
        assert callers == {"cdrings.essentiality", "cdrings.residue"}
    assert results[np.float32] == results[np.float64] == results[np.int64]


@pytest.mark.parametrize("n, dtype", [(2048, np.float32), (2049, np.float64)])
def test_pre_pass_matrices_equal_the_int64_einsum(n, dtype):
    # At rank 4, 4 (n - 1)^2 + n is 2^24 - 14,332 for n = 2048 and above 2^24
    # for n = 2049: the two sides of the float32 edge of the exactness rule.
    # The scan's pre-pass stacks the candidates' matrices as [i, u, k], with
    # s @ mats[:, u] = s u (side 'left') or u s.
    alg = tower(n, 1, n - 1)
    assert _exact_dtype(n, alg.rank) is dtype
    rng = np.random.default_rng(n)
    candidates = np.vstack([rng.integers(0, n, (40, 4)), np.full((1, 4), n - 1)])
    s = rng.integers(0, n, 4)
    for side, spec in (("left", "uj,ijk->iuk"), ("right", "ui,ijk->juk")):
        mats = alg.mul_matrices(candidates, "right" if side == "left" else "left")
        mats = mats.transpose(1, 0, 2)
        assert mats.dtype == dtype
        assert np.array_equal(mats, np.einsum(spec, candidates, alg.structure) % n)
        product = alg.mul(s, candidates[0]) if side == "left" else alg.mul(candidates[0], s)
        assert np.array_equal(s @ mats[:, 0].astype(np.int64) % n, product)


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
    # The enumerations refuse the 6^8 elements of R; the checks on R are
    # decided on the socle instead, and raise only where that route does
    # (see `test_socle_step_c_raises_beyond_the_budget`).
    R = tower(6, 1, 1, 1)
    with pytest.raises(EnumerationBudgetExceeded):
        all_vectors(6, 8)
    with pytest.raises(EnumerationBudgetExceeded):
        Submodule.full(6, 8).elements()
    assert is_centrally_essential(R).method == "socle"


def test_over_budget_checks_are_decided_on_the_socle():
    # 6^8 > 2^20 and Z6 is squarefree, so U = R; step (b) finds a u = e e_l
    # (e an idempotent of Z6) whose Z-multiples meet Z only in 0.
    R = tower(6, 1, 1, 1)
    v = is_centrally_essential(R)
    assert (v.verdict, v.method, v.cost) == (False, "socle", 0)
    assert v.detail.startswith("socle step (b):") and "|U| = 1679616" in v.detail
    # The witness is checked by linear algebra alone.
    Z, u = center(R).Z, np.array(v.witness)
    multiples = Submodule.span(6, [R.mul(z, u) for z in Z.generators], 8)
    assert u.any() and intersect(multiples, Z).is_zero
    # 4^16 > 2^20: U = 2R lies in Z, step (a).
    v = is_centrally_essential(tower(4, 1, 1, 1, 1))
    assert (v.verdict, v.method, v.witness) == (True, "socle", None)
    assert v.detail == (
        "socle step (a): U = ann_M(rad(n)) lies in the target; |U| = 65536, |S| = 131072"
    )


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


@pytest.mark.parametrize("criterion", [n_essential_criterion, centrally_essential_criterion])
def test_criteria_decide_their_stage_once_for_every_alpha(criterion, monkeypatch):
    scans = []
    real = essentiality._scan
    monkeypatch.setattr(
        essentiality, "_scan", lambda *args, **kw: scans.append(kw) or real(*args, **kw)
    )
    stage = tower(5, 1)
    first = criterion(stage, 1)
    assert scans
    fresh = criterion(tower(5, 1), 1)
    assert (fresh.verdict, fresh.witness, fresh.cost) == (first.verdict, first.witness, first.cost)
    scanned = len(scans)
    assert all(criterion(stage, alpha) is first for alpha in (2, 3, 4))
    assert len(scans) == scanned
    with pytest.raises(NotInvertible):
        criterion(stage, 5)  # alpha is still certified on every call
    assert criterion(stage, 1, budget=2**12) is not first
    assert len(scans) > scanned


@pytest.mark.parametrize("criterion", [n_essential_criterion, centrally_essential_criterion])
def test_over_budget_criteria_raise_every_time(criterion, monkeypatch):
    # Stages over the budget are decided on the socle, and kept in the memo.
    stage = tower(6, 1, 1, 1)  # 6^8 stage elements
    first = criterion(stage, 1)
    assert first.verdict is False and criterion(stage, 5) is first
    # A check that still raises (see `test_socle_step_c_raises_beyond_the_budget`)
    # leaves nothing there.
    def over_budget(*args, **kwargs):
        raise EnumerationBudgetExceeded(6**8, 2**20)

    monkeypatch.setattr(essentiality, "_scan_ambient", over_budget)
    stage = tower(6, 1, 1, 1)
    for _ in range(2):
        with pytest.raises(EnumerationBudgetExceeded):
            criterion(stage, 1)
    # Only invariants and the certificate of alpha are kept, no decision.
    assert all(isinstance(key, str) or key[0] == "certified" for key in stage.memo)


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


# -- the socle route beyond the budget ------------------------------------------

SOCLE_SWEEP = [(2, 4), (3, 3), (4, 3), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (10, 1), (12, 1)]


def _socle_cases(algebra):
    """(S, T, M, side, in-budget check) for each essentiality check on the
    algebra: the three ambient checks and the criteria's three clauses."""
    n, d = algebra.modulus, algebra.rank
    R, Z, N = Submodule.full(n, d), center(algebra).Z, associative_center(algebra)
    data = essentiality_data(algebra)
    J1 = intersect(data.J, data.I)
    return [
        (Z, Z, R, "left", lambda: is_centrally_essential(algebra)),
        (N, N, R, "left", lambda: is_left_n_essential(algebra)),
        (N, N, R, "right", lambda: is_right_n_essential(algebra)),
        (data.B, data.B, R, "left", lambda: is_essential_submodule(data.B, algebra)),
        (data.C, data.I, data.C, "left", lambda: is_essential_ideal(data.I, data.C, algebra)),
        (data.B, J1, data.B, "left", lambda: is_essential_ideal(J1, data.B, algebra)),
    ]


def _socle_verdict(algebra, S, T, M, side):
    """The socle verdict of T in the S-module M, asked directly."""
    return essentiality._socle(algebra, S, T, M, side=side, budget=2**20)


def test_socle_equals_the_scan_on_every_in_budget_check_of_the_unit_towers():
    steps = collections.Counter()
    for base, depth in SOCLE_SWEEP:
        for params, stages in unit_towers(base, depth):
            for S, T, M, side, check in _socle_cases(stages[-1]):
                scan = check()
                assert scan.method == "definitional"
                got = _socle_verdict(stages[-1], S, T, M, side)
                assert (got.method, got.verdict) == ("socle", scan.verdict), (base, params)
                steps[got.detail[:14]] += 1
    # 1,080 checks: none of them needs step (c).
    assert steps == {"socle step (a)": 592, "socle step (b)": 488}


def _dual_numbers(n):
    """Z/n[x]/(x^2) on the basis 1, x, with the identity involution."""
    structure = np.zeros((2, 2, 2), dtype=np.int64)
    structure[0, 0, 0] = structure[0, 1, 1] = structure[1, 0, 1] = 1
    return FiniteAlgebra(n, structure, [1, 0], np.eye(2, dtype=np.int64))


def _z68_squared():
    """The ring Z68 x Z68 (two orthogonal idempotents), which is not twisted."""
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 0] = c[1, 1, 1] = 1
    return FiniteAlgebra(68, c, [1, 1], np.eye(2, dtype=np.int64))


def test_socle_step_c_raises_beyond_the_budget():
    # In A = Z9[x]/(x^2), U = 3A (9 elements) is not inside T = xA, yet the
    # multiples of both generators 3 and 3x of U meet T, so step (c) scans U.
    # T contains the socle 3xA, so it is essential.
    A = _dual_numbers(9)
    ring, ideal = Submodule.full(9, 2), Submodule.span(9, [[0, 1]], 2)
    scan = is_essential_ideal(ideal, ring, A)  # 81 elements, in budget
    assert (scan.verdict, scan.method) == (True, "definitional")
    got = is_essential_ideal(ideal, ring, A, budget=20)
    assert (got.verdict, got.method) == (True, "socle") and got.cost > 0
    assert got.detail == "socle step (c): scan of U; |U| = 9, |S| = 81"
    with pytest.raises(EnumerationBudgetExceeded) as raised:
        is_essential_ideal(ideal, ring, A, budget=8)
    assert (raised.value.required, raised.value.budget) == (9, 8)


def _counting(monkeypatch, name):
    """The keyword arguments of every call to essentiality.<name>, in order."""
    calls = []
    real = getattr(essentiality, name)
    monkeypatch.setattr(essentiality, name, lambda *args, **kw: calls.append(kw) or real(*args, **kw))
    return calls


def _decisions(algebra):
    return [key for key in algebra.memo if isinstance(key, tuple) and key[0] == "_decide"]


def test_checks_that_share_a_quantifier_decide_it_once(monkeypatch):
    # Z = N = the scalars of this tower: centrally essential and left
    # N-essential are one quantifier, refuted at e_1 after 25 products.
    fresh = [is_centrally_essential(tower(5, 1, 1, 1)), is_left_n_essential(tower(5, 1, 1, 1))]
    scans = _counting(monkeypatch, "_scan")
    R = tower(5, 1, 1, 1)
    got = [is_centrally_essential(R), is_left_n_essential(R)]
    assert len(scans) == 1 and len(_decisions(R)) == 1
    assert got == fresh  # every field, property_name and detail included
    e1 = (0, 1, 0, 0, 0, 0, 0, 0)
    assert [(v.property_name, v.verdict, v.witness, v.cost) for v in got] == [
        ("centrally essential", False, e1, 25),
        ("left N-essential", False, e1, 25),
    ]
    # A caller's own detail replaces the kept one on a refuted scan.
    Z = center(R).Z
    sub = is_essential_submodule(Z, R, property_name="Z essential")
    assert len(scans) == 1
    assert (sub.property_name, sub.detail) == ("Z essential", fresh[0].detail)


def test_side_and_budget_are_separate_decisions(monkeypatch):
    scans = _counting(monkeypatch, "_scan")
    R = tower(5, 1, 1, 1)
    left = is_left_n_essential(R)
    right = is_right_n_essential(R)
    assert len(scans) == 2
    assert right.detail == "right multiples of the submodule by the witness miss it"
    assert is_left_n_essential(R, budget=2**19) == left
    assert len(scans) == 3 and len(_decisions(R)) == 3
    assert is_right_n_essential(R) == right and len(scans) == 3


def test_decide_names_its_verdict_on_a_miss_and_on_a_hit():
    # The memo keeps the unnamed scan; each call names the verdict it returns.
    R, ideal, ring = scalar_ring(6), Submodule.span(6, [[2]], 1), Submodule.full(6, 1)
    miss = is_essential_ideal(ideal, ring, R)
    assert (miss.property_name, miss.verdict, miss.witness, miss.detail) == (
        "essential ideal", False, (3,), "ring multiples of the witness miss the ideal"
    )
    assert is_essential_ideal(ideal, ring, R) == miss
    (key,) = _decisions(R)
    assert (R.memo[key].property_name, R.memo[key].detail) == ("", "")


@pytest.mark.parametrize("route", ["_scan", "_socle"])
def test_scan_and_socle_take_no_naming_parameter(route):
    parameters = inspect.signature(getattr(essentiality, route)).parameters
    assert not {"property_name", "detail"} & set(parameters)


@pytest.mark.parametrize(
    "check, error",
    [
        (lambda R: is_essential_ideal(Submodule.span(4, [[2]], 1), Submodule.full(4, 1), R),
         DimensionMismatch),
        (lambda R: is_essential_submodule(Submodule.span(4, [[2]], 1), R), DimensionMismatch),
        (lambda R: is_essential_submodule(Submodule.span(8, [[2, 0]], 2), R), DimensionMismatch),
        (lambda R: annihilator(Submodule.span(4, [[2]], 1), Submodule.full(4, 1), R),
         StageMismatch),
    ],
    ids=["ideal-mod-4", "submodule-mod-4", "submodule-rank-2", "annihilator-mod-4"],
)
def test_submodules_of_another_module_raise_a_typed_error(check, error):
    # Over Z8, a mod-4 or rank-2 submodule is not a submodule of the algebra.
    R = scalar_ring(8)
    with pytest.raises(error):
        check(R)
    assert _decisions(R) == []


def test_a_kept_socle_verdict_keeps_its_step_detail(monkeypatch):
    # 6^8 elements: both checks are decided on the socle, at step (b).
    fresh = is_left_n_essential(tower(6, 1, 1, 1))
    socles = _counting(monkeypatch, "_socle")
    R = tower(6, 1, 1, 1)
    ce = is_centrally_essential(R)
    left = is_left_n_essential(R)
    assert len(socles) == 1
    assert left == fresh and left.method == "socle"
    assert left.detail == ce.detail and left.detail.startswith("socle step (b):")


def test_a_check_that_raises_keeps_nothing(monkeypatch):
    # The step-(c) setup of `test_socle_step_c_raises_beyond_the_budget`.
    A = _dual_numbers(9)
    ring, ideal = Submodule.full(9, 2), Submodule.span(9, [[0, 1]], 2)
    socles = _counting(monkeypatch, "_socle")
    for _ in range(2):
        with pytest.raises(EnumerationBudgetExceeded):
            is_essential_ideal(ideal, ring, A, budget=8)
    assert len(socles) == 2 and _decisions(A) == []
    assert is_essential_ideal(ideal, ring, A, budget=20).method == "socle"
    assert len(socles) == 3 and len(_decisions(A)) == 1


def test_socle_refuses_rings_outside_its_precondition():
    # xA lacks the unit: the scan decides it, the socle route refuses it.
    A = _dual_numbers(9)
    x = Submodule.span(9, [[0, 1]], 2)
    assert is_essential_submodule(x, A).method == "definitional"
    with pytest.raises(EnumerationBudgetExceeded) as raised:
        is_essential_submodule(x, A, budget=80)
    assert (raised.value.required, raised.value.budget) == (81, 80)
    # span(1, e1) in the Z3 octonions is a unital subring outside N(R).
    O = tower(3, 1, 1, 1)
    S = Submodule.span(3, np.eye(8, dtype=np.int64)[:2], 8)
    assert not associative_center(O).contains(S.generators[1])
    with pytest.raises(EnumerationBudgetExceeded):
        is_essential_submodule(S, O, budget=100)
    ring = _z68_squared()
    got = is_essential_submodule(Submodule.full(68, 2), ring, budget=100)
    assert (got.verdict, got.method) == (True, "socle")
    with pytest.raises(EnumerationBudgetExceeded):
        is_essential_submodule(Submodule.span(68, [[1, 0]], 2), ring, budget=100)


@pytest.mark.parametrize(
    "gens, witness", [([[1, 1]], (34, 0)), ([[1, 1], [0, 17]], (36, 0))], ids=["diag", "diag+17"]
)
def test_socle_equals_the_scan_off_the_coordinate_pattern(gens, witness):
    # S = T = span(gens) in Z68 x Z68 is no coordinate sum, so every
    # membership in S or T inside the socle route takes the echelon route.
    ring = _z68_squared()
    S = Submodule.span(68, gens, 2)
    assert S.coordinate_orders() is None
    scan = is_essential_submodule(S, ring)  # 68^2 elements, in budget
    got = is_essential_submodule(S, ring, budget=100)
    assert (scan.method, scan.verdict) == ("definitional", False)
    assert (got.method, got.verdict, got.witness) == ("socle", False, witness)
    assert got.detail.startswith("socle step (b):")
    # By brute force, S w meets T = S only in 0.
    multiples = {tuple(int(t) for t in ring.mul(s, witness)) for s in S.elements()}
    assert multiples & submodule_set(S) == {(0, 0)}


@st.composite
def _spans_off_the_coordinate_pattern(draw):
    """(algebra, S, T, U): S a span that is no coordinate sum, T and U random
    spans (U sometimes the whole algebra), over Z68 x Z68, Z9[x]/(x^2) or a
    unit tower over Z4, Z6 or Z9 (rank 2 or 4) or Z12 (rank 2)."""
    kind = draw(st.sampled_from(["z68", "dual numbers", "tower"]))
    if kind == "z68":
        alg = _z68_squared()
    elif kind == "dual numbers":
        alg = _dual_numbers(9)
    else:
        n = draw(st.sampled_from((4, 6, 9, 12)))
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        depth = draw(st.integers(1, 1 if n == 12 else 2))
        alg = tower(n, *draw(st.lists(st.sampled_from(units), min_size=depth, max_size=depth)))
    n, d = alg.modulus, alg.rank
    entry = st.one_of(st.integers(0, n - 1), st.sampled_from((1, n // 2, n // 4 or 1)))

    def span(min_rows):
        row = st.lists(entry, min_size=d, max_size=d)
        rows = draw(st.lists(row, min_size=min_rows, max_size=3))
        return Submodule.span(n, np.array(rows, dtype=np.int64).reshape(-1, d), d)

    S = span(1)
    assume(S.coordinate_orders() is None)
    T = S if draw(st.booleans()) else span(0)
    U = Submodule.full(n, d) if draw(st.booleans()) else span(1)
    return alg, S, T, U


@settings(max_examples=80, deadline=None, database=None)
@given(_spans_off_the_coordinate_pattern(), st.randoms(use_true_random=False))
@example(
    case=(
        tower(9, 1, 1),
        Submodule.span(9, [[1, 1, 1, 1], [0, 3, 0, 0], [0, 0, 3, 1], [0, 0, 0, 3]], 4),
        Submodule.span(9, [[1, 1, 1, 8]], 4),
        Submodule.full(9, 4),
    ),
    rng=random.Random(0),
)
def test_scan_verdict_and_witness_ignore_the_order_of_s(case, rng):
    # Whether a pre-pass candidate or a universe element is ever met does not
    # depend on the order in which S is read, and neither does the witness:
    # the scan's verdict and witness equal those of the reference walking S
    # in any order. Only the cost follows the order. In the explicit example
    # a pre-pass candidate is met only past the first chunk of 64 multipliers.
    alg, S, T, U = case
    order = list(range(S.order()))
    rng.shuffle(order)
    shuffled = _listed(S)[order]
    for side in ("left", "right"):
        got = essentiality._scan(alg, S, T, U, side=side)
        verdict, witness, _, _ = sequential_scan(alg, shuffled, T, _listed(U), side)
        assert (got.verdict, got.witness) == (verdict, witness), side


def _names(module) -> set[str]:
    """Every name and attribute name the module's source mentions."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
    }


def test_essentiality_reads_neither_the_twist_nor_coordinate_orders():
    # The twist and the coordinate-sum layout belong to algebra, analysis and
    # residue; the socle route reaches them only through `Submodule`.
    assert not _names(essentiality) & {"twist", "coordinate_orders"}


def test_analysis_keeps_no_coordinate_test_or_column_dedupe():
    # The kernel oracle hands its condition blocks to `residue.kernel` as
    # they are: which blocks are coordinate patterns, and which columns
    # repeat, is known to `residue` alone.
    assert not _names(analysis) & {"_distinct_columns", "count_nonzero"}


def test_essentiality_lists_no_multipliers_and_forms_no_single_matrices():
    # The scan reads S by index along its walk (`Submodule.walk`), the one
    # enumeration order, with no sort or second decoder, and forms the
    # sweep's matrices in blocks (`FiniteAlgebra.mul_matrices`).
    names = _names(essentiality)
    assert not names & {"elements", "left_mul_matrix", "right_mul_matrix", "code_order", "lexsort"}
    assert not hasattr(Submodule, "code_order")


@st.composite
def _twisted_cases(draw):
    n = draw(st.sampled_from((4, 6, 8, 9, 12, 16, 18, 27)))
    d = draw(st.sampled_from([k for k in (1, 2, 4) if n**k <= 2**16]))
    entry = st.one_of(st.sampled_from((0, 1, n - 1, n // 2, n // 3)), st.integers(0, n - 1))
    f = np.array(draw(st.lists(entry, min_size=d * d, max_size=d * d)), dtype=np.int64)
    f = f.reshape(d, d)
    f[0, :] = f[:, 0] = 1
    return n, f


@settings(max_examples=60, deadline=None, database=None)
@given(_twisted_cases(), st.integers(0, 2**16))
def test_socle_gcd_certificates_and_twist_flags_equal_their_oracles(case, c):
    n, f = case
    d = len(f)
    i = np.arange(d)
    structure = np.zeros((d, d, d), dtype=np.int64)
    structure[i[:, None], i, i[:, None] ^ i] = f
    A = FiniteAlgebra(n, structure, np.eye(d, dtype=np.int64)[0], np.eye(d, dtype=np.int64))
    for S, T, M, side, check in _socle_cases(A)[:3]:
        assert _socle_verdict(A, S, T, M, side).verdict == check().verdict
    assert algebra.identity_flags(A) == {
        "associative": algebra.is_associative(A),
        "commutative": algebra.is_commutative(A),
        "alternative": algebra.is_alternative(A),
        "right_alternative": algebra.is_right_alternative(A),
    }
    ok, inverse = algebra.is_invertible(A, A.scalar(c))
    try:
        got = algebra.certify_central_scalar(A, c).inverse.tolist()
    except NotInvertible:
        got = None
    assert got == (inverse.tolist() if ok else None)


@st.composite
def _unit_towers(draw):
    n = draw(st.integers(2, 7))
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    return n, tuple(draw(st.lists(st.sampled_from(units), max_size=3)))


@settings(max_examples=40, deadline=None, database=None)
@given(_unit_towers())
@example((4, (1, 1, 1)))
@example((3, (1, 1, 1)))  # refuted by a scan
@example((6, (1, 1, 1)))  # refuted on the socle
def test_left_and_right_n_essential_agree(case):
    # The involution gives N* = N, and u is a right witness iff u* is a left
    # one (see the `essentiality` module docstring).
    n, params = case
    R = tower(n, *params)
    left, right = is_left_n_essential(R), is_right_n_essential(R)
    assert left.verdict == right.verdict
    if not right.verdict:
        N, w = associative_center(R), R.involve(right.witness)
        multiples = Submodule.span(n, [R.mul(g, w) for g in N.generators], R.rank)
        assert w.any() and intersect(multiples, N).is_zero
