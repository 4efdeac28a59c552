import itertools
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdrings
from cdrings import residue
from cdrings.errors import DimensionMismatch, EnumerationBudgetExceeded, ModulusTooLarge
from cdrings.residue import (
    ResidueMatrix,
    Submodule,
    _howell,
    _tail,
    _walker,
    all_vectors,
    canonicalize,
    intersect,
    kernel,
    solve_left,
)
from cdrings.suites import run_suite

from conftest import brute_kernel, brute_span, random_matrix, submodule_set


def _assert_canonical(got, elements, n, rank):
    """`got` is the canonical form of the span of `elements`: same generators,
    pivots and hash, not only the same element set."""
    want = Submodule.span(n, sorted(elements), rank)
    assert got == want and got.pivots == want.pivots and hash(got) == hash(want)


def test_matrix_entries_reduced_and_frozen():
    m = ResidueMatrix(4, [[5, -1], [8, 3]])
    assert m.array.tolist() == [[1, 3], [0, 3]]
    with pytest.raises(ValueError):
        m.array[0, 0] = 2


def test_matrix_rejects_bad_modulus_and_shape():
    with pytest.raises(ValueError):
        ResidueMatrix(1, [[0]])
    with pytest.raises(ValueError):
        ResidueMatrix(4, [1, 2, 3])


def test_canonicalize_identity_is_identity():
    s = canonicalize(ResidueMatrix.identity(4, 2))
    assert s.generators.tolist() == [[1, 0], [0, 1]]
    assert s.order() == 16


def test_canonicalize_zero_matrix_is_empty():
    s = canonicalize(ResidueMatrix.zeros(6, 3, 2))
    assert s.num_generators == 0
    assert s.order() == 1
    assert submodule_set(s) == {(0, 0)}


def test_canonicalize_redundant_rows_span_preserved():
    rows = [[2, 0], [0, 2], [2, 2]]
    s = canonicalize(ResidueMatrix(4, rows))
    assert submodule_set(s) == brute_span(rows, 4)
    assert s.order() == len(brute_span(rows, 4)) == 4


def test_canonicalize_idempotent():
    rng = random.Random(7)
    for n in (4, 6, 8, 9):
        for _ in range(25):
            m = random_matrix(rng, n, rng.randrange(1, 5), rng.randrange(1, 5))
            s = canonicalize(ResidueMatrix(n, m))
            again = canonicalize(ResidueMatrix(n, s.generators)) if s.num_generators else s
            assert s == again


def test_canonical_form_is_span_invariant():
    # Shuffling rows and adding random combinations must not change the form.
    rng = random.Random(21)
    for n in (4, 6, 12):
        for _ in range(30):
            m = random_matrix(rng, n, 3, 3)
            s = canonicalize(ResidueMatrix(n, m))
            rows = list(m)
            rng.shuffle(rows)
            extra = np.array(
                [(rng.randrange(n) * rows[0] + rng.randrange(n) * rows[-1]) % n]
            )
            s2 = canonicalize(ResidueMatrix(n, np.vstack([rows, extra])))
            assert s == s2
            assert submodule_set(s) == brute_span(m, n)


def test_canonical_generators_nonzero_reduced_and_forced():
    # Generators must be nonzero and reduced. A generator may lie in the span
    # of the others only when canonical completion forces it back anyway
    # (annihilator rows): re-canonicalizing the others then restores the form.
    rng = random.Random(3)
    for n in (4, 6, 9):
        for _ in range(20):
            m = random_matrix(rng, n, 3, 4)
            s = canonicalize(ResidueMatrix(n, m))
            for drop in range(s.num_generators):
                g = s.generators[drop]
                assert g.any() and (0 <= g).all() and (g < n).all()
                kept = np.delete(s.generators, drop, axis=0)
                if brute_span(kept, n) == submodule_set(s):
                    restored = Submodule.span(n, kept, s.ambient_rank)
                    assert restored == s


def test_kernel_single_zero_divisor():
    k = kernel(ResidueMatrix(4, [[2]]))
    assert submodule_set(k) == {(0,), (2,)}


def test_kernel_identity_is_zero():
    k = kernel(ResidueMatrix.identity(6, 3))
    assert k.is_zero


def test_kernel_random_3x3_mod6_matches_enumeration():
    rng = random.Random(11)
    m = random_matrix(rng, 6, 3, 3)
    k = kernel(ResidueMatrix(6, m))
    assert submodule_set(k) == brute_kernel(m, 6)


@pytest.mark.parametrize("n", [4, 6])
def test_kernel_random_sweep(n):
    rng = random.Random(100 + n)
    # No rows, no columns, neither, and all zeros first: each kernel is {()}
    # or the whole ambient.
    edge = [np.zeros((0, 3), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
            np.zeros((0, 0), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)]
    random_shapes = [random_matrix(rng, n, rng.randrange(1, 5), rng.randrange(1, 5)) for _ in range(40)]
    for m in edge + random_shapes:
        got = kernel(ResidueMatrix(n, m))
        assert submodule_set(got) == brute_kernel(m, n)
        _assert_canonical(got, brute_kernel(m, n), n, m.shape[0])


def test_intersect_idempotent_and_disjoint():
    s = Submodule.span(4, [[2, 0], [0, 2]])
    assert intersect(s, s) == s
    a = Submodule.span(4, [[1, 0]])
    b = Submodule.span(4, [[0, 1]])
    assert intersect(a, b).is_zero


def test_intersect_example_mod4():
    a = Submodule.span(4, [[2, 0], [0, 2]])
    b = Submodule.span(4, [[1, 1]])
    got = intersect(a, b)
    assert submodule_set(got) == {(0, 0), (2, 2)}
    assert got == Submodule.span(4, [[2, 2]])


def test_intersect_matches_set_intersection():
    rng = random.Random(5)
    for n in (4, 6):
        for _ in range(30):
            a = canonicalize(ResidueMatrix(n, random_matrix(rng, n, 2, 3)))
            b = canonicalize(ResidueMatrix(n, random_matrix(rng, n, 2, 3)))
            got = submodule_set(intersect(a, b))
            assert got == submodule_set(a) & submodule_set(b)


def test_intersect_commutative_associative_monotone():
    rng = random.Random(17)
    n = 6
    subs = [
        canonicalize(ResidueMatrix(n, random_matrix(rng, n, 2, 3))) for _ in range(6)
    ]
    for a in subs[:3]:
        for b in subs[3:]:
            ab = intersect(a, b)
            assert ab == intersect(b, a)
            for g in ab.generators:
                assert a.contains(g) and b.contains(g)
    a, b, c = subs[0], subs[2], subs[4]
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


def test_intersect_rejects_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect(Submodule.span(4, [[1, 0]]), Submodule.span(6, [[1, 0]]))
    with pytest.raises(DimensionMismatch):
        intersect(Submodule.span(4, [[1, 0]]), Submodule.span(4, [[1, 0, 0]]))


def test_membership_examples():
    s = Submodule.span(4, [[2, 0], [0, 2]])
    assert s.contains([0, 0])
    assert s.contains([2, 2])
    assert not Submodule.span(4, [[2, 0]]).contains([1, 0])


def test_membership_matches_enumeration():
    rng = random.Random(23)
    for n in (4, 6):
        for _ in range(20):
            s = canonicalize(ResidueMatrix(n, random_matrix(rng, n, 2, 3)))
            elems = submodule_set(s)
            for v in all_vectors(n, 3):
                assert s.contains(v) == (tuple(int(x) for x in v) in elems)


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Submodule.span(4, [[2, 0]]).contains([1, 2, 3])


def test_enumerate_zero_and_small_spans():
    z = Submodule.zero(4, 2)
    assert submodule_set(z) == {(0, 0)}
    s = Submodule.span(4, [[2]])
    assert submodule_set(s) == {(0,), (2,)}
    assert s.order() == 2


def test_enumerate_count_and_distinctness():
    s = Submodule.span(4, [[1, 2], [0, 2]])
    elems = s.elements()
    assert len(elems) == s.order() == 8
    assert len({tuple(map(int, e)) for e in elems}) == 8
    assert submodule_set(s) == brute_span([[1, 2], [0, 2]], 4)


def test_enumerate_budget_error():
    s = Submodule.full(4, 6)
    with pytest.raises(EnumerationBudgetExceeded):
        s.elements(budget=1000)
    with pytest.raises(EnumerationBudgetExceeded):
        all_vectors(4, 6, budget=1000)


def test_order_matches_enumeration_random():
    rng = random.Random(31)
    for n in (4, 6, 8, 9):
        for _ in range(20):
            s = canonicalize(ResidueMatrix(n, random_matrix(rng, n, 3, 3)))
            assert s.order() == len(submodule_set(s))


def test_elements_matches_enumerate():
    s = Submodule.span(6, [[2, 3, 0], [0, 3, 3]])
    arr = s.elements()
    assert {tuple(map(int, r)) for r in arr} == brute_span([[2, 3, 0], [0, 3, 3]], 6)
    assert arr.shape[0] == s.order()


def test_coefficients_of_reconstructs():
    rng = random.Random(13)
    for n in (4, 6):
        s = canonicalize(ResidueMatrix(n, random_matrix(rng, n, 3, 4)))
        for v in s.elements()[:20]:
            coeffs = s.coefficients_of(v)
            assert coeffs is not None
            assert np.array_equal((coeffs @ s.generators) % n, v)
        assert s.coefficients_of(np.array([1, 1, 1, 1])) is None or s.contains(
            [1, 1, 1, 1]
        )


def test_solve_left():
    m = ResidueMatrix(4, [[2, 1], [1, 3]])
    v = solve_left(m, [1, 0])
    assert v is not None
    assert ((v @ m.array) % 4 == np.array([1, 0])).all()
    m2 = ResidueMatrix(4, [[2, 0], [0, 2]])
    assert solve_left(m2, [1, 0]) is None


def test_solve_left_and_coefficients_match_enumeration():
    rng = random.Random(41)
    for n in (4, 6):
        for rows, cols in ((2, 3), (3, 2), (3, 3)):
            for _ in range(4):
                m = ResidueMatrix(n, random_matrix(rng, n, rows, cols))
                reachable = brute_span(m.array, n)
                s = canonicalize(m)
                for rhs in all_vectors(n, cols):
                    key = tuple(int(x) for x in rhs)
                    v = solve_left(m, rhs)
                    coeffs = s.coefficients_of(rhs)
                    if key in reachable:
                        assert np.array_equal(v @ m.array % n, rhs), (n, m, key)
                        assert np.array_equal(coeffs @ s.generators % n, rhs), (n, m, key)
                    else:
                        assert v is None and coeffs is None, (n, m, key)


@pytest.mark.parametrize("n", [4, 6])
def test_kernel_of_wide_stacked_matrices(n):
    # The shape used by center computations: few rows, many columns.
    rng = random.Random(77 + n)
    for _ in range(15):
        m = random_matrix(rng, n, 3, rng.randrange(20, 60))
        got = kernel(ResidueMatrix(n, m))
        assert submodule_set(got) == brute_kernel(m, n)
        _assert_canonical(got, brute_kernel(m, n), n, 3)


@pytest.mark.parametrize("n", [8, 9, 12])
def test_howell_oracles_on_harsher_composites(n):
    rng = random.Random(900 + n)
    for _ in range(25):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        m = random_matrix(rng, n, rows, cols)
        rm = ResidueMatrix(n, m)
        assert submodule_set(kernel(rm)) == brute_kernel(m, n)
        _assert_canonical(kernel(rm), brute_kernel(m, n), n, rows)
        span = canonicalize(rm)
        assert submodule_set(span) == brute_span(m, n)
        assert span.order() == len(brute_span(m, n))
        other = canonicalize(ResidueMatrix(n, random_matrix(rng, n, rows, cols)))
        both = submodule_set(span) & submodule_set(other)
        assert submodule_set(intersect(span, other)) == both
        _assert_canonical(intersect(span, other), both, n, cols)


def _unimodular(n):
    return [[n - 3, 1], [n - 4, 2]]  # determinant n - 2, a unit for odd n


def test_span_rejects_a_modulus_whose_row_operations_overflow_int64():
    # At n = 2**40 + 15 the unreduced s*wr + t*wi wrapped around, and this
    # span came out with order 297, containing neither e0 nor e1.
    n = 2**40 + 15
    with pytest.raises(ModulusTooLarge):
        Submodule.span(n, _unimodular(n), 2)
    with pytest.raises(ModulusTooLarge):
        kernel(ResidueMatrix(n, [[1], [1]]))
    with pytest.raises(ModulusTooLarge):
        solve_left(ResidueMatrix(n, [[1, 0], [0, 1]]), [1, 1])


@pytest.mark.parametrize("modulus", [0, 1, -3, True])
def test_moduli_below_two_are_rejected(modulus):
    # Submodule.span(0, ...) used to return a Submodule "mod 0".
    with pytest.raises(ValueError):
        Submodule.span(modulus, [[1, 2]], 2)
    with pytest.raises(ValueError):
        kernel(ResidueMatrix(modulus, [[1, 2]]))
    with pytest.raises(ValueError):
        solve_left(ResidueMatrix(modulus, [[1, 2]]), [1, 2])


def test_span_is_exact_at_the_largest_allowed_odd_modulus():
    n = 2**31 - 1  # 2 (n-1)^2 < 2^63; the bound admits n <= 2^31 at rank 2
    assert Submodule.span(n, _unimodular(n), 2) == Submodule.full(n, 2)
    assert Submodule.span(2**31, [[1, 0]], 2).order() == 2**31
    with pytest.raises(ModulusTooLarge):
        Submodule.span(2**31 + 1, [[1, 0]], 2)
    # Enumerating a rank-d span sums d products, so wider ambients lower it.
    with pytest.raises(ModulusTooLarge):
        Submodule.span(2**31 - 1, [[1, 0, 0]], 3)


# Rank 2 is the widest the int64 bound admits at n = 2^31 (see
# `test_span_is_exact_at_the_largest_allowed_odd_modulus`).
_LINEAR_SYSTEM_REGIMES = pytest.mark.parametrize(
    "moduli, max_rows, max_cols",
    [((2**31 - 1, 2**31), 2, 2), ((4, 6, 8, 9, 12, 36), 4, 6)],
    ids=["int64-bound", "small-composites"],
)


@st.composite
def _linear_systems(draw, moduli, max_rows, max_cols):
    """(n, m, other, c): m and other share their column count, c has one
    coefficient per row of m; entries favour 0, 1, -1 and zero divisors."""
    n = draw(st.sampled_from(moduli))
    cols = draw(st.integers(0, max_cols))
    entry = st.one_of(st.integers(0, n - 1), st.sampled_from([0, 1, n - 1, n // 2, n // 4]))

    def matrix():
        rows = draw(st.integers(0, max_rows))
        cells = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        return np.array(cells, dtype=np.int64).reshape(rows, cols)

    m, other = matrix(), matrix()
    return n, m, other, draw(st.lists(entry, min_size=len(m), max_size=len(m)))


def _left_product(v, m, n):
    """v @ m mod n in Python ints, independent of int64."""
    return [sum(int(x) * int(row[j]) for x, row in zip(v, m)) % n for j in range(m.shape[1])]


@_LINEAR_SYSTEM_REGIMES
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_kernel_and_intersection_orders_count_exactly(moduli, max_rows, max_cols, data):
    n, m, other, _ = data.draw(_linear_systems(moduli, max_rows, max_cols))
    rows, cols = m.shape
    assert kernel(ResidueMatrix(n, m)).order() * canonicalize(ResidueMatrix(n, m)).order() == n**rows
    a, b = canonicalize(ResidueMatrix(n, m)), canonicalize(ResidueMatrix(n, other))
    total = Submodule.span(n, np.vstack([a.generators, b.generators]), cols)
    assert intersect(a, b).order() * total.order() == a.order() * b.order()


@_LINEAR_SYSTEM_REGIMES
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_kernel_generators_and_solutions_are_exact(moduli, max_rows, max_cols, data):
    n, m, _, c = data.draw(_linear_systems(moduli, max_rows, max_cols))
    for g in kernel(ResidueMatrix(n, m)).generators:
        assert not any(_left_product(g, m, n))
    rhs = _left_product(c, m, n)
    v = solve_left(ResidueMatrix(n, m), rhs)
    assert v is not None and _left_product(v, m, n) == rhs


# Moduli on both sides of each key-width edge of the column dedupe in
# `kernel`: n - 1 fits uint8 up to n = 256, uint16 up to 65536, then uint32.
_KEY_WIDTH_MODULI = (2, 255, 256, 257, 65536, 65537, 2**31)


@st.composite
def _matrices_with_repeated_columns(draw):
    """(n, m0, m): m holds every column of m0, some repeated, plus zero
    columns, in a random order."""
    n = draw(st.sampled_from(_KEY_WIDTH_MODULI))
    most = 2 if n == 2**31 else 4  # the int64 bound admits rank 2 at 2^31
    rows, cols = draw(st.integers(0, most)), draw(st.integers(0, most))
    entry = st.one_of(st.integers(0, n - 1), st.sampled_from([0, 1, n - 1, n // 2, 256 % n]))
    cells = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    m0 = np.array(cells, dtype=np.int64).reshape(rows, cols)
    repeats = draw(st.lists(st.integers(0, cols - 1), max_size=6)) if cols else []
    zeros = draw(st.integers(0, 3))
    order = draw(st.permutations(list(range(cols)) + repeats + [cols] * zeros))
    m = np.hstack([m0, np.zeros((rows, 1), dtype=np.int64)])[:, order]
    return n, m0, m


@settings(max_examples=150, deadline=None, database=None)
@given(case=_matrices_with_repeated_columns())
def test_kernel_ignores_repeated_permuted_and_zero_columns(case):
    n, m0, m = case
    got = kernel(ResidueMatrix(n, m))
    assert got == kernel(ResidueMatrix(n, m0))
    # `span` keeps every column (it drops repeated rows only). At 2^31 the
    # int64 bound admits it only on the narrower m0, whose row span has the
    # order of m's.
    spanned = m if n < 2**31 else m0
    assert got.order() * Submodule.span(n, spanned, spanned.shape[1]).order() == n ** m.shape[0]


@settings(max_examples=150, deadline=None, database=None)
@given(case=_matrices_with_repeated_columns())
def test_span_ignores_repeated_permuted_and_zero_rows(case):
    # The columns of the strategy's matrices are the rows here. `span` drops
    # repeated and zero rows when it has more rows than columns; unreduced
    # entries must still compare equal after that.
    n, m0, m = case
    width = m.shape[0]
    got = Submodule.span(n, m.T - n, width)
    assert got == Submodule.span(n, m0.T, width)
    assert got == Submodule._from_howell(n, *_howell(m.T, n))


@pytest.mark.parametrize("shape", [(3, 0), (0, 5), (0, 0)], ids=["3x0", "0x5", "0x0"])
@pytest.mark.parametrize("n", [2, 257, 65537])
def test_kernel_of_matrices_without_rows_or_columns(n, shape):
    rows = shape[0]
    got = kernel(ResidueMatrix(n, np.zeros(shape, dtype=np.int64)))
    assert got == Submodule.full(n, rows)
    assert got.order() == n**rows


def _dual(t: Submodule) -> Submodule:
    """T^perp = {w : t . w = 0 for all t in T}, the dual `_scan` tests against."""
    return kernel(ResidueMatrix(t.modulus, t.generators.T))


@pytest.mark.parametrize(
    "moduli, max_rank",
    [((2**31,), 2), ((4, 6, 8, 9, 12, 30), 4)],
    ids=["int64-bound", "small-composites"],
)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_the_dual_of_a_span_is_a_perfect_pairing(moduli, max_rank, data):
    n, m, _, _ = data.draw(_linear_systems(moduli, max_rank, max_rank))
    d = m.shape[1]
    t = Submodule.span(n, m, d)
    dual = _dual(t)
    assert t.order() * dual.order() == n**d
    assert _dual(dual) == t
    if n**d <= 4096:
        vs = all_vectors(n, d, 4096)
        inside = ~(vs @ dual.generators.T % n).any(axis=1)
        assert inside.tolist() == [t.contains(v) for v in vs]


@st.composite
def _enumerable_spans(draw, moduli, max_rank):
    """(n, rows) with at most `max_rank` rows and columns. At n = 2^31 every
    entry is a multiple of n / 32, so the span has at most 32^2 elements."""
    n = draw(st.sampled_from(moduli))
    d, k = draw(st.integers(0, max_rank)), draw(st.integers(0, max_rank))
    if n == 2**31:
        entry = st.integers(0, 31).map(lambda v: v * (n // 32))
    else:
        entry = st.one_of(st.integers(0, n - 1), st.sampled_from([0, 1, n - 1, n // 2, n // 3]))
    cells = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=k, max_size=k))
    return n, np.array(cells, dtype=np.int64).reshape(k, d)


def _assert_coefficient_order(t: Submodule):
    """`elements()` is the sums of the canonical generators with the
    coefficient of the first varying fastest (`itertools.product` over the
    reversed radices, each tuple reversed back), in Python ints."""
    n, gens = t.modulus, t.generators.tolist()
    radices = [n // p for _, p in t.pivots]
    expected = [
        [sum(c * g[j] for c, g in zip(cs[::-1], gens)) % n for j in range(t.ambient_rank)]
        for cs in itertools.product(*map(range, radices[::-1]))
    ]
    got = t.elements()
    assert got.dtype == np.int64 and got.shape == (t.order(), t.ambient_rank)
    assert got.tolist() == expected
    # The scan decodes walk indices instead of listing the walk.
    assert _walker(*t.walk(), t.modulus)(range(t.order())).tolist() == expected
    assert len({tuple(row) for row in expected}) == t.order()
    assert not got[0].any()


@pytest.mark.parametrize(
    "moduli, max_rank",
    [((2**31,), 2), ((4, 6, 8, 9, 12, 30), 3)],
    ids=["int64-bound", "small-composites"],
)
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_elements_and_all_vectors_are_in_coefficient_order(moduli, max_rank, data):
    # The witnesses and costs of ideal scans follow this order.
    n, m = data.draw(_enumerable_spans(moduli, max_rank))
    d = m.shape[1]
    for t in (Submodule.span(n, m, d), Submodule.zero(n, d), Submodule.full(n, 0)):
        _assert_coefficient_order(t)
    if n**d <= 4096:
        # The first coordinate varies fastest, as in the digits of 0, 1, ...
        table = [[c // n**i % n for i in range(d)] for c in range(n**d)]
        assert all_vectors(n, d).tolist() == table


def test_exactness_rule_lives_in_residue():
    # `residue._exact_dtype` alone decides when a contraction may run in
    # floats; a float dtype or a float bound named in any other module would
    # split that rule again.
    named = re.compile(r"np\.float(32|64)\b|\b2\s*\*\*\s*(22|24|53)\b|\b1\s*<<\s*(22|24|53)\b")
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(cdrings.__file__).parent.glob("*.py"))
        if path.name != "residue.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if named.search(line)
    ]
    assert offenders == []


# A prime, prime powers, composites, and the largest odd modulus the int64
# bound admits at rank 2 (see `test_span_is_exact_at_the_largest_allowed_odd_modulus`).
_COORDINATE_MODULI = (7, 8, 27, 12, 30, 36, 2**31 - 1)


def _divisors(n: int) -> list[int]:
    return [1, n] if n == 2**31 - 1 else [k for k in range(1, n + 1) if n % k == 0]


@st.composite
def _rows_with_one_entry(draw):
    """(n, rows): rows with at most one nonzero entry each, with zero rows,
    unreduced and negative entries, and several rows on one column."""
    n = draw(st.sampled_from(_COORDINATE_MODULI))
    d, k = draw(st.integers(0, 2 if n == 2**31 - 1 else 4)), draw(st.integers(0, 6))
    entry = st.one_of(
        st.integers(-2 * n, 2 * n), st.sampled_from([0, n, n // 2, -(n // 3), n // 4 - n])
    )
    rows = np.zeros((k, d), dtype=np.int64)
    for i in range(k if d else 0):
        rows[i, draw(st.integers(0, d - 1))] = draw(entry)
    return n, rows


@settings(max_examples=200, deadline=None, database=None)
@given(case=_rows_with_one_entry())
def test_span_of_rows_with_one_nonzero_entry_equals_the_elimination(case):
    n, rows = case
    got = Submodule.span(n, rows, rows.shape[1])
    want = Submodule._from_howell(n, *_howell(rows, n))
    assert got == want and got.pivots == want.pivots
    assert got.coordinate_orders() is not None


@st.composite
def _order_pairs(draw):
    """(n, g, h): two vectors of divisors of n of one length."""
    n = draw(st.sampled_from(_COORDINATE_MODULI))
    d = draw(st.integers(0, 2 if n == 2**31 - 1 else 4))
    orders = st.lists(st.sampled_from(_divisors(n)), min_size=d, max_size=d)
    return n, np.array(draw(orders), dtype=np.int64), np.array(draw(orders), dtype=np.int64)


@settings(max_examples=200, deadline=None, database=None)
@given(case=_order_pairs())
def test_intersect_of_coordinate_sums_equals_the_elimination(case):
    n, g, h = case
    a, b = Submodule.coordinate_sum(n, g), Submodule.coordinate_sum(n, h)
    stacked = np.vstack([
        np.hstack([a.generators, a.generators]),
        np.hstack([b.generators, np.zeros_like(b.generators)]),
    ])
    want = _tail(stacked, len(g), n)
    got = intersect(a, b)
    assert got == want and got.pivots == want.pivots
    # Each coordinate sum is its own Howell form.
    assert a == Submodule._from_howell(n, *_howell(np.diag(n // g), n))


@pytest.mark.parametrize("n, d", [(4, 3), (12, 3), (30, 2), (36, 2), (2**31 - 1, 2)])
def test_coordinate_orders_round_trip_every_coordinate_sum(n, d):
    for g in itertools.product(_divisors(n), repeat=d):
        assert Submodule.coordinate_sum(n, g).coordinate_orders().tolist() == list(g)


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_coordinate_orders_recognise_exactly_the_coordinate_sums(data):
    # A coordinate sum is a span that holds each coordinate of its elements;
    # the reader must return its orders then, and None otherwise.
    n, m, _, _ = data.draw(_linear_systems((4, 6, 8, 9, 12), 3, 3))
    d = m.shape[1]
    s = Submodule.span(n, m, d)
    projections = [v * np.eye(d, dtype=np.int64)[l] for v in s.elements() for l in range(d)]
    g = s.coordinate_orders()
    if all(s.contains(w) for w in projections):
        assert g is not None and Submodule.coordinate_sum(n, g) == s
    else:
        assert g is None


def test_coordinate_orders_refuse_a_row_with_an_off_pivot_entry():
    s = Submodule.span(4, [[1, 1], [0, 2]])
    assert s.generators.tolist() == [[1, 1], [0, 2]]
    assert s.coordinate_orders() is None
    assert Submodule.span(4, [[2, 0], [0, 2]]).coordinate_orders().tolist() == [2, 2]


@st.composite
def _coordinate_sums_with_rows(draw):
    """(s, rows): a coordinate sum over a composite modulus, the zero one
    among them, and a (k, d) stack of unreduced rows, k possibly 0, some of
    them scaled into s."""
    n = draw(st.sampled_from((4, 8, 12, 30, 36, 72)))
    d = draw(st.integers(1, 4))
    orders = st.lists(st.sampled_from(_divisors(n)), min_size=d, max_size=d)
    g = np.array(draw(st.one_of(st.just([1] * d), orders)), dtype=np.int64)
    k = draw(st.integers(0, 6))
    entries = st.lists(st.integers(-2 * n, 2 * n), min_size=k * d, max_size=k * d)
    rows = np.array(draw(entries), dtype=np.int64).reshape(k, d)
    scaled = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)), dtype=bool)
    rows[scaled] *= n // g
    return Submodule.coordinate_sum(n, g), rows


@settings(max_examples=300, deadline=None, database=None)
@given(case=_coordinate_sums_with_rows())
def test_contains_on_coordinate_sums_equals_the_echelon_route(case):
    s, rows = case
    _, want = s._reduce_rows(rows % s.modulus)
    got = s.contains(rows)
    assert got.shape == (len(rows),) and got.tolist() == want.tolist()
    for row, inside in zip(rows, want):
        assert s.contains(row) is bool(inside)


@pytest.mark.parametrize("n, d", [(2, 1), (12, 3), (36, 4), (2**31 - 1, 2)])
def test_full_is_the_span_of_the_identity(n, d):
    full, want = Submodule.full(n, d), Submodule.span(n, np.eye(d, dtype=np.int64), d)
    assert full == want and full.pivots == want.pivots and hash(full) == hash(want)


@pytest.mark.parametrize("g", [[3, 1], [0, 2], [-2, 1], [[2, 2]]], ids=str)
def test_coordinate_sum_rejects_orders_that_do_not_divide_n(g):
    with pytest.raises(ValueError):
        Submodule.coordinate_sum(4, g)


# Prime powers, composites, and the largest odd modulus the int64 bound
# admits at rank 2 (see `test_span_is_exact_at_the_largest_allowed_odd_modulus`).
_KERNEL_RULE_MODULI = (2, 4, 6, 8, 9, 12, 30, 36, 2**31 - 1)


@st.composite
def _columns_with_one_entry(draw):
    """(n, m): a matrix whose columns have at most one nonzero entry mod n,
    with zero rows, zero columns, no columns at all, unreduced and negative
    entries, and several columns on one row."""
    n = draw(st.sampled_from(_KERNEL_RULE_MODULI))
    rows, cols = draw(st.integers(0, 2 if n == 2**31 - 1 else 5)), draw(st.integers(0, 7))
    entry = st.one_of(
        st.integers(-2 * n, 2 * n), st.sampled_from([0, n, n // 2, -(n // 3), n // 4 - n])
    )
    m = np.zeros((rows, cols), dtype=np.int64)
    for j in range(cols if rows else 0):
        m[draw(st.integers(0, rows - 1)), j] = draw(entry)
    return n, m


def _kernel_by_elimination(n, m):
    """The left kernel of m read off `_tail` of [m | I], with no shortcut."""
    stacked = np.hstack([m % n, np.eye(m.shape[0], dtype=np.int64)])
    return _tail(stacked, m.shape[1], n)


@settings(max_examples=300, deadline=None, database=None)
@given(case=_columns_with_one_entry())
def test_kernel_of_columns_with_one_nonzero_entry_equals_the_elimination(case):
    n, m = case
    got = kernel(ResidueMatrix(n, m))
    want = _kernel_by_elimination(n, m)
    assert got == want and got.pivots == want.pivots
    assert got.coordinate_orders() is not None


def _counting_howell(monkeypatch):
    """Count the calls of `residue._howell` from here on."""
    calls = []
    real = residue._howell

    def counted(rows, n):
        calls.append(rows.shape)
        return real(rows, n)

    monkeypatch.setattr(residue, "_howell", counted)
    return calls


@pytest.mark.parametrize("n", [6, 9, 12])
def test_a_column_with_two_entries_still_takes_the_elimination(n, monkeypatch):
    m = np.array([[2, 0, 0], [0, 3, n // 3], [n - 1, 0, 0]], dtype=np.int64)
    calls = _counting_howell(monkeypatch)
    got = kernel(ResidueMatrix(n, m))
    assert len(calls) == 1
    assert submodule_set(got) == brute_kernel(m, n)
    monkeypatch.undo()
    assert got == _kernel_by_elimination(n, m)


def test_the_thm_1_4_sweep_runs_no_elimination(monkeypatch):
    # Every span, kernel and intersection of a unit-tower sweep is a
    # coordinate sum: duals of coordinate-sum targets, the condition
    # matrices of twisted group algebras and their meets.
    calls = _counting_howell(monkeypatch)
    report = run_suite("thm-1.4", bases=(2, 3, 4), depth=2)
    assert report.passed
    assert calls == []


# -- the batched echelon reduction behind `contains` ----------------------------

_STACK_MODULI = (2, 4, 6, 8, 9, 12, 30, 36, 2**31 - 1)


@st.composite
def _submodules_and_stacks(draw):
    """(S, V): a submodule (a span, zero or full) and a (k, d) stack of rows,
    k = 0 included, each row a random vector or a combination of S's
    generators, unreduced and negative entries included."""
    n = draw(st.sampled_from(_STACK_MODULI))
    d = draw(st.integers(1, 2 if n == 2**31 - 1 else 4))
    entry = st.one_of(
        st.integers(0, n - 1), st.sampled_from([0, 1, n - 1, n // 2, n // 3, n + 1, -1])
    )
    vector = st.lists(entry, min_size=d, max_size=d)
    kind = draw(st.sampled_from(["span", "zero", "full"]))
    if kind == "span":
        S = Submodule.span(n, np.array(draw(st.lists(vector, max_size=4)), np.int64).reshape(-1, d), d)
    else:
        S = getattr(Submodule, kind)(n, d)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if S.num_generators and draw(st.booleans()):
            c = draw(st.lists(entry, min_size=S.num_generators, max_size=S.num_generators))
            rows.append(_left_product(c, S.generators, n))
        else:
            rows.append(draw(vector))
    return S, np.array(rows, dtype=np.int64).reshape(-1, d)


@settings(max_examples=300, deadline=None, database=None)
@given(case=_submodules_and_stacks())
def test_stacked_contains_equals_the_span_oracle(case):
    S, V = case
    n, d = S.modulus, S.ambient_rank
    inside = S.contains(V)
    assert inside.dtype == bool and inside.shape == (len(V),)
    coeffs, flags = residue._echelon_coefficients(
        V % n, S.generators, [c for c, _ in S.pivots], n
    )
    assert flags.tolist() == inside.tolist()
    for v, member, c in zip(V, inside, coeffs):
        assert member == (Submodule.span(n, np.vstack([S.generators, v]), d) == S)
        assert S.contains(v) is bool(member)
        if member:
            assert _left_product(c, S.generators, n) == [int(x) % n for x in v]
            assert S.coefficients_of(v).tolist() == c.tolist()
        else:
            assert S.coefficients_of(v) is None


def test_contains_keeps_the_shape_of_its_argument():
    s = Submodule.span(4, [[2, 0]])
    assert s.contains([2, 0]) is True and s.contains([1, 0]) is False
    assert s.contains([[2, 0], [1, 0], [0, 0]]).tolist() == [True, False, True]
    assert s.contains(np.zeros((0, 2), dtype=np.int64)).shape == (0,)
    for bad in ([[[2, 0]]], [[1, 2, 3]]):
        with pytest.raises(DimensionMismatch):
            s.contains(bad)
    with pytest.raises(DimensionMismatch):
        s.coefficients_of([[2, 0]])
