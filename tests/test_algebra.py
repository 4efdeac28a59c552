import ast
import functools
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrings import algebra as algebra_module
from cdrings.algebra import (
    CentralScalar,
    FiniteAlgebra,
    _tensor_violations,
    _twisted_associators,
    _twisted_violations,
    associator_tensor,
    certify_central_scalar,
    ensure_valid,
    identity_flags,
    is_alternative,
    is_associative,
    is_central,
    is_commutative,
    is_invertible,
    is_left_alternative,
    is_right_alternative,
    product_tensors,
    scalar_ring,
    validate_algebra,
)
from cdrings.analysis import (
    associative_center,
    center,
    essentiality_data,
    predicted_associative_center,
    predicted_center,
)
from cdrings.document import algebra_to_document, document_to_algebra, load_algebra, save_algebra
from cdrings.doubling import TowerSpec, build_tower, double, embed, nu, tower
from cdrings.errors import (
    CertificationError,
    DimensionMismatch,
    InvalidAlgebra,
    ModulusTooLarge,
    NotCentral,
)
from cdrings.essentiality import is_centrally_essential, is_left_n_essential, is_right_n_essential
from cdrings.presentations import octonion_algebra, quaternion_algebra
from cdrings.residue import _exact_dtype, all_vectors
from cdrings.suites import sweep_towers
from test_analysis import _twists_with_diagonal_involutions


@pytest.fixture(scope="module")
def z4_quaternion():
    return tower(4, 1, 1)


@pytest.fixture(scope="module")
def z4_octonion():
    return tower(4, 1, 1, 1)


def test_scalar_ring_is_valid_commutative_associative():
    a = scalar_ring(6)
    assert validate_algebra(a) == []
    assert is_associative(a) and is_commutative(a)


def test_unit_law_random_elements(z4_octonion):
    rng = random.Random(2)
    one = z4_octonion.one()
    for _ in range(20):
        x = np.array([rng.randrange(4) for _ in range(8)])
        assert np.array_equal(z4_octonion.mul(one, x), x % 4)
        assert np.array_equal(z4_octonion.mul(x, one), x % 4)


def test_quaternion_products_mod4(z4_quaternion):
    A = z4_quaternion
    i, j = A.basis_element(1), A.basis_element(2)
    k = A.mul(i, j)
    assert np.array_equal(A.mul(j, i), (-k) % 4)
    # k = (0, -i) in pair coordinates: coordinate 3 carries -1
    assert k.tolist() == [0, 0, 0, 3]
    # k*k = -a*b = -1 = 3 mod 4
    assert A.mul(k, k).tolist() == [3, 0, 0, 0]


def test_mul_bilinear(z4_quaternion):
    rng = random.Random(9)
    A = z4_quaternion
    for _ in range(25):
        x, y, z = (np.array([rng.randrange(4) for _ in range(4)]) for _ in range(3))
        s, t = rng.randrange(4), rng.randrange(4)
        lhs = A.mul((s * x + t * y) % 4, z)
        rhs = (s * A.mul(x, z) + t * A.mul(y, z)) % 4
        assert np.array_equal(lhs, rhs)
        lhs = A.mul(z, (s * x + t * y) % 4)
        rhs = (s * A.mul(z, x) + t * A.mul(z, y)) % 4
        assert np.array_equal(lhs, rhs)


def test_mul_rejects_mismatch(z4_quaternion):
    with pytest.raises(DimensionMismatch):
        z4_quaternion.mul([1, 0], [0, 1, 0, 0])


def test_associator_trilinear_commutator_bilinear(z4_octonion):
    rng = random.Random(3)
    A = z4_octonion
    n, d = A.modulus, A.rank
    rnd = lambda: np.array([rng.randrange(n) for _ in range(d)])
    for _ in range(20):
        x, x2, y, z = rnd(), rnd(), rnd(), rnd()
        s, t = rng.randrange(n), rng.randrange(n)
        combo = (s * x + t * x2) % n
        for slot in range(3):
            args = [y, z]
            args.insert(slot, combo)
            parts = []
            for w in (x, x2):
                a = [y, z]
                a.insert(slot, w)
                parts.append(A.associator(*a))
            assert np.array_equal(
                A.associator(*args), (s * parts[0] + t * parts[1]) % n
            )
        assert np.array_equal(
            A.commutator(combo, y),
            (s * A.commutator(x, y) + t * A.commutator(x2, y)) % n,
        )


def test_associator_zero_in_associative_algebra(z4_quaternion):
    rng = random.Random(4)
    for _ in range(30):
        x, y, z = (np.array([rng.randrange(4) for _ in range(4)]) for _ in range(3))
        assert not z4_quaternion.associator(x, y, z).any()


def test_associator_unit_slot_vanishes(z4_octonion):
    rng = random.Random(5)
    A = z4_octonion
    one = A.one()
    for _ in range(20):
        x = np.array([rng.randrange(4) for _ in range(8)])
        y = np.array([rng.randrange(4) for _ in range(8)])
        assert not A.associator(x, one, y).any()
        assert not A.associator(one, x, y).any()
        assert not A.associator(x, y, one).any()


def test_octonion_has_nonzero_associator(z4_octonion):
    A = z4_octonion
    i, j, l = A.basis_element(1), A.basis_element(2), A.basis_element(4)
    assert A.associator(i, j, l).any()


def test_commutator_basics(z4_quaternion):
    A = z4_quaternion
    i, j = A.basis_element(1), A.basis_element(2)
    k = A.mul(i, j)
    assert np.array_equal(A.commutator(i, j), (2 * k) % 4)
    assert not A.commutator(i, i).any()
    assert not A.commutator(A.one(), i).any()
    assert np.array_equal(A.commutator(i, j), (-A.commutator(j, i)) % 4)


def test_predicate_flags_on_tower_stages(z4_quaternion, z4_octonion):
    a1 = tower(4, 1)
    assert is_associative(a1) and is_commutative(a1)
    assert is_associative(z4_quaternion)
    assert not is_commutative(z4_quaternion)
    assert not is_associative(z4_octonion)
    assert not is_commutative(z4_octonion)
    assert is_alternative(z4_octonion)
    assert is_right_alternative(z4_octonion)
    assert is_right_alternative(z4_quaternion)


def test_sedenion_stage_not_right_alternative(z4_octonion):
    from cdrings.doubling import double

    sedenion = double(z4_octonion, 1)
    assert not is_right_alternative(sedenion)
    assert not is_alternative(sedenion)
    # element-level witness: some pair has (x, y, y) != 0 even though all
    # diagonal basis associators (e_c, e_a, e_a) vanish
    rng = random.Random(14)
    found = False
    for _ in range(200):
        x = np.array([rng.randrange(4) for _ in range(16)])
        y = np.array([rng.randrange(4) for _ in range(16)])
        if sedenion.associator(x, y, y).any():
            found = True
            break
    assert found


def test_predicates_agree_with_element_level_brute_force():
    # Exhaustive pairs and sampled triples on desk-scale algebras.
    rng = random.Random(6)
    for alg in (tower(2, 1, 1), tower(3, 1), tower(4, 1)):
        n, d = alg.modulus, alg.rank
        elems = all_vectors(n, d)
        comm = all(
            not alg.commutator(x, y).any()
            for x, y in itertools.product(elems, repeat=2)
        )
        assert comm == is_commutative(alg)
        triples = [
            tuple(elems[rng.randrange(len(elems))] for _ in range(3))
            for _ in range(400)
        ]
        assoc = all(not alg.associator(x, y, z).any() for x, y, z in triples)
        assert assoc or not is_associative(alg)
        if is_associative(alg):
            assert assoc


def test_alternative_matches_element_level_on_octonion(z4_octonion):
    rng = random.Random(8)
    A = z4_octonion
    for _ in range(300):
        x = np.array([rng.randrange(4) for _ in range(8)])
        y = np.array([rng.randrange(4) for _ in range(8)])
        assert not A.associator(x, x, y).any()
        assert not A.associator(x, y, y).any()


def test_artin_two_generated_subrings_associative(z4_octonion):
    # Closure of {1, x, y} under products spans an associative subring.
    from cdrings.residue import Submodule

    rng = random.Random(12)
    A = z4_octonion
    n = A.modulus
    for _ in range(50):
        x = np.array([rng.randrange(4) for _ in range(8)])
        y = np.array([rng.randrange(4) for _ in range(8)])
        span = Submodule.span(n, np.vstack([A.one(), x, y]), A.rank)
        while True:
            prods = [
                A.mul(g, h)
                for g in span.generators
                for h in span.generators
            ]
            grown = Submodule.span(n, np.vstack([span.generators, *prods]), A.rank)
            if grown == span:
                break
            span = grown
        gens = span.generators
        for g, h, k in itertools.product(gens, repeat=3):
            assert not A.associator(g, h, k).any()


def test_validate_reports_broken_involution():
    base = scalar_ring(4)
    sigma = np.array([[3]])  # squares to 9 = 1 mod 4... use 2: not an involution
    bad = FiniteAlgebra(4, base.structure, base.unit, [[2]])
    assert any("square" in v for v in validate_algebra(bad))


def test_validate_reports_broken_unit():
    c = np.zeros((2, 2, 2), dtype=np.int64)
    bad = FiniteAlgebra(4, c, [1, 0], np.eye(2, dtype=np.int64))
    assert any("identity" in v for v in validate_algebra(bad))


def test_validate_identity_involution_on_commutative():
    assert validate_algebra(scalar_ring(4)) == []
    assert validate_algebra(tower(4, 1)) == []


def test_conjugation_involution_on_doubled_base():
    A = tower(4, 1)
    # (x + y i)* = x - y i
    assert A.involve([1, 1]).tolist() == [1, 3]
    assert validate_algebra(A) == []


def test_is_invertible_examples():
    base = scalar_ring(4)
    ok, inv = is_invertible(base, [1])
    assert ok and inv.tolist() == [1]
    ok, inv = is_invertible(base, [2])
    assert not ok and inv is None
    ok, inv = is_invertible(base, [3])
    assert ok and inv.tolist() == [3]


def test_is_invertible_requires_central(z4_quaternion):
    with pytest.raises(NotCentral):
        is_invertible(z4_quaternion, z4_quaternion.basis_element(1))


def test_certify_central_scalar(z4_quaternion):
    cert = certify_central_scalar(z4_quaternion, 3)
    assert isinstance(cert, CentralScalar)
    assert np.array_equal(
        z4_quaternion.mul(cert.value, cert.inverse), z4_quaternion.one()
    )


def test_is_central_detects_noncentral(z4_quaternion):
    assert is_central(z4_quaternion, z4_quaternion.one())
    assert not is_central(z4_quaternion, z4_quaternion.basis_element(1))
    # 2i is central in the Z4 quaternions (it lies in N + Ni + Nj + Nk)
    assert is_central(z4_quaternion, 2 * z4_quaternion.basis_element(1))


def test_identity_flags_match_the_predicates():
    for _, _, stages in sweep_towers((2, 3, 4, 5, 6), 3):
        for alg in stages:
            assert identity_flags(alg) == {
                "associative": is_associative(alg),
                "commutative": is_commutative(alg),
                "alternative": is_alternative(alg),
                "right_alternative": is_right_alternative(alg),
            }
            assert identity_flags(alg)["alternative"] == (
                is_left_alternative(alg) and is_right_alternative(alg)
            )


def largest_exact_modulus(rank):
    """The largest n with max(2, rank) (n - 1)^2 < 2^63, the package's one bound."""
    lo, hi = 2, 2**32
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if max(2, rank) * (mid - 1) ** 2 < 2**63:
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_moduli_too_large_for_int64_raise_a_typed_error():
    # mul(n-1, n-1) used to wrap around to 0, and the tower used to fail
    # validation with a spurious InvalidAlgebra.
    with pytest.raises(ModulusTooLarge):
        scalar_ring(2**61 - 1)
    with pytest.raises(ModulusTooLarge) as exc:
        tower(3037000493, 1, 1)
    assert not isinstance(exc.value, InvalidAlgebra)


def _exact_mul(c, x, y, n):
    """x * y mod n in Python ints, independent of int64."""
    d = len(x)
    return [
        sum(x[i] * y[j] * c[i][j][k] for i in range(d) for j in range(d)) % n for k in range(d)
    ]


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_mul_is_exact_at_the_modulus_bound(depth):
    rank = 2**depth
    n = largest_exact_modulus(rank)
    assert n == (2**31 if rank <= 2 else 1518500250)
    alg = tower(n, *[n - 1] * depth)  # -1 is a unit and makes the widest sums
    assert alg.rank == rank
    rng = random.Random(depth)
    c = alg.structure.tolist()
    for x in ([n - 1] * rank, [rng.randrange(n) for _ in range(rank)]):
        y = [rng.randrange(n) for _ in range(rank)]
        assert alg.mul(x, y).tolist() == _exact_mul(c, x, y, n)
    with pytest.raises(ModulusTooLarge):
        tower(n + 1, *[n] * depth)


def _exactly_central(alg, x):
    """Python-int oracle: x commutes with every e_i and associates in all three slots."""
    n, d, c = alg.modulus, alg.rank, alg.structure.tolist()
    e = [[int(i == j) for j in range(d)] for i in range(d)]

    def mul(a, b):
        return _exact_mul(c, a, b, n)

    def assoc(a, b, w):
        return [(p - q) % n for p, q in zip(mul(mul(a, b), w), mul(a, mul(b, w)))]

    return all(mul(x, e[i]) == mul(e[i], x) for i in range(d)) and not any(
        any(assoc(*t)) for i in range(d) for j in range(d)
        for t in ((x, e[i], e[j]), (e[i], x, e[j]), (e[i], e[j], x))
    )


@functools.lru_cache(maxsize=None)
def _tower_at_the_bound(depth, below):
    """The depth-`depth` tower with every parameter -1 over the largest modulus
    the bound admits at its rank, or the one below it."""
    n = largest_exact_modulus(2**depth) - below
    return build_tower(TowerSpec(n, (n - 1,) * depth))


@settings(max_examples=40, deadline=None, database=None)
@given(depth=st.sampled_from([0, 1, 2, 3]), below=st.sampled_from([0, 1]), data=st.data())
def test_products_are_exact_at_and_below_the_modulus_bound(depth, below, data):
    stages = _tower_at_the_bound(depth, below)
    alg = stages[-1]
    n, d, c = alg.modulus, alg.rank, alg.structure.tolist()
    vector = st.lists(st.integers(0, n - 1), min_size=d, max_size=d)
    x, y = data.draw(vector), data.draw(vector)
    assert alg.mul(x, y).tolist() == _exact_mul(c, x, y, n)
    assert validate_algebra(alg) == []
    scalar = alg.scalar(data.draw(st.integers(0, n - 1))).tolist()
    # A random central element: beyond the scalars when n is even (n/2 times
    # i, j, k are central in the quaternions), where three-factor sums wrap.
    gens = center(alg).Z.generators.tolist()
    coeffs = data.draw(st.lists(st.integers(0, n - 1), min_size=len(gens), max_size=len(gens)))
    central = [sum(a * g[k] for a, g in zip(coeffs, gens)) % n for k in range(d)]
    for z in (x, scalar, central):
        assert is_central(alg, z) == _exactly_central(alg, z)
    if depth:
        stage_data = essentiality_data(stages[-2])
        assert predicted_associative_center(stage_data, alg) == associative_center(alg)
        assert predicted_center(stage_data, alg) == center(alg).Z
        # The pair laws with alpha = n - 1: nu^2 = alpha, nu (a, 0) = (0, a),
        # (a, 0) nu = (0, a*) and the full product
        # (a, b)(c, e) = (ac + alpha (e b*), a* e + c b), each side in Python
        # ints from the parent's structure tensor and involution.
        parent, v, h = stages[-2], nu(alg), d // 2
        inv, cp, zeros = parent.involution.tolist(), parent.structure.tolist(), [0] * h
        alpha = parent.scalar(n - 1).tolist()

        def star(u):
            return [sum(u[i] * inv[i][k] for i in range(h)) % n for k in range(h)]

        def pmul(u, w):
            return _exact_mul(cp, u, w, n)

        def add(u, w):
            return [(p + q) % n for p, q in zip(u, w)]

        (a, b), (c_, e) = (x[:h], x[h:]), (y[:h], y[h:])
        assert alg.mul(v, v).tolist() == alpha + zeros
        assert alg.mul(v, embed(alg, a)).tolist() == zeros + a
        assert alg.mul(embed(alg, a), v).tolist() == zeros + star(a)
        pair = add(pmul(a, c_), pmul(alpha, pmul(e, star(b)))) + add(pmul(star(a), e), pmul(c_, b))
        assert alg.mul(x, y).tolist() == pair


def _exact_products(c, n):
    """(P, Q, P - Q) of `product_tensors` and `associator_tensor`, mod n in
    Python ints: P[i][j][k] = (e_i e_j) e_k and Q[i][j][k] = e_i (e_j e_k)."""
    d = len(c)
    triples = list(itertools.product(range(d), repeat=3))
    p = {t: [sum(c[t[0]][t[1]][q] * c[q][t[2]][m] for q in range(d)) % n for m in range(d)] for t in triples}
    q = {t: [sum(c[t[1]][t[2]][r] * c[t[0]][r][m] for r in range(d)) % n for m in range(d)] for t in triples}
    return p, q, {t: [(a - b) % n for a, b in zip(p[t], q[t])] for t in triples}


def _as_dict(tensor):
    return {t: tensor[t].tolist() for t in itertools.product(range(tensor.shape[0]), repeat=3)}


def _edge(rank, dtype):
    """The largest n that `_exact_dtype` contracts in `dtype` or a narrower
    dtype at this rank; from n + 1 on it takes a wider one."""
    widths = [np.float32, np.float64, np.int64]
    lo, hi = 2, 2**32  # the rule holds at lo and fails at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if widths.index(_exact_dtype(mid, rank)) <= widths.index(dtype):
            lo = mid
        else:
            hi = mid
    assert _exact_dtype(lo, rank) is dtype and _exact_dtype(lo + 1, rank) is not dtype
    return lo


@pytest.mark.parametrize("route", ["float32", "float32+1", "float64", "int64", "int64-bound"])
@pytest.mark.parametrize("rank", [1, 2, 4, 8])
def test_product_tensors_are_exact_at_the_float64_bound(rank, route):
    # Both edges of the rule: the largest modulus of each float dtype and the
    # one after it. Just past the float64 edge most sums still fit 53 bits, so
    # the largest modulus of the int64 rule is checked as well.
    n = {
        "float32": _edge(rank, np.float32),
        "float32+1": _edge(rank, np.float32) + 1,
        "float64": _edge(rank, np.float64),
        "int64": _edge(rank, np.float64) + 1,
        "int64-bound": largest_exact_modulus(rank),
    }[route]
    rng = random.Random(rank)
    edge = (n - 1, n - 2, n // 2)  # entries that make the widest sums
    tensors = [[[[n - 1] * rank] * rank] * rank] + [
        [[[rng.choice(edge + (rng.randrange(n),)) for _ in range(rank)] for _ in range(rank)] for _ in range(rank)]
        for _ in range(3)
    ]
    algebras = [FiniteAlgebra(n, c, [1] + [0] * (rank - 1), np.eye(rank, dtype=np.int64)) for c in tensors]
    # The tower with every parameter -1: -1 is a unit and makes the widest sums.
    algebras.append(tower(n, *[n - 1] * (rank.bit_length() - 1)))
    for alg in algebras:
        p, q, t = _exact_products(alg.structure.tolist(), n)
        got_p, got_q = product_tensors(alg)
        assert (_as_dict(got_p), _as_dict(got_q)) == (p, q)
        assert _as_dict(associator_tensor(alg)) == t


def _einsum_violations(algebra):
    """`validate_algebra` by int64 einsums, each contraction reduced before
    the next: the reference of the matmul route."""
    n, d = algebra.modulus, algebra.rank
    c, unit, sigma = algebra.structure, algebra.unit, algebra.involution
    eye = np.eye(d, dtype=np.int64)
    violations = []
    if not np.array_equal(np.einsum("i,ijk->jk", unit, c) % n, eye):
        violations.append("unit is not a left identity")
    if not np.array_equal(np.einsum("j,ijk->ik", unit, c) % n, eye):
        violations.append("unit is not a right identity")
    if not np.array_equal((sigma @ sigma) % n, eye):
        violations.append("involution does not square to the identity")
    if not np.array_equal((unit @ sigma) % n, unit):
        violations.append("involution does not fix the unit")
    lhs = np.einsum("ijm,mk->ijk", c, sigma) % n
    star_left = np.einsum("jp,pqk->jqk", sigma, c) % n
    rhs = np.einsum("iq,jqk->ijk", sigma, star_left) % n
    if not np.array_equal(lhs, rhs):
        i, j = np.argwhere((lhs - rhs) % n)[0][:2]
        violations.append(f"involution is not anti-multiplicative at basis pair ({i}, {j})")
    return violations


def _einsum_double(algebra, alpha):
    """The structure tensor of the double (A, alpha) by int64 einsums, each
    contraction reduced before the next: the reference of `double`."""
    n, d = algebra.modulus, algebra.rank
    c, sigma = algebra.structure, algebra.involution
    big = np.zeros((2 * d, 2 * d, 2 * d), dtype=np.int64)
    big[:d, :d, :d] = c
    big[:d, d:, d:] = np.einsum("ip,pjk->ijk", sigma, c) % n
    big[d:, :d, d:] = c.transpose(1, 0, 2)
    ba_star = np.einsum("ip,jpk->ijk", sigma, c) % n
    left_alpha = np.einsum("p,pqk->qk", alpha, c) % n
    big[d:, d:, :d] = np.einsum("ijm,mk->ijk", ba_star, left_alpha) % n
    return big


def _route_moduli(rank):
    """Moduli on each side of the float32/float64 and float64/int64 edges of
    `_exact_dtype(n, rank)`, and the largest the int64 bound admits on the
    double, of rank 2 rank."""
    f32, f64 = _edge(rank, np.float32), _edge(rank, np.float64)
    return [f32, f32 + 1, f64, f64 + 1, largest_exact_modulus(2 * rank)]


def _vector_parameters(stage, rng, count):
    """Up to `count` certified vector parameters u 1 + (n/2) z, z a random
    0/1 vector and u a random unit (u 1 alone, as a vector, when n is odd),
    each of them checked by `certify_central_scalar`."""
    n, found = stage.modulus, []
    for _ in range(8 * count):
        z = np.array([rng.randrange(2) for _ in range(stage.rank)], dtype=np.int64)
        alpha = (rng.choice([1, n - 1, n // 2 + 1]) * stage.unit + n // 2 * z * (n % 2 == 0)) % n
        try:
            certify_central_scalar(stage, alpha.tolist())
        except CertificationError:
            continue
        found.append(alpha)
        if len(found) == count:
            break
    return found


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_double_and_validation_equal_the_einsum_reference(rank):
    rng = random.Random(rank)
    moduli = _route_moduli(rank) + ([2**31 - 1] if rank == 1 else [])
    for n in moduli:
        stages = build_tower(TowerSpec(n, (n - 1,) * (rank.bit_length() - 1)))
        stage = stages[-1]
        assert stage.rank == rank
        params = [stage.scalar(n - 1), stage.scalar(rng.randrange(1, n))]
        for alpha in params + _vector_parameters(stage, rng, 3):
            try:
                doubled = double(stage, alpha.tolist())
            except CertificationError:  # a random scalar that is not a unit
                continue
            assert np.array_equal(doubled.structure, _einsum_double(stage, alpha)), (n, alpha)
            assert validate_algebra(doubled) == _einsum_violations(doubled) == []
        for alg in stages:
            assert validate_algebra(alg) == _einsum_violations(alg) == []


@pytest.mark.parametrize("route", range(5), ids=["float32", "float64", "float64-edge", "int64", "int64-bound"])
def test_anti_multiplicativity_is_reported_at_its_first_basis_pair(route):
    # The identity involution squares to 1 and fixes the unit, but
    # (e_1 e_2)* = e_1 e_2 = -(e_2 e_1) at rank 4, so (1, 2) is the first
    # basis pair where (e_i e_j)* and e_j* e_i* differ.
    n = _route_moduli(4)[route]
    assert _exact_dtype(n, 4) is [np.float32, np.float64, np.float64, np.int64, np.int64][route]
    stage = tower(n, n - 1, n - 1)
    bad = FiniteAlgebra(n, stage.structure, stage.unit, np.eye(4, dtype=np.int64))
    want = ["involution is not anti-multiplicative at basis pair (1, 2)"]
    assert validate_algebra(bad) == _einsum_violations(bad) == want
    # One entry of the structure tensor moved, and sometimes one of the
    # involution: every violation, in order, and the first pair are those
    # of the reference.
    rng = random.Random(route)
    reported = []
    for _ in range(12):
        c = stage.structure.copy()
        c[tuple(rng.randrange(4) for _ in range(3))] += rng.randrange(1, n)
        sigma = stage.involution.copy()
        if rng.random() < 0.3:
            sigma[rng.randrange(4), rng.randrange(4)] += rng.randrange(1, n)
        alg = FiniteAlgebra(n, c, stage.unit, sigma)
        reported += validate_algebra(alg)
        assert validate_algebra(alg) == _einsum_violations(alg)
    assert sum("anti-multiplicative" in v for v in reported) >= 6


@st.composite
def _mutated_twisted_algebras(draw):
    """(algebra, s): a tower stage rebuilt from its twist (`from_twist`) with
    one twist entry, one unit coordinate or one s_i (to a value whose square
    is not 1) changed, or left whole; or a drawn twist with a drawn diagonal
    involution, which is mostly invalid."""
    if draw(st.booleans()):
        n, f, sigma = draw(_twists_with_diagonal_involutions())
        u = np.eye(len(f), dtype=np.int64)[0]
        s = np.diagonal(sigma) % n
    else:
        n = draw(st.sampled_from((4, 6, 8, 9, 12, 30, 2**31 - 1)))
        if n == 2**31 - 1:
            params = [draw(st.integers(1, n - 1))]
        else:
            units = [v for v in range(1, n) if math.gcd(v, n) == 1]
            params = draw(st.lists(st.sampled_from(units), min_size=1, max_size=3))
        stage = tower(n, *params)
        d, f, u = stage.rank, stage.twist.copy(), stage.unit.copy()
        s = np.diagonal(stage.involution).copy()
        index = st.integers(0, d - 1)
        shift = st.integers(1, n - 1)
        kind = draw(st.sampled_from(("twist", "unit", "involution", "none")))
        if kind == "twist":
            i, j = draw(index), draw(index)
            f[i, j] = (f[i, j] + draw(shift)) % n
        elif kind == "unit":
            k = draw(index)
            u[k] = (u[k] + draw(shift)) % n
        elif kind == "involution":
            s[draw(index)] = draw(st.integers(0, n - 1).filter(lambda v: v * v % n != 1))
    return FiniteAlgebra.from_twist(n, f, u, np.diag(s)), s


@settings(max_examples=150, deadline=None, database=None)
@given(_mutated_twisted_algebras())
def test_twisted_validation_equals_the_tensor_route(case):
    alg, s = case
    twisted = validate_algebra(alg)
    assert "structure" not in alg.memo  # the twisted route never builds the tensor
    assert twisted == _twisted_violations(alg, s) == _tensor_violations(alg)
    assert twisted == _einsum_violations(alg)
    # The same algebra built from its tensor takes the twisted route too.
    twin = FiniteAlgebra(alg.modulus, alg.structure, alg.unit, alg.involution)
    assert np.array_equal(twin.twist, alg.twist) and validate_algebra(twin) == twisted


def test_stage_procedures_of_twisted_towers_build_no_tensor(monkeypatch):
    def refuse(f):
        raise AssertionError("the structure tensor was built")

    monkeypatch.setattr(algebra_module, "_twisted_structure", refuse)
    stages = build_tower(TowerSpec(3, (1,) * 5))
    for stage in stages[-2:]:
        center(stage)
        essentiality_data(stage)
        identity_flags(stage)
    stage, top = stages[-2:]
    data = essentiality_data(stage)
    assert predicted_associative_center(data, top) == center(top).N
    assert predicted_center(data, top) == center(top).Z
    assert all("structure" not in a.memo for a in stages[1:])
    monkeypatch.undo()
    # A document is a tensor, built on demand; the loaded copy is the same
    # algebra, built from that tensor.
    loaded = document_to_algebra(algebra_to_document(top))
    assert "structure" in top.memo and "structure" not in stage.memo
    assert loaded == top and loaded.labels == top.labels and loaded.name == top.name
    assert np.array_equal(loaded.twist, top.twist)
    assert center(loaded) == center(top) and identity_flags(loaded) == identity_flags(top)


@pytest.mark.parametrize(
    "n, dtype",
    [(182, np.int16), (183, np.int32), (46_341, np.int32), (46_342, np.int64)],
)
def test_twisted_associators_take_the_narrowest_exact_dtype(n, dtype):
    # Entries 0, 1 and n - 1 reach both ends, +-(n - 1)^2, of the unreduced
    # difference; the int64 formula is the reference.
    rng = np.random.default_rng(n)
    f = rng.choice([0, 1, n - 1, rng.integers(n)], size=(8, 8))
    i, j, k = np.ix_(*3 * [np.arange(8)])
    raw = f[i, j] * f[i ^ j, k] - f[j, k] * f[i, j ^ k]
    assert raw.max() == (n - 1) ** 2 and raw.min() == -((n - 1) ** 2)
    got = _twisted_associators(f, n)
    assert got.dtype == dtype and np.array_equal(got, raw % n)


# -- the one reader of the structure tensor ------------------------------------

# At rank 4 the float32 edge of `_exact_dtype` lies between 2048 and 2049 and
# the float64 edge between 47,453,133 and 47,453,134 (int64 beyond).
_EDGE_MODULI = (2048, 2049, 47_453_133, 47_453_134)


@st.composite
def _stacks(draw):
    """(build, rows): build() makes an algebra with a random structure
    tensor, dense or twisted (e_i e_j = f(i, j) e_{i xor j}, f with zero and
    non-unit values), and rows is a (k, d) stack of residues, k = 0
    included."""
    n, d = draw(
        st.one_of(
            st.tuples(st.sampled_from(_EDGE_MODULI), st.just(4)),
            st.tuples(st.integers(2, 40), st.integers(1, 8)),
        )
    )
    entry = st.one_of(st.sampled_from((0, 1, n - 1, n // 2, n // 3)), st.integers(0, n - 1))

    def residues(*shape):
        size = int(np.prod(shape))
        values = draw(st.lists(entry, min_size=size, max_size=size))
        return np.array(values, dtype=np.int64).reshape(shape)

    if d.bit_count() == 1 and draw(st.booleans()):
        i = np.arange(d)
        structure = np.zeros((d, d, d), dtype=np.int64)
        structure[i[:, None], i, i[:, None] ^ i] = residues(d, d)
    else:
        structure = residues(d, d, d)
    eye = np.eye(d, dtype=np.int64)
    build = functools.partial(FiniteAlgebra, n, structure, eye[0], eye)
    return build, residues(draw(st.integers(0, 5)), d)


def _edge_case(n):
    """The rank-4 tower over Z/n with parameters 1, n - 1, built when the
    example runs, and 40 random rows plus the row of all n - 1."""
    rows = np.random.default_rng(n).integers(0, n, (40, 4))
    return functools.partial(tower, n, 1, n - 1), np.vstack([rows, np.full((1, 4), n - 1)])


@settings(max_examples=100, deadline=None, database=None)
@given(_stacks())
@example(_edge_case(2048))
@example(_edge_case(2049))
@example((functools.partial(tower, 3, 1, 1), np.zeros((0, 4), dtype=np.int64)))
def test_mul_matrices_equal_the_int64_einsum(case):
    edges = [_exact_dtype(n, 4) for n in _EDGE_MODULI]
    assert edges == [np.float32, np.float64, np.float64, np.int64]
    build, rows = case
    alg = build()
    n, d = alg.modulus, alg.rank
    y = np.arange(d) * (n - 1) // max(d - 1, 1)
    for side, spec in (("left", "ai,ijk->ajk"), ("right", "aj,ijk->aik")):
        mats = alg.mul_matrices(rows, side)
        assert mats.shape == (len(rows), d, d) and mats.dtype == _exact_dtype(n, d)
        assert np.array_equal(mats, np.einsum(spec, rows, alg.structure) % n), side
        for x, mat in zip(rows[:3], mats.astype(np.int64)):
            product = alg.mul(x, y) if side == "left" else alg.mul(y, x)
            assert np.array_equal(y @ mat % n, product), side


def test_each_algebra_reads_its_twist_once(monkeypatch, tmp_path):
    built = []
    read = algebra_module._twist

    def counted(algebra):
        built.append(algebra)  # kept alive, so no two share an id
        return read(algebra)

    monkeypatch.setattr(algebra_module, "_twist", counted)
    # Every algebra the package writes is built from its twist
    # (`FiniteAlgebra.from_twist`) and never reads one: the base ring, every
    # double and the presentations, even after a tensor is built for the
    # scans.
    stages = build_tower(TowerSpec(3, (1, 1, 1, 1)))
    top = stages[-1]
    essentiality_data(top)
    center(top)
    identity_flags(top)
    for check in (is_centrally_essential, is_left_n_essential, is_right_n_essential):
        check(top)
    quaternion_algebra(3, 1, 2)
    octonion_algebra(3, 1, 2, 1)
    assert built == []
    assert "structure" in top.memo
    for stage in stages:
        assert stage.twist is not None and not stage.twist.flags.writeable
    with pytest.raises(ValueError):
        top.twist[0, 0] = 2
    # A copy built from the tensor, and a saved tower loaded back, each read
    # the twist once, read-only and equal to the original.
    copy = FiniteAlgebra(3, top.structure, top.unit, top.involution)
    loaded = load_algebra(save_algebra(tmp_path / "tower.json", top))
    assert len(built) == 2 and built[0] is copy and built[1] is loaded
    for algebra in built:
        assert np.array_equal(algebra.twist, top.twist) and not algebra.twist.flags.writeable
    # The twist is read off the reduced tensor: shifted by -3, every entry of
    # the Z3 quaternions is nonzero until it is reduced.
    quaternions = stages[2]
    shifted = FiniteAlgebra(3, quaternions.structure - 3, quaternions.unit, quaternions.involution)
    assert np.array_equal(shifted.twist, quaternions.twist)


def test_only_kept_reads_or_writes_the_memo():
    # An algebra remembers through one method: every cache of the package is
    # `FiniteAlgebra.kept`, and `_set_fields` only creates the empty memo.
    sites = set()

    def visit(node, path, func):
        func = node.name if isinstance(node, ast.FunctionDef) else func
        if isinstance(node, ast.Attribute) and node.attr == "memo":
            sites.add((path.name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, path, func)

    for path in sorted(Path(algebra_module.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert sites == {("algebra.py", "_set_fields"), ("algebra.py", "kept")}


def test_kept_computes_once_and_keeps_nothing_when_compute_raises():
    alg = scalar_ring(5)
    calls = []
    assert alg.kept("probe", lambda: calls.append(1) or "value") == "value"
    assert alg.kept("probe", lambda: calls.append(2) or "other") == "value"
    assert calls == [1]

    def failing():
        calls.append(3)
        raise ValueError("no value")

    for _ in range(2):
        with pytest.raises(ValueError, match="no value"):
            alg.kept("failing", failing)
        assert "failing" not in alg.memo
    assert calls == [1, 3, 3]
    assert alg.kept("failing", lambda: 4) == 4 and alg.memo["failing"] == 4
    # A failed validation keeps nothing and raises at every boundary.
    bad = FiniteAlgebra.from_twist(5, [[2]], [1], [[1]])
    for _ in range(2):
        with pytest.raises(InvalidAlgebra):
            ensure_valid(bad)
        assert "valid" not in bad.memo
    assert ensure_valid(alg) is alg and alg.memo["valid"] is True


def test_slots_hold_no_cache_besides_the_memo():
    assert len(FiniteAlgebra.__slots__) == 10
    assert not {"valid", "certified", "_structure"} & set(FiniteAlgebra.__slots__)
