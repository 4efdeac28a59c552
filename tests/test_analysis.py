import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrings import analysis, doubling, residue, suites
from cdrings.algebra import FiniteAlgebra, associator_tensor, certify_central_scalar, scalar_ring
from cdrings.analysis import (
    FIRST_COMPONENT_IDENTITIES,
    SECOND_COMPONENT_IDENTITIES,
    annihilator,
    associative_center,
    center,
    commutative_center,
    commutator_ideal,
    essentiality_data,
    identity_conditions,
    n_membership_by_identities,
    pair_coordinates,
    predicted_associative_center,
    predicted_center,
    skew_annihilator,
    skew_span,
    symmetric_center,
)
from cdrings.analysis import _associative_center_kernel, _kernel_center
from cdrings.doubling import TowerSpec, build_tower, double, tower
from cdrings.errors import DimensionMismatch, StageMismatch
from cdrings.residue import Submodule, _tail, all_vectors, intersect, kernel
from cdrings.suites import sweep_towers

from conftest import brute_span, holds_on_basis, identity_difference, submodule_set


@pytest.fixture(scope="module")
def z4_quaternion():
    return tower(4, 1, 1)


@pytest.fixture(scope="module")
def z4_octonion():
    return tower(4, 1, 1, 1)


from conftest import brute_associative_center_set, brute_commutative_center_set


def brute_associative_center(algebra):
    return brute_associative_center_set(
        algebra, all_vectors(algebra.modulus, algebra.rank)
    )


def brute_commutative_center(algebra):
    return brute_commutative_center_set(
        algebra, all_vectors(algebra.modulus, algebra.rank)
    )


@pytest.mark.parametrize(
    "base,params",
    [(2, (1, 1)), (3, (1, 1)), (4, (1,)), (4, (1, 1)), (5, (2, 3)), (6, (1,))],
)
def test_centers_match_brute_force(base, params):
    alg = tower(base, *params)
    assert submodule_set(associative_center(alg)) == brute_associative_center(alg)
    assert submodule_set(commutative_center(alg)) == brute_commutative_center(alg)


def test_center_report_invariants(z4_quaternion):
    rep = center(z4_quaternion)
    assert rep.Z == intersect(rep.N, rep.K)
    for g in rep.Z.generators:
        assert rep.N.contains(g) and rep.K.contains(g)


def test_associative_center_full_for_associative(z4_quaternion):
    N = associative_center(z4_quaternion)
    assert N.order() == 4**4  # quaternions over Z4 are associative


def test_z4_quaternion_center_is_K_plus_N_ijk(z4_quaternion):
    # Z(A2) = K + Ni + Nj + Nk with N = Ann_K(2) = 2Z4
    expected = Submodule.span(
        4, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    )
    assert center(z4_quaternion).Z == expected


def test_z3_quaternion_center_is_scalars():
    rep = center(tower(3, 1, 1))
    assert rep.Z == Submodule.span(3, [[1, 0, 0, 0]])
    assert rep.Z.order() == 3


def test_octonion_associative_center_sizes(z4_octonion):
    # N(R) = C + I nu with C of order 32 and I of order 16
    data = essentiality_data(z4_octonion.parent)
    assert data.C.order() == 32
    assert data.I.order() == 16
    N = associative_center(z4_octonion)
    assert N.order() == 32 * 16


def test_z2_sedenion_rank16_center_matches_brute_force():
    # Exhaustive oracle over all 65536 elements. Products are evaluated in
    # float32 (exact far below 2**24) with the per-slot matrices stacked wide
    # so each basis element costs a handful of BLAS calls.
    alg = tower(2, 1, 1, 1, 1)
    assert alg.rank == 16
    n, d = alg.modulus, alg.rank
    c = alg.structure.astype(np.float32)
    X = all_vectors(n, d).astype(np.float32)
    R = c.transpose(1, 0, 2)  # R[j] = right mult by e_j
    L = c  # L[i] = left mult by e_i
    Rwide = np.hstack(list(R))  # (d, d*d): all right mults side by side
    Lwide = np.hstack(list(L))
    m = len(X)
    XB_flat = (X @ Rwide).reshape(m * d, d)  # rows: x e_b for each (x, b)
    BX_flat = (X @ Lwide).reshape(m * d, d)  # rows: e_b x for each (x, b)
    alive = np.ones(m, dtype=bool)
    for a in range(d):
        Xa = X @ R[a]
        aX = X @ L[a]
        # (x e_a) e_b - x (e_a e_b), all b at once
        prod_ab = np.hstack(
            [np.einsum("q,pqk->pk", alg.structure[a, b], alg.structure) for b in range(d)]
        )
        slot1 = Xa @ Rwide - X @ prod_ab.astype(np.float32)
        # (e_a x) e_b - e_a (x e_b)
        slot2 = aX @ Rwide - (XB_flat @ L[a]).reshape(m, d * d)
        # (e_a e_b) x - e_a (e_b x)
        left_ab = np.hstack(
            [np.einsum("q,qpk->pk", alg.structure[a, b], alg.structure) for b in range(d)]
        )
        slot3 = X @ left_ab.astype(np.float32) - (BX_flat @ L[a]).reshape(m, d * d)
        # n == 2: reduction mod 2 is a parity check; int16 holds the small values
        bad = (
            (slot1.astype(np.int16) & 1).any(axis=1)
            | (slot2.astype(np.int16) & 1).any(axis=1)
            | (slot3.astype(np.int16) & 1).any(axis=1)
        )
        alive &= ~bad
    got = frozenset(tuple(map(int, v)) for v in all_vectors(n, d)[alive])
    assert got == submodule_set(associative_center(alg))


def test_commutator_ideal_of_commutative_is_zero():
    assert commutator_ideal(tower(4, 1)).is_zero
    assert commutator_ideal(scalar_ring(5)).is_zero


def test_commutator_ideal_z4_quaternion(z4_quaternion):
    got = commutator_ideal(z4_quaternion)
    expected = Submodule.span(
        4, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    )
    assert got == expected
    # contains [i, j] = 2k
    assert got.contains([0, 0, 0, 2])


def test_commutator_ideal_matches_additive_closure_oracle(z4_quaternion):
    # Desk-scale oracle: close the set of all commutators under products
    # with every element, by exhaustive set growth.
    A = z4_quaternion
    n, d = A.modulus, A.rank
    elems = list(all_vectors(n, d))
    seeds = {tuple(map(int, A.commutator(x, y))) for x in elems for y in elems}
    current = brute_span(list(seeds), n)
    while True:
        extra = set()
        for g in current:
            for e in [A.basis_element(i) for i in range(d)]:
                extra.add(tuple(map(int, A.mul(np.array(g), e))))
                extra.add(tuple(map(int, A.mul(e, np.array(g)))))
        grown = brute_span(list(current | extra), n)
        if grown == current:
            break
        current = grown
    assert submodule_set(commutator_ideal(A)) == current


def test_annihilator_of_zero_is_whole(z4_quaternion):
    C = center(z4_quaternion).Z
    zero = Submodule.zero(4, 4)
    assert annihilator(zero, C, z4_quaternion) == C


def test_annihilator_I_for_z4_quaternion(z4_quaternion):
    data = essentiality_data(z4_quaternion)
    expected = Submodule.span(
        4, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    )
    assert data.I == expected
    assert data.J == expected
    assert data.B == data.C == center(z4_quaternion).Z


def test_annihilator_z3_quaternion_is_zero():
    A = tower(3, 1, 1)
    data = essentiality_data(A)
    assert data.I.is_zero


def test_annihilator_matches_enumeration(z4_quaternion):
    A = z4_quaternion
    data = essentiality_data(A)
    comm = data.commutator_ideal
    C = data.C
    expected = set()
    for c in C.elements():
        if all(
            not A.mul(c, np.array(s)).any() for s in comm.elements()
        ):
            expected.add(tuple(int(t) for t in c))
    assert submodule_set(data.I) == expected


def test_symmetric_center_identity_involution():
    A = scalar_ring(6)
    B = symmetric_center(A)
    assert B == center(A).Z
    J = skew_annihilator(A)
    assert J == B


def test_skew_span_of_conjugated_double():
    A = tower(4, 1)
    # {a - a*} is spanned by i - i* = 2i
    assert skew_span(A) == Submodule.span(4, [[0, 2]])
    data = essentiality_data(A)
    # B = {x + yi : 2y = 0}, J = Ann_B(2i) = {x + yi : x, y even}
    assert data.B == Submodule.span(4, [[1, 0], [0, 2]])
    assert data.J == Submodule.span(4, [[2, 0], [0, 2]])


def test_involution_stability_of_I_and_alpha_stability(z4_quaternion):
    A = z4_quaternion
    data = essentiality_data(A)
    for g in data.I.generators:
        assert data.I.contains(A.involve(g))
    for alpha in (1, 3):
        cert = certify_central_scalar(A, alpha)
        scaled_I = Submodule.span(
            4, [(A.mul(cert.value, g)) for g in data.I.generators] or np.zeros((0, 4)),
            4,
        )
        scaled_C = Submodule.span(
            4, [(A.mul(cert.value, g)) for g in data.C.generators], 4
        )
        assert scaled_I == data.I
        assert scaled_C == data.C


@pytest.mark.parametrize(
    "base,params",
    [
        (2, (1, 1)),
        (3, (1, 1)),
        (3, (2, 2)),
        (4, (1, 1)),
        (4, (3, 1)),
        (5, (1, 2)),
        (6, (1, 5)),
    ],
)
def test_predicted_centers_match_direct(base, params):
    stage = tower(base, *params[:-1]) if len(params) > 1 else tower(base)
    doubled = double(stage, params[-1])
    data = essentiality_data(stage)
    assert predicted_associative_center(data, doubled) == associative_center(doubled)
    assert predicted_center(data, doubled) == center(doubled).Z


def test_predicted_centers_match_for_nonscalar_parameters():
    # Doubling parameters that are not scalar multiples of the unit.
    stage1 = tower(4, 1)
    for alpha in ([1, 2], [3, 2]):
        R = double(stage1, alpha)
        data = essentiality_data(stage1)
        assert predicted_associative_center(data, R) == associative_center(R)
        assert predicted_center(data, R) == center(R).Z
    stage2 = tower(4, 1, 1)
    # 1 + 2i is central, symmetric, and self-inverse in the quaternion stage
    R = double(stage2, [1, 2, 0, 0])
    data = essentiality_data(stage2)
    assert predicted_associative_center(data, R) == associative_center(R)
    assert predicted_center(data, R) == center(R).Z


def test_predicted_center_of_commutative_double_is_full():
    base = scalar_ring(4)
    data = essentiality_data(base)
    R = double(base, 1)
    assert predicted_center(data, R) == Submodule.full(4, 2)
    assert center(R).Z == Submodule.full(4, 2)


def test_predicted_center_z3_octonion_is_scalars():
    stage = tower(3, 1, 1)
    R = double(stage, 1)
    data = essentiality_data(stage)
    assert data.I.is_zero
    predicted = predicted_center(data, R)
    assert predicted == Submodule.span(3, [[1] + [0] * 7])
    assert center(R).Z == predicted


def test_closed_forms_match_the_direct_kernels_at_rank_64():
    # Each rank-64 associator block has 262,144 columns, 126 of them distinct.
    # `center` takes the twisted closed form here, so the kernel route is
    # called explicitly as the oracle of both.
    stage, doubled = build_tower(TowerSpec(3, (1,) * 6))[-2:]
    assert doubled.rank == 64
    data = essentiality_data(stage)
    oracle = _kernel_center(doubled)
    report = center(doubled)
    assert report.N == oracle.N == predicted_associative_center(data, doubled)
    assert report.Z == oracle.Z == predicted_center(data, doubled)
    assert report.K == oracle.K


@pytest.mark.parametrize("base", [2, 3, 4, 5, 6])
def test_closed_forms_never_seed_the_direct_kernels(base):
    for _, params, stages in sweep_towers((base,), 2):
        stage, doubled = stages[-2], stages[-1]
        data = essentiality_data(stage)
        closed_n = predicted_associative_center(data, doubled)
        closed_z = predicted_center(data, doubled)
        assert doubled.memo == {}, params
        assert essentiality_data(stage) is data
        assert center(doubled) is center(doubled)
        essentiality_data(doubled)
        assert set(doubled.memo) == {"associative_center", "center", "essentiality_data"}
        fresh = FiniteAlgebra(
            doubled.modulus, doubled.structure, doubled.unit, doubled.involution
        )
        assert associative_center(doubled) == associative_center(fresh) == closed_n
        assert center(doubled).Z == center(fresh).Z == closed_z


# -- the twisted closed form against the kernel route --------------------------


def _assert_routes_agree(algebra):
    oracle = _kernel_center(algebra)
    report = center(algebra)
    assert associative_center(algebra) == report.N == oracle.N
    assert commutative_center(algebra) == report.K == oracle.K
    assert report.Z == oracle.Z


def _assert_stage_data_agrees(algebra):
    """[A, A], I and J by the closed forms against their oracles."""
    comm = commutator_ideal(algebra)
    assert comm == analysis._commutator_ideal_closure(algebra)
    pairs = ((comm, center(algebra).Z), (skew_span(algebra), symmetric_center(algebra)))
    for s, within in pairs:
        assert annihilator(s, within, algebra) == analysis._annihilator_kernel(s, within, algebra)


@pytest.fixture
def kernel_routes(monkeypatch):
    """The names of the oracle routes called while the fixture is live."""
    calls = []
    for name in (
        "_associative_center_kernel",
        "_commutative_center_kernel",
        "_commutator_ideal_closure",
        "_annihilator_kernel",
    ):
        real = getattr(analysis, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(analysis, name, spy)
    return calls


@pytest.mark.parametrize(
    "base,depth",
    [(2, 4), (3, 4), (4, 4), (5, 3), (6, 3), (8, 3), (9, 3), (12, 3)],
)
def test_closed_forms_equal_the_kernel_route_on_unit_towers(base, depth):
    # 596 towers in all, the base rings (depth 0) included.
    for params, stages in doubling.unit_towers(base, depth):
        algebra = stages[-1]
        assert algebra.twist is not None, params
        _assert_routes_agree(algebra)
        _assert_stage_data_agrees(algebra)


def _twisted_algebra(n, f, involution=None):
    """e_i e_j = f[i][j] e_{i xor j}, with e_0 as the unit and the identity
    involution unless one is given."""
    d = len(f)
    i = np.arange(d)
    structure = np.zeros((d, d, d), dtype=np.int64)
    structure[i[:, None], i, i[:, None] ^ i] = f
    eye = np.eye(d, dtype=np.int64)
    return FiniteAlgebra(n, structure, eye[0], eye if involution is None else involution)


@st.composite
def _twists(draw):
    n = draw(st.sampled_from((4, 6, 8, 9, 12, 30, 2**31 - 1)))
    d = draw(st.sampled_from((1, 2) if n == 2**31 - 1 else (1, 2, 4, 8)))
    entry = st.one_of(st.sampled_from((0, 1, n - 1, n // 2, n // 3)), st.integers(0, n - 1))
    f = np.array(draw(st.lists(entry, min_size=d * d, max_size=d * d)), dtype=np.int64)
    f = f.reshape(d, d)
    f[0, :] = f[:, 0] = 1
    return n, f


@settings(max_examples=120, deadline=None, database=None)
@given(_twists())
# N needs the gcds of all three slots here: those of the first two alone
# leave 2 e_1 and 2 e_2 in it, which the third slot takes out.
@example((4, np.array([[1, 1, 1, 1], [1, 2, 2, 3], [1, 0, 0, 1], [1, 0, 0, 3]])))
def test_closed_forms_equal_the_kernel_route_on_random_twists(case):
    n, f = case
    algebra = _twisted_algebra(n, f)
    assert np.array_equal(algebra.twist, f % n)
    _assert_routes_agree(algebra)


def test_twisted_algebras_skip_the_kernel(kernel_routes):
    center(tower(4, 1, 3, 1))
    assert kernel_routes == []


def test_algebras_off_the_pattern_take_the_kernel_route(kernel_routes):
    stage = tower(3, 1, 1)
    structure = stage.structure.copy()
    structure[1, 1, 1] = 1  # e_1 e_1 gains an e_1 term, off the e_0 slot
    off_pattern = FiniteAlgebra(3, structure, stage.unit, stage.involution)
    # Z4[t]/(t^3): rank 3 is not a power of two
    truncated = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3 - i):
            truncated[i, j, i + j] = 1
    rank_3 = FiniteAlgebra(4, truncated, [1, 0, 0], np.eye(3, dtype=np.int64))
    nonscalar_double = double(tower(4, 1), [1, 2])
    for algebra in (off_pattern, rank_3, nonscalar_double):
        assert algebra.twist is None
        kernel_routes.clear()
        report = center(algebra)
        assert kernel_routes == ["_associative_center_kernel", "_commutative_center_kernel"]
        assert submodule_set(report.N) == brute_associative_center(algebra)
        assert submodule_set(report.K) == brute_commutative_center(algebra)
        assert report.Z == intersect(report.N, report.K)


def test_predicted_center_stage_mismatch(z4_octonion):
    data = essentiality_data(scalar_ring(4))
    with pytest.raises(StageMismatch):
        predicted_center(data, z4_octonion)


def test_identity_membership_examples(z4_quaternion):
    R = double(z4_quaternion, 1)
    A = z4_quaternion
    # x in Z(A), y = 0 -> member
    assert n_membership_by_identities(R, [1, 0, 0, 0], A.zero())
    assert n_membership_by_identities(R, [0, 2, 0, 0], A.zero())
    # x = 0, y in Ann_{Z(A)}([A,A]) -> member
    assert n_membership_by_identities(R, A.zero(), [2, 0, 0, 0])
    # x = i is not central -> not a member
    assert not n_membership_by_identities(R, [0, 1, 0, 0], A.zero())


@pytest.mark.parametrize("base,params", [(2, (1, 1)), (4, (1,))])
def test_identity_membership_equals_center_membership(base, params):
    stage = tower(base, *params)
    R = double(stage, 1)
    N = associative_center(R)
    n, d = stage.modulus, stage.rank
    for x in all_vectors(n, d):
        for y in all_vectors(n, d):
            via_identities = n_membership_by_identities(R, x, y)
            via_center = N.contains(pair_coordinates(R, x, y))
            assert via_identities == via_center, (x, y)


def test_essentiality_data_containments_and_involution_invariance():
    for alg in (tower(4, 1, 1), tower(3, 1, 1), tower(4, 1), tower(6, 1, 5)):
        data = essentiality_data(alg)
        for g in data.I.generators:
            assert data.C.contains(g)
        for g in data.B.generators:
            assert data.C.contains(g)
        for g in data.J.generators:
            assert data.B.contains(g)
        # B and J are stable under the involution
        for sub in (data.B, data.J):
            for g in sub.generators:
                assert sub.contains(alg.involve(g))


def test_identity_membership_equals_lemma_formula():
    # Membership by identities <=> x in Z(A) and y in Ann_{Z(A)}([A,A]).
    stage = tower(2, 1, 1)
    R = double(stage, 1)
    data = essentiality_data(stage)
    n, d = stage.modulus, stage.rank
    for x in all_vectors(n, d):
        for y in all_vectors(n, d):
            got = n_membership_by_identities(R, x, y)
            want = data.C.contains(x) and data.I.contains(y)
            assert got == want


def _systems(stage):
    first, second = identity_conditions(stage)
    return (
        (first, FIRST_COMPONENT_IDENTITIES, "x"),
        (second, SECOND_COMPONENT_IDENTITIES, "y"),
    )


def _assert_matches_evaluator(stage, conditions, identities, var, value):
    """The compiled verdict on `value` against the per-element evaluator.

    A value the matrix refutes is refuted again by evaluating the identity
    and basis pair of its first nonzero block, whose lhs - rhs must equal
    that block; a value it accepts must pass every identity at every pair.
    """
    d = stage.rank
    blocks = (value @ conditions.array % stage.modulus).reshape(len(identities), d, d, d)
    failing = np.argwhere(blocks.any(axis=3))
    if len(failing) == 0:
        assert holds_on_basis(stage, identities, var, value), (stage.name, var, value)
        return
    k, i, j = failing[0]
    env = {var: value, "u": stage.basis_element(i), "v": stage.basis_element(j)}
    difference = identity_difference(stage, identities[k], env)
    assert np.array_equal(difference, blocks[k, i, j]), (stage.name, var, value)


@pytest.mark.parametrize("base", [2, 3, 4, 5, 6])
def test_identity_conditions_match_per_element_evaluator(base):
    # Every element of every stage up to rank 4, one system at a time.
    stages = [scalar_ring(base)] + [s[-1] for _, _, s in sweep_towers((base,), 2)]
    for stage in stages:
        for conditions, identities, var in _systems(stage):
            assert conditions.array.shape == (stage.rank, 12 * stage.rank**3)
            for value in all_vectors(stage.modulus, stage.rank):
                _assert_matches_evaluator(stage, conditions, identities, var, value)


def _pair_submodule(first: Submodule, second: Submodule) -> Submodule:
    d, n = first.ambient_rank, first.modulus
    zeros = np.zeros(d, dtype=np.int64)
    rows = [np.concatenate([g, zeros]) for g in first.generators]
    rows += [np.concatenate([zeros, h]) for h in second.generators]
    if not rows:
        return Submodule.zero(n, 2 * d)
    return Submodule.span(n, np.array(rows), 2 * d)


def _assert_lemma_2_1(stage, alpha):
    first, second = identity_conditions(stage)
    doubled = double(stage, alpha)
    data = essentiality_data(stage)
    assert kernel(first) == data.C and kernel(second) == data.I
    direct = associative_center(doubled)
    assert _pair_submodule(kernel(first), kernel(second)) == direct
    assert direct == predicted_associative_center(data, doubled)


@pytest.mark.parametrize(
    "params",
    [(2, 1, 1, 1), (3, 1, 1, 1), (4, 1, 1, 1), pytest.param((2, 1, 1, 1, 1), id="2-rank16")],
    ids=lambda params: str(params[0]),
)
def test_lemma_2_1_is_an_exact_equality_at_rank_8(params):
    # kernel(M1) x kernel(M2) == N(double) == closed form, beyond desk scale:
    # the double has n^16 elements (2^32 for the rank-16 stage).
    _assert_lemma_2_1(tower(*params), 1)


def test_identity_conditions_are_kept_in_the_stage_memo():
    stage = tower(3, 1, 1)
    compiled = identity_conditions(stage)
    assert identity_conditions(stage) is compiled
    assert stage.memo["identity_conditions"] is compiled
    twin = tower(3, 1, 1)
    assert twin == stage and "identity_conditions" not in twin.memo
    rebuilt = identity_conditions(twin)
    assert rebuilt == compiled
    assert rebuilt[0] is not compiled[0] and rebuilt[1] is not compiled[1]


def _units(n):
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


unit_towers = st.integers(2, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from(_units(n)), min_size=1, max_size=3),
        st.sampled_from(_units(n)),
    )
)


@settings(max_examples=25, deadline=None, database=None)
@given(unit_towers, st.data())
def test_identity_conditions_agree_with_evaluator_on_random_towers(spec, data):
    n, params, _ = spec
    stage = tower(n, *params)
    d = stage.rank
    for conditions, identities, var in _systems(stage):
        # one arbitrary element and one drawn from the solution set, so both
        # verdicts are exercised
        arbitrary = data.draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))
        solutions = kernel(conditions).generators
        coeffs = data.draw(
            st.lists(st.integers(0, n - 1), min_size=len(solutions), max_size=len(solutions))
        )
        member = np.array(coeffs, dtype=np.int64) @ solutions % n
        for value in (np.array(arbitrary, dtype=np.int64), member):
            _assert_matches_evaluator(stage, conditions, identities, var, value)


@settings(max_examples=20, deadline=None, database=None)
@given(unit_towers)
def test_lemma_2_1_equality_on_random_towers(spec):
    n, params, alpha = spec
    _assert_lemma_2_1(tower(n, *params), alpha)


# -- the batched identity sweep and the kernel oracle of N ---------------------


def test_identity_membership_table_equals_the_lemma_formula(z4_quaternion):
    R = double(z4_quaternion, 1)
    data = essentiality_data(z4_quaternion)
    rng = np.random.default_rng(5)
    X = np.vstack([rng.integers(-4, 8, (6, 4)), data.C.generators])
    Y = np.vstack([rng.integers(-4, 8, (5, 4)), data.I.generators])
    table = n_membership_by_identities(R, X, Y)
    assert table.dtype == bool and table.shape == (len(X), len(Y))
    want = [[data.C.contains(x) and data.I.contains(y) for y in Y] for x in X]
    assert table.tolist() == want and table.any() and not table.all()
    assert n_membership_by_identities(R, X[-1], Y).tolist() == [want[-1]]
    assert n_membership_by_identities(R, X, Y[:0]).shape == (len(X), 0)
    assert n_membership_by_identities(R, X[-1], Y[-1]) is want[-1][-1]
    with pytest.raises(DimensionMismatch):
        n_membership_by_identities(R, X[:, :3], Y)


def _lemma_2_1_stages():
    return tower(2, 1, 1), tower(4, 1)


def test_the_lemma_2_1_suite_calls_each_side_at_most_twice_per_case(monkeypatch):
    calls = {"contains": 0, "identities": 0}
    real_contains, real_identities = Submodule.contains, suites.n_membership_by_identities

    def contains(self, v):
        calls["contains"] += 1
        return real_contains(self, v)

    def identities(*args):
        calls["identities"] += 1
        return real_identities(*args)

    monkeypatch.setattr(Submodule, "contains", contains)
    monkeypatch.setattr(suites, "n_membership_by_identities", identities)
    report = suites.suite_lemma_2_1()
    cases = len(report.instances)
    assert cases == len(_lemma_2_1_stages()) and report.passed
    assert 1 <= calls["contains"] <= 2 * cases
    assert 1 <= calls["identities"] <= 2 * cases


@pytest.mark.parametrize("shrink", ["drop-first", "drop-last", "double"])
def test_the_lemma_2_1_suite_reports_the_pairwise_witness(shrink, monkeypatch):
    # A center that is too small disagrees with the identity systems; the
    # batched sweep must count and name the disagreements as the
    # pair-by-pair loop over `itertools.product` does.
    real = suites.associative_center

    def smaller(doubled):
        N = real(doubled)
        gens = N.generators
        rows = {"drop-first": gens[1:], "drop-last": gens[:-1], "double": 2 * gens}[shrink]
        return Submodule.span(N.modulus, rows, N.ambient_rank)

    monkeypatch.setattr(suites, "associative_center", smaller)
    report = suites.suite_lemma_2_1()
    for row, stage in zip(report.instances, _lemma_2_1_stages(), strict=True):
        doubled = double(stage, 1)
        N = smaller(doubled)
        vectors = all_vectors(stage.modulus, stage.rank)
        mismatches, witness = 0, None
        for x, y in itertools.product(vectors, repeat=2):
            if n_membership_by_identities(doubled, x, y) != N.contains(
                pair_coordinates(doubled, x, y)
            ):
                mismatches += 1
                witness = witness or (tuple(map(int, x)), tuple(map(int, y)))
        assert mismatches > 0 and not row.passed
        assert row.detail == f"{len(vectors) ** 2} pairs swept, {mismatches} disagreements"
        assert row.witness == witness


def _kernel_of_the_full_stack(algebra):
    """N as `_tail` of [the three full associator blocks | I]: no block is
    deduplicated or replaced by its diagonal."""
    n, d = algebra.modulus, algebra.rank
    t = associator_tensor(algebra)
    stack = np.concatenate([np.moveaxis(t, s, 0).reshape(d, -1) for s in range(3)], axis=1)
    return _tail(np.hstack([stack, np.eye(d, dtype=np.int64)]), stack.shape[1], n)


@pytest.fixture
def distinct_column_calls(monkeypatch):
    """How often `_associative_center_kernel` deduplicates a block."""
    calls = []
    real = analysis._distinct_columns

    def counted(arr, n):
        calls.append(arr.shape)
        return real(arr, n)

    monkeypatch.setattr(analysis, "_distinct_columns", counted)
    return calls


@pytest.mark.parametrize(
    "params",
    [(2, 1, 1, 1), (3, 1, 1, 1), (4, 1, 3, 1), (6, 1, 5, 5), (9, 2, 1, 4), (2, 1, 1, 1, 1)],
    ids=str,
)
def test_kernel_oracle_of_towers_equals_the_full_stack(params, distinct_column_calls):
    algebra = tower(*params)
    assert algebra.twist is not None
    got = _associative_center_kernel(algebra)
    want = _kernel_of_the_full_stack(algebra)
    assert got == want and got.pivots == want.pivots
    assert distinct_column_calls == []


def _off_pattern_algebras():
    stage = tower(3, 1, 1)
    for extra in ((1, 1, 1), (1, 2, 1)):
        # e_1 e_1 gains an e_1 term, off the e_0 slot; e_1 e_2 gains one too,
        # which puts two entries in some columns of the first slot's block
        # and leaves the other two blocks on the coordinate pattern.
        structure = stage.structure.copy()
        structure[extra] += 1
        yield FiniteAlgebra(3, structure % 3, stage.unit, stage.involution)
    # certified vector parameters
    yield double(tower(4, 1), [1, 2])
    yield double(tower(4, 1), [3, 2])
    yield double(tower(4, 1, 1), [1, 2, 0, 0])
    yield double(tower(6, 1, 1), [4, 3, 0, 0])


def test_kernel_oracle_off_the_pattern_equals_the_full_stack(distinct_column_calls):
    for algebra in _off_pattern_algebras():
        assert algebra.twist is None
        got = _associative_center_kernel(algebra)
        want = _kernel_of_the_full_stack(algebra)
        assert got == want and got.pivots == want.pivots
    assert distinct_column_calls  # the mixed algebra dedupes one block


# -- the twisted stage data against the closure and kernel routes ------------


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.sampled_from(_units(n)), max_size=4))
    )
)
@example((12, [5, 7, 11, 1]))
@example((10, [3, 9, 7, 1]))
def test_stage_data_closed_forms_equal_the_oracles_on_unit_towers(spec):
    n, params = spec
    algebra = tower(n, *params)
    assert algebra.twist is not None
    _assert_stage_data_agrees(algebra)


@st.composite
def _twists_with_diagonal_involutions(draw):
    n, f = draw(_twists())
    sigma = draw(st.lists(st.integers(0, n - 1), min_size=len(f), max_size=len(f)))
    return n, f, np.diag(sigma)


@settings(max_examples=80, deadline=None, database=None)
@given(_twists_with_diagonal_involutions())
# zero and non-unit twist values, and an involution scaling e_1 and e_2 by 11 and 5
@example((
    12,
    np.array([[1, 1, 1, 1], [1, 0, 6, 4], [1, 3, 2, 0], [1, 9, 8, 11]]),
    np.diag([1, 11, 5, 1]),
))
# [A, A] needs a second round: 2 e_0 comes from p_2 = 1 in round one, and
# e_0 itself from the p_1 = 1 that round one also finds.
@example((12, np.array([[1, 1, 1, 1], [1, 1, 3, 0], [1, 1, 2, 1], [1, 1, 1, 1]]), np.eye(4)))
def test_stage_data_closed_forms_equal_the_oracles_on_random_twists(case):
    n, f, sigma = case
    algebra = _twisted_algebra(n, f, sigma)
    assert algebra.twist is not None
    _assert_stage_data_agrees(algebra)


@pytest.mark.parametrize("params", [(6, 1, 5, 1), (4, 1, 3, 1, 1)], ids=str)
def test_stage_data_of_twisted_towers_runs_no_elimination(params, kernel_routes, monkeypatch):
    algebra = tower(*params)
    calls = []
    real_howell, real_mul_matrices = residue._howell, FiniteAlgebra.mul_matrices

    def howell(*args):
        calls.append("_howell")
        return real_howell(*args)

    def mul_matrices(*args):
        calls.append("mul_matrices")
        return real_mul_matrices(*args)

    monkeypatch.setattr(residue, "_howell", howell)
    monkeypatch.setattr(FiniteAlgebra, "mul_matrices", mul_matrices)
    data = essentiality_data(algebra)
    assert kernel_routes == [] and calls == []
    assert not data.commutator_ideal.is_zero and not data.I.is_zero


def test_stage_data_off_the_pattern_takes_the_oracle_routes(kernel_routes):
    for algebra in _off_pattern_algebras():
        kernel_routes.clear()
        essentiality_data(algebra)
        assert kernel_routes.count("_commutator_ideal_closure") == 1
        assert kernel_routes.count("_annihilator_kernel") == 2
    # A twisted algebra whose involution exchanges e_1 and e_2: a - a* is not
    # a coordinate sum, so J alone takes the kernel route.
    stage = tower(3, 1, 1)
    swap = np.eye(4, dtype=np.int64)[[0, 2, 1, 3]]
    algebra = FiniteAlgebra(3, stage.structure, stage.unit, swap)
    kernel_routes.clear()
    essentiality_data(algebra)
    assert skew_span(algebra).coordinate_orders() is None
    assert kernel_routes == ["_annihilator_kernel"]
    _assert_stage_data_agrees(algebra)
