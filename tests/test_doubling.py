import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrings import algebra as algebra_module
from cdrings import doubling
from cdrings.algebra import (
    FiniteAlgebra,
    certify_central_scalar,
    ensure_valid,
    is_associative,
    is_commutative,
    scalar_ring,
    validate_algebra,
)
from cdrings.doubling import TowerSpec, build_tower, double, embed, nu, split, tower, unit_towers
from cdrings.errors import (
    AlgebraError,
    InvalidAlgebra,
    NotCentral,
    NotInvertible,
    NotSymmetric,
    RankBudgetExceeded,
    StageMismatch,
)
from cdrings.presentations import octonion_algebra
from test_algebra import largest_exact_modulus
from test_analysis import _twisted_algebra, _twists_with_diagonal_involutions


def test_double_of_base_has_nu_squared_alpha():
    for n, a in [(4, 1), (4, 3), (5, 2), (6, 5)]:
        R = double(scalar_ring(n), a)
        v = nu(R)
        assert np.array_equal(R.mul(v, v), R.scalar(a))


def test_double_rank_and_modulus():
    R = double(scalar_ring(4), 1)
    assert R.rank == 2 and R.modulus == 4
    RR = double(R, 1)
    assert RR.rank == 4 and RR.modulus == 4


def test_unit_of_double_is_pair_one_zero():
    R = double(scalar_ring(4), 3)
    assert R.unit.tolist() == [1, 0]


def test_involution_of_double_negates_second_copy():
    R = double(scalar_ring(4), 1)
    assert R.involve([1, 1]).tolist() == [1, 3]
    assert R.involve([1, 2]).tolist() == [1, 2]  # -2 = 2 mod 4
    a, b = split(R, [3, 1])
    assert a.tolist() == [3] and b.tolist() == [1]


def test_nu_orientation_facts_from_product_formula():
    # nu (a,0) = (0, a) and (a,0) nu = (0, a*) for every basis element.
    A = tower(4, 1)  # parent with a genuine conjugation involution
    R = double(A, 1)
    v = nu(R)
    for idx in range(A.rank):
        e = A.basis_element(idx)
        left = R.mul(v, embed(R, e))
        right = R.mul(embed(R, e), v)
        assert np.array_equal(left, np.concatenate([A.zero(), e]))
        assert np.array_equal(right, np.concatenate([A.zero(), A.involve(e)]))
        # nu a = a* nu
        assert np.array_equal(left, R.mul(embed(R, A.involve(e)), v))


def test_first_copy_embedding_is_multiplicative():
    A = tower(4, 1)
    R = double(A, 3)
    for i, j in itertools.product(range(A.rank), repeat=2):
        a, b = A.basis_element(i), A.basis_element(j)
        assert np.array_equal(
            R.mul(embed(R, a), embed(R, b)), embed(R, A.mul(a, b))
        )
    # embedding preserves the involution and the unit
    assert np.array_equal(embed(R, A.one()), R.one())
    for i in range(A.rank):
        e = A.basis_element(i)
        assert np.array_equal(
            R.involve(embed(R, e)), embed(R, A.involve(e))
        )


def test_quaternion_relations_from_two_doublings():
    for n, a, b in [(4, 1, 1), (4, 3, 1), (5, 2, 3), (7, 1, 6)]:
        A2 = tower(n, a, b)
        one = A2.one()
        i, j = A2.basis_element(1), A2.basis_element(2)
        k = A2.mul(i, j)
        assert np.array_equal(A2.mul(i, i), (a * one) % n)
        assert np.array_equal(A2.mul(j, j), (b * one) % n)
        assert np.array_equal(A2.mul(j, i), (-k) % n)
        assert np.array_equal(A2.mul(i, k), (a * j) % n)
        assert np.array_equal(A2.mul(k, i), (-a * j) % n)
        assert np.array_equal(A2.mul(k, j), (b * i) % n)
        assert np.array_equal(A2.mul(j, k), (-b * i) % n)


def test_double_rejects_zero_divisor_parameter():
    with pytest.raises(NotInvertible):
        double(scalar_ring(4), 2)


def test_double_rejects_noncentral_and_nonsymmetric():
    A2 = tower(4, 1, 1)
    with pytest.raises(NotCentral):
        double(A2, A2.basis_element(1))
    A1 = tower(4, 1)
    # i is central in the commutative ring (Z4, 1) but i* = -i != i
    with pytest.raises(NotSymmetric):
        double(A1, A1.basis_element(1))


def test_double_accepts_nonscalar_certified_parameter():
    A1 = tower(4, 1)
    # 1 + 2i is central, symmetric (2i* = -2i = 2i), and invertible
    R = double(A1, [1, 2])
    assert validate_algebra(R) == []
    v = nu(R)
    assert np.array_equal(R.mul(v, v), embed(R, [1, 2]))


def _counting(monkeypatch, name):
    """Record the first argument of every call to `cdrings.algebra.<name>`."""
    calls, real = [], getattr(algebra_module, name)

    def counted(alg, *args):
        calls.append(alg)
        return real(alg, *args)

    monkeypatch.setattr(algebra_module, name, counted)
    return calls


def test_each_stage_is_validated_once(monkeypatch):
    calls = _counting(monkeypatch, "validate_algebra")
    stages = build_tower(TowerSpec(3, (1,) * 7), max_rank=128)
    assert len(calls) == 8 and {id(a) for a in calls} == {id(s) for s in stages}
    # A failed validation is not recorded: it fails again on every call.
    bad = FiniteAlgebra(4, [[[1]]], [1], [[2]])
    for _ in range(2):
        with pytest.raises(InvalidAlgebra):
            ensure_valid(bad)
    assert len(calls) == 10


def test_each_doubling_parameter_is_certified_once_per_algebra(monkeypatch):
    # Every certification, by the gcd (integer values) or the general route
    # (vectors), checks the symmetry once.
    calls = _counting(monkeypatch, "is_symmetric")
    stage, doubled = build_tower(TowerSpec(4, (1, 3)))[-2:]
    assert calls == [stage.parent, stage]
    cert = certify_central_scalar(stage, [3, 0])
    assert len(calls) == 2 and cert is not doubled.alpha
    assert np.array_equal(cert.inverse, doubled.alpha.inverse)
    # Only the inverse is kept: a certificate would refer back to its algebra.
    kept = [v for k, v in stage.memo.items() if isinstance(k, tuple) and k[0] == "certified"]
    assert kept and all(isinstance(v, np.ndarray) for v in kept)
    # Equal algebras built apart, and values that fail, are checked anew.
    twin = FiniteAlgebra(stage.modulus, stage.structure, stage.unit, stage.involution)
    certify_central_scalar(twin, doubled.alpha)
    assert calls[2:] == [twin]
    for _ in range(2):
        with pytest.raises(NotInvertible):
            certify_central_scalar(stage, 2)
    assert calls[3:] == [stage, stage]


def test_build_tower_stages():
    stages = build_tower(TowerSpec(4, (1, 1, 1)))
    assert [s.rank for s in stages] == [1, 2, 4, 8]
    for s in stages:
        assert validate_algebra(s) == []
    assert stages[-1].parent is stages[-2]


def test_build_tower_empty_is_base():
    stages = build_tower(TowerSpec(4, ()))
    assert len(stages) == 1 and stages[0].rank == 1


def test_build_tower_with_vector_parameters():
    stages = build_tower(TowerSpec(4, ((3,), (1, 2))))
    assert [s.rank for s in stages] == [1, 2, 4]
    for s in stages:
        assert validate_algebra(s) == []
    v = nu(stages[2])
    assert np.array_equal(stages[2].mul(v, v), embed(stages[2], [1, 2]))


def test_build_tower_stage_indexed_errors():
    with pytest.raises(NotInvertible) as exc:
        build_tower(TowerSpec(4, (1, 2)))
    assert "stage 2" in str(exc.value)


def test_build_tower_z3_quaternion_flags():
    A2 = tower(3, 1, 1)
    assert is_associative(A2)
    assert not is_commutative(A2)


def test_rank_budget():
    with pytest.raises(RankBudgetExceeded):
        build_tower(TowerSpec(2, (1, 1, 1)), max_rank=4)


def test_remark_on_associativity_of_doubles():
    # double(A, alpha) associative <=> A associative and commutative,
    # over all unit-parameter towers with base Z2, Z3, Z4 and depth <= 3.
    for n in (2, 3, 4):
        units = [u for u in range(1, n) if np.gcd(u, n) == 1]
        for depth in (1, 2, 3):
            for params in itertools.product(units, repeat=depth):
                stages = build_tower(TowerSpec(n, params))
                for A, R in zip(stages, stages[1:]):
                    assert is_associative(R) == (
                        is_associative(A) and is_commutative(A)
                    )


def test_nu_and_embed_require_doubled_algebra():
    # octonion_algebra's basis is signed and its first copy is the quaternion
    # presentation, so the pair law misread it (nu * i came out as 2 il, not il).
    for algebra in (scalar_ring(4), octonion_algebra(3, 1, 1, 1)):
        with pytest.raises(StageMismatch):
            nu(algebra)
        with pytest.raises(StageMismatch):
            embed(algebra, [1])
        with pytest.raises(StageMismatch):
            split(algebra, algebra.one())


def test_octonion_pair_coordinates_of_i_times_nu():
    # In the rank-8 stage, embed(i) * nu = (0, i*) = -(0, i): coordinate 5 is -1.
    R = tower(4, 1, 1, 1)
    A2 = R.parent
    i8 = embed(R, A2.basis_element(1))
    prod = R.mul(i8, nu(R))
    assert prod.tolist() == [0, 0, 0, 0, 0, 3, 0, 0]


def test_doubled_labels():
    stages = build_tower(TowerSpec(4, (1, 1)))
    assert stages[1].labels == ["1", "v1"]
    assert stages[2].labels == ["1", "v1", "v2", "v1v2"]


@pytest.mark.parametrize(
    "base, depth", [(2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (2, 4)]
)
def test_unit_towers_double_each_prefix_once(base, depth, monkeypatch):
    doubled_ranks = []

    def counting_double(algebra, *args, **kwargs):
        doubled_ranks.append(algebra.rank)
        return double(algebra, *args, **kwargs)

    monkeypatch.setattr(doubling, "double", counting_double)
    walked = list(unit_towers(base, depth))
    monkeypatch.undo()

    units = [u for u in range(1, base) if np.gcd(u, base) == 1]
    expected = [p for dep in range(depth + 1) for p in itertools.product(units, repeat=dep)]
    assert [params for params, _ in walked] == expected
    # One double per tree node below the root, and none past `depth`.
    assert len(doubled_ranks) == len(expected) - 1
    assert max(doubled_ranks) == 2 ** (depth - 1)
    for params, stages in walked:
        last = build_tower(TowerSpec(base, params))[-1]
        assert len(stages) == len(params) + 1
        assert stages[-1] == last
        assert (stages[-1].labels, stages[-1].name) == (last.labels, last.name)


def test_unit_towers_yield_construction_errors_in_place(monkeypatch):
    monkeypatch.setattr(doubling, "DEFAULT_MAX_RANK", 4)
    walked = list(unit_towers(3, 4))
    assert [params for params, _ in walked] == [
        p for dep in range(5) for p in itertools.product((1, 2), repeat=dep)
    ]
    for params, stages in walked:
        if len(params) < 3:
            assert isinstance(stages, list)
            continue
        # Rank 8 exceeds the limit at stage 3, for every extension as well.
        with pytest.raises(RankBudgetExceeded) as raised:
            build_tower(TowerSpec(3, params), max_rank=4)
        assert isinstance(stages, RankBudgetExceeded)
        assert str(stages) == str(raised.value) == "stage 3 would have rank 8 > limit 4"


def _fields(build, *args, **kwargs):
    """The structure, unit, involution, labels, name and twist of the algebra
    build returns, or the type and message of the AlgebraError it raises."""
    try:
        a = build(*args, **kwargs)
    except AlgebraError as exc:
        return type(exc), str(exc)
    arrays = (a.structure, a.unit, a.involution, a.twist)
    return [None if x is None else (x.dtype, x.tolist()) for x in arrays] + [a.labels, a.name]


@st.composite
def _doubling_cases(draw):
    """(n, f, sigma, a): a drawn twist with a diagonal involution, mostly
    invalid, or a tower stage's, and a scalar a, unit or not, zero included."""
    if draw(st.booleans()):
        n, f, sigma = draw(_twists_with_diagonal_involutions())
    else:
        n = draw(st.sampled_from((4, 6, 9, 12, 30)))
        units = [u for u in range(1, n) if np.gcd(u, n) == 1]
        stage = tower(n, *draw(st.lists(st.sampled_from(units), max_size=3)))
        n, f, sigma = stage.modulus, stage.twist, stage.involution
    a = draw(st.one_of(st.sampled_from((0, 1, n - 1, n // 2, n // 3)), st.integers(0, n - 1)))
    return n, f, sigma, a


def _at_the_bound(rank, doubled_rank):
    """The rank-`rank` tower stage over n = largest_exact_modulus(doubled_rank)
    with parameters n - 1, doubled by n - 1: the widest products there are."""
    n = largest_exact_modulus(doubled_rank)
    stage = tower(n, *[n - 1] * (rank.bit_length() - 1))
    return n, stage.twist, stage.involution, n - 1


@settings(max_examples=150, deadline=None, database=None)
@given(_doubling_cases())
# zero and non-unit twist values, and an involution scaling e_1 and e_2 by 11 and 5
@example((
    12,
    np.array([[1, 1, 1, 1], [1, 0, 6, 4], [1, 3, 2, 0], [1, 9, 8, 11]]),
    np.diag([1, 11, 5, 1]),
    10,
))
# a valid stage over a composite modulus, by a unit and by a non-unit
@example((12, tower(12, 5, 7).twist, tower(12, 5, 7).involution, 7))
@example((12, tower(12, 5, 7).twist, tower(12, 5, 7).involution, 4))
# n - 1 at the modulus bound of the double: a s f^T formed unreduced would overflow
@example(_at_the_bound(2, 4))
@example(_at_the_bound(4, 8))
# and one past it, where both routes refuse the double's rank
@example(_at_the_bound(2, 2))
@example(_at_the_bound(4, 4))
def test_twisted_double_equals_the_tensor_route(case):
    n, f, sigma, a = case
    parent = _twisted_algebra(n, f, sigma)
    assert doubling._twisted_scalar(parent, parent.scalar(a)) == a % n
    meta = {"labels": [f"b{i}" for i in range(2 * parent.rank)], "name": "D", "parent": parent}
    by_twist = _fields(doubling._double_by_twist, parent, a, **meta)
    assert by_twist == _fields(doubling._double_by_tensor, parent, parent.scalar(a), **meta)
    # `double` itself, validation and certification included, against the
    # same steps with the tensor routes alone.
    twisted = _fields(double, _twisted_algebra(n, f, sigma), a)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(doubling, "_twisted_scalar", lambda *args: None)
        patch.setattr(algebra_module, "validate_algebra", algebra_module._tensor_violations)
        assert twisted == _fields(double, _twisted_algebra(n, f, sigma), a)
    if not isinstance(twisted[0], type):
        assert twisted[:3] == by_twist[:3]


def test_twisted_route_needs_unit_e0_a_diagonal_involution_and_a_scalar():
    stage = tower(5, 2, 3)
    assert doubling._twisted_scalar(stage, stage.scalar(4)) == 4
    assert doubling._twisted_scalar(stage, np.array([4, 0, 0, 1])) is None
    # Off the pattern, an involution that swaps e_1 and e_2, and a unit off e_0.
    loose = FiniteAlgebra(5, np.ones((2, 2, 2)), [1, 0], np.eye(2))
    assert loose.twist is None and doubling._twisted_scalar(loose, loose.scalar(1)) is None
    swapped = FiniteAlgebra(5, stage.structure, stage.unit, stage.involution[[0, 2, 1, 3]])
    assert doubling._twisted_scalar(swapped, swapped.scalar(1)) is None
    moved = FiniteAlgebra.from_twist(5, stage.twist, [0, 1, 0, 0], stage.involution)
    assert doubling._twisted_scalar(moved, moved.scalar(1)) is None
