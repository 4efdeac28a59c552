import itertools

import numpy as np
import pytest

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
    InvalidAlgebra,
    NotCentral,
    NotInvertible,
    NotSymmetric,
    RankBudgetExceeded,
    StageMismatch,
)
from cdrings.presentations import octonion_algebra


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
    calls = _counting(monkeypatch, "is_invertible")
    stage, doubled = build_tower(TowerSpec(4, (1, 3)))[-2:]
    assert calls == [stage.parent, stage]
    cert = certify_central_scalar(stage, [3, 0])
    assert len(calls) == 2 and cert is not doubled.alpha
    assert np.array_equal(cert.inverse, doubled.alpha.inverse)
    # Only the inverse is kept: a certificate would refer back to its algebra.
    assert all(isinstance(v, np.ndarray) for v in stage.certified.values())
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
