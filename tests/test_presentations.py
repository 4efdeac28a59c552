import random

import numpy as np
import pytest

from cdrings.algebra import (
    FiniteAlgebra,
    is_alternative,
    is_associative,
    is_commutative,
    validate_algebra,
)
from cdrings.analysis import center, essentiality_data
from cdrings.doubling import TowerSpec, build_tower, tower
from cdrings.errors import NotInvertible
from cdrings.essentiality import is_essential_ideal, quaternion_criterion
from cdrings.presentations import (
    BasisMap,
    octonion_algebra,
    octonion_tower_map,
    quaternion_algebra,
    quaternion_tower_map,
    verify_basis_map,
)
from cdrings.residue import Submodule


def test_quaternion_relations_mod4():
    A = quaternion_algebra(4, 1, 1)
    one, i, j, k = (A.basis_element(t) for t in range(4))
    assert np.array_equal(A.mul(i, i), one)
    assert np.array_equal(A.mul(i, j), k)
    assert np.array_equal(A.mul(j, i), (3 * k) % 4)
    assert np.array_equal(A.mul(k, k), (3 * one) % 4)
    assert np.array_equal(A.mul(i, k), j)  # a = 1
    assert np.array_equal(A.mul(k, j), i)  # b = 1
    assert validate_algebra(A) == []
    assert is_associative(A)


@pytest.mark.parametrize("n,a,b", [(4, 1, 3), (5, 2, 3), (7, 3, 5), (9, 2, 4)])
def test_quaternion_general_relations(n, a, b):
    A = quaternion_algebra(n, a, b)
    one, i, j, k = (A.basis_element(t) for t in range(4))
    assert np.array_equal(A.mul(i, i), (a * one) % n)
    assert np.array_equal(A.mul(j, j), (b * one) % n)
    assert np.array_equal(A.mul(i, j), k)
    assert np.array_equal(A.mul(j, i), (-k) % n)
    assert np.array_equal(A.mul(i, k), (a * j) % n)
    assert np.array_equal(A.mul(k, j), (b * i) % n)
    assert np.array_equal(A.mul(k, k), (-a * b * one) % n)
    assert is_associative(A)


def test_quaternion_rejects_non_units():
    with pytest.raises(NotInvertible):
        quaternion_algebra(4, 1, 2)
    with pytest.raises(NotInvertible):
        quaternion_algebra(6, 3, 1)


@pytest.mark.parametrize("n,a,b", [(4, 1, 1), (4, 3, 3), (5, 2, 3), (9, 2, 4)])
def test_quaternion_matches_tower_under_basis_map(n, a, b):
    pres = quaternion_algebra(n, a, b)
    stage = build_tower(TowerSpec(n, (a, b)))[-1]
    ok, violation = verify_basis_map(pres, stage, quaternion_tower_map(n))
    assert ok, violation


def test_sign_flipped_map_fails_at_ij_product():
    pres = quaternion_algebra(4, 1, 1)
    stage = build_tower(TowerSpec(4, (1, 1)))[-1]
    flipped = BasisMap(((0, 1), (1, 1), (2, 1), (3, 1)))  # k -> +e3 instead of -e3
    ok, violation = verify_basis_map(pres, stage, flipped)
    assert not ok
    assert "1 and 2" in violation  # the (i, j) product is the first mismatch


def _loop_verify_basis_map(source, target, basis_map):
    """Entry-by-entry reference for `verify_basis_map` on a valid signed
    bijection: the first violation in the same order, with the same text."""
    n, d = source.modulus, source.rank
    perm = [basis_map.target_index(s) for s in range(d)]
    signs = [basis_map.sign(s) % n for s in range(d)]
    for p in range(d):
        for q in range(d):
            expected = [0] * d
            for r in range(d):
                c = int(source.structure[p, q, r])
                expected[perm[r]] = c * signs[p] * signs[q] * signs[r] % n
            got = target.structure[perm[p], perm[q]].tolist()
            if expected != got:
                return False, (
                    f"product of basis elements {p} and {q} transports to "
                    f"{expected}, target has {got}"
                )
    unit = [0] * d
    for s in range(d):
        unit[perm[s]] = int(source.unit[s]) * signs[s] % n
    if unit != target.unit.tolist():
        return False, "unit does not transport"
    for s in range(d):
        image = [0] * d
        for r in range(d):
            image[perm[r]] = int(source.involution[s, r]) * signs[s] * signs[r] % n
        if image != target.involution[perm[s]].tolist():
            return False, f"involution image of basis element {s} does not transport"
    return True, None


def test_verify_basis_map_matches_the_entry_by_entry_reference():
    rng = random.Random(7)
    n = 5
    pres = quaternion_algebra(n, 2, 3)
    stage = build_tower(TowerSpec(n, (2, 3)))[-1]
    swapped = np.eye(4, dtype=np.int64)[[0, 2, 1, 3]]
    targets = [
        stage,
        FiniteAlgebra(n, stage.structure, [2, 0, 0, 0], stage.involution),
        FiniteAlgebra(n, stage.structure, stage.unit, swapped),
    ]
    maps = [quaternion_tower_map(n)]
    for _ in range(40):
        perm = rng.sample(range(4), 4)
        maps.append(BasisMap(tuple((t, rng.choice([1, n - 1])) for t in perm)))
    cases = [(pres, target, basis_map) for target in targets for basis_map in maps]
    # i -> j -> k -> i is an automorphism of the Hamilton quaternions, so the
    # involution is compared under a permutation that is not its own inverse
    hamilton = quaternion_algebra(n, n - 1, n - 1)
    cyclic = BasisMap(((0, 1), (2, 1), (3, 1), (1, 1)))
    broken = FiniteAlgebra(n, hamilton.structure, hamilton.unit, swapped)
    cases += [(hamilton, hamilton, cyclic), (hamilton, broken, cyclic)]
    verdicts = []
    for source, target, basis_map in cases:
        want = _loop_verify_basis_map(source, target, basis_map)
        assert verify_basis_map(source, target, basis_map) == want, basis_map
        verdicts.append(want[1].split(" ")[0] if want[1] else None)
    assert set(verdicts) == {None, "product", "unit", "involution"}
    assert verdicts[-2:] == [None, "involution"]


def test_identity_map_verifies():
    A = quaternion_algebra(5, 1, 1)
    identity = BasisMap(tuple((s, 1) for s in range(4)))
    ok, violation = verify_basis_map(A, A, identity)
    assert ok, violation


def test_octonion_matches_tower_under_f_map():
    # At n = 100003 the signs used to be applied as residues n - 1, an
    # unreduced (n-1)^4 product that overflowed into a spurious InvalidAlgebra.
    for n, a, b, c in [(4, 1, 1, 1), (5, 2, 1, 3), (3, 1, 2, 2), (100003, 1, 1, 1)]:
        oct_alg = octonion_algebra(n, a, b, c)
        stage = build_tower(TowerSpec(n, (a, b, c)))[-1]
        ok, violation = verify_basis_map(oct_alg, stage, octonion_tower_map(n))
        assert ok, violation


def test_octonion_flags():
    R = octonion_algebra(4, 1, 1, 1)
    assert is_alternative(R)
    assert not is_associative(R)
    assert not is_commutative(R)
    for n in (3, 5, 7):
        R = octonion_algebra(n, 1, 1, 1)
        assert is_alternative(R) and not is_associative(R)
        # a nonzero associator witness exists
        i, j, l = R.basis_element(1), R.basis_element(2), R.basis_element(4)
        assert R.associator(i, j, l).any()


def test_octonion_contains_quaternion_as_first_copy():
    n, a, b, c = 4, 3, 1, 3
    oct_alg = octonion_algebra(n, a, b, c)
    quat = quaternion_algebra(n, a, b)
    for p in range(4):
        for q in range(4):
            prod = oct_alg.mul(oct_alg.basis_element(p), oct_alg.basis_element(q))
            assert not prod[4:].any()
            assert np.array_equal(
                prod[:4], quat.mul(quat.basis_element(p), quat.basis_element(q))
            )


def test_parameters_beyond_int64_are_reduced_first():
    # 10^20 + 1 is 1 mod 5; it used to raise OverflowError on its way into numpy.
    huge = 10**20 + 1
    assert tower(5, huge) == tower(5, 1)
    assert quaternion_algebra(5, huge, 1) == quaternion_algebra(5, 1, 1)
    assert octonion_algebra(5, 1, huge, 1) == octonion_algebra(5, 1, 1, 1)
    assert quaternion_criterion(5, huge, 1) == quaternion_criterion(5, 1, 1)
    with pytest.raises(NotInvertible):
        quaternion_algebra(5, 5 * huge, 1)


def test_octonion_rejects_non_units():
    with pytest.raises(NotInvertible):
        octonion_algebra(4, 1, 1, 2)


def test_octonion_basis_products_match_l_labels():
    R = octonion_algebra(4, 1, 1, 1)
    i, j, k, l = (R.basis_element(t) for t in (1, 2, 3, 4))
    assert np.array_equal(R.mul(i, l), R.basis_element(5))  # il
    assert np.array_equal(R.mul(j, l), R.basis_element(6))  # jl
    assert np.array_equal(R.mul(k, l), R.basis_element(7))  # kl
    assert np.array_equal(R.mul(l, l), R.one())  # l^2 = c = 1


@pytest.mark.parametrize("n", range(2, 10))
def test_quaternion_center_is_K_plus_N_ijk(n):
    A = quaternion_algebra(n, 1, 1)
    N0 = [x for x in range(n) if (2 * x) % n == 0]
    gen = min((x for x in N0 if x), default=0)
    rows = [[1, 0, 0, 0]]
    if gen:
        rows += [
            [0, gen, 0, 0],
            [0, 0, gen, 0],
            [0, 0, 0, gen],
        ]
    expected = Submodule.span(n, rows, 4)
    assert center(A).Z == expected


@pytest.mark.parametrize("n", range(2, 10))
def test_essential_I_in_B_iff_ann2_essential_in_base(n):
    # Bridge between the rank-4 invariants and the base ring: I essential in
    # B exactly when Ann(2) is essential in Z/nZ.
    A = quaternion_algebra(n, 1, 1)
    data = essentiality_data(A)
    lhs = is_essential_ideal(data.I, data.B, A).verdict

    from cdrings.algebra import scalar_ring

    base = scalar_ring(n)
    ann2 = Submodule.span(
        n, [[x] for x in range(n) if (2 * x) % n == 0] or np.zeros((0, 1)), 1
    )
    rhs = is_essential_ideal(ann2, Submodule.full(n, 1), base).verdict
    assert lhs == rhs, n
