"""Direct presentations of the rank-4 and rank-8 algebras over Z/nZ.

`quaternion_algebra(n, a, b)` writes down the structure constants of the
generalized quaternion algebra on the basis (1, i, j, k):

    i^2 = a,  j^2 = b,  ij = -ji = k,  ik = -ki = aj,  kj = -jk = bi,
    k^2 = -ab (forced by the relations), involution fixing 1 and negating
    i, j, k.

`octonion_algebra(n, a, b, c)` is deliberately not an independent table: it
is the depth-3 doubling tower relabeled through the basis correspondence
1, i, j, k, l, il, jl, kl (in pair coordinates k = (0, -i), il = (0, -i),
jl = (0, -j), kl = (0, -k) of the relevant stages). `verify_basis_map`
checks such signed relabelings exactly, tensor entry by tensor entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import FiniteAlgebra, ensure_valid, is_associative
from .doubling import TowerSpec, build_tower
from .errors import DimensionMismatch, InvalidAlgebra, NotInvertible


def require_units(n: int, *params: int) -> None:
    for p in params:
        if math.gcd(int(p), n) != 1:
            raise NotInvertible(f"parameter {p} is not a unit mod {n}")


def quaternion_algebra(n: int, a: int, b: int) -> FiniteAlgebra:
    """The generalized quaternion algebra on basis (1, i, j, k) over Z/nZ."""
    require_units(n, a, b)
    a %= n
    b %= n
    d = 4
    c = np.zeros((d, d, d), dtype=np.int64)
    one, i, j, k = range(4)
    for x in range(d):
        c[one, x, x] += 1
        c[x, one, x] += 1
    c[one, one, one] -= 1  # 1*1 counted twice above
    c[i, i, one] = a
    c[j, j, one] = b
    c[k, k, one] = (-a * b) % n
    c[i, j, k] = 1
    c[j, i, k] = -1 % n
    c[i, k, j] = a
    c[k, i, j] = (-a) % n
    c[k, j, i] = b
    c[j, k, i] = (-b) % n
    involution = np.diag([1, -1, -1, -1]) % n
    alg = FiniteAlgebra(
        n,
        c % n,
        [1, 0, 0, 0],
        involution,
        labels=["1", "i", "j", "k"],
        name=f"quaternion({a},{b};Z{n})",
    )
    ensure_valid(alg)
    if not is_associative(alg):
        raise InvalidAlgebra([f"{alg.name} is not associative"])
    return alg


_OCTONION_SIGNS = np.array([1, 1, 1, -1, 1, -1, -1, 1], dtype=np.int64)
_OCTONION_LABELS = ["1", "i", "j", "k", "l", "il", "jl", "kl"]


def octonion_algebra(n: int, a: int, b: int, c: int) -> FiniteAlgebra:
    """The generalized octonion algebra as the relabeled depth-3 tower.

    The tower's pair-coordinate basis maps onto (1, i, j, k, l, il, jl, kl)
    by the signed identity permutation with signs (+ + + - + - - +): the
    stage-2 coordinate e3 is -k, and the second-copy coordinates e5, e6
    carry -il, -jl. So it has no pair coordinates: `nu`, `embed` and `split`
    raise StageMismatch.
    """
    require_units(n, a, b, c)
    stage = build_tower(TowerSpec(n, (a % n, b % n, c % n)))[-1]
    s = _OCTONION_SIGNS  # applied as +-1, so no product leaves [-(n-1), n-1]
    tensor = stage.structure * np.einsum("p,q,r->pqr", s, s, s) % n
    involution = stage.involution * np.outer(s, s) % n
    alg = FiniteAlgebra(
        n,
        tensor,
        stage.unit,
        involution,
        labels=list(_OCTONION_LABELS),
        name=f"octonion({a % n},{b % n},{c % n};Z{n})",
    )
    return ensure_valid(alg)


def octonion_tower_map(n: int) -> "BasisMap":
    """BasisMap from octonion_algebra coordinates to the raw tower stage."""
    return BasisMap(tuple((idx, int(s)) for idx, s in enumerate(_OCTONION_SIGNS % n)))


@dataclass(frozen=True)
class BasisMap:
    """Signed relabeling: source basis index s maps to sign * e_(target index).

    entries[s] = (target_index, sign) with sign in {1, n-1}; the index part
    must be a bijection.
    """

    entries: tuple[tuple[int, int], ...]

    def target_index(self, s: int) -> int:
        return self.entries[s][0]

    def sign(self, s: int) -> int:
        return self.entries[s][1]


def quaternion_tower_map(n: int) -> BasisMap:
    """Map from quaternion_algebra coordinates onto the depth-2 tower.

    1, i, j land on e0, e1, e2; k is -e3 in pair coordinates.
    """
    return BasisMap(((0, 1), (1, 1), (2, 1), (3, (-1) % n)))


def verify_basis_map(
    source: FiniteAlgebra, target: FiniteAlgebra, basis_map: BasisMap
) -> tuple[bool, str | None]:
    """Does the signed relabeling transport source exactly onto target?

    Checks the structure tensor, the unit, and the involution; returns the
    first violation as text. Equality is exact, entry by entry.
    """
    if source.modulus != target.modulus or source.rank != target.rank:
        raise DimensionMismatch("algebras differ in modulus or rank")
    n, d = source.modulus, source.rank
    targets = [basis_map.target_index(s) for s in range(d)]
    if sorted(targets) != list(range(d)):
        return False, "index map is not a bijection"
    signs = np.array([basis_map.sign(s) for s in range(d)], dtype=np.int64) % n
    if ((signs != 1) & (signs != (n - 1) % n)).any():
        return False, "signs must be +1 or -1 mod n"

    perm = np.array(targets)
    flip = np.where(signs == 1, 1, -1)
    # expected[p, q, perm[r]] = sign(p) sign(q) sign(r) c[p, q, r]: the source
    # product e_p e_q in target coordinates, beside got[p, q] = e_perm[p] e_perm[q]
    expected = np.empty_like(source.structure)
    expected[:, :, perm] = source.structure * np.einsum("p,q,r->pqr", flip, flip, flip) % n
    got = target.structure[perm][:, perm]
    bad = np.argwhere((expected != got).any(axis=2))
    if len(bad):
        p, q = bad[0]
        return (
            False,
            f"product of basis elements {p} and {q} transports to "
            f"{expected[p, q].tolist()}, target has {got[p, q].tolist()}",
        )
    unit_t = np.empty_like(source.unit)
    unit_t[perm] = source.unit * flip % n
    if not np.array_equal(unit_t, target.unit):
        return False, "unit does not transport"
    images = np.empty_like(source.involution)
    images[:, perm] = source.involution * np.outer(flip, flip) % n
    bad = np.flatnonzero((images != target.involution[perm]).any(axis=1))
    if len(bad):
        return False, f"involution image of basis element {bad[0]} does not transport"
    return True, None
