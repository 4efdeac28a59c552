"""The central data type: a finite unital algebra over Z/nZ.

A FiniteAlgebra is a free (Z/nZ)-module of rank d with a structure tensor
c[i, j, k] (meaning e_i * e_j = sum_k c[i, j, k] e_k), a distinguished unit
vector, and an involution given as a d x d matrix acting on row vectors
(x* = x @ involution). Elements are plain length-d integer vectors; all
per-element operations live on the algebra object, which owns the modulus.
Every product of residues is formed one pair at a time and reduced mod n, so
int64 is exact for every modulus `residue._require_exact` admits; validation,
doubling and the product tensors contract the structure tensor in the
narrowest dtype `residue._exact_dtype` finds exact (`residue._matmul_mod`).

Identity predicates (associative, commutative, alternative) are decided on
basis tuples with explicit linearization terms. That is exact even with
2-torsion: in the expansion of, say, (x, x, y), the squared coefficients
multiply the diagonal basis associators and the cross coefficients multiply
the symmetrized pairs, so vanishing of those families is equivalent to the
identity holding for all elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidAlgebra,
    NotCentral,
    NotInvertible,
    NotSymmetric,
)
from .residue import ResidueMatrix, _exact_dtype, _matmul_mod, _require_exact, solve_left


class FiniteAlgebra:
    """Structure-constant algebra over Z/nZ with unit and involution."""

    __slots__ = (
        "modulus",
        "rank",
        "structure",
        "unit",
        "involution",
        "labels",
        "name",
        "parent",
        "alpha",
        "memo",
        "valid",
        "certified",
    )

    def __init__(
        self,
        modulus: int,
        structure,
        unit,
        involution,
        labels: list[str] | None = None,
        name: str = "",
        parent: "FiniteAlgebra | None" = None,
        alpha: "CentralScalar | None" = None,
    ):
        structure = np.array(structure, dtype=np.int64)
        if structure.ndim != 3 or len(set(structure.shape)) != 1:
            raise ValueError(f"structure tensor must be d x d x d, got {structure.shape}")
        d = structure.shape[0]
        _require_exact(modulus, d)
        unit = np.array(unit, dtype=np.int64)
        involution = np.array(involution, dtype=np.int64)
        if unit.shape != (d,):
            raise ValueError(f"unit has shape {unit.shape}, expected ({d},)")
        if involution.shape != (d, d):
            raise ValueError(f"involution has shape {involution.shape}, expected ({d}, {d})")
        if labels is None:
            labels = [f"e{i}" for i in range(d)]
        if len(labels) != d:
            raise ValueError(f"{len(labels)} labels for rank {d}")
        for arr in (structure, unit, involution):
            arr %= modulus
            arr.setflags(write=False)
        self.modulus = modulus
        self.rank = d
        self.structure = structure
        self.unit = unit
        self.involution = involution
        self.labels = list(labels)
        self.name = name or f"algebra(rank {d}, Z{modulus})"
        self.parent = parent
        self.alpha = alpha
        self.memo = {}  # invariants computed on first use, see `analysis._memoized`
        self.valid = False  # set by `ensure_valid` once the invariants hold
        self.certified = {}  # value bytes -> inverse, see `certify_central_scalar`

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> np.ndarray:
        """Validate and reduce a coordinate vector of this algebra."""
        arr = np.asarray(coords, dtype=np.int64)
        if arr.shape != (self.rank,):
            raise DimensionMismatch(
                f"element has shape {arr.shape}, algebra rank is {self.rank}"
            )
        return arr % self.modulus

    def zero(self) -> np.ndarray:
        return np.zeros(self.rank, dtype=np.int64)

    def one(self) -> np.ndarray:
        return self.unit.copy()

    def scalar(self, c: int) -> np.ndarray:
        return (int(c) % self.modulus * self.unit) % self.modulus

    def basis_element(self, i: int) -> np.ndarray:
        out = np.zeros(self.rank, dtype=np.int64)
        out[i] = 1
        return out

    # -- multiplication and derived brackets --------------------------------

    def mul(self, x, y) -> np.ndarray:
        x = self.element(x)
        right = np.einsum("j,ijk->ik", self.element(y), self.structure) % self.modulus
        return (x @ right) % self.modulus

    def associator(self, a, b, c) -> np.ndarray:
        return (self.mul(self.mul(a, b), c) - self.mul(a, self.mul(b, c))) % self.modulus

    def commutator(self, a, b) -> np.ndarray:
        return (self.mul(a, b) - self.mul(b, a)) % self.modulus

    def involve(self, x) -> np.ndarray:
        return (self.element(x) @ self.involution) % self.modulus

    def left_mul_matrix(self, x) -> np.ndarray:
        """Matrix L with y @ L = x * y (left multiplication by x)."""
        x = self.element(x)
        return np.einsum("i,ijk->jk", x, self.structure) % self.modulus

    def right_mul_matrix(self, x) -> np.ndarray:
        """Matrix R with y @ R = y * x (right multiplication by x)."""
        x = self.element(x)
        return np.einsum("j,ijk->ik", x, self.structure) % self.modulus

    def format_element(self, x) -> str:
        x = self.element(x)
        terms = [
            (f"{int(c)}·{lbl}" if (c != 1 or lbl == "1") else lbl)
            for c, lbl in zip(x, self.labels)
            if c
        ]
        return " + ".join(terms) if terms else "0"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteAlgebra)
            and self.modulus == other.modulus
            and self.rank == other.rank
            and bool(np.array_equal(self.structure, other.structure))
            and bool(np.array_equal(self.unit, other.unit))
            and bool(np.array_equal(self.involution, other.involution))
        )

    def __hash__(self) -> int:
        return hash(
            (self.modulus, self.rank, self.structure.tobytes(), self.unit.tobytes())
        )

    def __repr__(self) -> str:
        return f"FiniteAlgebra({self.name}, rank {self.rank}, Z{self.modulus})"


def scalar_ring(n: int, name: str | None = None) -> FiniteAlgebra:
    """Z/nZ as a rank-1 algebra with the identity involution."""
    structure = np.ones((1, 1, 1), dtype=np.int64)
    alg = FiniteAlgebra(
        n, structure, [1], [[1]], labels=["1"], name=name or f"Z{n}"
    )
    ensure_valid(alg)
    return alg


# -- validation -------------------------------------------------------------


def validate_algebra(algebra: FiniteAlgebra) -> list[str]:
    """Check every structural invariant; violations are data, not exceptions.

    Every contraction is a matmul of the reshaped structure tensor through
    `residue._matmul_mod`, in `_exact_dtype(n, d)`, and each side is compared
    in that dtype, reduced: with lhs[i, j] = (e_i e_j)* = c(d^2 x d) @ sigma
    and rhs[i, j] = e_j* e_i* = sigma @ t(d x d^2), t[q, j, k] the
    coefficient of e_k in e_j* e_q, the first basis pair where they differ
    is reported."""
    n, d = algebra.modulus, algebra.rank
    unit, sigma = algebra.unit[None], algebra.involution
    c = algebra.structure.astype(_exact_dtype(n, d))
    violations: list[str] = []

    left_by_unit = _matmul_mod(unit, c.reshape(d, d * d), n).reshape(d, d)
    right_by_unit = _matmul_mod(unit, c.transpose(1, 0, 2).reshape(d, d * d), n).reshape(d, d)
    eye = np.eye(d, dtype=c.dtype)
    if not np.array_equal(left_by_unit, eye):
        violations.append("unit is not a left identity")
    if not np.array_equal(right_by_unit, eye):
        violations.append("unit is not a right identity")

    if not np.array_equal(_matmul_mod(sigma, sigma, n), eye):
        violations.append("involution does not square to the identity")
    if not np.array_equal(_matmul_mod(unit, sigma, n), unit):
        violations.append("involution does not fix the unit")

    # (e_i e_j)* == e_j* e_i* for all basis pairs
    star_left = _matmul_mod(sigma, c.reshape(d, d * d), n).reshape(d, d, d)  # e_j* e_q
    t = star_left.transpose(1, 0, 2).reshape(d, d * d)
    del star_left
    rhs = _matmul_mod(sigma, t, n).reshape(d, d, d)
    del t
    lhs = _matmul_mod(c.reshape(d * d, d), sigma, n).reshape(d, d, d)
    del c
    bad = np.flatnonzero((lhs != rhs).any(axis=2))
    if len(bad):
        i, j = divmod(int(bad[0]), d)
        violations.append(
            f"involution is not anti-multiplicative at basis pair ({i}, {j})"
        )
    return violations


def ensure_valid(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """Raise InvalidAlgebra unless all invariants hold; used at boundaries.

    A pass is recorded on the instance, whose arrays are read-only, so each
    algebra is validated once however many boundaries it crosses."""
    if not algebra.valid:
        violations = validate_algebra(algebra)
        if violations:
            raise InvalidAlgebra(violations)
        algebra.valid = True
    return algebra


# -- identity predicates -----------------------------------------------------


def product_tensors(algebra: FiniteAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) with P[i, j, k, :] = (e_i e_j) e_k and Q[i, j, k, :] = e_i (e_j e_k).

    Both are matmuls of the reshaped structure tensor: P = c(d^2 x d) @
    c(d x d^2), and Q = c(d^2 x d) @ s(d x d^2) with s[q, i, m] = c[i, q, m],
    its axes moved back to (i, j, k, m). Each entry is a sum of d products of
    residues, so the matmuls run in `residue._exact_dtype(n, d)` (float32 or
    float64 BLAS at desk scale) through `residue._matmul_mod`, and are reduced
    there before the int64 cast.
    """
    n, d = algebra.modulus, algebra.rank
    c = algebra.structure.astype(_exact_dtype(n, d))
    pairs = c.reshape(d * d, d)
    left = _matmul_mod(pairs, c.reshape(d, d * d), n).astype(np.int64).reshape(d, d, d, d)
    right = _matmul_mod(pairs, c.transpose(1, 0, 2).reshape(d, d * d), n).reshape(d, d, d, d)
    return left, right.transpose(2, 0, 1, 3).astype(np.int64, order="C")  # from [j, k, i, m]


def associator_tensor(algebra: FiniteAlgebra) -> np.ndarray:
    """T[i, j, k, :] = associator(e_i, e_j, e_k)."""
    left, right = product_tensors(algebra)
    left -= right
    left %= algebra.modulus
    return left


def is_associative(algebra: FiniteAlgebra) -> bool:
    """All basis triples associate; sufficient by trilinearity."""
    return not associator_tensor(algebra).any()


def is_commutative(algebra: FiniteAlgebra) -> bool:
    c = algebra.structure
    return not ((c - c.transpose(1, 0, 2)) % algebra.modulus).any()


def _alternates(t: np.ndarray, n: int, a: int, b: int) -> bool:
    """Does the associator tensor t (or the twisted associators of
    `_twisted_associators`, whose slots are the same) alternate in slots a
    and b? Slots (0, 1) give (x, x, y) = 0 and slots (1, 2) give
    (x, y, y) = 0 for all elements."""
    diag = np.diagonal(t, axis1=a, axis2=b)
    return not diag.any() and not ((t + np.swapaxes(t, a, b)) % n).any()


def is_left_alternative(algebra: FiniteAlgebra) -> bool:
    return _alternates(associator_tensor(algebra), algebra.modulus, 0, 1)


def is_right_alternative(algebra: FiniteAlgebra) -> bool:
    return _alternates(associator_tensor(algebra), algebra.modulus, 1, 2)


def is_alternative(algebra: FiniteAlgebra) -> bool:
    t = associator_tensor(algebra)
    return _alternates(t, algebra.modulus, 0, 1) and _alternates(t, algebra.modulus, 1, 2)


def _twist(algebra: FiniteAlgebra) -> np.ndarray | None:
    """The twist f of a twisted group algebra over (Z/2)^k, where
    e_i e_j = f(i, j) e_{i xor j}, or None for any other algebra: one whose
    rank is not a power of two, or with a nonzero c[i, j, k] at k != i xor j.
    f may take zero and non-unit values. f holds entries of c at distinct
    places, so the pattern holds exactly when it holds every nonzero entry."""
    d = algebra.rank
    if d.bit_count() != 1:
        return None
    c = algebra.structure
    i = np.arange(d)
    f = c[i[:, None], i, i[:, None] ^ i]
    return f if np.count_nonzero(f) == np.count_nonzero(c) else None


def _twisted_associators(f: np.ndarray, n: int) -> np.ndarray:
    """a with (e_i, e_j, e_k) = a(i, j, k) e_{i xor j xor k} on the twisted
    group algebra of f: a(i, j, k) = f(i, j) f(i xor j, k) - f(j, k)
    f(i, j xor k) mod n, each product below (n - 1)^2, exact in int64."""
    i, j, k = np.ix_(*3 * [np.arange(len(f))])
    return (f[i, j] * f[i ^ j, k] - f[j, k] * f[i, j ^ k]) % n


def identity_flags(algebra: FiniteAlgebra) -> dict[str, bool]:
    """The associative, commutative, alternative and right-alternative
    flags, the three associator laws read off one associator tensor.

    On a twisted group algebra (`_twist`) the associator of basis elements
    is a(i, j, k) times one basis element, so the d^3 array a
    (`_twisted_associators`) stands in for the d^4 tensor, and commutativity
    is f = f^T. `associator_tensor` serves every other algebra and is the
    oracle of this route (the `is_*` predicates)."""
    n = algebra.modulus
    f = _twist(algebra)
    t = associator_tensor(algebra) if f is None else _twisted_associators(f, n)
    right = _alternates(t, n, 1, 2)
    return {
        "associative": not t.any(),
        "commutative": is_commutative(algebra) if f is None else bool(np.array_equal(f, f.T)),
        "alternative": _alternates(t, n, 0, 1) and right,
        "right_alternative": right,
    }


# -- central, symmetric, invertible certificates -----------------------------


def is_central(algebra: FiniteAlgebra, x) -> bool:
    """x commutes with everything and associates in all three slots."""
    n = algebra.modulus
    c = algebra.structure
    x = algebra.element(x)
    xr = np.einsum("p,pik->ik", x, c) % n  # rows: x * e_i
    rx = np.einsum("p,ipk->ik", x, c) % n  # rows: e_i * x
    if ((xr - rx) % n).any():
        return False
    s1 = np.einsum("ik,kjm->ijm", xr, c) - np.einsum("ijq,qm->ijm", c, xr)
    s2 = np.einsum("ik,kjm->ijm", rx, c) - np.einsum("jk,ikm->ijm", xr, c)
    s3 = np.einsum("ijq,qm->ijm", c, rx) - np.einsum("jk,ikm->ijm", rx, c)
    return not ((s1 % n).any() or (s2 % n).any() or (s3 % n).any())


def is_symmetric(algebra: FiniteAlgebra, x) -> bool:
    x = algebra.element(x)
    return bool(np.array_equal(algebra.involve(x), x))


def is_invertible(algebra: FiniteAlgebra, x) -> tuple[bool, np.ndarray | None]:
    """Two-sided invertibility of a central element, via a linear solve.

    Centrality is a precondition (raises NotCentral); the solve works at any
    rank, unlike an element search.
    """
    x = algebra.element(x)
    if not is_central(algebra, x):
        raise NotCentral(f"{algebra.format_element(x)} is not central")
    left = ResidueMatrix(algebra.modulus, algebra.left_mul_matrix(x))
    y = solve_left(left, algebra.unit)
    if y is None:
        return False, None
    if not np.array_equal(algebra.mul(y, x), algebra.unit):
        return False, None
    return True, y


@dataclass(frozen=True)
class CentralScalar:
    """A doubling parameter with its certificates attached.

    Built only through `certify_central_scalar`, which checks centrality,
    symmetry under the involution, and two-sided invertibility.
    """

    algebra: FiniteAlgebra
    value: np.ndarray
    inverse: np.ndarray


def certify_central_scalar(algebra: FiniteAlgebra, value) -> CentralScalar:
    """Certify value as central, symmetric, and invertible, or raise.

    The algebra remembers the values it has certified (value bytes ->
    inverse), so a value is checked once per algebra; each call still returns
    a fresh CentralScalar, since keeping one on the algebra would tie the
    algebra into a reference cycle with its own certificate.
    """
    if isinstance(value, CentralScalar):
        value = value.value
    scalar = None
    if isinstance(value, (int, np.integer)):
        scalar = int(value) % algebra.modulus
        value = algebra.scalar(scalar)
    value = algebra.element(value)
    key = value.tobytes()
    inverse = algebra.certified.get(key)
    if inverse is None:
        # c 1 is central by bilinearity, and invertible iff c is a unit mod n,
        # with inverse c^-1 1; any other value takes the general route.
        if scalar is None and not is_central(algebra, value):
            raise NotCentral(
                f"doubling parameter {algebra.format_element(value)} is not central in {algebra.name}"
            )
        if not is_symmetric(algebra, value):
            raise NotSymmetric(
                f"doubling parameter {algebra.format_element(value)} is not fixed by the involution"
            )
        if scalar is None:
            ok, inverse = is_invertible(algebra, value)
        else:
            ok = math.gcd(scalar, algebra.modulus) == 1
            inverse = algebra.scalar(pow(scalar, -1, algebra.modulus)) if ok else None
        if not ok:
            raise NotInvertible(
                f"doubling parameter {algebra.format_element(value)} has no two-sided inverse"
            )
        inverse.setflags(write=False)
        algebra.certified[key] = inverse
    value.setflags(write=False)
    return CentralScalar(algebra, value, inverse)
