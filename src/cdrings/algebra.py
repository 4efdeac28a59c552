"""The central data type: a finite unital algebra over Z/nZ.

A FiniteAlgebra is a free (Z/nZ)-module of rank d with a structure tensor
c[i, j, k] (meaning e_i * e_j = sum_k c[i, j, k] e_k), a distinguished unit
vector, and an involution given as a d x d matrix acting on row vectors
(x* = x @ involution). Elements are plain length-d integer vectors; all
per-element operations live on the algebra object, which owns the modulus.
Every product of residues is formed one pair at a time and reduced mod n, so
int64 is exact for every modulus `residue._require_exact` admits. The
structure tensor has one reader for products: `FiniteAlgebra.mul_matrices`
forms the left or right multiplication matrices of a stack of elements as
one `residue._matmul_mod`, in the narrowest dtype `residue._exact_dtype`
finds exact, and `mul`, validation, doubling, the product tensors and the
kernel routes of `analysis` and `essentiality` all take it. The package
writes every twisted group algebra it builds (`scalar_ring`, the doubles
of a tower, the quaternion and octonion presentations) from its twist
(`FiniteAlgebra.from_twist`): it holds f alone and builds the tensor on
first read of `structure`. Only an algebra built from a tensor (a loaded
document, a double off the pattern) has the pattern detected, once, at
construction, into `FiniteAlgebra.twist` (`_twist`). Validation, the
centers, the stage data and the identity flags of a twisted algebra read f.

An algebra's arrays are read-only; all it remembers (its tensor, validation,
certificates, centers, stage data and decisions) lives in `memo`, written
only by `FiniteAlgebra.kept`, which keeps nothing when a computation raises.

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

from .errors import InvalidAlgebra, NotCentral, NotInvertible, NotSymmetric
from .residue import (
    ResidueMatrix,
    _integer,
    _integral,
    _matmul_mod,
    _require_exact,
    _residue_rows,
    solve_left,
)


class FiniteAlgebra:
    """Structure-constant algebra over Z/nZ with unit and involution."""

    __slots__ = (
        "modulus",
        "rank",
        "unit",
        "involution",
        "labels",
        "name",
        "parent",
        "alpha",
        "memo",
        "twist",
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
        structure = _integral(structure)
        if structure.ndim != 3 or len(set(structure.shape)) != 1:
            raise ValueError(f"structure tensor must be d x d x d, got {structure.shape}")
        self._set_fields(modulus, structure, unit, involution, labels, name, parent, alpha)
        self.kept("structure", lambda: structure)
        self.twist = _twist(self)  # read once, off the reduced tensor

    @classmethod
    def from_twist(
        cls,
        modulus: int,
        twist,
        unit,
        involution,
        labels: list[str] | None = None,
        name: str = "",
        parent: "FiniteAlgebra | None" = None,
        alpha: "CentralScalar | None" = None,
    ) -> "FiniteAlgebra":
        """The twisted group algebra e_i e_j = twist[i, j] e_{i xor j} of
        rank d, a power of two, kept as its d x d twist: `structure` is built
        from it on first read (`_twisted_structure`), so an algebra whose
        readers all take the twisted routes never holds the d^3 tensor."""
        f = _integral(twist)
        d = f.shape[0] if f.ndim else 0
        if f.shape != (d, d) or d.bit_count() != 1:
            raise ValueError(f"twist must be d x d with d a power of two, got {f.shape}")
        algebra = cls.__new__(cls)
        algebra._set_fields(modulus, f, unit, involution, labels, name, parent, alpha)
        algebra.twist = f
        return algebra

    def _set_fields(self, modulus, product, unit, involution, labels, name, parent, alpha) -> None:
        """Check and store everything but the product (the tensor or twist, of
        rank d = len(product)), and reduce and freeze its array with the others."""
        d = len(product)
        _require_exact(modulus, d)
        unit, involution = _integral(unit), _integral(involution)
        if unit.shape != (d,):
            raise ValueError(f"unit has shape {unit.shape}, expected ({d},)")
        if involution.shape != (d, d):
            raise ValueError(f"involution has shape {involution.shape}, expected ({d}, {d})")
        if labels is None:
            labels = [f"e{i}" for i in range(d)]
        if len(labels) != d:
            raise ValueError(f"{len(labels)} labels for rank {d}")
        for arr in (product, unit, involution):
            arr %= modulus
            arr.setflags(write=False)
        self.modulus = modulus
        self.rank = d
        self.unit = unit
        self.involution = involution
        self.labels = list(labels)
        self.name = name or f"algebra(rank {d}, Z{modulus})"
        self.parent = parent
        self.alpha = alpha
        self.memo = {}  # the instance's only mutable state, written by `kept` alone

    def kept(self, key, compute):
        """memo[key], made by compute() on first use; a compute that raises keeps nothing."""
        value = self.memo.get(key, self.memo)  # one lookup; the memo is never its own entry
        if value is self.memo:
            value = self.memo[key] = compute()
        return value

    @property
    def structure(self) -> np.ndarray:
        """The read-only d x d x d structure tensor; an algebra built by
        `from_twist` builds it on first read and keeps it."""
        return self.kept("structure", lambda: _twisted_structure(self.twist))

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> np.ndarray:
        """Validate and reduce a coordinate vector of this algebra."""
        return _residue_rows(coords, self.modulus, self.rank, (1,))

    def zero(self) -> np.ndarray:
        return np.zeros(self.rank, dtype=np.int64)

    def one(self) -> np.ndarray:
        return self.unit.copy()

    def scalar(self, c: int) -> np.ndarray:
        return (_integer(c) % self.modulus * self.unit) % self.modulus

    def basis_element(self, i: int) -> np.ndarray:
        out = np.zeros(self.rank, dtype=np.int64)
        out[i] = 1
        return out

    # -- multiplication and derived brackets --------------------------------

    def mul_matrices(self, rows: np.ndarray, side: str = "left") -> np.ndarray:
        """The multiplication matrices of a (k, d) stack of residue rows x,
        as a (k, d, d) array M with y @ M[a] = x_a y (side='left') or
        y x_a (side='right'): one `residue._matmul_mod` of the rows with the
        structure tensor, contracted on its first axis (the tensor as
        d x d^2) or its second (a matmul broadcast over the first), in
        `_exact_dtype(n, d)` and reduced. Every contraction of the tensor
        against elements goes through here."""
        n, d = self.modulus, self.rank
        if side == "left":
            return _matmul_mod(rows, self.structure.reshape(d, d * d), n).reshape(-1, d, d)
        return _matmul_mod(rows, self.structure, n).transpose(1, 0, 2)  # from [i, a, k]

    def mul(self, x, y) -> np.ndarray:
        return (self.element(x) @ self.right_mul_matrix(y)) % self.modulus

    def associator(self, a, b, c) -> np.ndarray:
        return (self.mul(self.mul(a, b), c) - self.mul(a, self.mul(b, c))) % self.modulus

    def commutator(self, a, b) -> np.ndarray:
        return (self.mul(a, b) - self.mul(b, a)) % self.modulus

    def involve(self, x) -> np.ndarray:
        return (self.element(x) @ self.involution) % self.modulus

    def left_mul_matrix(self, x) -> np.ndarray:
        """Matrix L with y @ L = x * y (left multiplication by x)."""
        return self.mul_matrices(self.element(x)[None], "left")[0].astype(np.int64)

    def right_mul_matrix(self, x) -> np.ndarray:
        """Matrix R with y @ R = y * x (right multiplication by x)."""
        return self.mul_matrices(self.element(x)[None], "right")[0].astype(np.int64)

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
    """Z/nZ as a rank-1 algebra with the identity involution: the twisted
    group algebra of the trivial group, e_0 e_0 = 1 e_0."""
    alg = FiniteAlgebra.from_twist(n, [[1]], [1], [[1]], labels=["1"], name=name or f"Z{n}")
    return ensure_valid(alg)


# -- validation -------------------------------------------------------------


def validate_algebra(algebra: FiniteAlgebra) -> list[str]:
    """Check every structural invariant; violations are data, not exceptions.

    A twisted group algebra (`FiniteAlgebra.twist`) with a diagonal
    involution is checked on f and the diagonal s (`_twisted_violations`),
    with d^2 work and no structure tensor; every other algebra on the tensor
    (`_tensor_violations`), which is also the oracle of the twisted route.
    Both report the same violations in the same order, the same first bad
    basis pair included."""
    s = _diagonal(algebra.involution)
    if algebra.twist is None or s is None:
        return _tensor_violations(algebra)
    return _twisted_violations(algebra, s)


def _diagonal(matrix: np.ndarray) -> np.ndarray | None:
    """The diagonal of a square matrix that has no other nonzero entry, or None."""
    s = np.diagonal(matrix)
    return s if np.count_nonzero(matrix) == np.count_nonzero(s) else None


def _tensor_violations(algebra: FiniteAlgebra) -> list[str]:
    """The invariants of any algebra, read off the structure tensor.

    Both sides of each law are formed in `_exact_dtype(n, d)`, reduced, and
    compared in that dtype. The unit laws read the multiplication matrices
    of the unit (`FiniteAlgebra.mul_matrices`). Anti-multiplicativity
    compares lhs[i, j] = (e_i e_j)* = c(d^2 x d) @ sigma with
    e_j* e_i* = sigma @ M_j at [j, i], M_j the left matrix of e_j*, and
    reports the first basis pair (i, j) where they differ."""
    n, d = algebra.modulus, algebra.rank
    unit, sigma = algebra.unit[None], algebra.involution
    violations: list[str] = []

    left = algebra.mul_matrices(np.vstack([unit, sigma]), "left")  # unit, then e_j*
    eye = np.eye(d, dtype=left.dtype)
    if not np.array_equal(left[0], eye):
        violations.append("unit is not a left identity")
    if not np.array_equal(algebra.mul_matrices(unit, "right")[0], eye):
        violations.append("unit is not a right identity")

    if not np.array_equal(_matmul_mod(sigma, sigma, n), eye):
        violations.append("involution does not square to the identity")
    if not np.array_equal(_matmul_mod(unit, sigma, n), unit):
        violations.append("involution does not fix the unit")

    # (e_i e_j)* == e_j* e_i* for all basis pairs
    rhs = _matmul_mod(sigma, left[1:], n)  # [j, i]
    del left
    lhs = _matmul_mod(algebra.structure.reshape(d * d, d), sigma, n).reshape(d, d, d)
    bad = np.flatnonzero((lhs != rhs.transpose(1, 0, 2)).any(axis=2))
    if len(bad):
        violations.append(_anti_multiplicative_at(*divmod(int(bad[0]), d)))
    return violations


def _twisted_violations(algebra: FiniteAlgebra, s: np.ndarray) -> list[str]:
    """The invariants of a twisted group algebra with the diagonal
    involution e_i* = s_i e_i, read off f = `twist` and s.

    Coordinate m of u e_j is u[j xor m] f(j xor m, j), and of e_j u it is
    u[j xor m] f(j, j xor m), so the unit laws compare those d x d arrays
    with the identity. The involution squares to the identity iff every
    s_i^2 = 1, fixes the unit iff u_i s_i = u_i, and is anti-multiplicative
    iff f(i, j) s_{i xor j} = s_i s_j f(j, i) for every basis pair. Every
    product is of two residues, reduced before the next."""
    n, f, u = algebra.modulus, algebra.twist, algebra.unit
    i = np.arange(algebra.rank)[:, None]
    xor = i ^ i.T  # xor[j, m] = j xor m
    eye = np.eye(algebra.rank, dtype=np.int64)
    violations: list[str] = []
    if not np.array_equal(u[xor] * f[xor, i] % n, eye):
        violations.append("unit is not a left identity")
    if not np.array_equal(u[xor] * f[i, xor] % n, eye):
        violations.append("unit is not a right identity")
    if (s * s % n != 1).any():
        violations.append("involution does not square to the identity")
    if not np.array_equal(u * s % n, u):
        violations.append("involution does not fix the unit")
    bad = np.flatnonzero(f * s[xor] % n != (s[:, None] * s % n) * f.T % n)
    if len(bad):
        violations.append(_anti_multiplicative_at(*divmod(int(bad[0]), algebra.rank)))
    return violations


def _anti_multiplicative_at(i: int, j: int) -> str:
    return f"involution is not anti-multiplicative at basis pair ({i}, {j})"


def ensure_valid(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """Raise InvalidAlgebra unless all invariants hold; used at boundaries.

    A pass is kept as "valid" on the instance, whose arrays are read-only, so
    each algebra is validated once however many boundaries it crosses."""

    def validate() -> bool:
        violations = validate_algebra(algebra)
        if violations:
            raise InvalidAlgebra(violations)
        return True

    algebra.kept("valid", validate)
    return algebra


# -- identity predicates -----------------------------------------------------


def _product_pair(algebra: FiniteAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) of `product_tensors` in `residue._exact_dtype(n, d)`, reduced:
    the rows of the structure tensor as d^2 x d are the products e_i e_j, so
    P holds their left multiplication matrices and Q their right ones
    (`FiniteAlgebra.mul_matrices`; Q is a transposed view)."""
    d = algebra.rank
    pairs = algebra.structure.reshape(d * d, d)
    left = algebra.mul_matrices(pairs, "left").reshape(d, d, d, d)
    right = algebra.mul_matrices(pairs, "right").transpose(1, 0, 2)  # [i, (j, k)]
    return left, right.reshape(d, d, d, d)


def product_tensors(algebra: FiniteAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) with P[i, j, k, :] = (e_i e_j) e_k and Q[i, j, k, :] = e_i (e_j e_k),
    formed in `residue._exact_dtype(n, d)` (float32 or float64 BLAS at desk
    scale) and reduced before the int64 cast."""
    return tuple(t.astype(np.int64) for t in _product_pair(algebra))


def associator_tensor(algebra: FiniteAlgebra) -> np.ndarray:
    """T[i, j, k, :] = associator(e_i, e_j, e_k): P - Q in the contraction
    dtype, where |P - Q| < n is exact, lifted to [0, n) by adding n where it
    is negative and cast to int64 once."""
    left, right = _product_pair(algebra)
    left -= right
    np.add(left, algebra.modulus, out=left, where=left < 0)
    return left.astype(np.int64, copy=False)


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
    places, so the pattern holds exactly when it holds every nonzero entry.
    Read once per algebra built from a tensor, by the constructor, into
    `FiniteAlgebra.twist` (read-only), which every twisted route consults;
    `FiniteAlgebra.from_twist` is given f and never reads it."""
    d = algebra.rank
    if d.bit_count() != 1:
        return None
    c = algebra.structure
    i = np.arange(d)
    f = c[i[:, None], i, i[:, None] ^ i]
    f.setflags(write=False)
    return f if np.count_nonzero(f) == np.count_nonzero(c) else None


def _twisted_structure(f: np.ndarray) -> np.ndarray:
    """The read-only structure tensor of the twisted group algebra of f:
    c[i, j, i xor j] = f(i, j), zero elsewhere."""
    i = np.arange(len(f))[:, None]
    c = np.zeros((len(f),) * 3, dtype=np.int64)
    c[i, i.T, i ^ i.T] = f
    c.setflags(write=False)
    return c


def _twisted_associators(f: np.ndarray, n: int) -> np.ndarray:
    """a with (e_i, e_j, e_k) = a(i, j, k) e_{i xor j xor k} on the twisted
    group algebra of f: a(i, j, k) = f(i, j) f(i xor j, k) - f(j, k)
    f(i, j xor k) mod n. Each product lies in [0, (n - 1)^2] and their
    difference in +-(n - 1)^2, so a is formed and returned in the narrowest
    signed dtype that holds (n - 1)^2: int16 up to n = 182, int32 up to
    n = 46,341, int64 beyond."""
    dtype = next(t for t in (np.int16, np.int32, np.int64) if (n - 1) ** 2 <= np.iinfo(t).max)
    f = f.astype(dtype)
    i = np.arange(len(f))[:, None]
    xor = i ^ i.T
    a = f[xor]  # a[i, j, k] = f(i xor j, k)
    a *= f[:, :, None]
    b = f[:, xor]  # b[i, j, k] = f(i, j xor k)
    b *= f
    a -= b
    a %= n
    return a


def identity_flags(algebra: FiniteAlgebra) -> dict[str, bool]:
    """The associative, commutative, alternative and right-alternative
    flags, the three associator laws read off one associator tensor.

    On a twisted group algebra (`FiniteAlgebra.twist`) the associator of
    basis elements is a(i, j, k) times one basis element, so the d^3 array a
    (`_twisted_associators`) stands in for the d^4 tensor, and commutativity
    is f = f^T. `associator_tensor` serves every other algebra and is the
    oracle of this route (the `is_*` predicates)."""
    n = algebra.modulus
    f = algebra.twist
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
    """x commutes with everything and associates in all three slots.

    The rows of x's left matrix L are x e_i, and x commutes iff its right
    matrix equals L. Then the left matrices of those rows hold
    (x e_i) e_j = (e_i x) e_j at [i, j], their right matrices hold
    e_i (x e_j) = e_i (e_j x) at [j, i], and c(d^2 x d) @ L holds
    x (e_i e_j) = (e_i e_j) x at [i, j]: x associates in the first slot iff
    the first equals the third, in the middle iff it equals the second, and
    then in the last."""
    n, d = algebra.modulus, algebra.rank
    x = algebra.element(x)[None]
    L = algebra.mul_matrices(x, "left")[0]
    if not np.array_equal(L, algebra.mul_matrices(x, "right")[0]):
        return False
    first = algebra.mul_matrices(L, "left")
    middle = algebra.mul_matrices(L, "right").transpose(1, 0, 2)
    last = _matmul_mod(algebra.structure.reshape(d * d, d), L, n).reshape(d, d, d)
    return np.array_equal(first, last) and np.array_equal(first, middle)


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
    if y is None or not np.array_equal(algebra.mul(y, x), algebra.unit):
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

    A 0-d value c is the scalar c 1, and must be an integer (`_integer`).
    The algebra keeps the inverse of each value it certifies under
    ("certified", value bytes) (`FiniteAlgebra.kept`), so a value is checked
    once per algebra; each call still returns a fresh CentralScalar, since
    keeping one on the algebra would tie the algebra into a reference cycle
    with its own certificate.
    """
    if isinstance(value, CentralScalar):
        value = value.value
    scalar = None
    if np.ndim(value) == 0:
        scalar = _integer(value) % algebra.modulus
        value = algebra.scalar(scalar)
    value = algebra.element(value)

    def shown() -> str:
        return f"doubling parameter {algebra.format_element(value)}"

    def certify() -> np.ndarray:
        # c 1 is central by bilinearity, and invertible iff c is a unit mod n,
        # with inverse c^-1 1; any other value takes the general route.
        if scalar is None and not is_central(algebra, value):
            raise NotCentral(f"{shown()} is not central in {algebra.name}")
        if not is_symmetric(algebra, value):
            raise NotSymmetric(f"{shown()} is not fixed by the involution")
        if scalar is None:
            ok, inverse = is_invertible(algebra, value)
        else:
            ok = math.gcd(scalar, algebra.modulus) == 1
            inverse = algebra.scalar(pow(scalar, -1, algebra.modulus)) if ok else None
        if not ok:
            raise NotInvertible(f"{shown()} has no two-sided inverse")
        inverse.setflags(write=False)
        return inverse

    inverse = algebra.kept(("certified", value.tobytes()), certify)
    value.setflags(write=False)
    return CentralScalar(algebra, value, inverse)
