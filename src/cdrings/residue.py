"""Exact linear algebra over Z/nZ for any n >= 2 that int64 can hold exactly
(see `_require_exact`).

Row spans are kept in Howell normal form: the unique echelon canonical form
that stays valid in the presence of zero divisors (pivots are divisors of n,
entries above a pivot are reduced mod the pivot, and annihilator multiples of
every pivot row are absorbed into the span). Two generating sets span the
same additive subgroup of (Z/nZ)^d iff their Howell forms are identical,
which is what makes Submodule a canonical, hashable value. The kernel, the
intersection and the transform are each read off one elimination of an
augmented block such as [A | I], split by pivot column, with no second pass.
`kernel` eliminates each distinct nonzero column once, found by exact byte
keys (`_distinct_columns`).

A coordinate sum ⊕ (n / g_l) e_l, g_l dividing n (every center of a tower
with scalar parameters is one), is its own Howell form: `span` of rows with at
most one nonzero entry each, `kernel` of a matrix whose columns have at most
one nonzero entry each and `intersect` of two coordinate sums take gcds
instead, and `contains` tests each coordinate for divisibility by n / g_l
(`Submodule.coordinate_sum`). Every submodule stores its orders g, or None,
once, when it is built; `coordinate_orders` reads them back.

The package lists and reads submodules in one order, the walk of their
Howell rows (`Submodule.walk`): the mixed-radix sums of the rows, the first
row fastest, zero first. `elements` and `all_vectors` list it, and `_walker`
reads it by index without listing. For a coordinate sum, and so for the whole
module, it is code order: coordinate 0 fastest, the order of
`np.lexsort(rows.T)`.

All vectors are rows; the kernel convention throughout the package is the
left kernel {v : v @ m = 0}.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EnumerationBudgetExceeded, ModulusTooLarge
from .modn import annihilator_generator, gcd_transform, normalizing_unit

DEFAULT_ENUMERATION_BUDGET = 2**20


def _require_exact(modulus: int, rank: int) -> None:
    """The package's one modulus rule. Raise ValueError unless the modulus is
    an int >= 2, and ModulusTooLarge unless int64 holds the widest unreduced
    sums on rank-`rank` rows: `_howell`'s s*wr + t*wi (up to 2 (n-1)^2) and a
    combination of at most `rank` rows (`solve_left`, and every `algebra`
    product, formed pairwise and reduced), rank (n-1)^2."""
    if not isinstance(modulus, int) or modulus < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
    if max(2, rank) * (modulus - 1) ** 2 >= 2**63:
        raise ModulusTooLarge(modulus, rank, "max(2, rank) * (modulus - 1)^2")


def _exact_dtype(modulus: int, terms: int) -> type:
    """The package's one exactness rule for contractions: the narrowest of
    float32, float64 and int64 in which a sum of `terms` products of residues,
    plus n, is exact: float32 while terms (n-1)^2 + n <= 2^24, float64 while it
    is <= 2^53, else int64 (exact wherever `_require_exact` admits the rank)."""
    widest = terms * (modulus - 1) ** 2 + modulus
    if widest <= 2**24:
        return np.float32
    return np.float64 if widest <= 2**53 else np.int64


def _reduce(x: np.ndarray, n: int) -> np.ndarray:
    """x mod n in place, for integers 0 <= x with x + n exact in x's dtype
    (`_exact_dtype`). Floats take q = floor(x / n), x -= q n: with x = qn + r
    and x + n <= 2^p, (q + 1) n <= 2^p keeps x / n more than half an ulp
    below q + 1, so the correctly rounded quotient floors to q and q n and
    x - q n are exact. Integers take `np.remainder`."""
    if x.dtype.kind != "f":
        return np.remainder(x, n, out=x)
    q = x / n
    np.floor(q, out=q)
    q *= n
    x -= q
    return x


def _matmul_mod(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """a @ b mod n for a 2-D array a of residues in [0, n) and b one such
    matrix or a stack of them (the matmul broadcasts a over b's first axis),
    as one matmul in `_exact_dtype(n, a.shape[1])` reduced in place by
    `_reduce`, and returned in that dtype. Operands already of that dtype are
    not copied, so a caller that contracts one array several times casts it
    once."""
    dtype = _exact_dtype(n, a.shape[1])
    return _reduce(a.astype(dtype, copy=False) @ b.astype(dtype, copy=False), n)


class ResidueMatrix:
    """Dense matrix over Z/nZ; entries are kept reduced to [0, n)."""

    __slots__ = ("modulus", "array")

    def __init__(self, modulus: int, data):
        if not isinstance(modulus, int) or modulus < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
        arr = np.array(data, dtype=np.int64)
        arr %= modulus
        arr.setflags(write=False)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        self.modulus = modulus
        self.array = arr

    @classmethod
    def _from_reduced(cls, modulus: int, arr: np.ndarray) -> "ResidueMatrix":
        """Freeze an int64 2-D array whose entries already lie in [0, modulus),
        without the copy `__init__` makes: the caller hands the array over."""
        matrix = cls.__new__(cls)
        arr.setflags(write=False)
        matrix.modulus, matrix.array = modulus, arr
        return matrix

    @classmethod
    def zeros(cls, modulus: int, rows: int, cols: int) -> "ResidueMatrix":
        return cls(modulus, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, modulus: int, size: int) -> "ResidueMatrix":
        return cls(modulus, np.eye(size, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ResidueMatrix)
            and self.modulus == other.modulus
            and self.array.shape == other.array.shape
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"ResidueMatrix(mod {self.modulus}, {self.array.tolist()})"


def _howell(rows: np.ndarray, n: int):
    """Reduce `rows` to Howell normal form; returns (pivot_rows, pivot_cols).

    Kernels, intersections and transforms are read off one elimination of an
    augmented block (`_tail`, `solve_left`), never tracked row by row.
    """
    cols = rows.shape[1]
    work = list(rows.astype(np.int64) % n)
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        j = r
        while j < len(work) and work[j][c] == 0:
            j += 1
        if j == len(work):
            continue
        work[r], work[j] = work[j], work[r]
        u = normalizing_unit(int(work[r][c]), n)
        if u != 1:
            work[r] = (work[r] * u) % n
        for i in range(r + 1, len(work)):
            if work[i][c]:
                g, s, t, uu, vv = gcd_transform(int(work[r][c]), int(work[i][c]), n)
                wr, wi = work[r], work[i]
                work[r], work[i] = (s * wr + t * wi) % n, (uu * wr + vv * wi) % n
        p = int(work[r][c])
        for i in range(r):
            q = int(work[i][c]) // p
            if q:
                work[i] = (work[i] - q * work[r]) % n
        a = annihilator_generator(p, n)
        if a:
            # The annihilator multiple of a pivot row completes the span for
            # later columns.
            work.append((a * work[r]) % n)
        pivot_cols.append(c)
        r += 1
    return np.array(work[:r], dtype=np.int64).reshape(r, cols), pivot_cols


def _echelon_coefficients(
    w: np.ndarray, rows: np.ndarray, pivot_cols, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(coeffs, inside) for a (k, d) stack w of reduced rows: inside[i] says
    whether w[i] lies in the span of `rows`, and then coeffs[i] @ rows == w[i].

    `rows` are Howell rows with pivots in `pivot_cols`. The whole stack is
    reduced pivot by pivot: q = w[:, c] // p, w -= q row, mod n. A pivot entry
    that p does not divide leaves its remainder in column c, where no later
    row has an entry, so a row is inside exactly when nothing is left of it;
    an outside row's coefficients mean nothing. Every q row stays below n^2,
    so the reduction is exact wherever `_require_exact` admits the rank.
    """
    w = w.copy()
    coeffs = np.zeros((w.shape[0], len(pivot_cols)), dtype=np.int64)
    for idx, c in enumerate(pivot_cols):
        coeffs[:, idx] = w[:, c] // rows[idx, c]
        w -= coeffs[:, idx, None] * rows[idx]
        w %= n
    return coeffs, ~w.any(axis=1)


@dataclass(frozen=True)
class Submodule:
    """Additive subgroup of (Z/nZ)^d in Howell canonical form.

    Instances compare equal exactly when they have the same element set, so
    submodule identities (center formulas, ideal equalities) are plain `==`
    checks. Construct via `span`, `coordinate_sum`, `canonicalize`, or
    `kernel`; the generator matrix is read-only.
    """

    modulus: int
    ambient_rank: int
    generators: np.ndarray = field(repr=False)
    pivots: tuple[tuple[int, int], ...]  # (column, value) per generator row
    # The orders g of a coordinate sum, None for any other span (`coordinate_orders`).
    _orders: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def span(cls, modulus: int, rows, ambient_rank: int | None = None) -> "Submodule":
        arr = np.atleast_2d(np.array(rows, dtype=np.int64))
        if arr.size == 0:
            if ambient_rank is None:
                raise ValueError("ambient_rank required for an empty generating set")
            arr = arr.reshape(0, ambient_rank)
        if ambient_rank is not None and arr.shape[1] != ambient_rank:
            raise DimensionMismatch(
                f"generators have width {arr.shape[1]}, ambient rank is {ambient_rank}"
            )
        _require_exact(modulus, arr.shape[1])
        arr = arr % modulus
        if (np.count_nonzero(arr, axis=1) <= 1).all():
            # Rows with at most one nonzero entry span a coordinate sum:
            # column l contributes the cyclic group of gcd(n, its entries).
            return cls.coordinate_sum(modulus, modulus // np.gcd(np.gcd.reduce(arr), modulus))
        if arr.shape[0] > arr.shape[1]:
            # The Howell form is canonical, so repeated and zero rows can go
            # first: closure steps such as `_commutator_ideal_closure` span mostly repeats.
            arr = _distinct_columns(arr.T, modulus).T
        return cls._from_howell(modulus, *_howell(arr, modulus))

    @classmethod
    def coordinate_sum(cls, modulus: int, g) -> "Submodule":
        """The coordinate sum of orders g: the direct sum of the cyclic groups
        (n / g_l) e_l, for divisors g_l of n. Its nonzero rows, pivot n / g_l in
        column l, are already in Howell form, so no elimination runs."""
        g = np.array(g, dtype=np.int64)
        orders = g.tolist()
        if g.ndim != 1 or any(x < 1 or modulus % x for x in orders):
            raise ValueError(f"coordinate orders must divide {modulus}, got {orders}")
        _require_exact(modulus, len(orders))
        pivots = tuple((c, modulus // x) for c, x in enumerate(orders) if x > 1)
        rows = np.zeros((len(pivots), len(orders)), dtype=np.int64)
        for i, (c, p) in enumerate(pivots):
            rows[i, c] = p
        rows.setflags(write=False)
        g.setflags(write=False)
        return cls(modulus, len(orders), rows, pivots, g)

    @classmethod
    def _from_howell(cls, modulus: int, gens: np.ndarray, pivot_cols) -> "Submodule":
        """Freeze rows already in Howell form (copying a view of a larger block),
        and read their coordinate orders off the pivots when every row is its
        pivot alone."""
        gens = np.ascontiguousarray(gens)
        gens.setflags(write=False)
        cols = np.asarray(pivot_cols, dtype=np.intp)
        values = gens[np.arange(len(cols)), cols]
        orders = None
        if np.count_nonzero(gens) == len(cols):
            orders = np.ones(gens.shape[1], dtype=np.int64)
            orders[cols] = modulus // values
            orders.setflags(write=False)
        values = values.tolist()
        return cls(modulus, gens.shape[1], gens, tuple(zip(pivot_cols, values)), orders)

    @classmethod
    def zero(cls, modulus: int, ambient_rank: int) -> "Submodule":
        return cls.span(modulus, np.zeros((0, ambient_rank), dtype=np.int64), ambient_rank)

    @classmethod
    def full(cls, modulus: int, ambient_rank: int) -> "Submodule":
        return cls.coordinate_sum(modulus, np.full(ambient_rank, modulus))

    def coordinate_orders(self) -> np.ndarray | None:
        """The g with `Submodule.coordinate_sum(n, g) == self` (read-only), or
        None when some Howell row has an entry besides its pivot. Stored when
        the submodule is built."""
        return self._orders

    @property
    def num_generators(self) -> int:
        return self.generators.shape[0]

    @property
    def is_zero(self) -> bool:
        return self.num_generators == 0

    def order(self) -> int:
        """Number of elements in the span (product of the pivot layer orders)."""
        size = 1
        for _, p in self.pivots:
            size *= self.modulus // p
        return size

    def _check_rows(self, v) -> np.ndarray:
        """v, one vector or a (k, d) stack of them, as int64 mod n."""
        arr = np.asarray(v, dtype=np.int64)
        if arr.ndim not in (1, 2) or arr.shape[-1] != self.ambient_rank:
            raise DimensionMismatch(
                f"vector has shape {arr.shape}, ambient rank is {self.ambient_rank}"
            )
        return arr % self.modulus

    def _reduce_rows(self, rows: np.ndarray):
        return _echelon_coefficients(
            rows, self.generators, [c for c, _ in self.pivots], self.modulus
        )

    def contains(self, v) -> bool | np.ndarray:
        """Membership: a bool for one vector, a bool array for a (k, d) stack.
        A coordinate sum of orders g holds x iff every x_l is a multiple of
        n / g_l; any other span reduces the rows together by one echelon
        pass against the canonical generators."""
        rows = self._check_rows(v)
        stack = np.atleast_2d(rows)
        g = self._orders
        if g is None:
            _, inside = self._reduce_rows(stack)
        else:
            inside = ~(stack % (self.modulus // g)).any(axis=1)
        return inside if rows.ndim == 2 else bool(inside[0])

    def coefficients_of(self, v) -> np.ndarray | None:
        """Coefficients c with c @ generators == v, or None if v is outside."""
        rows = self._check_rows(v)
        if rows.ndim != 1:
            raise DimensionMismatch(f"expected one vector, got shape {rows.shape}")
        coeffs, inside = self._reduce_rows(rows[None])
        return coeffs[0] if inside[0] else None

    def elements(self, budget: int = DEFAULT_ENUMERATION_BUDGET) -> np.ndarray:
        """All elements of the span as an (order, d) array, in `walk` order:
        the sums c_1 g_1 + ... + c_k g_k mod n over the canonical generators
        g_i, with 0 <= c_i < n / p_i for pivot value p_i, c_1 fastest, so zero
        comes first.

        Raises EnumerationBudgetExceeded instead of silently truncating.
        """
        size = self.order()
        if size > budget:
            raise EnumerationBudgetExceeded(size, budget)
        return _combinations(*self.walk(), self.modulus)

    def walk(self) -> tuple[np.ndarray, list[int]]:
        """The (generators, radices) of the package's one enumeration order,
        walked by `_combinations` and read by index by `_walker`: the
        canonical generators g_i, each with its radix n / p_i for pivot value
        p_i, the first fastest. For a coordinate sum it is code order."""
        return self.generators, [self.modulus // p for _, p in self.pivots]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Submodule)
            and self.modulus == other.modulus
            and self.ambient_rank == other.ambient_rank
            and bool(np.array_equal(self.generators, other.generators))
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.ambient_rank, self.generators.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Submodule(mod {self.modulus}, rank {self.ambient_rank}, "
            f"order {self.order()}, gens {self.generators.tolist()})"
        )


def canonicalize(m: ResidueMatrix) -> Submodule:
    """Canonical generating set of the row span of m."""
    return Submodule.span(m.modulus, m.array, m.cols)


def _tail(stacked: np.ndarray, split: int, n: int) -> Submodule:
    """The vectors of the row span of `stacked` that vanish before column
    `split`, cut to the columns from `split` on. By the Howell property, the
    Howell rows pivoting at or past `split` are already their canonical form."""
    gens, cols = _howell(stacked, n)
    k = bisect.bisect_left(cols, split)
    return Submodule._from_howell(n, gens[k:, split:], [c - split for c in cols[k:]])


def _distinct_columns(arr: np.ndarray, n: int) -> np.ndarray:
    """The distinct nonzero columns of `arr`, whose entries lie in [0, n),
    in no particular order. Each column, cast to the narrowest unsigned dtype
    that holds n - 1, is one byte key, so two keys are equal exactly when
    their columns are and a 1-D `np.unique` finds them without hashing."""
    rows, cols = arr.shape
    if not rows or not cols:
        return arr[:, :0]
    keys = np.ascontiguousarray(arr.T, dtype=np.min_scalar_type(n - 1))
    keys = keys.view(np.dtype((np.void, keys.itemsize * rows))).ravel()
    _, first = np.unique(keys, return_index=True)
    distinct = arr[:, first]
    return distinct[:, distinct.any(axis=0)]


def kernel(m: ResidueMatrix) -> Submodule:
    """Left kernel {v : v @ m = 0} as a canonical submodule, read off one
    elimination of [columns of m | I]: its rows (0, v) are the kernel.

    When every column of m has at most one nonzero entry, each condition
    touches one coordinate: v_p m[p, j] = 0 for all j holds iff v_p is a
    multiple of n / g_p, g_p = gcd(n, the entries of row p), so the kernel
    is the coordinate sum of orders g and no elimination runs (the dual of a
    coordinate sum, and the condition matrices of a twisted group algebra).
    Otherwise duplicate and zero columns are dropped first
    (`_distinct_columns`): the kernel depends only on the set of columns,
    and condition matrices are mostly repeats (the associator blocks of the
    rank-32 tower(3, 1, ..., 1) have 98,304 columns and 62 distinct ones).
    """
    _require_exact(m.modulus, m.rows)
    if (np.count_nonzero(m.array, axis=0) <= 1).all():
        return Submodule.coordinate_sum(
            m.modulus, np.gcd(np.gcd.reduce(m.array, axis=1), m.modulus)
        )
    cols = _distinct_columns(m.array, m.modulus)
    stacked = np.hstack([cols, np.eye(m.rows, dtype=np.int64)])
    return _tail(stacked, cols.shape[1], m.modulus)


def _require_compatible(a: Submodule, b: Submodule) -> None:
    if a.modulus != b.modulus:
        raise DimensionMismatch(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    if a.ambient_rank != b.ambient_rank:
        raise DimensionMismatch(
            f"ambient rank mismatch: {a.ambient_rank} vs {b.ambient_rank}"
        )


def intersect(a: Submodule, b: Submodule) -> Submodule:
    """Intersection of two spans, read off one elimination of [[a, a], [b, 0]].

    Those rows span exactly the pairs (ua + vb, ua); a pair (0, y) therefore
    occurs iff y lies in both spans, so the Howell rows pivoting in the
    trailing block, cut to it, are the intersection's canonical form. Two
    coordinate sums of orders g and h meet in the coordinate sum of orders
    gcd(g, h), with no elimination: (n/g) Z/n ∩ (n/h) Z/n = (n/gcd(g, h)) Z/n.
    """
    _require_compatible(a, b)
    g, h = a._orders, b._orders
    if g is not None and h is not None:
        return Submodule.coordinate_sum(a.modulus, np.gcd(g, h))
    stacked = np.vstack([
        np.hstack([a.generators, a.generators]),
        np.hstack([b.generators, np.zeros_like(b.generators)]),
    ])
    return _tail(stacked, a.ambient_rank, a.modulus)


def solve_left(m: ResidueMatrix, rhs) -> np.ndarray | None:
    """A vector v with v @ m = rhs, or None when no solution exists.

    One elimination of [m | I]: each Howell row is (t @ m, t), so the rows
    pivoting inside m give its Howell form and, after the split, the transform.
    """
    b = np.asarray(rhs, dtype=np.int64) % m.modulus
    if b.shape != (m.cols,):
        raise DimensionMismatch(f"rhs has shape {b.shape}, expected ({m.cols},)")
    _require_exact(m.modulus, m.cols)  # at most m.cols transform rows are combined
    gens, cols = _howell(np.hstack([m.array, np.eye(m.rows, dtype=np.int64)]), m.modulus)
    head = bisect.bisect_left(cols, m.cols)
    coeffs, inside = _echelon_coefficients(b[None], gens[:head, : m.cols], cols[:head], m.modulus)
    return (coeffs[0] @ gens[:head, m.cols :]) % m.modulus if inside[0] else None


def _combinations(generators: np.ndarray, radices, n: int, dtype=np.int64) -> np.ndarray:
    """Every sum c_1 g_1 + c_2 g_2 + ... mod n with 0 <= c_i < radices[i], c_1
    varying fastest, so zero comes first, as rows of `dtype`, an integer dtype
    that holds 2(n - 1). One additive walk in place, coordinate-major: the
    walk fills a (d, total) array and returns its transpose, so once the
    first `size` columns hold the sums of the generators so far, each of the
    next generator's multiples g, 2g, ..., (r-1)g, reduced mod n, is added
    to them along `size` contiguous entries per coordinate, into the columns
    that follow. A sum of two residues lies below 2n and is reduced as
    min(x, x - n) in the unsigned view of `dtype`, where x - n wraps above x
    exactly when x < n. The multiples are formed in int64, each below n^2."""
    d = generators.shape[1]
    out = np.empty((d, math.prod(radices)), dtype=dtype)
    walk = out.view(np.dtype(f"u{out.itemsize}"))
    walk[:, 0] = 0
    size = 1
    for g, r in zip(generators, radices):
        block = walk[:, size : size * r].reshape(d, r - 1, size)
        steps = (np.arange(1, r, dtype=np.int64)[:, None] * g % n).astype(walk.dtype)
        np.add(steps.T[:, :, None], walk[:, None, :size], out=block)
        np.minimum(block, block - walk.dtype.type(n), out=block)
        size *= r
    return out.T


def _walker(generators: np.ndarray, radices, n: int):
    """The function ids -> the rows at indices ids of the `_combinations`
    walk, as int64, without the walk: the mixed-radix digits c_i of each
    index (c_1 fastest) times the generators, mod n, a sum of len(radices)
    products below n^2. The strides are worked out once, here."""
    strides = np.cumprod([1, *radices[:-1]], dtype=np.int64)
    radices = np.asarray(radices, dtype=np.int64)

    def rows_at(ids) -> np.ndarray:
        digits = np.asarray(ids, dtype=np.int64)[:, None] // strides % radices
        return digits @ generators % n

    return rows_at


def all_vectors(modulus: int, rank: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> np.ndarray:
    """Every vector of (Z/nZ)^rank in code order (coordinate 0 fastest), zero
    first: the elements of the full module, listed anew on each call."""
    return Submodule.full(modulus, rank).elements(budget)
