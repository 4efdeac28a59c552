"""Centers, commutator ideals, annihilators, and their closed forms.

No center is found by element enumeration; that is reserved for the
desk-scale oracles in the test suite. Every Cayley-Dickson tower with scalar
parameters is a twisted group algebra over (Z/2)^k, e_i e_j = f(i, j)
e_{i xor j}: `doubling.double` builds its stages from f, and one
vectorized test of the structure tensor detects the pattern in an algebra
built from a tensor (`FiniteAlgebra.twist`, None off the pattern).
There each associator and commutator condition touches one coordinate of
x, so N, K and Z are direct sums of coordinate annihilators (n / g_l) e_l
with g_l a gcd of values of f, read off arrays of size d^3 (in the
narrowest integer dtype that holds them, `_twisted_associators`) and d^2,
and no twisted route reads the structure tensor.
Every other algebra (a rank that is not a power of two, a loaded document
or a double by a non-scalar alpha off the pattern) takes the kernel route:
the left kernel of a stacked basis-indexed linear system
(`_associative_center_kernel`, `_commutative_center_kernel`), which is also
the oracle the closed forms are tested against (`_kernel_center`). Every
multiplication matrix the kernel routes need comes from
`FiniteAlgebra.mul_matrices`.

The stage data of a twisted group algebra are coordinate sums too. Products
of a coordinate vector with basis elements stay coordinate vectors, so
[A, A] is the coordinate sum of pivots p_m dividing n: seeded with gcd(n,
f(i, j) - f(j, i) over i xor j = m), then p_m = gcd(p_m, p_l f(l, l xor m),
p_l f(l xor m, l) over all l) until a fixpoint (`commutator_ideal`). The
annihilator of a coordinate sum of orders g within one of orders g_within
has orders gcd(g_within, h), h_k = gcd(n, (n / g_l) f(k, l) over all l),
since coordinate k of r meets (n / g_l) e_l only at k xor l
(`annihilator`). The closure under basis products
(`_commutator_ideal_closure`) and the kernel of the right multiplication
matrices (`_annihilator_kernel`) serve every other input and are the
oracles of both closed forms.

For a doubled algebra R = (A, alpha) the same data admits closed forms built
from stage-A invariants:

    N(R) = {(x, y) : x in C, y in I}         C = Z(A), I = Ann_C([A, A])
    Z(R) = {(x, y) : x in B∩C, y in I∩J}     B = symmetric part of C,
                                             J = Ann_B({a - a* : a in A})

`predicted_associative_center` / `predicted_center` assemble those and are
required to coincide exactly (as canonical submodules) with the kernel
route; the verification suites sweep that equality, and that of the default
route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import FiniteAlgebra, _twisted_associators, associator_tensor, product_tensors
from .doubling import _require_doubled
from .errors import DimensionMismatch, StageMismatch
from .residue import (
    ResidueMatrix,
    Submodule,
    _distinct_columns,
    _matmul_mod,
    intersect,
    kernel,
)


@dataclass(frozen=True)
class CenterReport:
    """The three centers of one algebra, with Z = N ∩ K by construction."""

    algebra: str
    N: Submodule
    K: Submodule
    Z: Submodule

    def sizes(self) -> dict[str, int]:
        return {"N": self.N.order(), "K": self.K.order(), "Z": self.Z.order()}


@dataclass(frozen=True)
class EssentialityData:
    """Stage invariants consumed by the doubling criteria."""

    algebra: str
    C: Submodule
    commutator_ideal: Submodule
    I: Submodule
    B: Submodule
    skew_span: Submodule
    J: Submodule

    def sizes(self) -> dict[str, int]:
        return {
            "C": self.C.order(),
            "[A,A]": self.commutator_ideal.order(),
            "I": self.I.order(),
            "B": self.B.order(),
            "J": self.J.order(),
        }


def _memoized(fn):
    """Compute fn(algebra) once per instance and keep it in `algebra.memo`,
    which dies with the algebra: equal algebras built apart never share it."""

    @functools.wraps(fn)
    def memoized(algebra: FiniteAlgebra):
        if fn.__name__ not in algebra.memo:
            algebra.memo[fn.__name__] = fn(algebra)
        return algebra.memo[fn.__name__]

    return memoized


@_memoized
def associative_center(algebra: FiniteAlgebra) -> Submodule:
    """N = {x : (x,a,b) = (a,x,b) = (a,b,x) = 0 for all a, b}.

    On a twisted group algebra (`FiniteAlgebra.twist`), (e_i, e_j, e_k) =
    a(i, j, k) e_{i xor j xor k} (`_twisted_associators`). With x in one
    slot and basis elements in the other two, each coordinate x_l lands on
    its own coordinate, so x is in N iff every x_l is annihilated by every a
    with l in any slot: N is the sum of the (n / g_l) e_l, g_l = gcd(n,
    those a).
    Any other algebra takes the kernel route (`_associative_center_kernel`).
    """
    f = algebra.twist
    if f is None:
        return _associative_center_kernel(algebra)
    n = algebra.modulus
    a = _twisted_associators(f, n)
    slots = [np.gcd.reduce(a, axis=axes) for axes in ((1, 2), (0, 2), (0, 1))]
    return Submodule.coordinate_sum(n, np.gcd(n, np.gcd.reduce(slots)))


def _associative_center_kernel(algebra: FiniteAlgebra) -> Submodule:
    """N of any algebra, and the oracle of the closed form.

    Each condition is linear in x once a, b range over basis pairs, so N is
    the left kernel of the associator tensor with x moved to each of its
    three slots in turn, the blocks stacked horizontally. The full d x 3d^3
    stack is never built: a block whose columns have at most one nonzero
    entry each (every block of a twisted algebra) has the left kernel of
    diag(gcd(n, its row gcds)) and is replaced by that diagonal, which keeps
    the coordinate pattern `kernel` reads off gcds; any other block is cut
    to its distinct columns.
    """
    n, d = algebra.modulus, algebra.rank
    t = associator_tensor(algebra)
    blocks = []
    for s in range(3):
        block = np.moveaxis(t, s, 0).reshape(d, -1)
        if (np.count_nonzero(block, axis=0) <= 1).all():
            blocks.append(np.diag(np.gcd(n, np.gcd.reduce(block, axis=1))))
        else:
            blocks.append(_distinct_columns(block, n))
    return kernel(ResidueMatrix(n, np.concatenate(blocks, axis=1)))


def commutative_center(algebra: FiniteAlgebra) -> Submodule:
    """K = {x : [x, a] = 0 for all a}.

    On a twisted group algebra [e_l, e_j] = (f(l, j) - f(j, l)) e_{l xor j},
    so K is the sum of the (n / h_l) e_l, h_l = gcd(n, f(l, j) - f(j, l)
    over all j). Any other algebra takes `_commutative_center_kernel`.
    """
    f = algebra.twist
    if f is None:
        return _commutative_center_kernel(algebra)
    n = algebra.modulus
    return Submodule.coordinate_sum(n, np.gcd(n, np.gcd.reduce(f - f.T, axis=1)))


def _commutative_center_kernel(algebra: FiniteAlgebra) -> Submodule:
    """K of any algebra, and the oracle of the closed form."""
    n, d = algebra.modulus, algebra.rank
    c = algebra.structure
    # block[p, i, k] = (R_i - L_i)[p, k], so x @ block stacks all [x, e_i]
    block = (c - c.transpose(1, 0, 2)) % n
    return kernel(ResidueMatrix(n, block.reshape(d, d * d)))


@_memoized
def center(algebra: FiniteAlgebra) -> CenterReport:
    """N, K and Z = N ∩ K. On a twisted group algebra N and K are coordinate
    sums, which `intersect` meets coordinate by coordinate."""
    N = associative_center(algebra)
    K = commutative_center(algebra)
    return CenterReport(algebra.name, N, K, intersect(N, K))


def _kernel_center(algebra: FiniteAlgebra) -> CenterReport:
    """N, K and Z by the kernel route alone, never memoized: the oracle the
    suites and tests hold the closed forms to."""
    N = _associative_center_kernel(algebra)
    K = _commutative_center_kernel(algebra)
    return CenterReport(algebra.name, N, K, intersect(N, K))


def commutator_ideal(algebra: FiniteAlgebra) -> Submodule:
    """Least ideal containing all commutators.

    On a twisted group algebra (`FiniteAlgebra.twist`) [e_i, e_j] =
    (f(i, j) - f(j, i)) e_{i xor j}, and a product of p_l e_l with e_k on
    either side is p_l f(l, k) e_{l xor k} or p_l f(k, l) e_{l xor k}: the
    ideal is a coordinate sum, each coordinate m the multiples of a pivot
    p_m dividing n. Seeded with p_m = gcd(n, f(i, j) - f(j, i) over
    i xor j = m), each round sets p_m to gcd(p_m, p_l f(l, l xor m),
    p_l f(l xor m, l) over all l), one gather of d^2 values through the xor
    table, until nothing changes. Any other algebra takes
    `_commutator_ideal_closure`.
    """
    f = algebra.twist
    if f is None:
        return _commutator_ideal_closure(algebra)
    n, d = algebra.modulus, algebra.rank
    rows = np.arange(d)[:, None]
    partner = rows ^ np.arange(d)  # partner[l, m] = l xor m
    # p_l f < n^2: exact in int64 wherever `_require_exact` admits the rank.
    p = np.gcd(n, np.gcd.reduce((f - f.T)[rows, partner], axis=0))
    steps = np.stack([f[rows, partner], f.T[rows, partner]])
    while True:
        grown = np.gcd(p, np.gcd.reduce(steps * p[:, None], axis=(0, 1)))
        if np.array_equal(grown, p):
            return Submodule.coordinate_sum(n, n // p)  # each p_m divides n
        p = grown


def _commutator_ideal_closure(algebra: FiniteAlgebra) -> Submodule:
    """The commutator ideal of any algebra, and the oracle of the closed form.

    Seeded with the basis commutators and closed under left and right
    multiplication by basis elements until the canonical form stabilizes;
    one-sided closure is not enough in a non-associative ring. The rows of
    a generator's left (right) multiplication matrix are its products g e_i
    (e_i g).
    """
    n, d = algebra.modulus, algebra.rank
    c = algebra.structure
    seed = (c - c.transpose(1, 0, 2)).reshape(d * d, d) % n
    span = Submodule.span(n, seed, d)
    while True:
        gens = span.generators
        if gens.shape[0] == 0:
            return span
        products = [algebra.mul_matrices(gens, side).reshape(-1, d) for side in ("left", "right")]
        grown = Submodule.span(n, np.vstack([gens, *products]), d)
        if grown == span:
            return span
        span = grown


def annihilator(s: Submodule, within: Submodule, algebra: FiniteAlgebra) -> Submodule:
    """{r in within : r * g = 0 for every generator g of s}.

    Linearity of the action extends the generator condition to all of s.
    When s and within are coordinate sums (orders g and g_within) in a
    twisted group algebra, r * (n / g_l) e_l has coordinate k xor l equal to
    r_k (n / g_l) f(k, l), so each r_k meets its own conditions: it lies in
    the cyclic group of order h_k = gcd(n, (n / g_l) f(k, l) over all l), an
    l with g_l = 1 adding a multiple of n. The result is the coordinate sum
    of orders gcd(h, g_within). Any other input takes `_annihilator_kernel`.
    """
    if s.ambient_rank != algebra.rank or within.ambient_rank != algebra.rank:
        raise StageMismatch("submodules do not live in this algebra's module")
    g, g_within = s.coordinate_orders(), within.coordinate_orders()
    f = None if g is None or g_within is None else algebra.twist
    if f is None:
        return _annihilator_kernel(s, within, algebra)
    n = algebra.modulus
    # (n / g_l) f(k, l) < n^2: exact in int64 wherever `_require_exact` admits the rank.
    h = np.gcd(n, np.gcd.reduce(f * (n // g), axis=1))
    return Submodule.coordinate_sum(n, np.gcd(h, g_within))


def _annihilator_kernel(s: Submodule, within: Submodule, algebra: FiniteAlgebra) -> Submodule:
    """The annihilator in any algebra, and the oracle of the closed form: the
    left kernel of the right multiplication matrices of s's generators, side
    by side (no columns when s = 0), met with within."""
    mats = algebra.mul_matrices(s.generators, "right").transpose(1, 0, 2)  # [i, g, k]
    conditions = ResidueMatrix(algebra.modulus, mats.reshape(algebra.rank, -1))
    return intersect(kernel(conditions), within)


def symmetric_center(algebra: FiniteAlgebra) -> Submodule:
    """B = {a in C : a* = a}."""
    n, d = algebra.modulus, algebra.rank
    fixed = kernel(
        ResidueMatrix(n, (algebra.involution - np.eye(d, dtype=np.int64)) % n)
    )
    return intersect(center(algebra).Z, fixed)


def skew_span(algebra: FiniteAlgebra) -> Submodule:
    """Span of {a - a* : a in A}, generated by the basis images of id - sigma."""
    d = algebra.rank
    rows = (np.eye(d, dtype=np.int64) - algebra.involution) % algebra.modulus
    return Submodule.span(algebra.modulus, rows, d)


def skew_annihilator(algebra: FiniteAlgebra) -> Submodule:
    """J = Ann_B({a - a* : a in A})."""
    return annihilator(skew_span(algebra), symmetric_center(algebra), algebra)


@_memoized
def essentiality_data(algebra: FiniteAlgebra) -> EssentialityData:
    """All stage invariants needed by the doubling criteria, computed once."""
    C = center(algebra).Z
    comm = commutator_ideal(algebra)
    I = annihilator(comm, C, algebra)
    B = symmetric_center(algebra)
    skew = skew_span(algebra)
    J = annihilator(skew, B, algebra)
    return EssentialityData(algebra.name, C, comm, I, B, skew, J)


def _embed_pair(first: Submodule, second: Submodule, doubled: FiniteAlgebra) -> Submodule:
    """{(x, y) : x in first, y in second}, both in the stage `doubled` doubles."""
    parent = _require_doubled(doubled)
    d = first.ambient_rank
    if parent.rank != d:
        raise StageMismatch(f"stage data has ambient rank {d}, parent rank is {parent.rank}")
    rows = np.vstack([
        np.hstack([first.generators, np.zeros_like(first.generators)]),
        np.hstack([np.zeros_like(second.generators), second.generators]),
    ])
    return Submodule.span(doubled.modulus, rows, 2 * d)


def predicted_associative_center(
    data: EssentialityData, doubled: FiniteAlgebra
) -> Submodule:
    """Closed form N(R) = {(x, y) : x in C, y in I} from stage-A data."""
    return _embed_pair(data.C, data.I, doubled)


def predicted_center(data: EssentialityData, doubled: FiniteAlgebra) -> Submodule:
    """Closed form Z(R) = {(x, y) : x in B∩C, y in I∩J} from stage-A data."""
    first = intersect(data.B, data.C)
    second = intersect(data.I, data.J)
    return _embed_pair(first, second, doubled)


# -- membership in N(R) via the two identity systems -------------------------

# A pair (x, y) lies in N((A, alpha)) iff x satisfies the first system and y
# the second, with u, v ranging over A; bilinearity in (u, v) reduces the
# quantifier to basis pairs. The tables are data so they can be audited,
# rendered in the docs and compiled into condition matrices
# (`identity_conditions`) rather than hand-coded 24 times.
FIRST_COMPONENT_IDENTITIES: tuple[tuple[str, str], ...] = (
    ("(xu)v", "x(uv)"),
    ("(ux)v", "u(xv)"),
    ("(uv)x", "u(vx)"),
    ("v(ux)", "x(vu)"),
    ("(xu)v", "u(vx)"),
    ("(vu)x", "(xv)u"),
    ("v(xu)", "(vu)x"),
    ("v(ux)", "(vx)u"),
    ("x(uv)", "u(xv)"),
    ("(ux)v", "(uv)x"),
    ("v(xu)", "(xv)u"),
    ("x(vu)", "(vx)u"),
)

SECOND_COMPONENT_IDENTITIES: tuple[tuple[str, str], ...] = (
    ("(uy)v", "y(vu)"),
    ("(uy)v", "(yv)u"),
    ("y(vu)", "u(yv)"),
    ("v(yu)", "y(uv)"),
    ("(yu)v", "(vy)u"),
    ("y(uv)", "(vy)u"),
    ("v(uy)", "(uv)y"),
    ("v(uy)", "u(vy)"),
    ("(vu)y", "u(vy)"),
    ("(yu)v", "(vu)y"),
    ("v(yu)", "u(yv)"),
    ("(uv)y", "(yv)u"),
)


def _term_map(products: tuple[np.ndarray, np.ndarray], term: str, var: str) -> np.ndarray:
    """A term as a linear map of `var`, at every basis pair u = e_i, v = e_j.

    out[p, i, j, k] is coordinate k of the term at var = e_p. A term '(ab)c'
    reads P[a, b, c] and 'a(bc)' reads Q[a, b, c] (`product_tensors`), with
    the axes of its letters moved into (var, u, v) order.
    """
    letters = term.replace("(", "").replace(")", "")
    tensor = products[0] if term.startswith("(") else products[1]
    return tensor.transpose(*(letters.index(s) for s in (var, "u", "v")), 3)


def _condition_matrix(
    stage: FiniteAlgebra, products, identities: tuple[tuple[str, str], ...], var: str
) -> ResidueMatrix:
    """d x (len(identities) * d^3) matrix whose left kernel is the solution
    set of the identity system: one block per (identity, e_i, e_j), each the
    map lhs - rhs of the variable. The blocks are written and reduced in
    place in the one array the matrix keeps."""
    n, d = stage.modulus, stage.rank
    out = np.empty((d, len(identities), d, d, d), dtype=np.int64)
    for idx, (lhs, rhs) in enumerate(identities):
        np.subtract(_term_map(products, lhs, var), _term_map(products, rhs, var), out=out[:, idx])
    out %= n
    return ResidueMatrix._from_reduced(n, out.reshape(d, -1))


@_memoized
def identity_conditions(stage: FiniteAlgebra) -> tuple[ResidueMatrix, ResidueMatrix]:
    """Condition matrices (M1, M2) of the two identity systems on `stage`.

    x satisfies the first system iff x @ M1 = 0 mod n, and y the second iff
    y @ M2 = 0, so kernel(M1) x kernel(M2) is the associative center of any
    double of the stage. Every block is read off the two product tensors of
    the stage, compiled once per stage and kept in its memo; each matrix is
    rank x 12 rank^3 (100 MB at rank 32).
    """
    products = product_tensors(stage)
    return (
        _condition_matrix(stage, products, FIRST_COMPONENT_IDENTITIES, "x"),
        _condition_matrix(stage, products, SECOND_COMPONENT_IDENTITIES, "y"),
    )


def n_membership_by_identities(doubled: FiniteAlgebra, x, y) -> bool | np.ndarray:
    """Decide (x, y) in N((A, alpha)) from the two identity systems alone.

    x and y are elements of the undoubled stage A, or row stacks X (k, d)
    and Y (m, d) of them. Each system is one `_matmul_mod` contraction of
    the rows with its matrix from `identity_conditions(A)`. Two elements
    give a bool; otherwise the (k, m) table "X[i] solves the first system
    and Y[j] the second", a single element counting as a stack of one. Must
    agree with direct membership of concat(x, y) in associative_center(doubled);
    the `lemma-2.1` suite sweeps that equivalence exhaustively at desk scale.
    """
    parent = _require_doubled(doubled)
    X, Y = (_element_rows(parent, v) for v in (x, y))
    first, second = identity_conditions(parent)
    n = parent.modulus
    solves_first = ~_matmul_mod(X, first.array, n).any(axis=1)
    solves_second = ~_matmul_mod(Y, second.array, n).any(axis=1)
    table = solves_first[:, None] & solves_second[None, :]
    return bool(table[0, 0]) if np.ndim(x) == np.ndim(y) == 1 else table


def _element_rows(algebra: FiniteAlgebra, v) -> np.ndarray:
    """One element or a (k, d) stack of them, validated, as a reduced stack."""
    arr = np.asarray(v, dtype=np.int64)
    if arr.ndim not in (1, 2) or arr.shape[-1] != algebra.rank:
        raise DimensionMismatch(f"element has shape {arr.shape}, algebra rank is {algebra.rank}")
    return np.atleast_2d(arr) % algebra.modulus


def pair_coordinates(doubled: FiniteAlgebra, x, y) -> np.ndarray:
    """concat(x, y) as an element of the double."""
    parent = _require_doubled(doubled)
    return np.concatenate([parent.element(x), parent.element(y)])


__all__ = [
    "CenterReport",
    "EssentialityData",
    "associative_center",
    "commutative_center",
    "center",
    "commutator_ideal",
    "annihilator",
    "symmetric_center",
    "skew_span",
    "skew_annihilator",
    "essentiality_data",
    "predicted_associative_center",
    "predicted_center",
    "identity_conditions",
    "n_membership_by_identities",
    "pair_coordinates",
    "FIRST_COMPONENT_IDENTITIES",
    "SECOND_COMPONENT_IDENTITIES",
]
