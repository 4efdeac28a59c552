"""Centers, commutator ideals, annihilators, and their closed forms.

Every center is computed as the left kernel of a stacked basis-indexed
linear system, never by element enumeration, so rank-16 algebras over Z4
stay analyzable. Enumeration is reserved for the desk-scale oracles in the
test suite.

For a doubled algebra R = (A, alpha) the same data admits closed forms built
from stage-A invariants:

    N(R) = {(x, y) : x in C, y in I}         C = Z(A), I = Ann_C([A, A])
    Z(R) = {(x, y) : x in B∩C, y in I∩J}     B = symmetric part of C,
                                             J = Ann_B({a - a* : a in A})

`predicted_associative_center` / `predicted_center` assemble those and are
required to coincide exactly (as canonical submodules) with the direct
kernel computations; the verification suites sweep that equality.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import FiniteAlgebra, associator_tensor, product_tensors
from .doubling import _require_doubled
from .errors import StageMismatch
from .residue import ResidueMatrix, Submodule, _distinct_columns, intersect, kernel


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

    Each condition is linear in x once a, b range over basis pairs, so N is
    the left kernel of the associator tensor with x moved to each of its
    three slots in turn, the blocks stacked horizontally. Each d x d^3 block
    is cut to its distinct columns before stacking, so the full d x 3d^3
    stack is never built.
    """
    n, d = algebra.modulus, algebra.rank
    t = associator_tensor(algebra)
    blocks = [_distinct_columns(np.moveaxis(t, s, 0).reshape(d, -1), n) for s in range(3)]
    return kernel(ResidueMatrix(n, np.concatenate(blocks, axis=1)))


def commutative_center(algebra: FiniteAlgebra) -> Submodule:
    """K = {x : [x, a] = 0 for all a}."""
    n, d = algebra.modulus, algebra.rank
    c = algebra.structure
    # block[p, i, k] = (R_i - L_i)[p, k], so x @ block stacks all [x, e_i]
    block = (c - c.transpose(1, 0, 2)) % n
    return kernel(ResidueMatrix(n, block.reshape(d, d * d)))


@_memoized
def center(algebra: FiniteAlgebra) -> CenterReport:
    N = associative_center(algebra)
    K = commutative_center(algebra)
    return CenterReport(algebra.name, N, K, intersect(N, K))


def commutator_ideal(algebra: FiniteAlgebra) -> Submodule:
    """Least ideal containing all commutators.

    Seeded with the basis commutators and closed under left and right
    multiplication by basis elements until the canonical form stabilizes;
    one-sided closure is not enough in a non-associative ring.
    """
    n, d = algebra.modulus, algebra.rank
    c = algebra.structure
    seed = (c - c.transpose(1, 0, 2)).reshape(d * d, d) % n
    span = Submodule.span(n, seed, d)
    while True:
        gens = span.generators
        if gens.shape[0] == 0:
            return span
        right = np.einsum("gp,pik->gik", gens, c).reshape(-1, d) % n
        left = np.einsum("gq,iqk->gik", gens, c).reshape(-1, d) % n
        grown = Submodule.span(n, np.vstack([gens, right, left]), d)
        if grown == span:
            return span
        span = grown


def annihilator(s: Submodule, within: Submodule, algebra: FiniteAlgebra) -> Submodule:
    """{r in within : r * g = 0 for every generator g of s}.

    Linearity of the action extends the generator condition to all of s.
    """
    if s.ambient_rank != algebra.rank or within.ambient_rank != algebra.rank:
        raise StageMismatch("submodules do not live in this algebra's module")
    if s.is_zero:
        return within
    blocks = [algebra.right_mul_matrix(g) for g in s.generators]
    conditions = ResidueMatrix(algebra.modulus, np.hstack(blocks))
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
    map lhs - rhs of the variable."""
    blocks = np.stack(
        [_term_map(products, lhs, var) - _term_map(products, rhs, var) for lhs, rhs in identities],
        axis=1,
    )
    return ResidueMatrix(stage.modulus, blocks.reshape(stage.rank, -1))


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


def n_membership_by_identities(doubled: FiniteAlgebra, x, y) -> bool:
    """Decide (x, y) in N((A, alpha)) from the two identity systems alone.

    x and y are elements of the undoubled stage A; the systems are tested as
    the matrix products of `identity_conditions(A)`. Must agree with direct
    membership of concat(x, y) in associative_center(doubled); the suites
    sweep that equivalence exhaustively at desk scale.
    """
    parent = _require_doubled(doubled)
    x = parent.element(x)
    y = parent.element(y)
    first, second = identity_conditions(parent)
    n = parent.modulus
    return not (x @ first.array % n).any() and not (y @ second.array % n).any()


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
