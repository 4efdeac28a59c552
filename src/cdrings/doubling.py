"""Doubling construction: build (A, alpha) from A and a certified parameter.

The product on pairs is

    (a, b) * (c, d) = (a c + alpha (d b*),  a* d + c b)

and the involution of the double is (a, b)* = (a*, -b). The double's basis
is the d first-copy vectors followed by the d second-copy vectors, so a pair
(a, b) has coordinates concat(a, b). With nu = (0, 1) this convention gives
nu * (a, 0) = (0, a) and (a, 0) * nu = (0, a*), i.e. nu a = a* nu, and
nu^2 = alpha; those facts are asserted by the test suite directly from the
product formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    CentralScalar,
    FiniteAlgebra,
    _diagonal,
    certify_central_scalar,
    ensure_valid,
    scalar_ring,
)
from .errors import AlgebraError, CertificationError, RankBudgetExceeded, StageMismatch
from .residue import _matmul_mod

DEFAULT_MAX_RANK = 64


@dataclass(frozen=True)
class TowerSpec:
    """Base modulus plus the ordered doubling parameters.

    Each parameter is an int (meaning that scalar multiple of the stage unit)
    or a coordinate vector in the algebra built so far. Stage i labels its
    second-copy basis with `v<i>` (`v1`, `v2`, ...).
    """

    base_modulus: int
    params: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))


def _doubled_labels(labels: list[str], symbol: str) -> list[str]:
    second = [symbol if lbl == "1" else f"{lbl}{symbol}" for lbl in labels]
    return labels + second


def _param_text(algebra: FiniteAlgebra, value: np.ndarray) -> str:
    nonzero = np.nonzero(value)[0]
    if len(nonzero) == 1 and nonzero[0] == 0 and np.array_equal(
        value, (value[0] * algebra.unit) % algebra.modulus
    ):
        return str(int(value[0]))
    return algebra.format_element(value)


def double(
    algebra: FiniteAlgebra,
    alpha,
    *,
    symbol: str | None = None,
) -> FiniteAlgebra:
    """The double (A, alpha) of rank 2d over the same modulus.

    alpha may be an int, a coordinate vector, or an already certified
    CentralScalar; a CentralScalar is never trusted, its value is certified
    (central, symmetric, invertible) against `algebra` here, and only
    `algebra`'s own record of the values it has certified spares the checks.

    A twisted group algebra with unit e_0 and a diagonal involution doubled
    by a scalar a 1 is doubled on its twist (`_double_by_twist`); any other
    input on its structure tensor (`_double_by_tensor`), the oracle of the
    twisted route. Both give the same algebra.
    """
    ensure_valid(algebra)
    cert = certify_central_scalar(algebra, alpha)
    meta = {
        "labels": _doubled_labels(algebra.labels, symbol if symbol is not None else "v"),
        "name": f"({algebra.name},{_param_text(algebra, cert.value)})",
        "parent": algebra,
        "alpha": cert,
    }
    a = _twisted_scalar(algebra, cert.value)
    if a is None:
        doubled = _double_by_tensor(algebra, cert.value, **meta)
    else:
        doubled = _double_by_twist(algebra, a, **meta)
    return ensure_valid(doubled)


def _twisted_scalar(algebra: FiniteAlgebra, alpha_vec: np.ndarray) -> int | None:
    """a when alpha_vec = a e_0 and `algebra` is a twisted group algebra with
    unit e_0 and a diagonal involution, else None."""
    if algebra.twist is None or _diagonal(algebra.involution) is None:
        return None
    if algebra.unit[0] != 1 or algebra.unit[1:].any() or alpha_vec[1:].any():
        return None
    return int(alpha_vec[0])


def _double_by_twist(algebra: FiniteAlgebra, a: int, **meta) -> FiniteAlgebra:
    """The double by a 1 of a twisted group algebra with unit e_0 and the
    diagonal involution e_i* = s_i e_i, built from its twist f with d^2 work.

    The second copy's e_j is e_{d + j}, and d + j = d xor j, so the double is
    twisted too, with F = [[f, s_i f(i, j)], [f(j, i), a s_i f(j, i)]]: by
    the product rule (e_i, 0)(0, e_j) = (0, e_i* e_j), (0, e_i)(e_j, 0) =
    (0, e_j e_i) and (0, e_i)(0, e_j) = (a e_j e_i*, 0). Each product is
    of two residues, reduced before the next. The involution is diag(s, -1)
    and the unit stays e_0. The double's structure tensor is built only if
    a reader asks for it (`FiniteAlgebra.from_twist`)."""
    n, d, f = algebra.modulus, algebra.rank, algebra.twist
    s = np.diagonal(algebra.involution)
    twist = np.empty((2 * d, 2 * d), dtype=np.int64)
    twist[:d, :d] = f
    twist[:d, d:] = s[:, None] * f % n
    twist[d:, :d] = f.T
    twist[d:, d:] = (a * s % n)[:, None] * f.T % n
    unit = np.zeros(2 * d, dtype=np.int64)
    unit[0] = 1
    sigma = np.diag(np.concatenate([s, np.full(d, n - 1)]))
    return FiniteAlgebra.from_twist(n, twist, unit, sigma, **meta)


def _double_by_tensor(algebra: FiniteAlgebra, alpha_vec: np.ndarray, **meta) -> FiniteAlgebra:
    """The double by alpha_vec of any algebra, built on its structure tensor.

    The new blocks are multiplication matrices of the old algebra
    (`FiniteAlgebra.mul_matrices`): the block of a* b holds the left matrix
    of e_i* at i, that of b a* the right matrix of e_i*, and
    alpha (b a*) is that times the left matrix of alpha.
    """
    n, d = algebra.modulus, algebra.rank
    sigma = algebra.involution
    left = algebra.mul_matrices(np.vstack([sigma, alpha_vec]), "left")  # e_i*, then alpha

    big = np.zeros((2 * d, 2 * d, 2 * d), dtype=np.int64)
    big[:d, :d, :d] = algebra.structure
    # (a, 0)(0, b) = (0, a* b)
    big[:d, d:, d:] = left[:d]
    # (0, a)(b, 0) = (0, b a)
    big[d:, :d, d:] = algebra.structure.transpose(1, 0, 2)
    # (0, a)(0, b) = (alpha (b a*), 0); ba_star[i, j] = e_j e_i*
    ba_star = algebra.mul_matrices(sigma, "right")
    big[d:, d:, :d] = _matmul_mod(ba_star.reshape(d * d, d), left[d], n).reshape(d, d, d)

    unit2 = np.concatenate([algebra.unit, np.zeros(d, dtype=np.int64)])
    sigma2 = np.zeros((2 * d, 2 * d), dtype=np.int64)
    sigma2[:d, :d] = sigma
    sigma2[d:, d:] = (-np.eye(d, dtype=np.int64)) % n
    return FiniteAlgebra(n, big, unit2, sigma2, **meta)


def _next_stage(stages: list[FiniteAlgebra], param, max_rank: int) -> FiniteAlgebra:
    """Stage i = len(stages): stages[-1] doubled by param, labelled `v<i>`."""
    idx, current = len(stages), stages[-1]
    if 2 * current.rank > max_rank:
        raise RankBudgetExceeded(
            f"stage {idx} would have rank {2 * current.rank} > limit {max_rank}"
        )
    try:
        return double(current, param, symbol=f"v{idx}")
    except CertificationError as exc:
        raise type(exc)(f"stage {idx}: {exc}") from exc


def build_tower(
    spec: TowerSpec,
    *,
    max_rank: int = DEFAULT_MAX_RANK,
) -> list[FiniteAlgebra]:
    """All stages of the tower, from the rank-1 base ring upward.

    Stage 0 is Z/nZ with the identity involution; stage i+1 doubles stage i
    by the (stage-by-stage certified) parameter alpha_{i+1}.
    """
    stages = [scalar_ring(spec.base_modulus)]
    for param in spec.params:
        stages.append(_next_stage(stages, param, max_rank))
    return stages


def _grown(stages, param):
    """stages plus its next stage, or the AlgebraError that prevents it."""
    if isinstance(stages, AlgebraError):
        return stages
    try:
        return stages + [_next_stage(stages, param, DEFAULT_MAX_RANK)]
    except AlgebraError as exc:
        return exc.with_traceback(None)  # kept for every extension, so drop its frames


def unit_towers(base: int, depth: int):
    """Yield (params, stages) for every unit-parameter tower over Z/base of
    depth 0 to `depth`: one depth at a time, each in `itertools.product`
    order of the units.

    Every tower extends its prefix from the previous depth, so each stage is
    built once and nothing deeper than `depth` is built. A tower that cannot
    be built yields its AlgebraError in place of its stages (as do all of
    its extensions), exactly as `build_tower` would raise it.
    """
    try:
        level = [((), [scalar_ring(base)])]
    except AlgebraError as exc:
        level = [((), exc)]
    yield from level
    units = [u for u in range(1, base) if math.gcd(u, base) == 1] if depth else []
    for _ in range(depth):
        deeper = []
        for params, stages in level:
            for u in units:
                deeper.append((params + (u,), _grown(stages, u)))
                yield deeper[-1]
        level = deeper


def tower(base_modulus: int, *params, max_rank: int = DEFAULT_MAX_RANK) -> FiniteAlgebra:
    """Final stage of build_tower, for quick construction."""
    return build_tower(TowerSpec(base_modulus, params), max_rank=max_rank)[-1]


def _require_doubled(algebra: FiniteAlgebra) -> FiniteAlgebra:
    if algebra.parent is None:
        raise StageMismatch(f"{algebra.name} was not produced by doubling")
    return algebra.parent


def nu(algebra: FiniteAlgebra) -> np.ndarray:
    """The adjoined generator (0, 1) of a doubled algebra."""
    parent = _require_doubled(algebra)
    return np.concatenate([np.zeros(parent.rank, dtype=np.int64), parent.unit])


def embed(algebra: FiniteAlgebra, a) -> np.ndarray:
    """First-copy embedding a -> (a, 0) of the parent into the double."""
    parent = _require_doubled(algebra)
    a = parent.element(a)
    return np.concatenate([a, np.zeros(parent.rank, dtype=np.int64)])


def split(algebra: FiniteAlgebra, x) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the pair convention: coordinates (a, b) of an element."""
    parent = _require_doubled(algebra)
    x = algebra.element(x)
    return x[: parent.rank], x[parent.rank :]
