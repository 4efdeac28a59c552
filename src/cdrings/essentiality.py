"""Deciders for centrally essential and N-essential rings.

Every definitional check is one quantifier, implemented once by `_scan`:
for every nonzero u of a universe U, the multiples {s u : s in S} meet a
target T outside 0. Centrally essential and left/right N-essential take
S = T = Z(R) or N(R) and U = R (right N-essential multiplies u s); an
essential ideal I of a ring C takes S = U = C and T = I. Neither is
listed: both are walks of their Howell rows (`Submodule.walk`, code order
for R and for every coordinate sum), S read by index (`residue._walker`)
and U walked a tile at a time (`residue._combinations`), and for each fixed
s the linear map u -> s u turns that walk into the walk of the images of
the generators, so every product s u is formed by additions in a narrow
unsigned dtype. A product p lies in T iff p @ W = 0 for a matrix W
whose columns span the dual of T, but the quantifier structure is exactly
the definition; nothing is replaced by algebraic shortcuts.

While the universe fits the enumeration budget the scan is the route
(`_decide`), so every such verdict, cost and witness is the scan's. Beyond
the budget `_socle` decides the same quantifier by linear algebra (method
"socle"): T is essential in the S-module M iff it contains the socle of
M, which lies in the small, explicit U = {m in M : rad(n) m = 0}. It is one
route for every algebra: products by S come from S's multiplication
matrices, and memberships, spans and meets are `Submodule` operations. It
raises EnumerationBudgetExceeded, an explicit skip, when S is not a unital
subring of N(R) acting on M and T, or when its last step would scan a U
beyond the budget.

The criteria route computes the same verdicts from stage data of the
undoubled algebra:

    (A, alpha) is left/right N-essential  <=>  A centrally essential and
                                               I essential ideal of C
    (A, alpha) is centrally essential     <=>  B essential B-submodule of A
                                               and J' = J cap I essential
                                               ideal of B

The rank-4 and rank-8 criteria ask whether Ann(2) is a proper essential
ideal of Z/nZ, which is the same ideal scan over the scalar ring.

Right N-essential is the mirror of the left definition (products r N instead
of N r); whether the two can ever differ is an open question, so the mirror
choice is flagged in the docs and the search tool treats it as searchable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import FiniteAlgebra, certify_central_scalar, is_commutative, scalar_ring
from .analysis import annihilator, associative_center, center, essentiality_data
from .errors import EnumerationBudgetExceeded
from .modn import prime_powers
from .presentations import require_units
from .residue import (
    DEFAULT_ENUMERATION_BUDGET,
    ResidueMatrix,
    Submodule,
    _combinations,
    _exact_dtype,
    _matmul_mod,
    _walker,
    intersect,
    kernel,
)


@dataclass(frozen=True)
class EssentialityVerdict:
    """Outcome of one essentiality decision.

    `method` records the route: "definitional" (the scan), "socle" (the
    over-budget decision of `_socle`, whose detail names its step and gives
    |U| and |S|) or "criterion" (a closed-form criterion). False scan and
    socle verdicts always carry a witness element that violates the
    defining condition: for a scan the first refuted pre-pass candidate,
    otherwise the first unmet element of the scanned universe (see
    `_scan`). Criterion verdicts propagate the witness of the failing
    clause when one exists (a failure like "not a proper ideal" has no
    element witness and carries only detail text). `cost` counts the
    products the scan's walk evaluates (see `_scan`); a pre-pass candidate
    stops at its first hit, so a scan's cost is usually far below |S| times
    |U|.
    """

    property_name: str
    verdict: bool
    method: str
    witness: tuple[int, ...] | None = None
    cost: int = 0
    detail: str = ""

    def __bool__(self) -> bool:
        return self.verdict


# Dense passes walk the universe at most this many elements at a time (more
# only when one generator's multiples alone outnumber it), so no pass holds
# a multi-MB temporary; see `_scan`.
_TILE = 4096


def _scan(
    algebra: FiniteAlgebra,
    multipliers: Submodule,
    target: Submodule,
    module: Submodule,
    *,
    side: str,
    property_name: str,
    detail: str,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> EssentialityVerdict:
    """Definitional scan: for every nonzero u in the submodule module, does
    some s in the submodule multipliers give a product s u (side='left') or
    u s (side='right') in target\\{0}?

    Neither submodule is listed. Each is its walk (`Submodule.walk`), whose
    index i names the element sum_k c_k g_k for the mixed-radix digits c_k of
    i over the Howell rows g_k (the first fastest), zero at index 0; for the
    whole algebra (`Submodule.full`) and every coordinate sum that is code
    order. The multipliers are read by index (`residue._walker`), and more
    than `budget` of them raise EnumerationBudgetExceeded before any product
    is formed; the module's walk is the universe. No verdict or witness
    depends on the order of S, only `cost` does. A witness
    pre-pass first tries a few fixed candidates u (universe indices 1..32
    and the powers n**k); each walks the multipliers in chunks of 64, 256,
    1024, ... and stops at the first chunk with a hit, so a candidate is
    refuted only after all of S. The first chunk is tried against every
    candidate at once: the candidates' multiplication matrices
    (`FiniteAlgebra.mul_matrices`, the right ones for s u and the left ones
    for u s), side by side, give every product of the chunk in one matrix
    product. A candidate it leaves unmet walks the later chunks alone, in
    candidate order, decoded `_TILE` multipliers at a time. Then the sweep
    runs s-outer over the universe elements still unmet, with the
    multipliers decoded and their matrices formed in blocks of 64 (one
    `mul_matrices` call per block): while more than a quarter are unmet, a
    dense pass forms the product of s with every element, else a sparse
    pass forms those of the unmet ones, decoded from their walk indices
    `_TILE` at a time. The witness of a False verdict is the first refuted
    candidate, otherwise the first unmet universe element. `cost` counts the
    products a candidate-by-candidate walk evaluates: each candidate up to
    the first refuted one adds its chunks, and the products of the shared
    first chunk that belong to later candidates are never counted.

    Membership in the target is read off its dual: the dot product is a
    perfect pairing on (Z/nZ)^d, so T = {p : p @ W = 0} where the columns of
    W generate T^perp = {w : t . w = 0 for all t in T}. The map u -> s u is
    linear, so a dense pass is itself a walk: with G the universe's
    generators and M the matrix of s, the rows of
    H = [G M mod n | (G M mod n) W mod n] walked with the universe's radices
    give (s u, s u W) for every u in walk order, one row per coordinate
    (`_combinations` walks coordinate-major), and a hit is "some product row
    nonzero and every pairing row zero". The pass walks the first generators
    of H once, into a tile of at most `_TILE` elements (more only when the
    first generator's multiples alone are more), in the narrowest unsigned
    dtype that holds 2(n - 1) (uint8 up to n = 128). Each offset o of the
    remaining digits, in walk order, moves the tile to the next block of the
    walk, and a row of tile + o is 0 mod n exactly where the tile's row
    equals -o mod n: so a block's hits are one comparison of the tile with
    -o, for as many offsets at once as fit `_TILE` elements, into one reused
    bool buffer. G M, H W and the rows decoded from indices are int64 sums
    of at most d products of residues, exact wherever `_require_exact`
    admits the algebra. The pre-pass and sparse passes contract rows in
    `_exact_dtype(n, d)`: float32 BLAS up to about n = 4096 / sqrt(d),
    float64 BLAS up to about n = 9.5e7 / sqrt(d), int64 beyond. Every s u
    the scan relies on is tested on its own coordinates, none inferred.
    """
    count = multipliers.order()
    if count > budget:
        raise EnumerationBudgetExceeded(count, budget)
    n, d = algebra.modulus, algebra.rank
    gens, radices = module.walk()
    total = module.order()

    multipliers_at = _walker(*multipliers.walk(), multipliers.modulus)
    universe_at = _walker(gens, radices, n)
    dtype = _exact_dtype(n, d)
    dual = kernel(ResidueMatrix(n, target.generators.T)).generators.T
    dual_t = dual.astype(dtype)
    ones, ones_dual = np.ones(d, dtype=dtype), np.ones(dual.shape[1], dtype=dtype)
    walk_dtype = np.min_scalar_type(2 * (n - 1))
    # A dense pass walks the first `fast` generators into a tile of `width`
    # elements, and `per` offsets of the other digits share one comparison
    # with it, in one reused buffer.
    fast = max(1, sum(math.prod(radices[: k + 1]) <= _TILE for k in range(len(radices))))
    width = math.prod(radices[:fast])
    offset_count = total // width
    per = min(offset_count, max(1, _TILE // width))
    is_zero = np.empty((d + dual.shape[1], per, width), dtype=bool)
    cost = 0

    def in_target(prods: np.ndarray) -> np.ndarray:
        """Which rows of prods (reduced, of `dtype`) lie in target\\{0}."""
        # Row sums through BLAS: residues are >= 0, so a zero sum is a zero row.
        return (prods @ ones > 0) & (_matmul_mod(prods, dual_t, n) @ ones_dual == 0)

    def hits_at(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """Which products rows @ mat lie in target\\{0}, uncounted."""
        return in_target(_matmul_mod(rows, mat, n))

    def chunk_hit(start: int, stop: int, mat: np.ndarray) -> bool:
        """Does a multiplier of walk indices start..stop - 1 give a product
        s @ mat in target\\{0}? The whole chunk is counted."""
        nonlocal cost
        cost += stop - start
        return any(
            hits_at(multipliers_at(np.arange(lo, min(lo + _TILE, stop))), mat).any()
            for lo in range(start, stop, _TILE)
        )

    def dense_pass(mat: np.ndarray) -> None:
        """Mark every u in walk order whose product u @ mat lies in
        target\\{0}: the walk of H (see above), one tile at a time."""
        nonlocal cost
        cost += total
        images = gens @ mat.astype(np.int64) % n
        h = np.hstack([images, images @ dual % n])
        tile = _combinations(h[:fast], radices[:fast], n, walk_dtype).T[:, None, :]
        offsets_at = _walker(h[fast:], radices[fast:], n)
        for lo in range(0, offset_count, _TILE):
            # A row of tile + o is 0 mod n where the tile's row equals -o mod n.
            negated = -offsets_at(np.arange(lo, min(lo + _TILE, offset_count))) % n
            negated = negated.astype(walk_dtype).T[:, :, None]
            for first in range(0, negated.shape[1], per):
                eq = is_zero[:, : min(per, negated.shape[1] - first)]
                np.equal(tile, negated[:, first : first + per], out=eq)
                # eq[:d] compares the products and eq[d:] their pairings.
                met = np.logical_and.reduce(eq[d:])
                met &= ~np.logical_and.reduce(eq[:d])
                start = (lo + first) * width
                satisfied[start : start + met.size] |= met.ravel()

    def refuted(u) -> EssentialityVerdict:
        witness = tuple(int(t) for t in u)
        return EssentialityVerdict(property_name, False, "definitional", witness, cost, detail)

    # Witness pre-pass: an unsatisfied candidate is already a complete
    # counterexample, which spares the full sweep in false cases.
    candidate_ids = sorted(
        set(range(1, min(33, total))) | {n**k for k in range(d) if n**k < total}
    )
    candidates = universe_at(candidate_ids)
    # s @ mats[:, c] is s u (side 'left') or u s, u the candidate c.
    mats = algebra.mul_matrices(candidates, "right" if side == "left" else "left")
    mats = mats.transpose(1, 0, 2)
    first = multipliers_at(np.arange(min(64, count))).astype(dtype, copy=False)
    prods = _matmul_mod(first, mats.reshape(d, -1), n).reshape(-1, d)
    met_first = in_target(prods).reshape(len(first), -1).any(axis=0)
    for c in range(len(candidate_ids)):
        cost += len(first)
        if met_first[c]:
            continue
        start, size = len(first), 256
        while start < count:
            if chunk_hit(start, min(start + size, count), mats[:, c]):
                break
            start, size = start + size, 4 * size
        else:
            return refuted(candidates[c])

    def sweep():
        """(s, matrix of s on `side`) in walk order, formed 64 at a time."""
        for lo in range(0, count, 64):
            block = multipliers_at(np.arange(lo, min(lo + 64, count)))
            yield from zip(block, algebra.mul_matrices(block, side))

    satisfied = np.zeros(total, dtype=bool)
    satisfied[0] = True  # u = 0 is outside the quantifier
    for s, mat in sweep():
        if not s.any():
            continue
        unmet = total - np.count_nonzero(satisfied)
        if unmet == 0:
            break
        if unmet > total // 4:
            # Dense pass over the whole universe: recomputing satisfied rows
            # is cheaper than gathering a large subset.
            dense_pass(mat)
        else:
            cost += unmet
            remaining = np.flatnonzero(~satisfied)
            for lo in range(0, unmet, _TILE):
                ids = remaining[lo : lo + _TILE]
                satisfied[ids[hits_at(universe_at(ids), mat)]] = True
    if satisfied.all():
        return EssentialityVerdict(property_name, True, "definitional", None, cost)
    return refuted(universe_at(np.flatnonzero(~satisfied)[:1])[0])


_SOCLE_STEPS = {
    "a": "U = ann_M(rad(n)) lies in the target",
    "b": "the multiples of the witness by S miss the target",
    "c": "scan of U",
}


def _socle(
    algebra: FiniteAlgebra,
    ring: Submodule,
    target: Submodule,
    module: Submodule,
    *,
    side: str,
    property_name: str,
    budget: int,
) -> EssentialityVerdict:
    """Is target essential in module as a left (or right) module over ring,
    decided on the socle-bounded universe instead of the whole module.

    With S = ring, T = target and M = module: when S is a unital subring of
    N(R) and S M in M, S T in T, M is an S-module, T a submodule of it, and
    the scan's quantifier (S u meets T\\{0} for every nonzero u in M) says
    T is essential in M. For a finite ring S, T is essential iff
    soc_S(M) = ann_M(J(S)) lies in T (Anderson-Fuller, sections 9 and 15).
    J' = rad(n) S is a nilpotent ideal, so J' lies in J(S), and, 1 being in
    S, U = ann_M(J') = {m in M : rad(n) m = 0} contains the socle. Then:
      (a) U in T: True;
      (b) some u = e g, g a generator of U and e an idempotent of the CRT
          split of Z/nZ, is nonzero with S u meeting T only in 0 (S u is
          spanned by the products of S's generators with u): False, witness u;
      (c) otherwise the scan of U alone decides, since every simple
          submodule of M lies in U; over budget, it raises.
    One membership of the candidates e g in T serves (a) and (b).
    The precondition is checked on generators first, once per distinct
    submodule among S, T and M; when it fails, the check raises
    EnumerationBudgetExceeded(|M|, budget), as an over-budget scan of M
    would. Every product by S is read off S's own multiplication matrices
    (`FiniteAlgebra.mul_matrices` on `side`), formed once per check, and
    every membership, span and meet is a `Submodule` operation, which
    takes gcds on coordinate sums. `cost` counts the products of step
    (c)'s scan.
    """
    n, d = algebra.modulus, algebra.rank
    split = prime_powers(n)
    rad = math.prod(p for p, _ in split)
    idempotents = np.array([(n // q) * pow(n // q, -1, q) % n for _, q in split])
    mats = algebra.mul_matrices(ring.generators, side)

    def times_ring(rows):
        """Every product of a generator of S with a row (s r, or r s), as rows."""
        return _matmul_mod(rows, mats, n).reshape(-1, d)

    subs = dict.fromkeys((ring, target, module))  # S, T and M, each once
    sound = (
        ring.contains(algebra.unit)
        and associative_center(algebra).contains(ring.generators).all()
        and all(sub.contains(times_ring(sub.generators)).all() for sub in subs)
    )
    if not sound:
        raise EnumerationBudgetExceeded(module.order(), budget)
    U = module if rad == n else intersect(module, Submodule.coordinate_sum(n, np.full(d, rad)))
    # The candidates e u of step (b), u-major. The idempotents sum to 1, so
    # U lies in T iff every candidate does, and one in T (zero among them)
    # is no witness: S is unital, so S w contains w.
    candidates = (U.generators[:, None] * idempotents[:, None] % n).reshape(-1, d)
    outside = candidates[~target.contains(candidates)]
    step, witness = ("c" if len(outside) else "a"), None
    for w in outside:
        if intersect(Submodule.span(n, times_ring(w[None]), d), target).is_zero:
            step, witness = "b", w
            break
    detail = f"socle step ({step}): {_SOCLE_STEPS[step]}; |U| = {U.order()}, |S| = {ring.order()}"
    if step == "a":
        return EssentialityVerdict(property_name, True, "socle", None, 0, detail)
    if step == "b":
        return EssentialityVerdict(
            property_name, False, "socle", tuple(int(t) for t in witness), 0, detail
        )
    if U.order() > budget:
        raise EnumerationBudgetExceeded(U.order(), budget)
    # rad(n) u = 0 makes s u depend on s mod rad(n) only, so S enters the
    # scan as its image in (Z/rad(n))^d, lifted to residues below rad(n).
    image = ring if rad == n else Submodule.span(rad, ring.generators % rad, algebra.rank)
    scan = _scan(
        algebra, image, target, U,
        side=side, property_name=property_name, detail=detail, budget=budget,
    )
    return replace(scan, method="socle", detail=detail)


def _decide(
    algebra: FiniteAlgebra,
    multipliers: Submodule,
    target: Submodule,
    module: Submodule,
    *,
    side: str,
    property_name: str,
    detail: str,
    budget: int,
) -> EssentialityVerdict:
    """Is target essential in module over multipliers: scanned (`_scan`)
    while the module fits the budget, decided on the socle-bounded universe
    (`_socle`) beyond it."""
    if module.order() > budget:
        return _socle(
            algebra, multipliers, target, module,
            side=side, property_name=property_name, budget=budget,
        )
    return _scan(
        algebra, multipliers, target, module,
        side=side, property_name=property_name, detail=detail, budget=budget,
    )


def _scan_ambient(
    algebra: FiniteAlgebra,
    sub: Submodule,
    property_name: str,
    *,
    budget: int,
    side: str = "left",
) -> EssentialityVerdict:
    """Is sub essential in R as a module over itself: does sub r (or r sub)
    meet sub\\{0} for every nonzero r?"""
    return _decide(
        algebra, sub, sub, Submodule.full(algebra.modulus, algebra.rank),
        side=side, property_name=property_name,
        detail=f"{side} multiples of the submodule by the witness miss it", budget=budget,
    )


def is_essential_submodule(
    sub: Submodule,
    algebra: FiniteAlgebra,
    *,
    property_name: str = "essential submodule",
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> EssentialityVerdict:
    """True iff sub*r meets sub nontrivially for every nonzero r in A."""
    return _scan_ambient(algebra, sub, property_name, budget=budget)


def is_essential_ideal(
    ideal: Submodule,
    ring: Submodule,
    algebra: FiniteAlgebra,
    *,
    property_name: str = "essential ideal",
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> EssentialityVerdict:
    """True iff for every nonzero c in ring, {s c : s in ring} meets ideal\\{0}.

    ideal must sit inside ring; the scan enumerates the ring, not the whole
    algebra or the ideal, so desk-scale centers stay cheap even in big
    ambient modules. A ring beyond the budget is decided by `_socle`.
    """
    if not ring.contains(ideal.generators).all():
        raise ValueError("ideal is not contained in the ring it should be essential in")
    return _decide(
        algebra, ring, ideal, ring,
        side="left", property_name=property_name,
        detail="ring multiples of the witness miss the ideal", budget=budget,
    )


def is_centrally_essential(
    algebra: FiniteAlgebra, *, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> EssentialityVerdict:
    """Definitional check of Z(R) r cap Z(R) != 0 for all nonzero r."""
    return _scan_ambient(algebra, center(algebra).Z, "centrally essential", budget=budget)


def is_left_n_essential(
    algebra: FiniteAlgebra, *, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> EssentialityVerdict:
    return _scan_ambient(algebra, associative_center(algebra), "left N-essential", budget=budget)


def is_right_n_essential(
    algebra: FiniteAlgebra, *, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> EssentialityVerdict:
    return _scan_ambient(
        algebra, associative_center(algebra), "right N-essential", budget=budget, side="right"
    )


def _conjunction(name: str, clauses) -> EssentialityVerdict:
    """Criterion verdict from lazily produced (verdict, failure detail)
    clauses: the first failing one decides and lends its witness."""
    cost = 0
    for verdict, failure in clauses:
        cost += verdict.cost
        if not verdict.verdict:
            return EssentialityVerdict(name, False, "criterion", verdict.witness, cost, failure)
    return EssentialityVerdict(name, True, "criterion", None, cost)


def _stage_criterion(
    name: str, algebra: FiniteAlgebra, alpha, budget: int, clauses
) -> EssentialityVerdict:
    """Certify alpha, then decide `clauses(essentiality_data(algebra))` once
    per (name, budget): no clause depends on alpha, so every certified alpha
    shares one verdict, kept in `algebra.memo`. An over-budget scan raises
    and leaves nothing there."""
    certify_central_scalar(algebra, alpha)
    key = (name, budget)
    if key not in algebra.memo:
        algebra.memo[key] = _conjunction(name, clauses(essentiality_data(algebra)))
    return algebra.memo[key]


def n_essential_criterion(
    algebra: FiniteAlgebra,
    alpha=1,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> EssentialityVerdict:
    """Criterion for (A, alpha) being N-essential, from stage-A data only.

    Verdict: A centrally essential and I = Ann_C([A,A]) an essential ideal
    of C. Must match the definitional verdict on the double whenever that
    one is computable.
    """

    def clauses(data):
        yield (
            is_centrally_essential(algebra, budget=budget),
            "stage algebra is not centrally essential",
        )
        yield (
            is_essential_ideal(data.I, data.C, algebra, budget=budget),
            "I is not an essential ideal of the center",
        )

    return _stage_criterion("N-essential (criterion)", algebra, alpha, budget, clauses)


def centrally_essential_criterion(
    algebra: FiniteAlgebra,
    alpha=1,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> EssentialityVerdict:
    """Criterion for (A, alpha) being centrally essential, from stage-A data.

    Verdict: B an essential B-submodule of A and J' = J cap I an essential
    ideal of B. (The submodule condition is quantified over the stage
    algebra, which is what the pair decomposition of the double reduces to.)
    """

    def clauses(data):
        yield (
            is_essential_submodule(
                data.B, algebra, property_name="B essential in stage algebra", budget=budget
            ),
            "B is not an essential B-submodule of the stage algebra",
        )
        yield (
            is_essential_ideal(intersect(data.J, data.I), data.B, algebra, budget=budget),
            "J' = J cap I is not an essential ideal of B",
        )

    return _stage_criterion("centrally essential (criterion)", algebra, alpha, budget, clauses)


# -- scalar-ring criteria for the rank-4 and rank-8 presentations -------------


def ann2_ideal(n: int) -> tuple[Submodule, Submodule, FiniteAlgebra]:
    """Ann(2) = {x : 2x = 0 mod n}, with Z/nZ as a submodule and as an algebra."""
    base = scalar_ring(n)
    ring = Submodule.full(n, 1)
    return annihilator(Submodule.span(n, [[2]], 1), ring, base), ring, base


def _scalar_criterion(name: str, n: int, params) -> EssentialityVerdict:
    """Holds iff Ann(2) is a proper essential ideal of Z/nZ."""
    require_units(n, *params)
    ann2, ring, base = ann2_ideal(n)
    if ann2 == ring:
        why = "the annihilator of 2 is the whole ring (not proper)"
        return EssentialityVerdict(name, False, "criterion", None, 0, why)
    ess = is_essential_ideal(ann2, ring, base)
    why = "" if ess else f"multiples of {ess.witness[0]} miss the annihilator of 2 (not essential)"
    return EssentialityVerdict(name, ess.verdict, "criterion", ess.witness, ess.cost, why)


def quaternion_criterion(n: int, a: int, b: int) -> EssentialityVerdict:
    """Is the rank-4 algebra (a, b over Z/nZ) non-commutative centrally
    essential? Holds iff Ann(2) is a proper essential ideal of Z/nZ."""
    return _scalar_criterion(
        "non-commutative centrally essential (quaternion criterion)", n, (a, b)
    )


def octonion_criterion(n: int, a: int, b: int, c: int) -> EssentialityVerdict:
    """Is the rank-8 algebra (a, b, c over Z/nZ) non-associative centrally
    essential? Holds iff Ann(2) is a proper essential ideal of Z/nZ."""
    return _scalar_criterion(
        "non-associative centrally essential (octonion criterion)", n, (a, b, c)
    )


def noncommutative_centrally_essential_definitional(
    algebra: FiniteAlgebra, *, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> EssentialityVerdict:
    """Definitional counterpart of the quaternion criterion."""
    ce = is_centrally_essential(algebra, budget=budget)
    commutative = is_commutative(algebra)
    verdict = ce.verdict and not commutative
    detail = "" if verdict else ("commutative" if commutative else ce.detail)
    return EssentialityVerdict(
        "non-commutative centrally essential (definitional)",
        verdict,
        ce.method,
        ce.witness if not ce.verdict else None,
        ce.cost,
        detail,
    )
