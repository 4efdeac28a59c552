"""Deciders for centrally essential and N-essential rings.

Every definitional check is one quantifier, implemented once by `_scan`:
for every nonzero u of a universe U, the multiples {s u : s in S} meet a
target T outside 0. Centrally essential and left/right N-essential take
S = T = Z(R) or N(R) and U = R (right N-essential multiplies u s); an
essential ideal I of a ring C takes S = U = C and T = I. The products are
batched (for each fixed s the map u -> s u is one matrix product over U),
and a product p lies in T iff p @ W = 0 for a matrix W whose columns span
the dual of T, but the quantifier structure is exactly the definition;
nothing is replaced by algebraic shortcuts.

While the universe fits the enumeration budget the scan is the route, so
every such verdict, cost and witness is the scan's. Beyond the budget
`_socle` decides the same quantifier by linear algebra (method "socle"):
T is essential in the S-module M iff it contains the socle of M, which lies
in the small, explicit U = {m in M : rad(n) m = 0}. It raises
EnumerationBudgetExceeded, an explicit skip, when S is not a unital subring
of N(R) acting on M and T, or when its last step would scan a U beyond the
budget.

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

from .algebra import FiniteAlgebra, _twist, certify_central_scalar, is_commutative, scalar_ring
from .analysis import annihilator, associative_center, center, essentiality_data
from .errors import EnumerationBudgetExceeded
from .modn import prime_powers
from .presentations import require_units
from .residue import (
    DEFAULT_ENUMERATION_BUDGET,
    ResidueMatrix,
    Submodule,
    _exact_dtype,
    _reduce,
    all_vectors,
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


def _code_order(rows: np.ndarray, n: int) -> np.ndarray:
    """The order of residue rows by their last coordinate first, equal to
    `np.lexsort(rows.T)` (all_vectors order), sorted on ceil(d / p) packed
    int64 keys instead of d: key g holds coordinates gp .. gp + p - 1 as the
    base-n number they spell (the last the most significant), and p is the
    largest power with n^p < 2^62, so every key is exact and two rows tie
    exactly when they are equal."""
    d = rows.shape[1]
    p = 1
    while n ** (p + 1) < 2**62:
        p += 1
    weights = np.zeros((d, -(-d // p)), dtype=np.int64)
    weights[np.arange(d), np.arange(d) // p] = [n ** (j % p) for j in range(d)]
    return np.lexsort((rows @ weights).T)


def _scan(
    algebra: FiniteAlgebra,
    multipliers: np.ndarray,
    target: Submodule,
    universe: np.ndarray,
    *,
    side: str,
    property_name: str,
    detail: str,
) -> EssentialityVerdict:
    """Definitional scan: for every nonzero u in universe, does some s in
    multipliers give a product s u (side='left') or u s (side='right') in
    target\\{0}?

    Both arrays hold element rows; universe lists zero first. Multipliers are
    tried in all_vectors order (0, the unit and its scalar multiples first),
    found by `_code_order`. A witness pre-pass first tries a few fixed
    candidates u (universe indices 1..32 and the powers n**k); each walks the
    multipliers in chunks of 64, 256, 1024, ... and stops at the first chunk
    with a hit, so a candidate is refuted only after all of S. The first
    chunk is tried against every candidate at once: one contraction of the
    candidates with the structure tensor gives all their multiplication
    matrices side by side, and one matrix product gives every product of the
    chunk. A candidate it leaves unmet walks the later chunks alone, in
    candidate order. Then the sweep runs s-outer, each step one batched
    matrix product over the universe elements still unmet. The witness of a
    False verdict is the first refuted candidate, otherwise the first unmet
    universe element. `cost` counts the products a candidate-by-candidate
    walk evaluates: each candidate up to the first refuted one adds its
    chunks, and the products of the shared first chunk that belong to later
    candidates are never counted.

    Membership in the target is read off its dual: the dot product is a
    perfect pairing on (Z/nZ)^d, so T = {p : p @ W = 0} where the columns of
    W generate T^perp = {w : t . w = 0 for all t in T}. Every contraction is a
    sum of at most d products of residues, so products and residues are kept
    in `_exact_dtype(n, d)`: float32 BLAS up to about n = 4096 / sqrt(d),
    float64 BLAS up to about n = 9.5e7 / sqrt(d), int64 beyond.
    """
    n, d = algebra.modulus, algebra.rank
    total = len(universe)
    # The order is kept as indices because a sorted copy of the multipliers
    # would sit in memory next to the caller's array.
    order = _code_order(multipliers, n)
    dtype = _exact_dtype(n, d)
    dual = kernel(ResidueMatrix(n, target.generators.T)).generators.T.astype(dtype)
    ones, ones_dual = np.ones(d, dtype=dtype), np.ones(dual.shape[1], dtype=dtype)
    cost = 0

    def in_target(prods: np.ndarray) -> np.ndarray:
        """Which rows of prods (reduced, of `dtype`) lie in target\\{0}."""
        # Row sums through BLAS: residues are >= 0, so a zero sum is a zero row.
        return (prods @ ones > 0) & (_reduce(prods @ dual, n) @ ones_dual == 0)

    def hits(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """Which products rows @ mat (rows already of `dtype`) lie in
        target\\{0}."""
        nonlocal cost
        cost += len(rows)
        return in_target(_reduce(rows @ mat.astype(dtype), n))

    def refuted(u) -> EssentialityVerdict:
        witness = tuple(int(t) for t in u)
        return EssentialityVerdict(property_name, False, "definitional", witness, cost, detail)

    # Witness pre-pass: an unsatisfied candidate is already a complete
    # counterexample, which spares the full sweep in false cases.
    candidate_ids = sorted(
        set(range(1, min(33, total))) | {n**k for k in range(d) if n**k < total}
    )
    # mats[:, c] is the matrix of candidate c: s @ mats[:, c] = s u (left) or u s.
    spec = "uj,ijk->iuk" if side == "left" else "ui,ijk->juk"
    mats = (np.einsum(spec, universe[candidate_ids], algebra.structure) % n).astype(dtype)
    first = multipliers[order[:64]].astype(dtype, copy=False)
    prods = _reduce(first @ mats.reshape(d, -1), n).reshape(-1, d)
    met_first = in_target(prods).reshape(len(first), -1).any(axis=0)
    for c, uid in enumerate(candidate_ids):
        cost += len(first)
        if met_first[c]:
            continue
        start, size = len(first), 256
        while start < len(order):
            chunk = multipliers[order[start : start + size]].astype(dtype, copy=False)
            if hits(chunk, mats[:, c]).any():
                break
            start, size = start + size, 4 * size
        else:
            return refuted(universe[uid])

    satisfied = np.zeros(total, dtype=bool)
    satisfied[0] = True  # u = 0 is outside the quantifier
    universe_t = universe.astype(dtype, copy=False)
    for i in order:
        s = multipliers[i]
        if not s.any():
            continue
        remaining = np.flatnonzero(~satisfied)
        if len(remaining) == 0:
            break
        mat = algebra.left_mul_matrix(s) if side == "left" else algebra.right_mul_matrix(s)
        if len(remaining) > total // 4:
            # Dense pass over the whole universe: recomputing satisfied rows
            # is cheaper than gathering a large subset.
            satisfied |= hits(universe_t, mat)
        else:
            satisfied[remaining[hits(universe_t[remaining], mat)]] = True
    if satisfied.all():
        return EssentialityVerdict(property_name, True, "definitional", None, cost)
    return refuted(universe[int(np.flatnonzero(~satisfied)[0])])


def _products(algebra: FiniteAlgebra, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Every product a b, a a row of left and b a row of right, as rows,
    each contraction reduced before the next so int64 stays exact."""
    n = algebra.modulus
    mats = np.einsum("ai,ijk->ajk", left, algebra.structure) % n
    return (np.einsum("bj,ajk->abk", right, mats) % n).reshape(-1, algebra.rank)


def _inside(rows: np.ndarray, sub: Submodule) -> bool:
    """Every row lies in sub: spanned with its generators, they give sub back."""
    return Submodule.span(sub.modulus, np.vstack([sub.generators, rows]), sub.ambient_rank) == sub


def _socle_by_kernels(algebra, ring, target, module, side, rad, idempotents):
    """The steps of `_socle` for any algebra, by spans and intersections;
    None when the precondition fails, else (U, step, witness)."""
    n, d = algebra.modulus, algebra.rank
    s = ring.generators

    def times_ring(rows):
        return _products(algebra, s, rows) if side == "left" else _products(algebra, rows, s)

    sound = (
        ring.contains(algebra.unit)
        and _inside(s, associative_center(algebra))
        and _inside(_products(algebra, s, s), ring)
        and _inside(times_ring(target.generators), target)
        and _inside(times_ring(module.generators), module)
    )
    if not sound:
        return None
    U = module if rad == n else intersect(module, Submodule.coordinate_sum(n, np.full(d, rad)))
    if _inside(U.generators, target):
        return U, "a", None
    for u in U.generators:
        for e in idempotents:
            w = e * u % n
            if w.any() and intersect(Submodule.span(n, times_ring(w[None]), d), target).is_zero:
                return U, "b", w
    return U, "c", None


def _socle_by_coordinates(algebra, f, orders, side, rad, idempotents):
    """The steps of `_socle` when the algebra is twisted by f (`_twist`) and
    S, T, M and N(R) are coordinate sums with coordinate orders `orders`
    (`Submodule.coordinate_orders`): every span, product and meet is then
    read off coordinate by coordinate, as gcds of int64 arrays."""
    n, d = algebra.modulus, algebra.rank
    g_s, g_t, g_m, g_n = orders
    # A generator (n/g_k) e_k of S times e_l lands on e_{k xor l}, scaled by F[k, l].
    F = f if side == "left" else f.T
    xor = np.arange(d)[:, None] ^ np.arange(d)

    def closed(g):
        """Every generator of S times every generator of the coordinate sum
        of orders g lies in that sum."""
        v = (n // g_s)[:, None] * (n // g) % n * F % n
        return not (v % (n // g)[xor]).any()

    sound = (
        not (algebra.unit % (n // g_s)).any()
        and not (g_n % g_s).any()
        and closed(g_s)
        and closed(g_t)
        and closed(g_m)
    )
    if not sound:
        return None
    g_u = np.gcd(g_m, rad)
    U = Submodule.coordinate_sum(n, g_u)
    if not (g_t % g_u).any():
        return U, "a", None
    # Candidate (e, l) is e (n / g_u[l]) e_l; S times it is the sum of the
    # cyclic groups <v[e, k, l]> on coordinates k xor l, and it misses T iff
    # each has order prime to T's order there.
    w = np.array(idempotents, dtype=np.int64)[:, None] * (n // g_u) % n
    v = ((n // g_s)[:, None] * F % n)[None] * w[:, None, :] % n
    meets = np.gcd(n // np.gcd(v, n), g_t[xor]) > 1
    misses = (w > 0) & ~meets.any(axis=1)
    hits = np.flatnonzero(misses.any(axis=0))
    if len(hits) == 0:
        return U, "c", None
    l = hits[0]
    witness = np.zeros(d, dtype=np.int64)
    witness[l] = w[np.flatnonzero(misses[:, l])[0], l]
    return U, "b", witness


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
    required: int,
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
    The precondition is checked on generators first; when it fails, the
    check raises EnumerationBudgetExceeded(required, budget), as an
    over-budget scan would. `cost` counts the products of step (c)'s scan.
    Twisted algebras whose S, T, M and N(R) are coordinate sums take
    `_socle_by_coordinates`, every other one `_socle_by_kernels`; the two
    give the same U, step and witness.
    """
    n = algebra.modulus
    split = prime_powers(n)
    rad = math.prod(p for p, _ in split)
    idempotents = [(n // q) * pow(n // q, -1, q) % n for _, q in split]
    f = _twist(algebra)
    subs = (ring, target, module, associative_center(algebra))
    orders = [s.coordinate_orders() for s in subs] if f is not None else [None]
    if any(g is None for g in orders):
        steps = _socle_by_kernels(algebra, ring, target, module, side, rad, idempotents)
    else:
        steps = _socle_by_coordinates(algebra, f, orders, side, rad, idempotents)
    if steps is None:
        raise EnumerationBudgetExceeded(required, budget)
    U, step, witness = steps
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
        algebra, image.elements(budget), target, U.elements(budget),
        side=side, property_name=property_name, detail=detail,
    )
    return replace(scan, method="socle", detail=detail)


def _scan_ambient(
    algebra: FiniteAlgebra,
    sub: Submodule,
    property_name: str,
    *,
    budget: int,
    side: str = "left",
) -> EssentialityVerdict:
    """Is sub essential in R as a module over itself: does sub r (or r sub)
    meet sub\\{0} for every nonzero r? Scanned while R fits the budget,
    decided on the socle-bounded universe (`_socle`) beyond it."""
    n, d = algebra.modulus, algebra.rank
    if n**d > budget:
        return _socle(
            algebra, sub, sub, Submodule.full(n, d),
            side=side, property_name=property_name, budget=budget, required=n**d,
        )
    # Taken before sub's elements, so that a cache miss, which briefly holds
    # one table more than the cache keeps, never coincides with them.
    ambient = all_vectors(n, d, budget)
    return _scan(
        algebra,
        sub.elements(budget),
        sub,
        ambient,
        side=side,
        property_name=property_name,
        detail=f"{side} multiples of the submodule by the witness miss it",
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
    for g in ideal.generators:
        if not ring.contains(g):
            raise ValueError("ideal is not contained in the ring it should be essential in")
    size = ring.order()
    if size > budget:
        return _socle(
            algebra, ring, ideal, ring,
            side="left", property_name=property_name, budget=budget, required=size,
        )
    ring_elems = ring.elements(budget)
    return _scan(
        algebra,
        ring_elems,
        ideal,
        ring_elems,
        side="left",
        property_name=property_name,
        detail="ring multiples of the witness miss the ideal",
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
    verdict = ce.verdict and not is_commutative(algebra)
    detail = "" if verdict else ("commutative" if is_commutative(algebra) else ce.detail)
    return EssentialityVerdict(
        "non-commutative centrally essential (definitional)",
        verdict,
        ce.method,
        ce.witness if not ce.verdict else None,
        ce.cost,
        detail,
    )
