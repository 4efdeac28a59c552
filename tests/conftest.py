"""Shared brute-force oracles for the test suite.

These helpers deliberately avoid the library's Howell-form machinery: spans
are closed by repeated addition, kernels and memberships by exhaustive
enumeration, so they can certify the linear-algebra layer independently.
"""

import itertools

import numpy as np


def brute_span(rows, n):
    """Additive closure of the rows as a frozenset of coordinate tuples."""
    rows = [tuple(int(x) % n for x in r) for r in rows]
    width = len(rows[0]) if rows else 0
    closure = {tuple([0] * width)}
    frontier = list(closure)
    while frontier:
        cur = frontier.pop()
        for r in rows:
            nxt = tuple((a + b) % n for a, b in zip(cur, r))
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    return frozenset(closure)


def brute_kernel(mat, n):
    """All v with v @ mat = 0 mod n, found by scanning every vector."""
    mat = np.asarray(mat, dtype=np.int64)
    rows = mat.shape[0]
    out = set()
    for v in itertools.product(range(n), repeat=rows):
        if not (np.array(v, dtype=np.int64) @ mat % n).any():
            out.add(v)
    return frozenset(out)


def submodule_set(sub):
    """Element set of a Submodule via its own enumeration."""
    return frozenset(tuple(int(x) for x in v) for v in sub.elements())


def random_matrix(rng, n, rows, cols):
    return np.array(
        [[rng.randrange(n) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    )


def _fast_matmul(X, m, n):
    # Exact in float32 while d * n^2 stays below 2**24, as for the desk-scale
    # towers; larger moduli take int64, with m reduced first.
    if m.shape[0] * n**2 < 2**24:
        prod = X.astype(np.float32) @ m.astype(np.float32)
        return prod.astype(np.int64) % n
    return X.astype(np.int64) @ (m % n) % n


def batch_mul(algebra, X, y):
    """Row-wise products X[b] * y, straight from the structure tensor."""
    n = algebra.modulus
    m = np.einsum("j,ijk->ik", np.asarray(y) % n, algebra.structure)
    return _fast_matmul(X % n, m, n)


def batch_mul_right(algebra, x, Y):
    """Row-wise products x * Y[b]."""
    n = algebra.modulus
    m = np.einsum("i,ijk->jk", np.asarray(x) % n, algebra.structure)
    return _fast_matmul(Y % n, m, n)


def brute_associative_center_set(algebra, elements):
    """Filter `elements` by the associator conditions, slot by slot.

    Uses only batched structure-tensor products, independently of the
    kernel/Howell path it certifies.
    """
    n, d = algebra.modulus, algebra.rank
    basis = [algebra.basis_element(i) for i in range(d)]
    alive = np.ones(len(elements), dtype=bool)
    for a in basis:
        for b in basis:
            if not alive.any():
                break
            X = elements[alive]
            ab = algebra.mul(a, b)
            # (x a) b - x (ab)
            slot1 = batch_mul(algebra, batch_mul(algebra, X, a), b) - batch_mul(
                algebra, X, ab
            )
            # (a x) b - a (x b)
            ax = batch_mul_right(algebra, a, X)
            slot2 = batch_mul(algebra, ax, b) - batch_mul_right(
                algebra, a, batch_mul(algebra, X, b)
            )
            # (ab) x - a (b x)
            bx = batch_mul_right(algebra, b, X)
            slot3 = batch_mul_right(algebra, ab, X) - batch_mul_right(algebra, a, bx)
            ok = (
                ~(slot1 % n).any(axis=1)
                & ~(slot2 % n).any(axis=1)
                & ~(slot3 % n).any(axis=1)
            )
            idx = np.flatnonzero(alive)
            alive[idx[~ok]] = False
    return frozenset(tuple(int(t) for t in v) for v in elements[alive])


def brute_commutative_center_set(algebra, elements):
    n, d = algebra.modulus, algebra.rank
    alive = np.ones(len(elements), dtype=bool)
    for i in range(d):
        a = algebra.basis_element(i)
        X = elements[alive]
        comm = batch_mul(algebra, X, a) - batch_mul_right(algebra, a, X)
        ok = ~(comm % n).any(axis=1)
        idx = np.flatnonzero(alive)
        alive[idx[~ok]] = False
    return frozenset(tuple(int(t) for t in v) for v in elements[alive])


def eval_term(algebra, term, env, memo):
    """Evaluate an identity term such as '(xu)v' or 'x(uv)' element by
    element: (ab)c is mul(mul(a, b), c) and a(bc) is mul(a, mul(b, c)).
    `memo` keeps the products already evaluated under the same env, keyed by
    their text ('xu', '(xu)v'), so shared subterms are multiplied once."""
    if term not in memo:
        if len(term) == 2:
            left, right = env[term[0]], env[term[1]]
        elif term.startswith("("):
            left, right = eval_term(algebra, term[1:3], env, memo), env[term[4]]
        else:
            left, right = env[term[0]], eval_term(algebra, term[2:4], env, memo)
        memo[term] = algebra.mul(left, right)
    return memo[term]


def identity_difference(algebra, identity, env, memo=None):
    """lhs - rhs of one identity (a pair of term strings) under env, mod n."""
    memo = {} if memo is None else memo
    lhs, rhs = (eval_term(algebra, term, env, memo) for term in identity)
    return (lhs - rhs) % algebra.modulus


def holds_on_basis(algebra, identities, var, value):
    """Does `value` satisfy every identity for all basis pairs u, v?

    The per-element reference for the compiled condition matrices of
    `cdrings.analysis.identity_conditions`.
    """
    basis = [algebra.basis_element(i) for i in range(algebra.rank)]
    for u in basis:
        for v in basis:
            env = {var: value, "u": u, "v": v}
            memo = {}
            if any(identity_difference(algebra, ident, env, memo).any() for ident in identities):
                return False
    return True
