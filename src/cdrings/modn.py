"""Scalar arithmetic in Z/nZ with composite n.

Everything here works for arbitrary n >= 2, zero divisors included; these
are the primitives the Howell-form elimination is built from.
"""

from __future__ import annotations

import functools
import math


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def annihilator_generator(a: int, n: int) -> int:
    """Smallest positive generator of {x : x*a = 0 mod n}, reduced mod n.

    Returns 0 when a is a unit (the annihilator is trivial).
    """
    return (n // math.gcd(a, n)) % n


def normalizing_unit(a: int, n: int) -> int:
    """A unit u mod n with u*a = gcd(a, n) mod n.

    Every residue is associate to exactly one divisor of n; multiplying by
    the returned unit moves a to that canonical representative.
    """
    a %= n
    if a == 0:
        return 1
    g = math.gcd(a, n)
    m = n // g
    u = pow((a // g) % m, -1, m) if m > 1 else 1
    # Lift u to a unit mod n; a unit always exists in u + m*Z.
    while math.gcd(u, n) != 1:
        u += m
    return u % n


def gcd_transform(a: int, b: int, n: int) -> tuple[int, int, int, int, int]:
    """Return (g, s, t, u, v) with s*a + t*b = g, u*a + v*b = 0 mod n.

    The matrix [[s, t], [u, v]] has unit determinant mod n, so applying it
    as a paired row operation preserves the row span.
    """
    g, s, t = xgcd(a % n, b % n)
    if g == 0:
        return 0, 1, 0, 0, 1
    u = -((b % n) // g)
    v = (a % n) // g
    return g % n, s % n, t % n, u % n, v % n


@functools.lru_cache(maxsize=64)
def prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """(p, q) for every prime p dividing n >= 2, q the power of p that
    exactly divides n, by increasing p (trial division)."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n, q = n // p, q * p
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return tuple(out)
