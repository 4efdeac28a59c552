import math

import pytest

from cdrings.modn import (
    annihilator_generator,
    gcd_transform,
    normalizing_unit,
    xgcd,
)


@pytest.mark.parametrize("n", range(2, 25))
def test_normalizing_unit_exhaustive(n):
    for a in range(n):
        u = normalizing_unit(a, n)
        assert math.gcd(u, n) == 1, (a, n, u)
        assert (u * a) % n == math.gcd(a, n) % n, (a, n, u)


@pytest.mark.parametrize("n", range(2, 25))
def test_annihilator_generator_exhaustive(n):
    for a in range(n):
        g = annihilator_generator(a, n)
        assert (g * a) % n == 0
        # g generates the full annihilator {x : x*a = 0 mod n}
        ann = {x for x in range(n) if (x * a) % n == 0}
        span = {(k * g) % n for k in range(n)}
        assert span == ann, (a, n)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12])
def test_gcd_transform_exhaustive(n):
    for a in range(n):
        for b in range(n):
            g, s, t, u, v = gcd_transform(a, b, n)
            assert (s * a + t * b) % n == g % n
            assert (u * a + v * b) % n == 0
            det = (s * v - t * u) % n
            assert math.gcd(det, n) == 1, (a, b, n, det)


def test_xgcd_bezout():
    for a in range(-12, 13):
        for b in range(-12, 13):
            g, s, t = xgcd(a, b)
            assert g == math.gcd(a, b)
            assert s * a + t * b == g
