"""Exact univariate polynomial helpers.

Coefficient lists are ascending (``coeffs[k]`` multiplies ``x**k``).
Everything here is integer arithmetic and tolerance-free.  :func:`evaluate`
takes integer coefficients and an integer point (a, b) and returns the
homogenized value, so the sign of f at a rational p/q comes from (p, q) and
no Fraction reaches a polynomial evaluation.  The Sturm chain takes each
remainder as an integer pseudo-remainder, scaled by a positive factor, and
keeps its primitive part.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

Coeffs = Sequence


def evaluate(coeffs: Coeffs, a: int, b: int = 1) -> int:
    """sum c_k a^k b^(d-k) with d = len(coeffs) - 1, by homogeneous Horner in integers.

    b = 1 gives f(a), by plain Horner with no power of b; for b > 0 the sign is the sign of f(a/b).
    """
    acc, bpow = 0, 1
    if b == 1:
        for c in reversed(coeffs):
            acc = acc * a + c
        return acc
    for c in reversed(coeffs):
        acc = acc * a + c * bpow
        bpow *= b
    return acc


def derivative(coeffs: Coeffs) -> tuple:
    return tuple(k * coeffs[k] for k in range(1, len(coeffs)))


def _primitive(coeffs: Coeffs) -> tuple[int, ...]:
    """Integer coefficients divided by their content, a positive factor: the sign at every point is kept."""
    content = math.gcd(*coeffs)
    return tuple(c // content for c in coeffs)


def sturm_chain(coeffs: Coeffs) -> tuple[tuple[int, ...], ...]:
    """Sturm sequence of f (degree >= 1, nonzero leading coefficient), each member primitive.

    ``p0 = f``, ``p1 = f'``, ``p_{k+1} = -rem(p_{k-1}, p_k)`` until the
    remainder vanishes, so the last member is gcd(f, f') up to a constant
    factor.  For squarefree f it is a nonzero constant, and the variation
    difference V(a) - V(b) counts the distinct real roots in (a, b].  Each
    remainder is taken in integers as the pseudo-remainder scaled by
    |lead(p_k)|^e, a positive factor; its primitive part is then the
    primitive part of the rational remainder, and no Fraction is needed.
    """
    chain = [_primitive(coeffs), _primitive(derivative(coeffs))]
    while True:
        rem, den = list(chain[-2]), chain[-1]
        scale, lead_sign = abs(den[-1]), 1 if den[-1] > 0 else -1  # a member's lead is never 0
        while len(rem) >= len(den):
            # rem <- |lead| * rem - sign(lead) * top * x^shift * den cancels the top coefficient
            top = rem.pop() * lead_sign
            shift = len(rem) + 1 - len(den)
            rem = [scale * c for c in rem]
            for i, d in enumerate(den[:-1]):
                rem[shift + i] -= top * d
            while rem and rem[-1] == 0:
                rem.pop()
        if not rem:
            return tuple(chain)
        chain.append(_primitive([-c for c in rem]))


def variations(chain: Sequence[Coeffs], a: int, b: int = 1) -> int:
    """Sign changes of the chain at a/b, b > 0, zeros dropped."""
    return sign_changes(evaluate(p, a, b) for p in chain)


def sign_changes(values: Iterable[int]) -> int:
    """Sign changes along a sequence of integers, zeros dropped, counted in one pass and with no list."""
    changes, negative = 0, None
    for v in values:
        if v and (v < 0) is not negative:
            changes, negative = changes + 1, v < 0
    return max(changes - 1, 0)  # the first nonzero value was counted, and it changes nothing


def root_radius(coeffs: Coeffs) -> int:
    """A power of two R with every root of monic f in (-R, R): Fujiwara's or Cauchy's bound, whichever is smaller.

    Fujiwara: |z| <= 2 max |c_k|^(1/(n-k)) < 2^(e+1), e = max ceil(bitlen(c_k)/(n-k)); Cauchy: |z| < 1 + max |c_k|.
    """
    e = max(-(-abs(c).bit_length() // j) for j, c in enumerate(reversed(coeffs[:-1]), 1))  # j = n - k
    return min(1 << (e + 1), 1 << (1 + max(abs(c) for c in coeffs[:-1])).bit_length())


def iroot(k: int, r: int) -> int:
    """floor(k ** (1/r)) for k >= 0, r >= 1: an even order through ``isqrt``, an odd one by Newton iteration.

    For even r it is floor(isqrt(k)^(2/r)), as floor(y^(1/j)) = floor(floor(y)^(1/j)) for y >= 0.  For odd r the
    start 2^ceil(bitlen(k)/r) is at least the floor; each integer Newton step from an x above the floor lands
    strictly below x and, by the AM-GM inequality, not below the floor; at the floor the step does not fall.  So
    the iteration stops exactly at the floor, and no correction is needed.
    """
    if k < 0 or r < 1:
        raise ValueError("iroot needs k >= 0, r >= 1")
    if k == 0:
        return 0
    if r == 1:
        return k
    if r % 2 == 0:
        return iroot(math.isqrt(k), r // 2)
    x = 1 << ((k.bit_length() + r - 1) // r)
    while True:
        y = ((r - 1) * x + k // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    return x
