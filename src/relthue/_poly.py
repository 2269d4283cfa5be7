"""Exact univariate polynomial helpers.

Coefficient lists are ascending (``coeffs[k]`` multiplies ``x**k``).
Evaluation is integer-only: :func:`evaluate` takes integer coefficients and
an integer point (a, b) and returns the homogenized value, so the sign of f
at a rational p/q comes from (p, q) and no Fraction reaches a polynomial
evaluation.  Only the remainder in the Sturm chain divides over the
rationals, and every chain member is scaled back to integer coefficients.
Everything here is tolerance-free.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Coeffs = Sequence


def strip(coeffs: Coeffs) -> tuple:
    """Drop high-degree zero coefficients; the zero polynomial becomes ()."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(coeffs: Coeffs) -> int:
    """Degree of a stripped coefficient list; -1 for the zero polynomial."""
    return len(coeffs) - 1


def evaluate(coeffs: Coeffs, a: int, b: int = 1) -> int:
    """sum c_k a^k b^(d-k) with d = len(coeffs) - 1, by homogeneous Horner in integers.

    b = 1 gives f(a); for b > 0 the sign is the sign of f(a/b).
    """
    acc, bpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * bpow
        bpow *= b
    return acc


def derivative(coeffs: Coeffs) -> tuple:
    return tuple(k * coeffs[k] for k in range(1, len(coeffs)))


def poly_rem(num: Coeffs, den: Coeffs) -> tuple:
    """Remainder of exact polynomial division over the rationals."""
    den = [Fraction(c) for c in den]
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in num]
    dd = len(den) - 1
    lead = den[-1]
    while len(rem) - 1 >= dd and rem:
        shift = len(rem) - 1 - dd
        factor = rem[-1] / lead
        for i in range(dd + 1):
            rem[shift + i] -= factor * den[i]
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


def sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def variations(signs: Sequence[int]) -> int:
    """Number of sign changes, zeros dropped."""
    seq = [s for s in signs if s != 0]
    return sum(1 for u, v in zip(seq, seq[1:]) if u != v)


def primitive(coeffs: Coeffs) -> tuple[int, ...]:
    """The positive multiple of a rational polynomial with coprime integer coefficients.

    The factor is positive, so the sign at every point is unchanged.
    """
    scale = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    content = math.gcd(*ints)
    return tuple(c // content for c in ints)


def sturm_chain(coeffs: Coeffs) -> tuple[tuple[int, ...], ...]:
    """Sturm sequence of f, each member scaled to coprime integer coefficients.

    ``p0 = f``, ``p1 = f'``, ``p_{k+1} = -rem(p_{k-1}, p_k)`` until the
    remainder vanishes, so the last member is gcd(f, f') up to a constant
    factor.  For squarefree f it is a nonzero constant, and the variation
    difference V(a) - V(b) counts the distinct real roots in (a, b].
    Scaling by positive factors keeps that count and keeps every evaluation
    at an integer point in integer arithmetic.
    """
    chain = [primitive(strip(coeffs))]
    chain.append(primitive(derivative(chain[0])))
    while True:
        rem = strip(poly_rem(chain[-2], chain[-1]))
        if not rem:
            return tuple(chain)
        chain.append(primitive([-c for c in rem]))


def sign_at(coeffs: Coeffs, x) -> int:
    """The sign of f(x) at an integer or Fraction x, from (numerator, denominator)."""
    return sign(evaluate(coeffs, x.numerator, x.denominator))


def chain_variations_at(chain: Sequence[Coeffs], x) -> int:
    return variations([sign_at(p, x) for p in chain])


def count_roots(chain: Sequence[Coeffs], lo, hi) -> int:
    """Distinct real roots in (lo, hi]."""
    return chain_variations_at(chain, lo) - chain_variations_at(chain, hi)


def root_radius(coeffs: Coeffs) -> int:
    """A power of two R > 1 + max |c_k| for monic f: every root lies in (-R, R) (Cauchy)."""
    return 1 << (1 + max(abs(c) for c in coeffs[:-1])).bit_length()


def iroot(k: int, r: int) -> int:
    """floor(k ** (1/r)) for k >= 0, r >= 1, by Newton iteration on integers."""
    if k < 0 or r < 1:
        raise ValueError("iroot needs k >= 0, r >= 1")
    if k == 0:
        return 0
    if r == 1:
        return k
    if r == 2:
        return math.isqrt(k)
    x = 1 << ((k.bit_length() + r - 1) // r)
    while True:
        y = ((r - 1) * x + k // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    while x ** r > k:
        x -= 1
    while (x + 1) ** r <= k:
        x += 1
    return x
