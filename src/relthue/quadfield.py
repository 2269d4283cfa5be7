"""Exact arithmetic in the ring of integers of Q(i*sqrt(m)).

For square-free m >= 1 the ring of integers has Z-basis {1, w} with
w = (1 + i*sqrt(m))/2 when m = 3 (mod 4), and {1, i*sqrt(m)} otherwise.
Elements are coordinate pairs (u1, u2) in that basis; s = 2 in the first
case and s = 1 in the second.  Every modulus comparison in the solver goes
through :meth:`QuadraticField.norm`, which is an exact rational integer, so
no floating-point threshold ever decides an accept/reject.  m is limited to
``MAX_M`` = 2^63, so the square-free check (trial division to m^(1/3)) ends
in bounded time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .forms import BinaryForm, IntegerPair

MAX_M = 2**63


@dataclass(frozen=True)
class RingElement:
    """Element u1 + u2*w (s=2) or u1 + u2*i*sqrt(m) (s=1), coordinates exact."""

    u1: int
    u2: int

    @property
    def is_zero(self) -> bool:
        return self.u1 == 0 and self.u2 == 0


@dataclass(frozen=True)
class QuadraticField:
    """The imaginary quadratic field Q(i*sqrt(m)) with its integer ring."""

    m: int

    def __post_init__(self):
        m = int(self.m)
        if m < 1:
            raise ValueError("m must be a positive integer")
        if m > MAX_M:
            raise ValueError(f"m = {m} exceeds the supported limit 2^63")
        # Strip each prime up to m^(1/3) once; a second factor means a square.
        # The cofactor then has at most two prime factors, so it is square-free
        # unless it is a perfect square.
        rest = m
        d = 2
        while d * d * d <= m:
            if rest % d == 0:
                rest //= d
                if rest % d == 0:
                    raise ValueError(f"m = {m} is not square-free (divisible by {d}^2)")
            d += 1
        root = isqrt(rest)
        if rest > 1 and root * root == rest:
            raise ValueError(f"m = {m} is not square-free (divisible by {root}^2)")
        object.__setattr__(self, "m", m)

    @property
    def s(self) -> int:
        return 2 if self.m % 4 == 3 else 1

    def _mul_raw(self, a1: int, a2: int, b1: int, b2: int) -> tuple[int, int]:
        if self.s == 2:
            # w^2 = w - (1+m)/4, an integer relation since m = 3 (mod 4)
            w = (1 + self.m) // 4
            cross = a2 * b2
            return (a1 * b1 - w * cross, a1 * b2 + a2 * b1 + cross)
        return (a1 * b1 - self.m * a2 * b2, a1 * b2 + a2 * b1)

    def norm(self, z: RingElement) -> int:
        """|z|^2 = z * conj(z), a nonnegative rational integer."""
        if self.s == 2:
            return z.u1 * z.u1 + z.u1 * z.u2 + z.u2 * z.u2 * ((1 + self.m) // 4)
        return z.u1 * z.u1 + self.m * z.u2 * z.u2

    def evaluate_form(self, form: BinaryForm, x: RingElement, y: RingElement) -> RingElement:
        """F(x, y) in the ring, by exact coordinate arithmetic.

        The relative inequality |F(x, y)| <= K is then the exact comparison
        norm(F(x, y)) <= K^2.
        """
        n = form.degree
        xp = [(1, 0)]
        yp = [(1, 0)]
        for _ in range(n):
            xp.append(self._mul_raw(*xp[-1], x.u1, x.u2))
            yp.append(self._mul_raw(*yp[-1], y.u1, y.u2))
        acc1 = 0
        acc2 = 0
        for k, c in enumerate(form.coeffs):
            if c:
                t1, t2 = self._mul_raw(*xp[k], *yp[n - k])
                acc1 += c * t1
                acc2 += c * t2
        return RingElement(acc1, acc2)

    def split_coordinates(self, x: RingElement, y: RingElement) -> tuple[IntegerPair, IntegerPair]:
        """Coordinate pairs feeding the real and imaginary part products.

        Returns ((s*x1 + (s-1)*x2, s*y1 + (s-1)*y2), (x2, y2)): s times the
        real parts of (x, y), and the coefficients of i*sqrt(m)/s.
        """
        s = self.s
        real_pair = (s * x.u1 + (s - 1) * x.u2, s * y.u1 + (s - 1) * y.u2)
        return real_pair, (x.u2, y.u2)
