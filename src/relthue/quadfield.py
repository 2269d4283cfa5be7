"""Exact arithmetic in the ring of integers of Q(i*sqrt(m)).

For square-free m >= 1 the ring of integers has Z-basis {1, w} with
w = (1 + i*sqrt(m))/2 when m = 3 (mod 4), and {1, i*sqrt(m)} otherwise.
Elements are integer coordinate pairs (u1, u2) in that basis; s = 2 in the
first case and s = 1 in the second.  Every modulus comparison is between
exact integers, so no floating-point threshold ever decides an
accept/reject.  The norm u1^2 + t*u1*u2 + q*u2^2 on basis coordinates is
written twice: :meth:`QuadraticField.norm`, and the solver's verification
kernel :func:`relthue.reducer._evaluate`, kept apart so that the solver
shares no evaluation code with the oracle's seeds.  m is limited to
``MAX_M`` = 2^63, so the square-free check (trial division to m^(1/3)) ends
in bounded time.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from math import isqrt
from operator import index

from . import _poly
from .forms import BinaryForm, IntegerPair, Validated

MAX_M = 2**63


class QuadraticField(Validated, namedtuple("QuadraticField", "m s q t")):
    """The imaginary quadratic field Q(i*sqrt(m)) with its integer ring.

    The basis {1, w} is decided once, at construction: ``s`` as in the module docstring, and the integers
    ``q`` and ``t`` of the relation w^2 = t*w - q, that is ((1+m)/4, 1) when s = 2 and (m, 0) when s = 1.
    Every product, norm and coordinate split reads them; they follow from m, so ``repr`` shows m alone.
    """

    __slots__ = ()

    def __new__(cls, m):
        # __post_init__ is looked up on the class at each call, so the bench tracer can wrap it (ROADMAP item 5)
        return tuple.__new__(cls, cls.__post_init__(m))

    @staticmethod
    def __post_init__(m) -> tuple[int, int, int, int]:
        """(m, s, q, t) for a square-free integer 1 <= m <= MAX_M; raises ValueError for any other integer m.

        m must be an integer (``operator.index``): a float, Fraction or string raises TypeError, not truncated.
        """
        m = index(m)
        if m < 1:
            raise ValueError("m must be a positive integer")
        if m > MAX_M:
            raise ValueError(f"m = {m} exceeds the supported limit 2^63")
        # Strip each prime up to m^(1/3) once; a second factor means a square.
        # The cofactor then has at most two prime factors, so it is square-free
        # unless it is a perfect square.  Once 2 is stripped, rest is odd, so
        # only odd d are tried; a composite d never divides rest.
        rest = m
        for d in chain((2,), range(3, _poly.iroot(m, 3) + 1, 2)):
            if rest % d == 0:
                rest //= d
                if rest % d == 0:
                    raise ValueError(f"m = {m} is not square-free (divisible by {d}^2)")
        root = isqrt(rest)
        if rest > 1 and root * root == rest:
            raise ValueError(f"m = {m} is not square-free (divisible by {root}^2)")
        # w = (1 + i*sqrt(m))/2 has w^2 = w - (1+m)/4, an integer relation since m = 3 (mod 4); (i*sqrt(m))^2 = -m
        s = 2 if m % 4 == 3 else 1
        q, t = ((1 + m) // 4, 1) if s == 2 else (m, 0)
        return m, s, q, t

    def __repr__(self) -> str:
        return f"QuadraticField(m={self.m!r})"

    def _mul_raw(self, a1: int, a2: int, b1: int, b2: int) -> tuple[int, int]:
        cross = a2 * b2
        return (a1 * b1 - self.q * cross, a1 * b2 + a2 * b1 + self.t * cross)

    def norm(self, u1: int, u2: int) -> int:
        """|z|^2 = z * conj(z) = u1^2 + t*u1*u2 + q*u2^2 for z = u1 + u2*w, a nonnegative rational integer."""
        return u1 * u1 + self.t * u1 * u2 + self.q * u2 * u2

    def evaluate_form(self, form: BinaryForm, quad: tuple[int, int, int, int]) -> IntegerPair:
        """(v1, v2) for F(x, y) = v1 + v2*w, with ``quad`` = (x1, x2, y1, y2), x = x1 + x2*w and y = y1 + y2*w.

        The homogeneous Horner scheme of :func:`relthue._poly.evaluate`,
        acc <- acc*x + c_k*y^(n-k) for k = n-1, ..., 0, starting from c_n,
        with the power of y carried along: 2n exact ring products.  The
        relative inequality |F(x, y)| <= K is then the exact comparison
        norm(v1, v2) <= K^2.
        """
        x1, x2, y1, y2 = quad
        coeffs = form.coeffs
        acc, ypow = (coeffs[-1], 0), (1, 0)
        for c in reversed(coeffs[:-1]):
            ypow = self._mul_raw(*ypow, y1, y2)
            acc1, acc2 = self._mul_raw(*acc, x1, x2)
            acc = (acc1 + c * ypow[0], acc2 + c * ypow[1])
        return acc

    def split_coordinates(self, quad: tuple[int, int, int, int]) -> tuple[IntegerPair, IntegerPair]:
        """Coordinate pairs feeding the real and imaginary part products, for x = x1 + x2*w, y = y1 + y2*w.

        ``quad`` is (x1, x2, y1, y2).  Returns ((s*x1 + t*x2, s*y1 + t*y2), (x2, y2)), where t = s - 1: s times
        the real parts of (x, y), and the coefficients of i*sqrt(m)/s.
        """
        x1, x2, y1, y2 = quad
        s, t = self.s, self.t
        return (s * x1 + t * x2, s * y1 + t * y2), (x2, y2)
