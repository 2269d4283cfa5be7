"""Seeded problem streams for the relthue benchmark.

Every workload is an unbounded, deterministic stream of distinct problems: the
same seed always yields the same sequence, and no problem repeats within a
stream, so one process never solves a problem twice (``thresholds`` keeps a
process-global cache that repeated problems would flatter).  The worker takes
problems from the front of the stream until its time is up.

Forms are given by ascending coefficients: ``coeffs[k]`` multiplies
x^k y^(n-k).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from math import isqrt, log10, prod

from relthue import BinaryForm, check_admissible

X3_4XY2 = (0, -4, 0, 1)  # x^3 - 4xy^2, integer roots 0, 2, -2
X3_X2Y_2XY2 = (0, -2, -1, 1)  # x^3 - x^2y - 2xy^2, integer roots 0, 2, -1
SPORADIC_FORMS = (
    (-1, -3, 0, 1),  # x^3 - 3xy^2 - y^3, irreducible
    (2, 0, -4, 0, 1),  # x^4 - 4x^2y^2 + 2y^4, irreducible
    (6, 0, -5, 0, 1),  # (x^2 - 2y^2)(x^2 - 3y^2)
    (-1, 3, 3, -4, -1, 1),  # x^5 - x^4y - 4x^3y^2 + 3x^2y^3 + 3xy^4 - y^5
)
SPORADIC_KS = (Fraction(1), Fraction(10), Fraction(7, 2))

FAMILIES_HEIGHT = 20
SPORADIC_HEIGHT = 2000
CHECK_BOX = 7
GRID_HEIGHT = 10
SMALL_M = 100  # seed-drawn m for the hand-picked forms stay at most this
GRID_M_LIMIT = 10**10
GRID_F0_LIMIT = 10**12


@dataclass(frozen=True)
class Problem:
    """One op: ``solve_relative`` at ``height``, or ``relthue check`` when ``box`` is set."""

    coeffs: tuple[int, ...]
    m: int
    K: Fraction
    height: int
    box: int | None = None

    @property
    def s(self) -> int:
        return 2 if self.m % 4 == 3 else 1

    @property
    def key(self) -> str:
        coeffs = ",".join(map(str, self.coeffs))
        tail = "" if self.box is None else f" box={self.box}"
        return f"coeffs={coeffs} m={self.m} K={self.K} H={self.height}{tail}"

    def problem_text(self) -> str:
        """The problem file ``relthue check`` reads."""
        return (
            f"coeffs = {' '.join(map(str, self.coeffs))}\n"
            f"m = {self.m}\nK = {self.K}\nymax = {self.height}\noracle_height = {self.box}\n"
        )


def is_squarefree(m: int) -> bool:
    """Exact: strip primes up to m^(1/3); the cofactor then has at most two prime factors."""
    rest = m
    d = 2
    while d * d * d <= m:
        if rest % d == 0:
            rest //= d
            if rest % d == 0:
                return False
        d += 1
    root = isqrt(rest)
    return rest == 1 or root * root != rest


def draw_m(rng: random.Random, two_class: bool) -> int:
    """A squarefree m < SMALL_M with m = 3 (mod 4) exactly when ``two_class`` (ring shape s = 2)."""
    while True:
        m = rng.randrange(1, SMALL_M)
        if (m % 4 == 3) == two_class and is_squarefree(m):
            return m


def squarefree_near(start: int, two_class: bool) -> int:
    """The largest squarefree m <= start in the class of ``two_class`` (the smallest above, if none)."""
    for m in chain(range(start, 0, -1), count(start + 1)):
        if (m % 4 == 3) == two_class and is_squarefree(m):
            return m


def draw_K(rng: random.Random) -> Fraction:
    """A rational K in [1, 10] with a small denominator."""
    q = rng.randint(1, 6)
    return Fraction(rng.randint(q, 10 * q), q)


def _distinct(problems):
    seen = set()
    for p in problems:
        if p.key not in seen:
            seen.add(p.key)
            yield p


def families(seed: int):
    """The three split cubics of the acceptance suite, then seed-drawn m (s = 1) and K, forms alternating."""
    rng = random.Random(f"families:{seed}")
    H = FAMILIES_HEIGHT
    fixed = [
        Problem(X3_4XY2, 1, Fraction(10), H),
        Problem(X3_4XY2, 3, Fraction(1), H),
        Problem(X3_X2Y_2XY2, 2, Fraction(1), H),
    ]
    forms = (X3_4XY2, X3_X2Y_2XY2)

    def drawn():
        for i in count():
            yield Problem(forms[i % 2], draw_m(rng, False), draw_K(rng), H)

    yield from _distinct(chain(fixed, drawn()))


def sporadic(seed: int):
    """Root-free forms at a large height: each op is dominated by windowed enumeration."""
    rng = random.Random(f"sporadic:{seed}")

    def drawn():
        # Every (form, ring shape, K) combination once per 24 problems; every
        # 8 in a row hold each form and shape, every 3 each K.  The costs of the
        # combinations differ several-fold, so a run's mix must not depend on
        # how many problems it reaches.
        for i in count():
            coeffs = SPORADIC_FORMS[i % 4]
            m = draw_m(rng, i % 8 >= 4)
            yield Problem(coeffs, m, SPORADIC_KS[i % 3], SPORADIC_HEIGHT)

    yield from _distinct(drawn())


def check(seed: int):
    """``relthue check`` on family and root-free forms, box CHECK_BOX and ymax = (2s-1)*box."""
    rng = random.Random(f"check:{seed}")
    forms = (X3_4XY2, X3_X2Y_2XY2, *SPORADIC_FORMS)

    def drawn():
        # Every (form, ring shape, K) combination once per 36 problems; every
        # 12 in a row hold each form and shape, every 3 each K.
        for i in count():
            two_class = i % 12 >= 6
            m = draw_m(rng, two_class)
            height = (3 if two_class else 1) * CHECK_BOX
            yield Problem(forms[i % 6], m, SPORADIC_KS[(i + i // 12) % 3], height, box=CHECK_BOX)

    yield from _distinct(drawn())


def grid_form(rng: random.Random, n: int, log_f0: float) -> tuple[int, ...] | None:
    """Monic f = prod(x - r_i) + delta with |f(0)| near 10**log_f0 (or the least reachable).

    The r_i are distinct integers at least 3 apart and 1 <= |delta| <= 7.  An
    integer k that is not an r_i has |prod(k - r_i)| >= 1*2*4 = 8 > |delta|,
    and f(r_i) = delta != 0, so f has no integer root.  The last root is
    chosen so that |prod r_i| is close to the target.  Returns None when the
    draw breaks the spacing or GRID_F0_LIMIT; the caller draws again.
    """
    size = max(1.5 * n, 10 ** (log_f0 / n))
    others = [rng.choice((-1, 1)) * round(size * 2 ** rng.uniform(-1, 1)) for _ in range(n - 1)]
    last = max(1, round(10**log_f0 / max(1, prod(map(abs, others)))))
    roots = sorted([*others, rng.choice((-1, 1)) * last])
    if any(b - a < 3 for a, b in zip(roots, roots[1:])):
        return None
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    coeffs[0] += rng.choice((-1, 1)) * rng.randint(1, 7)
    if abs(coeffs[0]) > GRID_F0_LIMIT:
        return None
    return tuple(coeffs)


GOLDEN = (5**0.5 - 1) / 2
SILVER = 2**0.5 - 1


def grid(seed: int):
    """Seed-generated admissible forms of degree 3-5 without integer roots, large m, rational K.

    log10 |f(0)| and log10 m run through [0, 12] and [0, 10] along
    low-discrepancy sequences (golden- and silver-ratio steps from seed-drawn
    offsets).  The per-problem cost grows steeply with both (the sqrt loops
    of integer_roots and QuadraticField), so every stretch of the stream has
    about the same mix of cheap and costly problems, whatever the seed.
    """
    rng = random.Random(f"grid:{seed}")
    f0_offset, m_offset = rng.random(), rng.random()

    def drawn():
        for i in count():
            log_f0 = log10(GRID_F0_LIMIT) * ((f0_offset + i * GOLDEN) % 1)
            coeffs = None
            while coeffs is None or not check_admissible(BinaryForm(coeffs)).ok:
                coeffs = grid_form(rng, 3 + i % 3, log_f0)
            log_m = log10(GRID_M_LIMIT) * ((m_offset + i * SILVER) % 1)
            m = squarefree_near(int(10**log_m), i % 2 == 1)
            yield Problem(coeffs, m, draw_K(rng), GRID_HEIGHT)

    yield from _distinct(drawn())


def anchor(seed: int):
    """The re-anchor baseline table's H=20 and H=50 rows (not a workload; the seed is unused)."""
    for H in (20, 50):
        yield Problem(X3_4XY2, 3, Fraction(1), H)
        yield Problem(X3_4XY2, 1, Fraction(10), H)
        yield Problem(X3_X2Y_2XY2, 2, Fraction(1), H)
        yield Problem(SPORADIC_FORMS[0], 7, Fraction(10), H)


def warmup(name: str) -> Problem:
    """A small problem outside every stream (its height is not a workload height)."""
    if name == "check":
        return Problem(X3_4XY2, 5, Fraction(1), 2, box=2)
    return Problem(SPORADIC_FORMS[0], 5, Fraction(1), 3)


WORKLOADS = {"families": families, "sporadic": sporadic, "check": check, "grid": grid}
STREAMS = {**WORKLOADS, "anchor": anchor}
