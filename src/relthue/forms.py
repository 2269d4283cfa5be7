"""Integer binary forms: exact evaluation and the admissibility check.

A binary form of degree n is F(x, y) = sum c_k x^k y^(n-k) with integer
coefficients.  The solver only handles forms whose dehomogenization
f(x) = F(x, 1) is monic with n distinct real roots; :func:`check_admissible`
decides that exactly (no floating point, no tolerances) with one Sturm chain
of f, which it hands on in its report with its sign variations at -R and R:
the root isolation in :mod:`relthue.rootbounds` starts from those and bisects
with that same chain, finding the integer roots on the way.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index
from typing import NamedTuple

from . import _poly

IntegerPair = tuple[int, int]


class InadmissibleFormError(ValueError):
    """Raised when an operation requires an admissible form and gets none."""


class Validated:
    """Base of a namedtuple whose constructor checks its first ``_given`` fields, its arguments, and derives the rest.

    ``_make``, ``_replace`` and unpickling all go through that constructor, so none builds an unchecked
    instance.  ``_replace`` takes only argument fields and raises ValueError for a derived one; ``_make``
    raises ValueError unless the derived fields it is given are the ones the constructor derives.
    """

    __slots__ = ()
    _given = 1

    @classmethod
    def _make(cls, iterable):
        values = tuple(iterable)
        made = cls(*values[: cls._given])
        if made != values:
            raise ValueError(f"{cls.__name__}: {values!r} does not hold the fields its arguments give")
        return made

    def _replace(self, **changes):
        given = self._fields[: self._given]
        rest = sorted(set(changes) - set(given))
        if rest:
            raise ValueError(f"{type(self).__name__}: only {given} can be replaced, not {rest}")
        return type(self)(**{**dict(zip(given, self)), **changes})

    def __getnewargs__(self) -> tuple:
        return self[: self._given]


class BinaryForm(Validated, namedtuple("BinaryForm", "coeffs")):
    """Binary form with ascending coefficients: coeffs[k] multiplies x^k y^(n-k).

    The same tuple lists the coefficients of f(x) = F(x, 1).  Each coefficient must be an integer
    (``operator.index``): a float, Fraction or string raises TypeError, not truncated.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        coeffs = tuple(index(c) for c in coeffs)
        if len(coeffs) < 2:
            raise ValueError("a binary form needs degree >= 1")
        if coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        return tuple.__new__(cls, (coeffs,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, a: int, b: int) -> int:
        """F(a, b) over the integers, computed exactly."""
        return _poly.evaluate(self.coeffs, a, b)

    def __str__(self) -> str:
        n = self.degree
        parts = []
        for k in range(n, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mono = []
            if k:
                mono.append("x" if k == 1 else f"x^{k}")
            if n - k:
                mono.append("y" if n - k == 1 else f"y^{n - k}")
            body = "*".join(mono) if mono else "1"
            if abs(c) != 1 or not mono:
                body = f"{abs(c)}*{body}" if mono else str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + body)
        first = parts[0]
        first = "-" + first[2:] if first.startswith("- ") else first[2:]
        return " ".join([first, *parts[1:]])


class AdmissibilityReport(NamedTuple):
    """The verdict, and for an admissible form what the root isolation starts from.

    That is the Sturm chain of f, the root radius R and the chain's sign variations at -R and R; every root of
    f lies in (-R, R), so those are the variations at -infinity and +infinity, read from leading coefficients.
    """

    ok: bool
    reason: str | None = None
    chain: tuple[tuple[int, ...], ...] = ()
    radius: int = 0
    end_variations: tuple[int, int] = (0, 0)


def check_admissible(form: BinaryForm) -> AdmissibilityReport:
    """Decide whether f(x) = F(x, 1) is monic of degree >= 3 with n distinct real roots.

    The Sturm chain of f ends in gcd(f, f') up to a constant, which decides
    squarefreeness; the same chain counts the real roots, from the signs of
    its leading coefficients.  The report names the first failed condition.
    """
    f = form.coeffs
    n = form.degree
    if n < 3:
        return AdmissibilityReport(False, "degree too small (need n >= 3)")
    if f[-1] != 1:
        return AdmissibilityReport(False, "non-monic (leading coefficient of F(x,1) must be 1)")
    chain = _poly.sturm_chain(f)
    if len(chain[-1]) > 1:
        return AdmissibilityReport(False, "repeated root (gcd(f, f') is non-constant)")
    tops = [p[-1] for p in chain]  # leading coefficients: the sign at +infinity, times (-1)^degree at -infinity
    ends = (_poly.sign_changes([s if len(p) % 2 else -s for s, p in zip(tops, chain)]), _poly.sign_changes(tops))
    if ends[0] - ends[1] < n:
        return AdmissibilityReport(False, "complex root (fewer than n distinct real roots)")
    return AdmissibilityReport(True, None, chain, _poly.root_radius(f), ends)
