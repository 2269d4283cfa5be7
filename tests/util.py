"""Shared helpers for the test suite: independent oracles and small builders.

The rectangle scan here is deliberately naive — it shares no pruning logic
with the package — so it can serve as ground truth for the windowed
enumerator.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import Counter
from fractions import Fraction
from math import ceil
from pathlib import Path

import relthue
from relthue import BinaryForm
from relthue.rootbounds import isolate_roots, nth_root_upper


def form_from_roots(roots) -> BinaryForm:
    """Monic product of (x - r*y) over the given integer roots."""
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    return BinaryForm(tuple(coeffs))


def rectangle_solutions(form: BinaryForm, bound, ymax: int) -> set[tuple[int, int]]:
    """Full-rectangle scan of |F(a, b)| <= bound, |b| <= ymax.

    The per-b a-range max|root|*|b| + K'^(1/n) provably contains every
    solution: if all factors |a - root_j*b| exceeded K'^(1/n) the product
    would exceed the bound.
    """
    bound = Fraction(bound)
    data = isolate_roots(form, Fraction(1, 2**10))
    root_cap = max(max(abs(lo), abs(hi)) for lo, hi in data.intervals)
    window = max(Fraction(1), nth_root_upper(bound, form.degree, 16))
    out = set()
    for b in range(-ymax, ymax + 1):
        a_cap = ceil(root_cap * abs(b) + window) + 1
        for a in range(-a_cap, a_cap + 1):
            if abs(form.evaluate(a, b)) <= bound:
                out.add((a, b))
    return out


def profiled_calls(fn, *args) -> tuple[object, Counter]:
    """fn(*args) and the number of calls per (module, function) of the package during it."""
    # cProfile counts calls by code object, so no import alias can hide one
    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args)
    calls = Counter()
    for (filename, _, name), (_, total_calls, *_) in pstats.Stats(profiler).stats.items():
        if Path(filename).parent == Path(relthue.__file__).parent:
            calls[Path(filename).stem, name] += total_calls
    return result, calls
