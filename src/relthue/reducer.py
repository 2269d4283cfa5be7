"""Reduction of the relative inequality to absolute inequalities over Z.

For a solution (x, y) write v_imag = F(x2, y2) and v_real = F(a, b) with
(a, b) = (s*x1 + (s-1)*x2, s*y1 + (s-1)*y2).  Both are values realized by
one absolute enumeration, |F(a, b)| <= s^n K, and the part bound on v_imag
filters those values.

Both branches prune the integer-root lines by one exact derivative test.  For
each root rho of f, s*(x - rho*y) = (a - rho*b) + i*sqrt(m)*(x2 - rho*y2) with
both terms real, so the factor is at least either term in modulus.  When one
of the two pairs lies on the line of an integer root r, as (h*r, h) with
h != 0, the factor at r is the other pair's term alone, e, and every other
factor is at least |r - rho|*|h|*sqrt(c), with c = 1 for the real pair and
c = m for the imaginary one.  f is monic, so the product of |r - rho| over
rho != r is |f'(r)|, and |F(x, y)| <= K needs

    e^2 * f'(r)^2 * (c*h^2)^(n-1) <= (s^n K)^2, that is <= part_cap,

since the left side is an integer.  Splitting on v_imag = 0 versus
v_imag != 0 gives:

* zero branch: (x2, y2) runs over the zero set of F on Z^2, that is (0, 0)
  and the integer-root lines (r*t, t), and (a, b) over |F(a, b)| <= s^n K.
  A pair with x2 = r*y2 and a = r*b is a member x = r*y of the zero family
  of r; members are not enumerated but kept as the root r in
  :attr:`RelativeSolutionSet.families` and expanded by
  :meth:`RelativeSolutionSet.quadruples`.  f is monic, so
  F(a, b) = 0 only on the root lines: (x2, y2) = (0, 0) takes the real pairs
  of nonzero value, and (0, 0) when f has no integer root.  Off the families,
  e = a - r*b = s*d with d = x - r*y a nonzero rational integer, and h = t,
  c = m: the test ends each root line at the first t where even |d| = 1
  fails, and pairs (r*t, t) only with real pairs in the window
  0 < |a - r*b| <= s*d_max(t).  The branch reads only the scanned rows of
  the enumeration, none of its span (see :mod:`~relthue.abssolver`): a real
  pair (r'*b, b) on the line of another root r' != r has, at r', the
  factor's imaginary term alone, e^2 = m*t^2*(r - r')^2 >= 1, with h = b and
  c = 1, so the test needs f'(r')^2 * b^(2(n-1)) <= part_cap, that is
  b^(n-1) <= s^n K / |f'(r')| <= s^n K / B, B = min |f'(r)| the gap product,
  exact for integer roots; that gives b <= b_w, the last scanned row;
* nonzero branch: for each realized v_imag != 0 within the part bound, the
  joint bound confines (a, b) to the real pairs of value 0 and a prefix of
  those of nonzero value sorted by |v_real|.  Value 0 is (0, 0) and the
  root-line pairs (r*b, b); (x2, y2) lies on no root line, so
  e = sqrt(m)*(x2 - r*y2) with x2 - r*y2 a nonzero integer, and h = b, c = 1:
  the test keeps only b <= b_max, where b_max^(2(n-1)) <= part_cap //
  (m*(x2 - r*y2)^2*f'(r)^2).  Those pairs are built from b_max, so this
  branch reads no span row either.

Candidates are reconstructed via x1 = (a - (s-1)*x2)/s, y1 = (b - (s-1)*y2)/s,
which is integral exactly when a = (s-1)*x2 and b = (s-1)*y2 mod s: for s = 2
each branch splits the real pairs once into their classes (a mod 2, b mod 2),
and each imaginary pair meets only its own class.

F has rational integer coefficients, so conjugation, which negates the
imaginary pair and keeps the real pair, and (x, y) -> (-x, -y), which negates
both, keep |F(x, y)|.  Both branches' candidate sets, the classes, the caps
and the reach are closed under these maps, so each branch pairs only orbit
representatives: both pairs are rows of the absolute listing, which holds one
pair of each {(a, b), (-a, -b)} (see :mod:`~relthue.abssolver`), and the
imaginary pair (0, 0) or a root-line pair (r*t, t) with t > 0.  A branch
verifies each representative exactly against the original inequality by one
plain-integer kernel and returns those that solve.  :func:`solve_relative`
expands each of them into its orbit: each other distinct member (up to four
in all) is verified by the same kernel, once, so every solution is still
checked one by one.  A solution is kept as plain integers: its quadruple, the
norm of F(x, y), and its report, which
:func:`~relthue.theorem.full_report` decides once per orbit, for the
representative.  Every predicate reads only |F(a, b)|, |F(x2, y2)|,
norm(y), whether x2*y1 - x1*y2, b and y2 vanish, and whether a and x2 do;
both maps keep each of these, so every member of an orbit has the report of
its representative, by an argument of the kind that exempts zero-family
members (see :class:`RelativeSolutionSet`).  One absolute enumeration at
bound s^n K serves both branches.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from . import _poly
from .abssolver import AbsSolutionSet, solve_abs
from .forms import BinaryForm, IntegerPair
from .quadfield import QuadraticField
from .rootbounds import Problem
from .theorem import TheoremReport, full_report

Quad = tuple[int, int, int, int]  # (x1, x2, y1, y2)
Found = dict[Quad, int]  # representative quad -> norm(F(x, y))


class RelativeSolution(NamedTuple):
    """One verified solution as plain integers: (x1, x2, y1, y2), the norm of F(x, y), and its predicate report."""

    quadruple: Quad
    value_norm: int
    report: TheoremReport


class RelativeSolutionSet(NamedTuple):
    """The solutions within reach: the zero families plus every solution outside them.

    ``solutions`` holds only the solutions that are not family members, each
    verified exactly and with its predicate report; when F has no integer
    root, (0, 0) is one of them, otherwise it is a member of every family.
    ``families`` holds the integer roots of f in ascending order, one zero
    family each: the family of r is every (w*r, w) with w in the ring, and
    each member solves exactly.  The reach is |y2| <= ``search_height`` and
    |s*y1 + (s-1)*y2| <= ``search_height``; :meth:`family_members` lists the
    members within it and :meth:`quadruples` the whole solution set within it.

    A member x = r*y has F(x, y) = 0, and every predicate of
    :func:`~relthue.theorem.full_report` holds for it: its real pair is
    (r*b, b) and its imaginary pair (r*y2, y2), so both part values and the
    joint product are 0; x2*y1 = r*y2*y1 = x1*y2 (proportionality); b = 0
    forces a = r*b = 0 (real-pair vanishing); y2 = 0 forces x2 = r*y2 = 0
    (imaginary vanishing).  Members are therefore checked once per family,
    by this argument, and not one by one.
    """

    solutions: tuple[RelativeSolution, ...]
    search_height: int
    families: tuple[int, ...]
    cross_check_ok: bool
    field: QuadraticField

    def family_members(self, box: int | None = None) -> Iterator[Quad]:
        """Every family member (r*y, y) within reach, each once.

        With ``box``, only the members whose four coordinates all lie in
        [-box, box]; only those are generated, so the work grows with the box
        and not with the reach.
        """
        s, t, height = self.field.s, self.field.t, self.search_height
        for i, r in enumerate(self.families):
            # |y1|, |y2| <= cap keeps r*y1 and r*y2 in the box; reach alone implies |y1| <= height
            cap = height if box is None else min(height, box // max(abs(r), 1))
            for y2 in range(-cap, cap + 1):
                # y1 with |s*y1 + t*y2| <= height
                y1_lo = max(-cap, -((height + t * y2) // s))
                y1_hi = min(cap, (height - t * y2) // s)
                for y1 in range(y1_lo, y1_hi + 1):
                    if i == 0 or y1 or y2:  # (0, 0) is in every family
                        yield (r * y1, r * y2, y1, y2)

    def quadruples(self) -> set[Quad]:
        return {sol.quadruple for sol in self.solutions}.union(self.family_members())

    def listing(self) -> list[tuple[Quad, int]]:
        """(quadruple, norm of F) of every solution within reach, members (norm 0) included, in solver order."""
        rows = [(_solver_order(sol.report.norm_y, sol.quadruple), sol.value_norm) for sol in self.solutions]
        norm = self.field.norm
        rows += [(_solver_order(norm(quad[2], quad[3]), quad), 0) for quad in self.family_members()]
        return [((x1, x2, y1, y2), value_norm) for (_, y1, y2, x1, x2), value_norm in sorted(rows)]


def _solver_order(norm_y: int, quad: Quad) -> tuple[int, int, int, int, int]:
    return (norm_y, quad[2], quad[3], quad[0], quad[1])  # norm(y), then y1, y2, x1, x2


def _evaluate(coeffs: tuple[int, ...], q: int, t: int, x1: int, x2: int, y1: int, y2: int) -> int:
    """norm(F(x, y)) for x = x1 + x2*w and y = y1 + y2*w, on plain integers, through F(x, y) = v1 + v2*w.

    The homogeneous Horner scheme of :meth:`QuadraticField.evaluate_form`, acc <- acc*x + c_k*y^(n-k), with the
    ring's constants :attr:`QuadraticField.q` and :attr:`QuadraticField.t` (w^2 = t*w - q) passed in:
    (u1 + u2*w)(z1 + z2*w) = (u1*z1 - q*u2*z2, u1*z2 + u2*z1 + t*u2*z2), and norm(v1 + v2*w) =
    v1^2 + t*v1*v2 + q*v2^2.  Only the solver verifies with it: ``brute_force`` and ``relthue verify`` keep
    ``evaluate_form``, so a fault here shows up as a ``relthue check`` mismatch.
    """
    v1, v2, p1, p2 = coeffs[-1], 0, 1, 0
    for c in coeffs[-2::-1]:
        cross = p2 * y2
        p1, p2 = p1 * y1 - q * cross, p1 * y2 + p2 * y1 + t * cross
        cross = v2 * x2
        v1, v2 = v1 * x1 - q * cross + c * p1, v1 * x2 + v2 * x1 + t * cross + c * p2
    return v1 * v1 + t * v1 * v2 + q * v2 * v2


def _verify(kernel: tuple, quad: Quad) -> int | None:
    """norm(F(x, y)) when the quadruple solves the inequality, else None.

    ``kernel`` is (coeffs, q, t, norm_cap) as :func:`_kernel` hoists it.  Norms are integers, so
    norm(F(x, y)) <= K^2 exactly when it is at most ``norm_cap`` = floor(K^2).
    """
    coeffs, q, t, norm_cap = kernel
    norm = _evaluate(coeffs, q, t, *quad)
    return norm if norm <= norm_cap else None


def _kernel(problem: Problem) -> tuple:
    """What :func:`_verify` reads of a problem, taken once per branch: (coeffs, q, t, norm_cap)."""
    return (problem.form.coeffs, problem.field.q, problem.field.t, problem.norm_cap)


def _classes(s: int, rows) -> dict[IntegerPair, list]:
    """The rows (a, b, ...) by their class (a mod s, b mod s), each class in the order of ``rows``.

    x1 = (a - t*x2)/s and y1 = (b - t*y2)/s, t = s - 1, are integers exactly when a = t*x2 and b = t*y2
    mod s.  For s = 2, t = 1, that is (a, b) = (x2, y2) mod 2, so each imaginary pair is paired with its own
    class, one of four; for s = 1 there is one class.
    """
    if s == 1:
        return {(0, 0): rows}
    classes: dict[IntegerPair, list] = {}
    for row in rows:
        classes.setdefault((row[0] % s, row[1] % s), []).append(row)
    return classes


def _orbits(kernel: tuple, imag_pair: IntegerPair, real_pairs: Iterable[IntegerPair], found: Found) -> None:
    """Verify each candidate (imag_pair, real pair), the representative of its orbit, and keep those that solve.

    ``imag_pair`` and each real pair must be representatives as the module docstring states, so each orbit is
    reached once, and every real pair must lie in the class of ``imag_pair`` (:func:`_classes`), so each
    division is exact.  A rejected representative costs one verification for its whole orbit.
    """
    t = kernel[2]
    s, (x2, y2) = t + 1, imag_pair
    for a, b in real_pairs:
        quad = ((a - t * x2) // s, x2, (b - t * y2) // s, y2)
        norm = _verify(kernel, quad)
        if norm is not None:
            found[quad] = norm


def _root_slopes(problem: Problem) -> list[tuple[int, int]]:
    """(r, f'(r)^2) for each integer root r of f, as the derivative test of the module docstring reads it."""
    f_prime = _poly.derivative(problem.form.coeffs)
    return [(r, _poly.evaluate(f_prime, r) ** 2) for r in problem.roots.integer_roots]


def zero_value_branch(problem: Problem, abs_solutions: AbsSolutionSet) -> Found:
    """The representatives of the solutions with F(x2, y2) = 0 that are not zero-family members, verified exactly.

    ``abs_solutions`` is the enumeration of |F(a, b)| <= s^n K; its height
    bounds y2 too.  For y2 = t != 0 on the line of root r, only scanned real
    pairs with 0 < |a - r*b| <= s*d_max(t) are tried, where d_max(t) is the
    largest d with d^2 * f'(r)^2 * (m*t^2)^(n-1) <= K^2 * s^(2(n-1)) (see the
    module docstring, which also shows that no span row can solve); the line
    ends where d_max(t) = 0.  d_max only falls as t grows, so each window is
    taken from the one before.
    """
    s, m, n = problem.field.s, problem.field.m, problem.form.degree
    roots = problem.roots.integer_roots
    kernel = _kernel(problem)
    classes = _classes(s, abs_solutions.rows)
    found: Found = {}
    # y2 = x2 = 0: x and y are rational integers, members when F(a, b) = 0 puts (a, b) on a root line
    aligned = classes.get((0, 0), ())  # the real pairs with s | a and s | b
    _orbits(kernel, (0, 0), [(a, b) for a, b, v in aligned if v or not roots], found)
    for r, slope_sq in _root_slopes(problem):
        windows: dict[IntegerPair, list[IntegerPair]] = {}
        for t in range(1, abs_solutions.height + 1):
            # K^2 s^(2(n-1)) / D = (s^n K)^2 / (s^2 D), whose floor is part_cap // (s^2 D)
            d_max = isqrt(problem.part_cap // (s * s * slope_sq * (m * t * t) ** (n - 1)))
            if d_max == 0:
                break
            key = (r * t % s, t % s)  # the class of (r*t, t)
            wider = windows[key] if key in windows else [(a, b) for a, b, _ in classes.get(key, ())]
            window = windows[key] = [(a, b) for a, b in wider if 0 < abs(a - r * b) <= s * d_max]
            _orbits(kernel, (r * t, t), window, found)  # and (-r*t, -t), in the same orbits
    return found


def nonzero_value_branch(problem: Problem, abs_solutions: AbsSolutionSet) -> Found:
    """The representatives of the solutions with F(x2, y2) = v_imag != 0, verified exactly; ``abs_solutions`` as
    for the zero branch.

    The rows of nonzero value are split into their classes, each sorted by |F|.  In each class, the imaginary
    pairs are the prefix with v_imag^2 * m^n <= (s^n K)^2 (the part bound), and each of them pairs with the
    prefix of the same class whose |v_real| meets the joint bound; every realized |v_real| already meets its
    part bound s^n K.  Of value 0 these are (0, 0) and, on the line of each integer root r, the pairs (r*b, b)
    with 1 <= b <= min(height, b_max), where b_max is the largest b with
    m * (x2 - r*y2)^2 * f'(r)^2 * b^(2(n-1)) <= part_cap (see the module docstring).  When the part bound
    admits no v_imag != 0, nothing is sorted or split.
    """
    n, m, s = problem.form.degree, problem.field.m, problem.field.s
    imag_cap = isqrt(problem.part_cap // m**n)
    if imag_cap == 0:
        return {}
    kernel, rows = _kernel(problem), abs_solutions.rows
    by_size = sorted((row for row in rows if row[2]), key=lambda row: abs(row[2]))
    slopes = _root_slopes(problem)
    height, exponent = abs_solutions.height, 2 * (n - 1)
    found: Found = {}
    for key, members in _classes(s, by_size).items():
        sizes, pairs = [abs(v) for _, _, v in members], [(a, b) for a, b, _ in members]
        first = key[1] or s  # the least b >= 1 in the class, b = key[1] mod s
        lines = [(r, slope_sq) for r, slope_sq in slopes if r * first % s == key[0]]  # r*b mod s is fixed on the class
        for (x2, y2), v_imag in zip(pairs, sizes[: bisect_right(sizes, imag_cap)]):
            real_cap = isqrt(problem.joint_cap // (v_imag * v_imag * 2 ** (2 * n) * m**n))
            zeros = [(0, 0)] if key == (0, 0) else []
            for r, slope_sq in lines:
                b_max = _poly.iroot(problem.part_cap // (m * slope_sq * (x2 - r * y2) ** 2), exponent)
                zeros += [(r * b, b) for b in range(first, min(height, b_max) + 1, s)]
            _orbits(kernel, (x2, y2), zeros + pairs[: bisect_right(sizes, real_cap)], found)
    return found


def solve_relative(
    field: QuadraticField,
    form: BinaryForm,
    K,
    epsilon=Fraction(1, 2),
    height: int = 100,
) -> RelativeSolutionSet:
    """Solve |F(x, y)| <= K over the ring of integers, exhaustively within reach.

    The documented reach is |y2| <= height and |s*y1 + (s-1)*y2| <= height:
    every solution satisfying both is either a member of one of the returned
    zero families or appears in ``solutions``.  Each entry of ``solutions``
    is verified exactly and carries a structure-predicate report (a failed
    applicable predicate would indicate a bug and flips ``cross_check_ok``),
    decided once per orbit of conjugation and negation, for the
    representative a branch returns, and shared by the members it expands
    to (see the module docstring); family members satisfy every predicate
    by the argument on :class:`RelativeSolutionSet`.
    """
    problem = Problem(field, form, K, epsilon)
    abs_solutions = solve_abs(form, problem.abs_bound, height, roots=problem.roots)
    representatives = zero_value_branch(problem, abs_solutions)
    representatives.update(nonzero_value_branch(problem, abs_solutions))
    kernel, t = _kernel(problem), field.t
    solutions = []
    for quad, value_norm in representatives.items():
        report = full_report(problem, quad)
        solutions.append(RelativeSolution(quad, value_norm, report))
        x1, x2, y1, y2 = quad
        conjugate = (x1 + t * x2, -x2, y1 + t * y2, -y2)  # (-imaginary pair, real pair)
        negated_real = (-x1 - t * x2, x2, -y1 - t * y2, y2)  # (imaginary pair, -real pair)
        for member in {conjugate, negated_real, (-x1, -x2, -y1, -y2)}:
            if member != quad:
                norm = _verify(kernel, member)
                if norm is not None:
                    solutions.append(RelativeSolution(member, norm, report))
    solutions.sort(key=lambda sol: _solver_order(sol.report.norm_y, sol.quadruple))
    cross_check_ok = all(sol.report.ok for sol in solutions)
    if not cross_check_ok:
        import logging  # only this warning needs it: every run whose cross-check passes skips loading it
        logging.getLogger(__name__).warning("a verified solution failed an applicable structure predicate")
    return RelativeSolutionSet(
        solutions=tuple(solutions),
        search_height=height,
        families=problem.roots.integer_roots,
        cross_check_ok=cross_check_ok,
        field=field,
    )
