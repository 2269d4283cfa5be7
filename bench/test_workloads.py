"""The problem streams keep the properties the benchmark relies on."""

from __future__ import annotations

import os
import sys
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402
from relthue import BinaryForm, check_admissible, integer_roots  # noqa: E402


def test_is_squarefree_matches_trial_division():
    def slow(m):
        return all(m % (d * d) for d in range(2, m + 1) if d * d <= m)

    assert [m for m in range(1, 2000) if workloads.is_squarefree(m)] == [m for m in range(1, 2000) if slow(m)]
    assert not workloads.is_squarefree(99991**2)
    assert workloads.is_squarefree(99991 * 99989)


def test_streams_are_seeded_and_never_repeat_a_problem():
    for name, stream in workloads.WORKLOADS.items():
        first = list(islice(stream(5), 40))
        assert first == list(islice(stream(5), 40)), name
        assert first != list(islice(stream(6), 40)), name
        assert len({p.key for p in first}) == len(first), name


def test_grid_forms_are_admissible_root_free_and_bounded():
    problems = list(islice(workloads.grid(3), 60))
    for p in problems:
        form = BinaryForm(p.coeffs)
        assert check_admissible(form).ok and not integer_roots(form), p.key
        assert abs(p.coeffs[0]) <= workloads.GRID_F0_LIMIT and 3 <= form.degree <= 5
        assert p.m < workloads.GRID_M_LIMIT and workloads.is_squarefree(p.m)
    assert {p.s for p in problems} == {1, 2}
    assert max(p.m for p in problems) > 10**9 and max(abs(p.coeffs[0]) for p in problems) > 10**11
