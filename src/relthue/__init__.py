"""Exact solver for relative Thue inequalities |F(x, y)| <= K over the
integers of an imaginary quadratic field Q(i*sqrt(m)), by reduction to
height-bounded absolute inequalities over Z, with an independent brute-force
oracle for verification.  All accept/reject decisions use exact integer and
rational arithmetic.

The names below are the documented entry points; the building blocks (root
isolation, the bounds that ``rootbounds.enclosures`` prints as Fractions, the
two reduction branches) are imported from their modules."""

from .abssolver import solve_abs
from .forms import BinaryForm, InadmissibleFormError, check_admissible
from .oracle import brute_force
from .quadfield import QuadraticField
from .reducer import solve_relative
from .rootbounds import Problem, integer_roots
from .theorem import full_report

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "InadmissibleFormError",
    "Problem",
    "QuadraticField",
    "brute_force",
    "check_admissible",
    "full_report",
    "integer_roots",
    "solve_abs",
    "solve_relative",
]
