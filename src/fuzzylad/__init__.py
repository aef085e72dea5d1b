"""Trapezoidal fuzzy preference modeling with LAD-derived priorities.

The package models pairwise judgments as trapezoidal fuzzy preference
relations whose diagonal carries a decision-maker-personalized neutral
element, on either the unit-interval (additive) or ratio (multiplicative)
scale.  Ranking utilities and normalized fuzzy weights are derived by
minimizing total absolute deviation through small linear programs, with
closed-form mean-based baselines and a multi-criteria pipeline on top.

Every name a module lists in its ``__all__`` is importable from here.
"""

from . import ahp, errors, files, group, lad, relations, simplex, trfn
from .ahp import *
from .errors import *
from .files import *
from .group import *
from .lad import *
from .relations import *
from .simplex import *
from .trfn import *

__version__ = "0.1.0"

__all__ = [
    *ahp.__all__,
    *errors.__all__,
    *files.__all__,
    *group.__all__,
    *lad.__all__,
    *relations.__all__,
    *simplex.__all__,
    *trfn.__all__,
]
