"""Counting directed r-cycles in supersingular ell-isogeny graphs and on their
F_p spine, two independent ways: exhaustive graph enumeration and closed-form
class-number predictions, with prime-sweep censuses tying the two together.
"""

from ._kernel import BACKEND
from .cycles import census
from .predictor import average_limit, kaneko_bound, predict, residue_census
from .ssgraph import build_graph

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    "average_limit",
    "build_graph",
    "census",
    "kaneko_bound",
    "predict",
    "residue_census",
]
