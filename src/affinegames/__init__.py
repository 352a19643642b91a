"""Competitive exercise games with affine redistribution of payoffs.

Single-period games, their linear-complementarity solutions, the
proportional-redistribution family, and multi-period stopping games on
scenario trees with the equivalent reflected backward equation. The
package exports exactly the public names of these modules.
"""

from . import bsde, errors, lcp, matrices, multi_period, redistribution, single_period, tree
from .bsde import *
from .errors import *
from .lcp import *
from .matrices import *
from .multi_period import *
from .redistribution import *
from .single_period import *
from .tree import *

__version__ = "0.1.0"

_MODULES = (bsde, errors, lcp, matrices, multi_period, redistribution, single_period, tree)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
