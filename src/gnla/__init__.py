"""Tanaka prolongation type of graded nilpotent Lie algebras.

Exact rational tools for deciding finite versus infinite type: the
prolongation iteration, rank 1 witness certificates with their minor
ideal Groebner backstop, special extensions and their degree 0
cohomology, and metabelian algebras built from skew matrix pencils.

Each module declares its public API once, in its `__all__`; the package
re-exports those lists in module order, plus `__version__`.
"""

from . import (algebra, certifier, cli, constructions, groebner, linalg,
               prolongation)
from .algebra import *
from .certifier import *
from .cli import *
from .cli import VERSION as __version__
from .constructions import *
from .groebner import *
from .linalg import *
from .prolongation import *

__all__ = (algebra.__all__ + certifier.__all__ + cli.__all__
           + constructions.__all__ + groebner.__all__ + linalg.__all__
           + prolongation.__all__ + ["__version__"])
