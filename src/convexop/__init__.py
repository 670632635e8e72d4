"""Convex operational models: ordered vector spaces, probes, and scenarios.

The package realizes statistical models as ordered vector spaces with an
order unit: classical phase spaces with the componentwise cone, quantum
systems with the positive semidefinite cone stored in Hermitian-basis
coordinates.  On top of that sit probe functionals on tensor products of
boundary spaces, operation maps with measurement and evolution sequencing,
Choi-matrix complete-positivity checks, the anti-lattice witness for the
PSD order, and a declarative scenario file format with a command line
front end.
"""

from .errors import *
from .hermitian import *
from .spaces import *
from .probes import *
from .operational import *
from .classical import *
from .quantum import *
from .lattice import *
from .scenario import *
from . import classical, errors, hermitian, lattice, operational, probes, quantum
from . import scenario, spaces

__version__ = "0.1.0"

_MODULES = (errors, hermitian, spaces, probes, operational, classical, quantum, lattice,
            scenario)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
