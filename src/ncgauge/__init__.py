"""Finite gauge theory machinery from spectral data.

The package builds finite real spectral triples, verifies their axioms,
computes one-forms, gauge groups, perturbation semigroups and inner
fluctuations, localizes everything over the finite base cut out by the
commutative subalgebra attached to the real structure, and carries the
same bookkeeping to rational-parameter torus and sphere deformations.
Every verification routine returns a report of named checks with
residuals, tolerances and scope labels.

The top-level namespace is the union of the modules' ``__all__``: each
module declares its public names once, and this file re-exports them.
"""

from .linalg import *
from .staralg import *
from .reporting import *
from .spectral import *
from .models import *
from .gauge import *
from .localize import *
from .torus import *
from .spheres import *
from .parsing import *
from .toric import *

__version__ = "0.1.0"
