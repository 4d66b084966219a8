"""Partial-correlation graphs and their path-sum expansions.

A Gaussian system's precision matrix factors into node scales and a
coupling graph R; marginal correlations are then sums over weighted
paths through that graph.  This package provides the validated matrix
forms and conversions (:mod:`pathcorr.matrices`), truncated and closed
path summation with optional rescaling (:mod:`pathcorr.pathsum`),
network surgery such as severance, marginalisation, and latent
reduction (:mod:`pathcorr.transforms`), closed chain formulas
(:mod:`pathcorr.chains`), Gaussian mutual information
(:mod:`pathcorr.gaussinfo`), test-system generators
(:mod:`pathcorr.sampling`), and a command line (``pathcorr``).
"""

# Dependency order; each star import below copies one module's __all__.
from . import errors, matrices, pathsum, transforms, chains, gaussinfo, sampling  # noqa: I001
from .errors import *  # noqa: F403
from .matrices import *  # noqa: F403
from .pathsum import *  # noqa: F403
from .transforms import *  # noqa: F403
from .chains import *  # noqa: F403
from .gaussinfo import *  # noqa: F403
from .sampling import *  # noqa: F403

__version__ = "0.1.0"

# The package exports exactly what its modules export.
__all__ = [
    "__version__",
    *errors.__all__,
    *matrices.__all__,
    *pathsum.__all__,
    *transforms.__all__,
    *chains.__all__,
    *gaussinfo.__all__,
    *sampling.__all__,
]
