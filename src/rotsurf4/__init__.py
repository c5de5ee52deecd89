"""rotsurf4: curvature invariants of two-plane rotational surfaces in 4-space.

The package computes the metric and curvature data of surfaces swept by a
plane meridian rotating with two independent speeds in two orthogonal
coordinate planes of R^4, cross-validates the closed forms against a
generic finite-difference pipeline, and generates the minimal
super-conformal members of the family (power-law meridians).
"""

# the root re-exports each module's ``__all__``
from .expr import *  # noqa: F401,F403
from .forms import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .msc import *  # noqa: F401,F403
from .octet import *  # noqa: F401,F403
from .rotational import *  # noqa: F401,F403

__version__ = "0.1.0"
