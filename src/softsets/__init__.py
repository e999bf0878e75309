"""Soft sets over a fixed finite universe, in binary matrix form.

A soft set maps each attribute to a subset of the universe.  The
package keeps universe and attribute order explicit, stores each
value as one bit mask (a column of the 0/1 matrix), and treats the
family of value subsets as the invariant that equivalence,
approximation relations, and the rewrite prober are built on.
Similarity is exact rational arithmetic throughout; nothing here rounds.
"""

from . import algebra, analysis, core, oracle, relations
from .core import *  # noqa: F403
from .algebra import *  # noqa: F403
from .relations import *  # noqa: F403
from .analysis import *  # noqa: F403
from .oracle import *  # noqa: F403

__all__ = (
    core.__all__ + algebra.__all__ + relations.__all__ + analysis.__all__ + oracle.__all__
)

__version__ = "0.1.0"
