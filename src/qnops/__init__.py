"""Quasi-Newton updates with image and projection operators, plus the
matrix-approximation laboratory and benchmark problems behind them.

The package exports exactly the ``__all__`` of its modules ``linalg``,
``updates``, ``operators``, ``problems``, ``solvers`` and ``lab``, joined in
that order; each module's list is the one statement of its public names."""

from .linalg import *  # noqa: F401,F403
from .updates import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403
from .lab import *  # noqa: F401,F403
from . import lab, linalg, operators, problems, solvers, updates

__all__ = [name for module in (linalg, updates, operators, problems, solvers, lab)
           for name in module.__all__]

__version__ = "0.1.0"
