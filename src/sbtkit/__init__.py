"""Continuous-to-discrete transformation toolkit for resonant controllers.

The package centers on a two-parameter bilinear substitution whose shape
factor alpha moves the stability image between the Euler and Tustin
extremes while the time factor beta rescales frequency, letting one
closed-form coefficient set cover the classic rules and tuned variants
alike.  The package re-exports each module's ``__all__``.
"""

from . import analysis, controllers, errors, lti, sim, transforms, tuning
from .errors import *  # noqa: F403
from .lti import *  # noqa: F403
from .transforms import *  # noqa: F403
from .controllers import *  # noqa: F403
from .analysis import *  # noqa: F403
from .tuning import *  # noqa: F403
from .sim import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *lti.__all__, *transforms.__all__, *controllers.__all__,
    *analysis.__all__, *tuning.__all__, *sim.__all__, "__version__",
]
