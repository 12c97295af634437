"""Calibration toolkit for Walfisch-type radio pathloss models.

Evaluates the COST231 and ITU-R Walfisch-Ikegami variants and the
Walfisch-Bertoni model, rewrites each as a sum of component terms, and fits
those terms to field measurements by minimum-norm least squares so that the
calibrated model tracks a measured drive-test profile.
"""

from . import basis, calib, errors, metrics, models
from .basis import *  # noqa: F403
from .calib import *  # noqa: F403
from .errors import *  # noqa: F403
from .metrics import *  # noqa: F403
from .models import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = sorted(basis.__all__ + calib.__all__ + errors.__all__ + metrics.__all__ + models.__all__)
