"""Kernel plug-in estimation for current status data with continuous marks.

The observable data are triples ``(t, z, delta)``: a censoring time, a mark
(zero when censored) and the indicator of whether the latent event happened
by ``t``.  The package estimates the joint law of the event time and mark
from such data, studies the estimators' limit behaviour by seeded Monte
Carlo, and selects bandwidths through a smoothed bootstrap.

Each public name is declared once, in its module's ``__all__``; the package
exports those names and ``__version__``.
"""

from .errors import *
from .kernels import *
from .scenarios import *
from .estimators import *
from .asymptotics import *
from .pilot import *
from .bandwidth import *
from . import asymptotics, bandwidth, errors, estimators, kernels, pilot, scenarios

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *kernels.__all__, *scenarios.__all__,
           *estimators.__all__, *asymptotics.__all__, *pilot.__all__,
           *bandwidth.__all__]
