"""Desk-scale beam-steering measurement campaigns, simulated end to end.

A reconfigurable reflecting array sits between a fixed feed antenna and a
receiver that walks around it on a turntable arc.  The package builds phase
codebooks for such an array, simulates received-power sweeps over beam and
rotation grids, and provides the downstream analyses those sweeps feed:
pattern smoothing, beamwidth extraction, scaling-law fits, angle-of-arrival
localization, 3D pattern reconstruction, and a small learned surrogate.
"""

from .array_model import *
from .chamber import *
from .codebook import *
from .analysis import *
from .config import *
from .datasets import *
from .errors import *
from .surrogate import *
from . import (analysis, array_model, chamber, codebook, config, datasets,
               errors, surrogate)

__all__ = (array_model.__all__ + chamber.__all__ + codebook.__all__
           + analysis.__all__ + config.__all__ + datasets.__all__
           + errors.__all__ + surrogate.__all__)
