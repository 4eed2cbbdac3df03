"""slhnet: circuit algebra for passive linear-optical networks.

Compose scattering models with series, concatenation and feedback
products; build Mach-Zehnder switches, binary selector staircases and
feedback readout loops; compile selector vectors to control-phase
schedules and verify every closed form against brute-force composition.
"""

from . import core, components, selector, readout, netlist
from .core import *
from .components import *
from .selector import *
from .readout import *
from .netlist import *

__version__ = "0.1.0"

__all__ = sorted(core.__all__ + components.__all__ + selector.__all__
                 + readout.__all__ + netlist.__all__)
