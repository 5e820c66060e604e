"""Clique-difference structure of nested graph chains.

Build chains of strictly nested graphs, derive the graph on chain indices
whose edges mark clique differences, extract certified independent sets
with proven size floors, compare them against exact exhaustive oracles,
and search for chains with a small independence ratio.
"""

from .chains import *
from .derived import *
from .graphs import *
from .oracle import *
from .rng import *
from .search import *
from .witness import *

__version__ = "0.1.0"

__all__ = (chains.__all__ + derived.__all__ + graphs.__all__ + oracle.__all__
           + rng.__all__ + search.__all__ + witness.__all__)
