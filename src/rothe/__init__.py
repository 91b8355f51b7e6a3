"""Rothe diagrams of permutations: construction, characterization, reconstruction.

The package builds the diagram of a permutation, checks an arbitrary cell
set against every known characterization rule, rebuilds diagrams from row
counts or free column collections, and brute-forces the equivalences over
small bounds.
"""

from . import core, oracle, reconstruct, rules
from .core import *
from .oracle import *
from .reconstruct import *
from .rules import *

__version__ = "0.1.0"

__all__ = sorted([*core.__all__, *rules.__all__, *reconstruct.__all__, *oracle.__all__])
