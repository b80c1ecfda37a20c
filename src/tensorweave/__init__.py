"""Checkpoint merging that pools weights across a scaling-factor sweep."""

from . import analysis, methods, store, vectors
from . import weave as _weave_module  # the package name ``weave`` is the function
from .analysis import *
from .methods import *
from .store import *
from .vectors import *
from .weave import *

__version__ = "0.1.0"

__all__ = sorted(name for m in (analysis, methods, store, vectors, _weave_module) for name in m.__all__)
