"""Traveling-wave families, Hill-operator spectra, and orbital-stability
experiments for the one-dimensional Zakharov system.

The package namespace re-exports each module's `__all__`, so that list is
the one place a public name is declared."""

from .elliptic import *
from .errors import *
from .wavefamily import *
from .spectral import *
from .dynamics import *

__version__ = "0.1.0"
