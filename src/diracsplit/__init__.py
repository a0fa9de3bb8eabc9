"""Split-step Fourier pseudospectral solvers for the time-dependent
Dirac equation with time-dependent electromagnetic potentials.

The package root exports the names the README and the tests use; every
other public name is imported from its submodule (``diracsplit.experiments``,
``diracsplit.propagators``, ...)."""

from .grids import PeriodicGrid
from .fields import SpinorField, mass, error_norms
from .potentials import TimeDependent1D
from .propagators import commutator_coefficients, commutator_bruteforce
from .integrators import builtin_plan, evolve, SCHEMES

__version__ = "0.1.0"

__all__ = [
    "PeriodicGrid",
    "SpinorField",
    "mass",
    "error_norms",
    "TimeDependent1D",
    "commutator_coefficients",
    "commutator_bruteforce",
    "builtin_plan",
    "evolve",
    "SCHEMES",
]
