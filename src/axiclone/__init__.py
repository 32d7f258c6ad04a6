"""Optimal symmetric 1->2 cloning of qubits from axisymmetric ensembles.

The ensemble of input states is any distribution on the Bloch sphere that is
symmetric about a fixed axis; its first two Legendre moments determine the
best symmetric cloner, which this package computes in closed form, simulates
exactly on three qubits, certifies against every CPTP map with an exact
semidefinite dual bound and against Haar-random maps, and compiles to a small
quantum circuit.

Importing the package loads no numpy: the closed form, the moments, the
gate list and the three-qubit simulation are scalar math.  The names of
``qsim`` and ``choi`` are resolved on first access; only ``choi``, the
certificate behind ``verify``, imports numpy, and ``circuit_unitary``, the
circuit's 8x8 matrix, imports it when first called.
"""

import importlib

from .dist import (AxisDistribution, Belt, Brosseau, Delta, DeltaPair,
                   HenyeyGreenstein, MomentPair, Tabulated, Uniform,
                   VonMisesFisher, load_tabulated, moments, spec_string,
                   validate_moments)
from .errors import (CloneError, DomainError, InfeasibleMomentsError,
                     NonHermitianError, ParseError, UnsupportedKindError)
from .optimal import (ClonerParams, Regime, average_fidelity,
                      numeric_optimum, optimal_angles, pcc_params,
                      single_copy_fidelity, uc_params, UC_ALPHA)
from .circuit import Gate, build_circuit, circuit_unitary

__version__ = "0.1.0"

# name -> submodule of each name imported on first access: choi loads
# numpy, and only simulate and verify read qsim and choi
_LAZY = {name: module for module, names in (
    ("qsim", ("PureQubit", "apply_clone", "clone_fidelity_sim",
              "clone_isometry")),
    ("choi", ("build_merit", "choi_fidelity", "choi_from_params",
              "dual_certificate", "max_sampled_fidelity",
              "optimality_report")),
) for name in names}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
