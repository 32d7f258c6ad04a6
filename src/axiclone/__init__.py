"""Optimal symmetric 1->2 cloning of qubits from axisymmetric ensembles.

The ensemble of input states is any distribution on the Bloch sphere that is
symmetric about a fixed axis; its first two Legendre moments determine the
best symmetric cloner, which this package computes in closed form, simulates
exactly on three qubits, certifies against every CPTP map with an exact
semidefinite dual bound and against Haar-random maps, and compiles to a small
quantum circuit.
"""

from .dist import (AxisDistribution, Belt, Brosseau, Delta, DeltaPair,
                   HenyeyGreenstein, MomentPair, Tabulated, Uniform,
                   VonMisesFisher, load_tabulated, moments, spec_string,
                   validate_moments)
from .errors import (CloneError, DomainError, InfeasibleMomentsError,
                     NonHermitianError, ParseError, UnsupportedKindError)
from .optimal import (ClonerParams, Regime, average_fidelity,
                      fidelity_from_angles, numeric_optimum, optimal_angles,
                      pcc_params, single_copy_fidelity, uc_params, UC_ALPHA)
from .qsim import (PureQubit, apply_clone, clone_fidelity_sim,
                   clone_isometry, partial_trace)
from .choi import (build_merit, choi_fidelity, choi_from_params,
                   dual_certificate, max_sampled_fidelity,
                   optimality_report, random_cptp)
from .circuit import (Circuit, Gate, build_circuit, circuit_unitary,
                      gate_matrix)

__version__ = "0.1.0"
