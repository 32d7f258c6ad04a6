"""Optimal symmetric 1->2 cloning of qubits from axisymmetric ensembles.

The ensemble of input states is any distribution on the Bloch sphere that is
symmetric about a fixed axis; its first two Legendre moments determine the
best symmetric cloner, which this package computes in closed form, simulates
exactly on three qubits, certifies against every CPTP map with an exact
semidefinite dual bound and against Haar-random maps, and compiles to a small
quantum circuit.

The package root exports no names: each is imported from the module that
defines it, as in ``from axiclone.optimal import optimal_angles``.  The
ensembles and their moments live in ``dist``, the closed form in
``optimal``, the three-qubit simulation in ``qsim``, the gate list in
``circuit``, the certificate in ``choi`` and the errors in ``errors``.
Only ``choi`` loads numpy when imported; ``circuit.circuit_unitary``, the
circuit's 8x8 matrix, imports it when first called.
"""
