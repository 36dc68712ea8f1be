"""Certified local uniqueness of hyperelastic equilibria on quad/hex meshes.

Submodules
----------
tensor_core   polar factors, rotation distance, strain
harmonic      grid fields, maximal functions, BMO seminorms, interpolation fits
material      stored-energy models, constitutive checks, Taylor constants
fem           Q1 meshes, energies, Newton solves, second-variation eigensolves
rigidity      rotation fits, rigidity and Korn constants
certify       neighborhood radii, energy-gap gates, uniqueness certificates
pushforward   change of reference configuration and its certified gates
cli           scenario files and the rigidity-cert entry point
"""

__version__ = "0.1.0"
