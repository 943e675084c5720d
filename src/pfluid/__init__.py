"""Finite element solver and verification harness for unsteady
shear-thinning flow with power-law type stress.

Subpackages follow the pipeline: constitutive algebra (pstructure),
triangulations (mesh), discrete spaces (fespace), weak forms (assembly),
time stepping (stepper), error studies and inequality checks
(verification), text tables (tables), and the command line front end
(cli).
"""

from .pstructure import StressModel
from .mesh import Mesh, unit_square_mesh
from .fespace import FESpace, quadrature_for

__all__ = [
    "StressModel",
    "Mesh",
    "unit_square_mesh",
    "FESpace",
    "quadrature_for",
]

__version__ = "0.1.0"
