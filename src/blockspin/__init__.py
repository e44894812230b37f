"""Desk-scale laboratory for block-spin renormalization of lattice Bose fields.

Modules
-------
torus        lattice geometry, fields, inner products, dual lattices
lattice_ops  difference operators, heat operator, block/fine averaging, field scaling maps
symbols      momentum-space symbol algebra and small-momentum fits
background   background-field solvers (constant, linearized, well, full nonlinear)
action       action evaluation, effective potential, quadratic forms, spectra
flow         running couplings, quadratic-level block-spin step, chemical-potential
             renormalization
norms        Steiner lengths and the tree-weighted kernel norm
"""

from .torus import (
    Field,
    FieldPair,
    LatticeError,
    TorusShape,
    inner_product,
    make_shape,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "FieldPair",
    "LatticeError",
    "TorusShape",
    "inner_product",
    "make_shape",
    "__version__",
]
