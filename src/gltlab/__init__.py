"""Exact computer algebra for the interpolated GL diagram category, the
truncated RTT Yangian, and its centralizer realization inside U(gl_M)."""

__version__ = "0.1.0"

from .field import QQ, Poly, interpolate
from .diagrams import BrauerDiagram, Morphism, compose, hom_dim, iter_diagrams
from .ugl import UElement, gelfand, straighten
from .yangian import RelationTable, TruncatedYangian, YElement, MatrixSeries
from .centralizer import BlockConvention, injectivity_rank, phi, psi, zed
from .invariants import (ConnectedType, PairString, decompose, dim_graded,
                         hilbert_series)

__all__ = [
    "QQ", "Poly", "interpolate",
    "BrauerDiagram", "Morphism", "compose", "hom_dim", "iter_diagrams",
    "UElement", "gelfand", "straighten",
    "RelationTable", "TruncatedYangian", "YElement", "MatrixSeries",
    "BlockConvention", "injectivity_rank", "phi", "psi", "zed",
    "ConnectedType", "PairString", "decompose", "dim_graded",
    "hilbert_series",
]
