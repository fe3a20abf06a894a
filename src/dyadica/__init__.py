"""Dyadic wavelet machinery: paraproducts, symbol norms, sparse domination."""

from .dyadic import DyadicCube, RootBox, children, long_distance, rescale_point
from .wavelet import AtomBasis, CascadeError, CoefficientTree, WaveletFamily, build_family

__version__ = "0.1.0"

__all__ = [
    "DyadicCube", "RootBox", "children", "long_distance", "rescale_point",
    "AtomBasis", "CascadeError", "CoefficientTree", "WaveletFamily",
    "build_family", "__version__",
]
