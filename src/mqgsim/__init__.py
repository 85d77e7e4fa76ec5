"""Layered Toffoli-network synthesis with exact GF(2) and NMR verification."""

__version__ = "0.1.0"
