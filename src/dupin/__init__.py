"""Computational toolkit for Dupin surfaces across the space-form, Moebius,
and Lie sphere geometries: canonical isoparametric surfaces, numerically
verified moving-frame computations, coset-orbit surfaces, and mesh export.
The namespace holds only __version__: import the modules themselves."""

__version__ = "0.1.0"
