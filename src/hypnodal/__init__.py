"""Numerical laboratory for Laplace eigenfunctions on hyperbolic surfaces.

Submodules:
    hypgeo    Poincare disk geometry (geodesics, isometries, polygons)
    hypmesh   geodesic-polygon triangulation with uniform 1:4 refinement
    hypfem    P1 finite elements for the hyperbolic Laplacian
    surfglue  surfaces from polygon charts with side pairings
    nodal     nodal set extraction and geodesic comparison
    bounds    combinatorial bounds for geodesic nodal components
"""

__version__ = "0.1.0"
