"""Shared numerical tolerances.

Three buckets, used consistently by the library and its tests:

* ``TOL_STRUCTURAL`` -- exact algebraic identities checked entrywise
  (hermiticity, unit trace, orthonormality, unbiasedness).
* ``TOL_PSD`` -- slack on positive-semidefiniteness, and on hermiticity of
  the inputs to an eigensolver or to the Cholesky PSD gate, which read one
  triangle.
* ``TOL_SPECTRAL`` -- accumulated-error bound for spectral sums and
  relation gaps.
"""

TOL_STRUCTURAL = 1e-12
TOL_PSD = 1e-10
TOL_SPECTRAL = 1e-9
