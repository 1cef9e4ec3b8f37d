"""Exact spectral computations on spheres, hemispheres and projective spaces.

Counting functions, Riesz-means, semiclassical expansions, sharp bounds
and sum rules for the Laplacian and polyharmonic operators on the compact
rank-one symmetric spaces, with exact rational oracles alongside every
floating-point path.
"""

from .spaces import (Family, Space, eigenvalue, fluctuation,
                     hemisphere_dirichlet, hemisphere_neumann, invert_w,
                     max_level_index, multiplicity, parse_space, sphere)
from .riesz import (PrefixSums, SpectrumQuery, Variant, counting,
                    eigenvalue_average, evaluate_grid, lemma_sum,
                    poly_transform_check, prefix_sums, riesz1_closed_sphere,
                    riesz_mean)
from .weyl import (ExpansionEval, expansion, lclass, lclass_volume,
                   sphere_volume)
from .bounds import (BoundSpec, ScanReport, bound_value, bly345_gap_diagnostics,
                     catalog, legendre_average_bound, optimal_shift,
                     standard_grid, verify)
from .sumrules import check_pq_identity, trace_identity_partial
from .scan import GapExtremum, GridPolicy, Series, figure, gap_extrema

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
