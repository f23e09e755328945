"""Exact-arithmetic toolkit for genus-zero orbifold dimension formulae.

Modules:
    qseries   - eta quotients, expanded on integer coefficients (no general
                series algebra)
    modcurve  - Gamma0(n) cusp combinatorics, Hauptmoduln, divisor orders
    liealg    - root systems, weight systems, affine structures
    kacaut    - Kac coordinates of finite-order automorphisms, fixed points
    orbifold  - dimension relation, coefficient tables, twisted-weight screening
    cases     - the fifteen uniqueness cases and the verification pipeline
    cli       - command-line front end (`orbdim ...`)
"""

from .cases import load_cases, load_schellekens, verify_all, verify_case
from .liealg import AffineStructure, build_root_system, root_system
from .modcurve import cusp_classes, dedekind_psi, genus_zero_levels, hauptmodul
from .orbifold import c_coefficients, d_coefficient, dim_orbifold, vacuum_anomaly
from .qseries import EtaQuotient, FracPowerSeries, etaq_expand

__all__ = [
    "AffineStructure", "EtaQuotient", "FracPowerSeries",
    "build_root_system", "c_coefficients", "cusp_classes", "d_coefficient",
    "dedekind_psi", "dim_orbifold", "etaq_expand",
    "genus_zero_levels", "hauptmodul", "load_cases", "load_schellekens",
    "root_system", "vacuum_anomaly", "verify_all", "verify_case",
]

__version__ = "0.1.0"
