"""Exact classification of cyclic group actions on compact bordered surfaces.

Cyclic actions of order N on a bordered surface of algebraic genus p with
N > p - 1 are encoded by surface-kernel epimorphisms from NEC groups onto
Z_N.  The package provides the quotient-orbifold catalog, closed-form
conjugacy-class counts, a brute-force enumeration oracle that verifies
them, and minimum-genus / maximum-order solvers.
"""

from .bsk import BskMap, boundary_count, is_smooth, orientability, presentation_of, surface_of
from .classify import (
    ActionRecord,
    ClassificationResult,
    Realization,
    actions_for_order,
    classify,
    classify_ann1,
)
from .extremal import (
    ExtremalAnswer,
    max_order_closed,
    max_order_search,
    min_genus_closed,
    min_genus_search,
)
from .oracle import cross_check, enumerate_smooth, moves_for, oracle_report, orbit_count
from .signatures import NecSignature, QuotientType, SurfaceTopology, area, kernel_algebraic_genus
from .zmod import (
    MaclachlanQuad,
    crt_solve,
    euler_phi,
    harvey_check,
    lift_unit,
    maclachlan,
    psi,
)

__version__ = "0.1.0"
