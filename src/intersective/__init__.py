"""Intersective polynomial certification and prime-variable Diophantine
approximation experiments.

The library certifies integer polynomials as intersective of the first or
second kind through an exact p-adic criterion, constructs the coherent
residue sequence r_d for jointly intersective families, and provides the
search and exponential-sum machinery for studying small fractional parts of
polynomial systems at prime arguments.
"""

from .arith import factorize, is_prime, valuation
from .cache import RootCache, poly_key
from .certify import (
    IntersectivityVerdict,
    NoSecondKindRootError,
    RdRecord,
    check_intersective,
    check_joint,
    check_theorem_condition,
    make_rd,
)
from .diophantine import (
    RealPoly,
    SearchResult,
    ThetaFit,
    WeightSpec,
    exp_sum,
    frac_mul,
    montgomery_witness,
    search_min_frac,
    simultaneous_approx,
    theta_fit,
    weyl_bound_eval,
)
from .modroots import (
    PadicRoot,
    certify_padic_root,
    first_rootless_prime,
    lift_roots,
    newton_lift,
    roots_mod_q,
)
from .parse import ParseError, parse_poly
from .polys import (
    NEG_INF,
    IntPoly,
    NiceSystem,
    delta_factored,
    distinct_degree_basis,
    gcd_primitive,
    nice_transform,
    resultant,
    squarefree_part,
)

__version__ = "0.1.0"
