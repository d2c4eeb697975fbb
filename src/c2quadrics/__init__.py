"""Exact RO(Pi BU(1))-graded equivariant cohomology of symmetric complex
quadrics, with Burnside-ring coefficients.

The package computes canonical forms in the cohomology rings of the
quadrics Q^{m,n} and their auxiliary spaces, applies the restriction,
fixed-point, and component-restriction homomorphisms, checks divisibility
by the Euler-type classes, and reproduces the basis dot diagrams.
"""

from types import ModuleType as _ModuleType

from .coefficients import (
    BurnsideElt,
    InhomogeneousError,
    PointElt,
    point_mul,
    point_phi,
    point_rho,
    point_tau,
    transfer_witness,
)
from .catalog import (
    RestrictedGradingWarning,
    basis_slice,
    make_binate,
    make_bu1,
    make_nonequiv_quadric,
    make_point,
    make_projective,
    make_quadric,
    make_space,
    parse_space,
    swap_element,
    swap_grading,
    swap_involution,
)
from .expressions import ExprError, parse_expression
from .grading import (
    Grading,
    coset_index,
    fixed_degrees,
    grading,
    underlying_degree,
)
from .noneq import InvalidSizeError, NoneqQuadricRing
from .rewrite import (
    NonTerminatingError,
    NotAClassError,
    Presentation,
    RingElement,
    confluence_probe,
)
from .solver import (
    InconsistentError,
    audit_full,
    divisibility_witness,
    rank_table,
    solve_undetermined,
    verify_relations,
)

# the names imported above, without the submodules that importing them binds
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "1.0.0"
