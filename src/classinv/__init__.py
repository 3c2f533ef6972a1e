"""Exact-arithmetic construction and certification of the basic
invariants of the classical groups."""

from .action import ActionContext, act, is_invariant, reynolds
from .certify import (
    CertReport,
    GeneratorCombination,
    GeneratorDegreeReport,
    GeneratorId,
    KernelResult,
    NotInSpan,
    NotInvariant,
    contraction,
    decompose_in_generators,
    fft_verify,
    generator_products_basis,
    generators_for,
    invariant_subspace_basis,
    minimal_generator_degrees,
)
from .exact import Matrix, SingularMatrixError, nullspace_basis, rref
from .expr import (
    ExprSyntaxError,
    format_generator_combination,
    format_polynomial,
    parse_expression,
)
from .groups import (
    ClosureCapExceeded,
    GroupElement,
    GroupSpec,
    NotFiniteGroup,
    ResampleLimitExceeded,
    finite_closure,
    finite_group,
    general_linear,
    group_elements,
    orthogonal,
    sample_element,
    symplectic,
    symplectic_form_matrix,
)
from .poly import (
    DegreeCapExceeded,
    Monomial,
    Polynomial,
    SpaceSignature,
    VarKind,
    space_dimension,
)

__version__ = "0.1.0"
