"""Bound states of Dirac particles in double ring-shaped potentials.

Solver and verification toolkit: closed-form relativistic spectra under the
spin and pseudospin symmetry limits for Kratzer and oscillator cores dressed
with a double ring-shaped angular term, normalized spinor components,
independent AIM, Galerkin and finite-difference oracles, and a classifying
audit of the published numeric tables bundled with the package.
"""

from .model import (
    CoefficientSet,
    Kratzer,
    Oscillator,
    PhysicalParams,
    ProblemSpec,
    Pseudospin,
    QuantumNumbers,
    RingParams,
    SpecError,
    Spin,
    derive_coefficients,
)
from .spectrum import (
    BranchStrategy,
    CANONICAL,
    ClassifiedRoot,
    RootClass,
    audit_table,
    classify_value,
    find_roots,
    load_table_data,
    spin_pseudospin_map,
    squared_polynomial_drsk,
    squared_polynomial_drso,
    table_spec,
)
from .wavefun import (
    ComplexSectorError,
    NonNormalizableError,
    assemble_component,
    normalization_constant,
    verify_normalization,
)

__all__ = [
    "BranchStrategy",
    "CANONICAL",
    "ClassifiedRoot",
    "CoefficientSet",
    "ComplexSectorError",
    "Kratzer",
    "NonNormalizableError",
    "Oscillator",
    "PhysicalParams",
    "ProblemSpec",
    "Pseudospin",
    "QuantumNumbers",
    "RingParams",
    "RootClass",
    "SpecError",
    "Spin",
    "assemble_component",
    "audit_table",
    "classify_value",
    "derive_coefficients",
    "find_roots",
    "load_table_data",
    "normalization_constant",
    "spin_pseudospin_map",
    "squared_polynomial_drsk",
    "squared_polynomial_drso",
    "table_spec",
    "verify_normalization",
]

__version__ = "0.1.0"
