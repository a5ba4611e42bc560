"""Workbench for kernel partition regularity: exact rational linear algebra,
the Rado column condition, nonlinear Rado systems, and finite coloring
searches for monochromatic solutions."""

from .exactq import Matrix, kernel_basis, span_member
from .polyring import Poly, poly_parse
from .radomat import (
    ColumnPartitionWitness,
    column_condition,
    column_condition_naive,
    constant_solution,
    expand_matrix,
    validate_witness,
)
from .systems import (
    Equation,
    EquationSystem,
    Monomial,
    build_nonlinear_rado,
    build_template,
    construct_thm34,
    construct_thm37,
    eval_equation,
    integrality_check,
)
from .colorings import (
    Coloring,
    FSFPWitness,
    fs,
    fp,
    mixed_structure,
    poly_vdw_witness,
    rado_avoider_coloring,
    search_fsfp,
    verify_fsfp,
)
from .search import (
    BudgetExhausted,
    RadoNumberResult,
    SearchBudget,
    SolutionRecord,
    export_cnf,
    find_mono_solution,
    rado_number,
)

__version__ = "0.1.0"

__all__ = [
    "Matrix",
    "kernel_basis",
    "span_member",
    "Poly",
    "poly_parse",
    "ColumnPartitionWitness",
    "column_condition",
    "column_condition_naive",
    "constant_solution",
    "expand_matrix",
    "validate_witness",
    "Equation",
    "EquationSystem",
    "Monomial",
    "build_nonlinear_rado",
    "build_template",
    "construct_thm34",
    "construct_thm37",
    "eval_equation",
    "integrality_check",
    "Coloring",
    "FSFPWitness",
    "fs",
    "fp",
    "mixed_structure",
    "poly_vdw_witness",
    "rado_avoider_coloring",
    "search_fsfp",
    "verify_fsfp",
    "BudgetExhausted",
    "RadoNumberResult",
    "SearchBudget",
    "SolutionRecord",
    "export_cnf",
    "find_mono_solution",
    "rado_number",
]
