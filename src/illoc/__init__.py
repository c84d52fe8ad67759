"""Matrix semantics for illocutionary acts.

A four-valued matrix for the single performative "think", a non-Archimedean
matrix over the nonstandard extension of a finite Boolean algebra, squares
of opposition for forces, illocutionary entailment, and exhaustive checkers,
all behind a small formula language and a CLI.
"""

from .boolalg import (
    AlgebraMismatch,
    AlgebraSpec,
    Element,
    complement,
    enumerate_elements,
    join,
    leq,
    meet,
)
from .hyper import (
    HyperValue,
    OppositionCase,
    SquareReport,
    StandardInput,
    classify_opposition,
    content_neg,
    enumerate_hypervalues,
    enumerate_nonstandard,
    equivalent,
    hleq,
    hneg,
    hyper,
    is_standard,
    mb_and,
    mb_imp,
    mb_neg,
    mb_or,
    normalize,
    oinf,
    osup,
    pinf,
    psup,
    square_report,
    standard,
)
from .matrix_m import (
    MissingAtom,
    TruthValue4,
    and4,
    check_matrix_properties,
    classify,
    contradiction_profile,
    eval_m,
    force4,
    imp4,
    is_tautology_m,
    neg4,
    or4,
)
from .matrix_mb import (
    EvalOutcome,
    MBMode,
    MBValuation,
    MissingAssignment,
    NotCyclic,
    StandardAssignment,
    eval_mb,
    find_idempotence_counterexample,
    find_neg_swap_counterexample,
    is_tautology_mb,
    unfold_cyclic,
)
from .opposition import (
    CheckSpace,
    LawsReport,
    OppositionReport,
    criterion_holds,
    entails,
    laws_report,
    square_for_force,
)
from .search import DEFAULT_BUDGET, BudgetExceeded
from .syntax import (
    ActRef,
    And,
    Atom,
    CyclicAct,
    Force,
    ForceDecl,
    Formula,
    Implies,
    Not,
    Or,
    ParseError,
    UnknownActRef,
    detect_cycles,
    format_formula,
    format_program,
    forces_of,
    is_force_free,
    parse,
    parse_formula,
)

__version__ = "0.1.0"
