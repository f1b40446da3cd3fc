"""Term algebra over one binary operation symbol.

Terms and positions, four composition operators, essential/fictive positions
and variables, a length-reducing abstract reduction system with S- and
E-normal forms, equational theories with exact or bounded three-valued
deciders, derivation rules with bounded closures, and stability sweep
checkers.  The ``termalg`` console script exposes everything on the command
line.
"""

from .algebras import FiniteAlgebra, eval_term, satisfies
from .compose import (
    SigmaPositionSets,
    inductive_compose,
    positional_compose,
    sigma_compose,
    sigma_position_sets,
    star_compose,
)
from .deduction import (
    ClosureBounds,
    StabilityReport,
    SweepBounds,
    Violation,
    apply_rule,
    bounded_closure,
    check_stability,
    validate_report,
)
from .errors import (
    BoundsError,
    IncomparablePositionsError,
    InvalidPositionError,
    MalformedArraysError,
    MissingAssignmentError,
    ModelSearchLimitError,
    NestedPatternsError,
    NonOrientableError,
    NotReducibleError,
    NotRemovableError,
    ParseError,
    SideConditionError,
    TermAlgError,
    UndecidedError,
)
from .essentiality import (
    EssentialityReport,
    essential_positions,
    essential_subterms,
    essentiality_report,
    is_essential_subterm,
    variable_verdicts,
)
from .reduction import (
    ReduciblePair,
    ReductionTrace,
    er,
    normal_form,
    reduce_with_strategy,
    reducible_pairs,
    removable_positions,
    sr,
    step_E,
    step_S,
)
from .scenarios import Scenario, named_scenarios
from .terms import (
    Node,
    Position,
    Term,
    TermArrays,
    Var,
    from_arrays,
    parse_position,
    parse_term,
    position_to_text,
    positions,
    replace_at,
    subterm_at,
    subterm_set,
    substitute,
    term_to_text,
    to_arrays,
    valuations,
    variables,
)
from .theories import (
    Identity,
    OracleConfig,
    Theory,
    Verdict,
    load_theory_file,
    theory_from_json,
    theory_from_name,
)

__version__ = "0.1.0"
