"""Relational data exchange with closed-world query answering.

Materializes canonical and core solutions for schema mappings, answers
universal queries over packed dependencies in polynomial time on the core,
and cross-checks seven query semantics with a brute-force oracle.
"""

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    DxError,
    NotGround,
    NotHomomorphismClosed,
    NotUniversal,
    ParseError,
    PreconditionViolated,
    SchemaViolation,
    UnboundVariable,
    UndefinedValue,
    UnknownRelation,
    UnsupportedSemantics,
)
from .model import (
    Atom,
    Const,
    Egd,
    Instance,
    Null,
    NullAllocator,
    PatternAtom,
    Schema,
    SchemaMapping,
    StTgd,
    Var,
    apply_map,
    atoms_isomorphic,
    find_homomorphism,
    homomorphically_equivalent,
    instances_isomorphic,
)
from .logic import (
    And,
    CountExists,
    Eq,
    Exists,
    FOQuery,
    Forall,
    Not,
    Or,
    RelAtom,
    eval_fo,
    is_cq_neg,
    is_existential,
    is_ucq,
    is_universal,
    query_answers,
)
from .chase import canonical_solution, is_solution, trigger_set
from .corelib import (
    atom_blocks,
    blocks_packed,
    core_of,
    core_solution,
    is_core,
)
from .minrep import (
    atom_in_some_minimal,
    enum_min_c,
)
from .gcwa import (
    answers_gcwa_star_universal,
    answers_gcwa_star_universal_general,
    answers_owa_homclosed,
    eval_gcwa_star_universal,
    eval_gcwa_star_universal_general,
    normalize_negation,
    specialize,
)
from .oracle import (
    Budget,
    SemanticsAnswer,
    SolutionFamily,
    answers_semantics,
    cert_poss,
    certain_answers,
    gcwa_star_solutions,
    is_gcwa_star_solution,
    minimal_ground_solutions,
    tstar_fixpoint,
)
from .textio import (
    SourceText,
    answers_json,
    parse_instance,
    parse_mapping,
    parse_query,
    serialize_instance,
    serialize_mapping,
    serialize_query,
)

__version__ = "0.1.0"
