"""An algebra of Horn logic programs.

Programs are immutable sets of rules, equal up to variable renaming.  The
package provides sequential composition, concatenation, reversal, and the
Kleene-style closures; bounded least models and entailment; SLD proof
search with labeled traces; a small language of program forms; and
verification and bounded solving of analogical proportions between
programs.
"""

from __future__ import annotations

from .algebra import (
    check_representation,
    compose,
    concat_atoms,
    concat_rules,
    concatenate,
    identity_program,
    omega,
    plus_closure,
    power,
    star,
)
from .errors import (
    BudgetError,
    CompositionOverflowError,
    EngineError,
    FixpointBudgetError,
    FormEvalError,
    GroundingOverflowError,
    ParseError,
    ProportionError,
)
from .forms import (
    Binding,
    Evaluator,
    eval_form,
    form_to_text,
    is_nonconstant,
    make_binding,
    parse_forms,
)
from .parser import parse_atom, parse_program, parse_query, parse_rule
from .proportion import (
    CheckReport,
    DomainSig,
    ProportionProblem,
    ProportionWitness,
    SolveBudget,
    check_proportion,
    derived_proportions,
    make_witness,
    parse_proportion_file,
    solve_proportion,
)
from .semantics import (
    GroundingBound,
    entails,
    equivalent,
    ground,
    herbrand_universe,
    least_model,
    list_universe,
    tp_step,
)
from .sld import (
    Query,
    find_rule_counterinstance,
    label_rules,
    prove_with_trace,
    proves,
    proves_rule,
    render_trace,
)
from .syntax import (
    Atom,
    Compound,
    Program,
    Rule,
    Var,
    render_atom,
    render_program,
    render_rule,
    render_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
