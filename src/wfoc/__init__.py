"""Weighted automata, weighted first-order logic, and the translations
between them, with multiset abstract semantics and semiring aggregators."""

from .automata import (
    Nfa, WeightedAutomaton, abstract_semantics,
    scc_decompose, is_unambiguous, is_scc_unambiguous,
    classify_ambiguity,
    UNAMBIGUOUS, FINITELY, POLYNOMIALLY, EXPONENTIALLY,
    transition_monoid, aperiodicity_index,
    weighted_union, trim,
)
from .errors import HypothesisError, InputError
from .multiset import SeqMultiset
from .semantics import (
    Semiring, builtin_semiring, SEMIRING_NAMES, aggr_sp, aggr_ma,
    max_average,
)
from .textfmt import (
    parse_automaton, parse_automaton_inline, serialize_automaton,
    serialize_automaton_inline, canonical_relabel, to_dot,
)
from .weights import Symbol, parse_weight, format_weight

__version__ = "0.1.0"
