from .syntax import (
    FoTrue, LetterAt, Leq, Lt, EqVar, Not, And, Or, Implies, Forall, Exists,
    RunAtom, Const, StepIte, Zero, ProdX, WIte, Plus, SumX,
    FoFormula, StepFormula, WfoFormula,
    free_vars, is_sentence, uses_sumx, uses_plus,
    fo_conditions, run_atoms, freshen, fresh_name,
    format_fo, format_step, format_wfo,
)
from .encoding import ExtWord, encode, decode, ext_alphabet, all_ext_words
from .parser import (
    ParseError, ScopeError,
    parse_fo, parse_step, parse_wfo, parse_formula_file, FormulaFile,
    serialize_formula_file,
)
from .evaluate import eval_fo, eval_step, eval_wfo, eval_wfo_at
from .relativize import relativize, before, after, between

__all__ = [
    "FoTrue", "LetterAt", "Leq", "Lt", "EqVar", "Not", "And", "Or",
    "Implies", "Forall", "Exists", "RunAtom", "Const", "StepIte",
    "Zero", "ProdX", "WIte", "Plus", "SumX",
    "FoFormula", "StepFormula", "WfoFormula",
    "free_vars", "is_sentence", "uses_sumx", "uses_plus",
    "fo_conditions", "run_atoms", "freshen", "fresh_name",
    "format_fo", "format_step", "format_wfo",
    "ExtWord", "encode", "decode", "ext_alphabet", "all_ext_words",
    "ParseError", "ScopeError",
    "parse_fo", "parse_step", "parse_wfo", "parse_formula_file",
    "FormulaFile", "serialize_formula_file",
    "eval_fo", "eval_step", "eval_wfo", "eval_wfo_at",
    "relativize", "before", "after", "between",
]
