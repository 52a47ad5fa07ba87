"""Modeling, simulation, inductive-invariant verification and
independently checkable certificates for sequential function charts."""

from .certificate import CheckVerdict, check, emit, trusted_core_inventory
from .model import (SfcModel, Transition, VarDecl, canonical_text,
                    model_digest, parse_model)
from .properties import Invariant, parse_formula_text, parse_properties
from .semantics import (BudgetExceeded, SfcState, init_state,
                        reachable_bounded, run_trace, state_text, successors)
from .verifier import (Proved, Refuted, Undecided, check_determined_successor,
                       check_guard_unreachable, verify_invariant)

__version__ = "0.1.0"

__all__ = [
    "SfcModel", "Transition", "VarDecl", "parse_model",
    "canonical_text", "model_digest",
    "SfcState", "init_state", "successors", "reachable_bounded", "run_trace",
    "state_text", "BudgetExceeded",
    "Invariant", "parse_properties", "parse_formula_text",
    "verify_invariant", "check_guard_unreachable",
    "check_determined_successor", "Proved", "Refuted", "Undecided",
    "emit", "check", "CheckVerdict", "trusted_core_inventory",
    "__version__",
]
