"""hfkit: hereditarily finite sets, finite ordinals, and marked orders.

The package realizes, at finite scale, the correspondence between three
presentations of the same data: canonical sets in a hash-consed universe,
validated finite ordinals, and covered marked extensional wellfounded
orders. Translations between the three are executable and exactly
invertible where the theory says they are.

`import hfkit` loads the set layer alone (`errors`, `universe`); the other
layers load together on the first read of a name they export.
"""

import importlib
import threading

from .errors import (
    CyclicError,
    EvalError,
    ExtensionalityError,
    ForeignHandleError,
    FormatError,
    HfkitError,
    LimitExceededError,
    NotAnOrdinalError,
    ParseError,
    SizeLimitError,
    TransitivityError,
    ValidationError,
    WellfoundednessError,
)
from .universe import (
    PointedGraph,
    SetHandle,
    SetUniverse,
    export_slice,
    import_slice,
)
# The other layers and the names each exports, bound on first read (PEP 562).
_LAYERS = {
    "ordinals": ("BoundedSimWitness", "FinOrd", "SimWitness", "bounded_sim", "chain", "down", "ord_from_json",
                 "ord_from_text", "ord_sum", "ord_to_json", "ord_to_text", "order_type", "same_order_type",
                 "simulation", "sup", "sup_classes", "validate_ord"),
    "mewos": ("Mewo", "bounded_sim_mewo", "codes", "covered_part", "down_plus", "from_ordinal", "is_covered",
              "mark_all", "mewo_equal", "mewo_from_json", "mewo_from_text", "mewo_to_dot", "mewo_to_json",
              "mewo_to_text", "partial_sim", "principality_check", "simulation_mewo", "singleton", "union",
              "validate_mewo"),
    "correspondence": ("QuotientRank", "elements_ordinal", "mewo_of_set", "mewo_of_set_literal", "rank_ordinal",
                       "rank_quotient", "set_of_mewo", "set_of_ordinal"),
    "oracle": ("GenConfig", "bisimilar", "enum_bounded_sims", "enum_simulations", "enumerate_mewos", "enumerate_v",
               "equal_by_permutation", "gen_random_mewo", "gen_random_set", "is_hereditarily_transitive",
               "is_simulation", "mem_raw", "partial_sim_by_segments"),
    "parser": ("parse", "parse_program", "format_expr"),
    "session": ("Session", "canon", "render", "set_to_dot"),
    "suites": ("run_suite",),
}
_binding = threading.Lock()


def __getattr__(name):
    """Import the layer `name` alone (`from . import session` in parser.py
    asks for one), or else bind every layer's exports once and delete this
    hook: CPython does not specialize reads of a module that has one."""
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    with _binding:
        if "__getattr__" in globals():  # not yet bound by a thread that held the lock first
            for layer, names in _LAYERS.items():
                module = importlib.import_module(f".{layer}", __name__)
                globals().update((n, getattr(module, n)) for n in names)
            globals()["MewoSimWitness"] = globals()["SimWitness"]  # one witness class; mewo witnesses keep their name
            del globals()["__getattr__"]
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    """The package's names, with every layer's exports whether bound yet or not."""
    return sorted(globals().keys() | {n for names in _LAYERS.values() for n in names} | {"MewoSimWitness"})


__version__ = "0.1.0"
