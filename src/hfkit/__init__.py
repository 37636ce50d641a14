"""hfkit: hereditarily finite sets, finite ordinals, and marked orders.

The package realizes, at finite scale, the correspondence between three
presentations of the same data: canonical sets in a hash-consed universe,
validated finite ordinals, and covered marked extensional wellfounded
orders. Translations between the three are executable and exactly
invertible where the theory says they are.
"""

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
from .ordinals import (
    BoundedSimWitness,
    FinOrd,
    SimWitness,
    bounded_sim,
    chain,
    down,
    ord_from_json,
    ord_from_text,
    ord_sum,
    ord_to_json,
    ord_to_text,
    order_type,
    same_order_type,
    simulation,
    sup,
    sup_classes,
    validate_ord,
)
from .mewos import (
    Mewo,
    bounded_sim_mewo,
    codes,
    covered_part,
    down_plus,
    from_ordinal,
    is_covered,
    mark_all,
    mewo_equal,
    mewo_from_json,
    mewo_from_text,
    mewo_to_dot,
    mewo_to_json,
    mewo_to_text,
    partial_sim,
    principality_check,
    simulation_mewo,
    singleton,
    union,
    validate_mewo,
)
from .correspondence import (
    QuotientRank,
    elements_ordinal,
    mewo_of_set,
    mewo_of_set_literal,
    rank_ordinal,
    rank_quotient,
    set_of_mewo,
    set_of_ordinal,
)
from .oracle import (
    GenConfig,
    bisimilar,
    enum_bounded_sims,
    enum_simulations,
    enumerate_mewos,
    enumerate_v,
    equal_by_permutation,
    gen_random_mewo,
    gen_random_set,
    is_hereditarily_transitive,
    is_simulation,
    mem_raw,
    partial_sim_by_segments,
)
from .parser import parse, parse_program, format_expr
from .session import Session, canon, render, set_to_dot
from .suites import run_suite

MewoSimWitness = SimWitness  # one witness class; mewo witnesses keep their exported name

__version__ = "0.1.0"
