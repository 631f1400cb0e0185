"""Groebner basis engine over prime fields.

Two algorithms (the signature-based completion loop and a classic
Buchberger), each instrumented and configurable over interchangeable data
structures: reducer term queues (heap / geobucket / tournament tree,
each plain, deduplicating, hashed or compressed), divisor-query structures
(monomial list / kd-tree, with or without divmasks) and S-pair queues
(pair triangle with a heap or tournament tree front, or flat queues).
"""

from .buchberger import (ClassicConfig, ClassicStats, buchberger_run,
                         graph_criterion, lcm_criterion)
from .division import (basis_lookup, classic_reduce, interreduce,
                       reduced_basis, reduces_to_zero)
from .generators import builtin_ideal, cyclic_ideal, katsura_ideal
from .idealfile import (IdealFileError, mono_str, parse_ideal, poly_str,
                        print_ideal)
from .lookup import DivMap, DivmaskStats, make_lookup, may_divide
from .poly import (Polynomial, poly_add, poly_from_exps, poly_monic,
                   poly_mul_term, poly_normalize)
from .ring import (GREVLEX, LEX, InvariantError, Monomial, Ring, ff_inv,
                   ring_from_order_spec)
from .sigbasis import (ModuleOrder, SBConfig, SigEntry, SigStats,
                       koszul_signature, low_base_divisor_bound, sb_run)
from .spairqueue import FlatPairQueue, PairTriangle, make_spair_queue
from .termqueue import QueueConfig, ReducerQueue, all_queue_configs

__all__ = [
    "ClassicConfig", "ClassicStats", "DivMap", "DivmaskStats", "GREVLEX",
    "IdealFileError", "InvariantError", "LEX", "ModuleOrder", "Monomial",
    "PairTriangle",
    "FlatPairQueue", "Polynomial", "QueueConfig", "ReducerQueue", "Ring",
    "SBConfig", "SigEntry", "SigStats", "all_queue_configs", "basis_lookup",
    "buchberger_run", "reduces_to_zero",
    "builtin_ideal", "classic_reduce", "cyclic_ideal", "ff_inv",
    "graph_criterion", "interreduce",
    "katsura_ideal", "koszul_signature", "lcm_criterion",
    "low_base_divisor_bound", "make_lookup", "make_spair_queue", "may_divide",
    "mono_str", "parse_ideal", "poly_add", "poly_from_exps", "poly_monic",
    "poly_mul_term", "poly_normalize", "poly_str",
    "print_ideal", "reduced_basis", "ring_from_order_spec",
    "sb_run",
]
