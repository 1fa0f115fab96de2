"""Mobile-agent graph exploration with radius-1 sensing.

An agent that can see one step around itself (degrees, back ports, and
edges among its neighbors) walks an anonymous port-numbered graph, and
must decide when it has seen everything.  This package provides the
terrain model (port graphs), the agent's knowledge model (views and their
hash-consed folds), the topology that powers the halting rule (clique
complexes, loop moves, bounded contractibility, universal covers by star
completion), a deterministic enumeration of candidate terrains, the
phased exploring agent itself, and a CLI harness.
"""

from .complexes import (CliqueComplex, clique_complex, coverings_agree,
                        is_graph_covering, is_simplicial_covering,
                        surface_euler_characteristic)
from .config import DEFAULT_BUDGETS, Budgets
from .cover import (Classification, CoverResult, classify, isomorphism,
                    universal_cover)
from .enumeration import Candidate, canonical_graphs, find_candidate, raw_graphs
from .errors import (BinoxError, BudgetExceeded, CatalogVerificationFailed,
                     CoverVerificationFailed, EquivalenceViolation,
                     GraphFormatError, InconsistentStar, InvalidMove,
                     KernelFault, NotACovering, NotSimplicial,
                     SearchBudgetExceeded, UndefinedPort)
from .explorer import (ExploreOutcome, LiftReport, PhasedAgent, RunResult,
                       StepRecord, agent_digest, explore, lift_check,
                       reconstructed_projection, run_agent)
from .graphs import (PortGraph, format_graph, format_vertex_map, load_graph,
                     load_vertex_map, parse_graph, parse_vertex_map, port_map,
                     save_graph)
from .homotopy import (Move, all_simple_cycles_k_contractible,
                       contraction_certificate, contraction_sequence,
                       free_reduction, is_k_contractible,
                       min_contraction_moves, neighbor_moves, simple_cycles)
from .views import ViewInterner, ViewKey, fold_graph, format_view, view_key

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
