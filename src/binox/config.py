"""Budget knobs. One frozen dataclass so call sites stay tidy."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Budgets:
    """Hard caps; exceeding one yields an explicit verdict, never silence."""

    cover_vertices: int = 500   # lifted vertices per development
    search_states: int = 10**6  # closed loops per contractibility search
    cycles: int = 10**6         # enumerated simple cycles per graph
    simplices: int = 10**6      # enumerated cliques per complex


DEFAULT_BUDGETS = Budgets()
