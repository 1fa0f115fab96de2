"""The two caps a caller sets, in one frozen dataclass.  Caps no caller
varies are constants beside the code that enforces them: SIMPLEX_BUDGET
in complexes, CYCLE_BUDGET in homotopy and MOVE_BUDGET in explorer."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Budgets:
    """Hard caps; exceeding one yields an explicit verdict, never silence."""

    cover_vertices: int = 500   # lifted vertices per development, root included
    # loops per contractibility search: the start, then at each expansion
    # every child within the move bound, repeats included
    search_states: int = 10**6


DEFAULT_BUDGETS = Budgets()
