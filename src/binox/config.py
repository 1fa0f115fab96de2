"""The two caps a caller sets, in one frozen dataclass.  Caps no caller
varies are constants beside the code that enforces them: SIMPLEX_BUDGET
in complexes, CYCLE_BUDGET in homotopy and MOVE_BUDGET in explorer."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Budgets:
    """Hard caps; exceeding one yields an explicit verdict, never silence.
    Each is an int >= 0 (a bool is not), else ValueError."""

    cover_vertices: int = 500   # lifted vertices per development, root included
    # loops per contractibility search: the start, then at each expansion
    # every child within the move bound, repeats included
    search_states: int = 10**6

    def __post_init__(self):
        for name in ("cover_vertices", "search_states"):
            cap = getattr(self, name)
            if type(cap) is not int or cap < 0:
                raise ValueError(f"{name} must be an int >= 0, got {cap!r}")


DEFAULT_BUDGETS = Budgets()
