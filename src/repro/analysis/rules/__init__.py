"""Built-in rules; importing this package registers all of them.

Rule catalogue (see ``docs/static_analysis.md`` for the full writeup).
One rule per invariant; where a rule looks across calls, the lexical
finding is its zero-hop case:

===================== =======================================================
``layering``          import direction follows the architecture's layer
                      contract; module import graph is acyclic; no
                      threading / _thread / concurrent.futures import
``determinism``       no global np.random state, stdlib random, or
                      wall-clock seeds; no unseeded RNG / wall-clock / env
                      value flows into a decode rng/seed slot
``hotpath``           no np.concatenate/np.stack/.copy() in zero-copy modules
                      or anywhere reachable from the decode entry points
``views``             arena views are never written in place, and not read,
                      returned, stored or captured past a mutation
``except-discipline`` no bare except; broad handlers log structurally or
                      re-raise; CheckpointError is never swallowed
===================== =======================================================
"""

from .determinism import DeterminismRule
from .exceptions import ExceptionDisciplineRule
from .hotpath import HotPathRule
from .layering import LayeringRule
from .views import ViewRule

__all__ = [
    "DeterminismRule",
    "ExceptionDisciplineRule",
    "HotPathRule",
    "LayeringRule",
    "ViewRule",
]
