"""Tagged hot module whose allocation is also reachable from its entry."""

from __future__ import annotations

import numpy as np


def pack(parts):
    return np.stack(parts)  # zero hops (tagged) and one hop (reachable)


class Engine:
    """Entry point one call away from the tagged allocation."""

    def step(self, parts):
        return pack(parts)
