"""Seeded view-escape bugs: stale reads, self-stores, closure captures."""

from __future__ import annotations


def stale_read(table, idx, block):
    rows = table.gather_rows(idx)
    table.append(block)      # invalidates every outstanding view of table
    total = rows.sum()       # reads through the dangling alias
    return total


def stale_return(table, n):
    pos = table.positions
    table.rollback(n)
    return pos               # returns an invalidated view


class Holder:
    """Caches a view across calls: any later mutation silently corrupts it."""

    def __init__(self, cache) -> None:
        self._cache = cache

    def snapshot(self):
        self.last = self._cache.layer(0)  # view outlives the call frame
        return self.last


def deferred(cache):
    view = cache.layer(0)
    return lambda: view.sum()  # closure may run after the cache mutates


def stale_after_keep(cache, start, rows):
    pos = cache.positions
    cache.keep_rows(start, rows)  # moves the kept rows over the dropped ones
    return pos                    # returns an invalidated view
