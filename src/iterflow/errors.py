"""The errors callers tell apart; every failure this package raises is one.

The CLI exits 3 on ``CacheLockedError`` and 2 on any other ``IterflowError``;
the executor catches ``CacheError`` from a load, forgets the entry and plans
again.  Each message says what went wrong, so no subclass carries more.
"""

from __future__ import annotations


class IterflowError(Exception):
    """Base class for every error raised by this package."""


class CacheError(IterflowError):
    """A cache store failure: a missing or corrupt entry, a manifest or run
    log that cannot be read."""


class CacheLockedError(CacheError):
    def __init__(self, root: str, holder_pid: int | None):
        holder = f"pid {holder_pid}" if holder_pid else "unknown process"
        super().__init__(f"cache at {root} is locked by {holder}")
        self.holder_pid = holder_pid
