"""Table-level exclusive locks with deadlock detection.

Writers follow strict two-phase locking: a transaction locks each resource
it writes as it touches it and releases everything at commit/abort.
Readers take no locks — they scan pinned MVCC snapshots — so every lock is
exclusive: one transaction holds a resource at a time. Conflicts are
resolved by blocking; a wait-for graph is maintained and checked for
cycles before each block, raising :class:`DeadlockError` for the requester
that would close a cycle (the simplest victim policy).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from repro.errors import DeadlockError, TransactionError


class _LockState:
    """Holder and waiters of one resource."""

    __slots__ = ("holder", "since", "waiters")

    def __init__(self):
        self.holder: int | None = None
        self.since = 0.0  # monotonic grant time of the holder
        self.waiters: list[int] = []

    def describe(self) -> str:
        """The holder with its hold age, then the waiter queue."""
        held = (
            f"txn {self.holder} for {time.monotonic() - self.since:.2f}s"
            if self.holder is not None else ""
        )
        queue = ", ".join(f"txn {txn}" for txn in self.waiters)
        return f"held by [{held}]; waiting [{queue}]"


class LockManager:
    """Grant and release exclusive locks on named resources (tables)."""

    def __init__(self, timeout: float = 5.0):
        self.timeout = timeout
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._resources: dict[str, _LockState] = defaultdict(_LockState)
        self._held_by_txn: dict[int, set[str]] = defaultdict(set)

    # -- acquisition ---------------------------------------------------------

    def acquire(self, txn_id: int, resource: str) -> None:
        """Lock ``resource`` for ``txn_id`` (a no-op when it holds it).

        Raises:
            DeadlockError: when waiting would create a wait-for cycle.
            TransactionError: when the wait exceeds the configured timeout.
        """
        with self._condition:
            state = self._resources[resource]
            if state.holder == txn_id:
                return
            state.waiters.append(txn_id)
            try:
                while state.holder is not None:
                    if self._would_deadlock(txn_id, state.holder):
                        raise DeadlockError(
                            f"txn {txn_id} requesting {resource!r} would "
                            f"deadlock with [{state.holder}]"
                        )
                    if not self._condition.wait(self.timeout):
                        raise TransactionError(
                            f"txn {txn_id} timed out waiting for "
                            f"{resource!r}: {state.describe()}"
                        )
            finally:
                state.waiters.remove(txn_id)
            state.holder = txn_id
            state.since = time.monotonic()
            self._held_by_txn[txn_id].add(resource)

    def _would_deadlock(self, requester: int, blocker: int) -> bool:
        """Depth-first search of the wait-for graph for a path back to us."""
        graph: dict[int, set[int]] = defaultdict(set)
        for state in self._resources.values():
            for waiter in state.waiters:
                if state.holder not in (None, waiter):
                    graph[waiter].add(state.holder)

        stack, visited = [blocker], set()
        while stack:
            node = stack.pop()
            if node == requester:
                return True
            if node in visited:
                continue
            visited.add(node)
            stack.extend(graph.get(node, ()))
        return False

    # -- release ----------------------------------------------------------

    def release_all(self, txn_id: int) -> None:
        """Release every lock held by ``txn_id`` (end of 2PL)."""
        with self._condition:
            for resource in self._held_by_txn.pop(txn_id, set()):
                state = self._resources.get(resource)
                if state is not None and state.holder == txn_id:
                    state.holder = None
                    if not state.waiters:
                        del self._resources[resource]
            self._condition.notify_all()

    # -- inspection ---------------------------------------------------------

    def holder(self, resource: str) -> int | None:
        """The transaction holding ``resource``, if any."""
        with self._lock:
            state = self._resources.get(resource)
            return None if state is None else state.holder

    def locks_of(self, txn_id: int) -> set[str]:
        with self._lock:
            return set(self._held_by_txn.get(txn_id, set()))
