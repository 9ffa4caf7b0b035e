"""Table-level shared/exclusive lock manager with deadlock detection.

Locks follow strict two-phase locking: transactions acquire locks as they
touch resources and release everything at commit/abort. Conflicts are resolved
by blocking; a wait-for graph is maintained and checked for cycles before each
block, raising :class:`DeadlockError` for the requester that would close a
cycle (the simplest victim policy).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from enum import Enum

from repro.errors import DeadlockError, TransactionError


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


def _compatible(held: set[LockMode], requested: LockMode) -> bool:
    if not held:
        return True
    if requested is LockMode.SHARED:
        return LockMode.EXCLUSIVE not in held
    return False


class _LockState:
    """Holders and waiters of one resource."""

    __slots__ = ("holders", "waiters", "since")

    def __init__(self):
        self.holders: dict[int, LockMode] = {}
        self.waiters: list[tuple[int, LockMode]] = []
        self.since: dict[int, float] = {}  # holder -> monotonic grant time

    def describe(self) -> str:
        """Holders with their mode and hold age, then the waiter queue."""
        now = time.monotonic()
        held = ", ".join(
            f"txn {txn} {mode.value} for {now - self.since[txn]:.2f}s"
            for txn, mode in self.holders.items()
        )
        queue = ", ".join(f"txn {txn} {mode.value}" for txn, mode in self.waiters)
        return f"held by [{held}]; waiting [{queue}]"

    def held_modes(self, excluding: int | None = None) -> set[LockMode]:
        return {
            mode
            for txn, mode in self.holders.items()
            if txn != excluding
        }


class LockManager:
    """Grant and release S/X locks on named resources (tables, objects)."""

    def __init__(self, timeout: float = 5.0):
        self.timeout = timeout
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._resources: dict[str, _LockState] = defaultdict(_LockState)
        self._held_by_txn: dict[int, set[str]] = defaultdict(set)

    # -- acquisition ---------------------------------------------------------

    def acquire(self, txn_id: int, resource: str, mode: LockMode) -> None:
        """Acquire (or upgrade to) ``mode`` on ``resource`` for ``txn_id``.

        Raises:
            DeadlockError: when waiting would create a wait-for cycle.
            TransactionError: when the wait exceeds the configured timeout.
        """
        with self._condition:
            state = self._resources[resource]
            current = state.holders.get(txn_id)
            if current is not None and (
                current is mode or current is LockMode.EXCLUSIVE
            ):
                return  # already strong enough

            state.waiters.append((txn_id, mode))
            try:
                while not self._grantable(state, txn_id, mode):
                    blockers = {
                        holder
                        for holder, held_mode in state.holders.items()
                        if holder != txn_id
                        and not _compatible({held_mode}, mode)
                    }
                    if self._would_deadlock(txn_id, blockers):
                        raise DeadlockError(
                            f"txn {txn_id} requesting {mode.value} on "
                            f"{resource!r} would deadlock with {sorted(blockers)}"
                        )
                    if not self._condition.wait(self.timeout):
                        raise TransactionError(
                            f"txn {txn_id} timed out waiting for "
                            f"{mode.value} on {resource!r}: {state.describe()}"
                        )
            finally:
                state.waiters.remove((txn_id, mode))
            state.holders[txn_id] = mode
            state.since.setdefault(txn_id, time.monotonic())
            self._held_by_txn[txn_id].add(resource)

    def _grantable(self, state: _LockState, txn_id: int, mode: LockMode) -> bool:
        return _compatible(state.held_modes(excluding=txn_id), mode)

    def _would_deadlock(self, requester: int, blockers: set[int]) -> bool:
        """Depth-first search of the wait-for graph for a path back to us."""
        graph: dict[int, set[int]] = defaultdict(set)
        for resource, state in self._resources.items():
            for waiter, wanted in state.waiters:
                for holder, held_mode in state.holders.items():
                    if holder != waiter and not _compatible({held_mode}, wanted):
                        graph[waiter].add(holder)
        graph[requester] |= blockers

        stack, visited = list(blockers), set()
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
                if state is not None:
                    state.holders.pop(txn_id, None)
                    state.since.pop(txn_id, None)
                    if not state.holders and not state.waiters:
                        del self._resources[resource]
            self._condition.notify_all()

    # -- inspection ---------------------------------------------------------

    def holders(self, resource: str) -> dict[int, LockMode]:
        with self._lock:
            state = self._resources.get(resource)
            return dict(state.holders) if state else {}

    def locks_of(self, txn_id: int) -> set[str]:
        with self._lock:
            return set(self._held_by_txn.get(txn_id, set()))
