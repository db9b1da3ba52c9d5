"""Round-robin broadcast — the deterministic workhorse baseline.

Process ``i`` transmits in every round ``r`` with ``(r − 1) mod n == i``
once it holds the message.  Each window of ``n`` consecutive rounds gives
every informed process a slot in which it is the *only* sender in the
network, so its reliable out-neighbours are informed regardless of the
adversary: round robin completes within ``n · ecc(G)`` rounds on **any**
dual graph (``ecc`` = source eccentricity in ``G``), under any collision
rule and either start mode.

This is the matching upper bound for Theorem 2's ``Ω(n)`` on
2-broadcastable networks (see the paper's note after Theorem 4), and the
``O(n²)`` oblivious algorithm of Clementi et al. discussed in Section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.sim.messages import Message
from repro.sim.process import Process, ProcessContext


@dataclass(frozen=True)
class RoundRobinSchedule:
    """The oblivious round-robin schedule: uid ``(r − 1) mod n`` may
    send in round ``r``."""

    n: int

    def uids_at(self, r: int) -> Tuple[int]:
        """The single uid scheduled in global round ``r``."""
        return ((r - 1) % self.n,)


@lru_cache(maxsize=None)
def _shared_schedule(n: int) -> RoundRobinSchedule:
    return RoundRobinSchedule(n)


class RoundRobinProcess(Process):
    """One round-robin automaton over the id universe ``{0, …, n−1}``."""

    def __init__(self, uid: int, n: Optional[int] = None) -> None:
        super().__init__(uid)
        self._n = n

    def send_schedule(self) -> Optional[RoundRobinSchedule]:
        """The shared rotation; ``None`` when ``n`` is left to the
        context or the uid lies outside ``[0, n)`` (it then sends in
        the slot of ``uid mod n``, which the schedule does not name)."""
        n = self._n
        if n is None or not 0 <= self.uid < n:
            return None
        return _shared_schedule(n)

    def decide_send(self, ctx: ProcessContext) -> Optional[Message]:
        if not self.has_message:
            return None
        n = self._n if self._n is not None else ctx.n
        if (ctx.round_number - 1) % n == self.uid % n:
            return self.outgoing(ctx)
        return None


def round_robin_bound(n: int, eccentricity: int) -> int:
    """The guaranteed completion bound ``n · ecc(G)``."""
    return n * max(1, eccentricity)


def make_round_robin_processes(n: int) -> List[RoundRobinProcess]:
    """Build the full round-robin process collection."""
    return [RoundRobinProcess(uid, n=n) for uid in range(n)]
