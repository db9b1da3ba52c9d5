"""Process automata for the synchronous-round radio network model.

The paper defines an algorithm as a collection of ``n`` processes (each a
deterministic or probabilistic automaton), each holding a unique identifier
from a totally ordered set ``I``.  An adversary assigns processes to graph
nodes via the ``proc`` bijection (Section 2.1); processes never learn which
node they occupy.

Concretely, subclasses implement two hooks:

* :meth:`Process.decide_send` — called at the start of each round for every
  *active* process; returning a :class:`~repro.sim.messages.Message` means
  "transmit this round", returning ``None`` means "listen".
* :meth:`Process.on_reception` — called at the end of the round with the
  process's observation (silence / message / collision notification).

Deterministic algorithms whose senders are a pure function of the round
(round robin, Strong Select) may also declare that *oblivious schedule*
through :meth:`Process.send_schedule`, which lets the fast engine skip
the ``decide_send`` calls the schedule proves return ``None``.

Activation follows the paper's two start rules: under *synchronous start*
all processes are active from round 1; under *asynchronous start* a process
is activated by its first actual message reception (the engine invokes
:meth:`Process.on_activate` at that point, before delivering the message).
"""

from __future__ import annotations

import abc
import random
from typing import Any, Collection, Iterable, Optional, Protocol

from repro.sim.messages import Message, Reception


class ProcessContext:
    """Per-round information the engine exposes to a process.

    Attributes:
        round_number: The current 1-based global round number.  Using a
            global counter is without loss of generality (footnote 1 of the
            paper: the source can stamp its messages with its local counter
            and every node adopts the stamp on first reception).
        rng: A process-private deterministic PRNG.  Probabilistic automata
            must draw all randomness from this generator so executions are
            reproducible given a seed.  A context built with an
            ``rng_key`` (see :meth:`lazy`) seeds ``random.Random(rng_key)``
            on first access, so deterministic automata, which never draw,
            never pay for seeding; the stream is the same either way.
        n: The number of processes in the system, which the paper's
            algorithms are allowed to know (both Strong Select and Harmonic
            Broadcast are parameterized by ``n``).
    """

    __slots__ = ("round_number", "n", "_rng", "_rng_key")

    def __init__(
        self,
        round_number: int,
        rng: Optional[random.Random],
        n: int,
        *,
        rng_key: Optional[str] = None,
    ) -> None:
        if rng is None and rng_key is None:
            raise ValueError("a context needs an rng or an rng_key")
        self.round_number = round_number
        self.n = n
        self._rng = rng
        self._rng_key = rng_key

    @classmethod
    def lazy(cls, rng_key: str, n: int) -> "ProcessContext":
        """A round-0 context whose PRNG is seeded from ``rng_key`` on
        first use (engines pass ``f"{seed}:{uid}"``)."""
        return cls(0, None, n, rng_key=rng_key)

    @property
    def rng(self) -> random.Random:
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._rng_key)
        return rng

    @rng.setter
    def rng(self, value: random.Random) -> None:
        self._rng = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessContext(round_number={self.round_number}, "
            f"n={self.n}, rng_key={self._rng_key!r})"
        )


class SendSchedule(Protocol):
    """An oblivious transmission schedule (see
    :meth:`Process.send_schedule`).

    Implementations are immutable and compare by value.  ``uids_at``
    returns a hashable collection (a tuple or frozenset): engines key
    their uid-to-node mask cache on it.
    """

    def uids_at(self, r: int) -> Collection[int]:
        """The uids that may transmit in global round ``r``."""
        ...


class Process(abc.ABC):
    """Base class for all protocol automata.

    Subclasses must be driven only through the public hooks below; the
    engine guarantees the calling discipline::

        on_activate(ctx)                  # once, when the process wakes up
        repeat each round while active:
            decide_send(ctx) -> msg|None
            on_reception(ctx, reception)

    The broadcast *message* is delivered to the source process before round
    1 via :meth:`on_broadcast_input` (Section 3: "the message arrives at the
    source process prior to the first round").
    """

    def __init__(self, uid: int) -> None:
        self._uid = uid
        self._has_message = False
        self._message: Optional[Message] = None
        self._activation_round: Optional[int] = None
        self._first_message_round: Optional[int] = None

    # ------------------------------------------------------------------
    # Identity and bookkeeping
    # ------------------------------------------------------------------
    @property
    def uid(self) -> int:
        """The process's unique identifier from the ordered id set ``I``."""
        return self._uid

    @property
    def has_message(self) -> bool:
        """Whether this process holds the broadcast message."""
        return self._has_message

    @property
    def message(self) -> Optional[Message]:
        """The broadcast message, if held."""
        return self._message

    @property
    def activation_round(self) -> Optional[int]:
        """Round in which the process became active (0 = before round 1)."""
        return self._activation_round

    @property
    def first_message_round(self) -> Optional[int]:
        """Round in which the broadcast message was first received.

        For the source this is 0, matching the paper's convention
        ``t_s = 0`` in Section 7.
        """
        return self._first_message_round

    # ------------------------------------------------------------------
    # Engine-invoked lifecycle hooks
    # ------------------------------------------------------------------
    def on_broadcast_input(self, message: Message) -> None:
        """Deliver the broadcast message from the environment (source only)."""
        self._has_message = True
        self._message = message
        self._first_message_round = 0

    def on_activate(self, ctx: ProcessContext) -> None:
        """Invoked once when the process becomes active.

        Under synchronous start this happens before round 1 for every
        process (with ``ctx.round_number == 0``); under asynchronous start
        it happens just before the first message reception is delivered.
        Subclasses overriding this must call ``super().on_activate(ctx)``.
        """
        self._activation_round = ctx.round_number

    def on_crash(self) -> None:
        """Wipe volatile broadcast state (fault injection, uninformed rejoin).

        Invoked by the engine when the node this process occupies
        crashes under a :class:`~repro.sim.faults.ChurnSchedule` with
        the ``"uninformed"`` rejoin policy: payload custody is lost, so
        the process must be informed again after recovery.  Subclasses
        with additional volatile state may extend this (calling
        ``super().on_crash()``); under the ``"informed"`` policy the
        engine never calls it.
        """
        self._has_message = False
        self._message = None
        self._first_message_round = None

    def deliver(self, ctx: ProcessContext, reception: Reception) -> None:
        """Engine entry point: record message custody, then dispatch.

        Subclasses should override :meth:`on_reception`, not this method.
        """
        if reception.is_message and not self._has_message:
            self._has_message = True
            self._message = reception.message
            self._first_message_round = ctx.round_number
        self.on_reception(ctx, reception)

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def decide_send(self, ctx: ProcessContext) -> Optional[Message]:
        """Return the message to transmit this round, or ``None`` to listen."""

    def on_reception(self, ctx: ProcessContext, reception: Reception) -> None:
        """Observe the end-of-round outcome.  Default: no-op."""

    def send_schedule(self) -> Optional[SendSchedule]:
        """The oblivious schedule this process follows, if any.

        A process may return a schedule only if :meth:`decide_send`
        returns ``None`` in every round ``r`` whose
        ``schedule.uids_at(r)`` does not contain its uid, and only if
        skipping such a call is unobservable (caching a pure function
        of the process's own state is fine; drawing from the PRNG or
        counting calls is not).  When
        every process of an execution returns an equal schedule, the
        fast engine asks only the round's scheduled processes to decide.
        A subclass that overrides ``decide_send`` must re-establish the
        contract or return ``None``.  Default: ``None`` (no schedule;
        every active process is asked every round).
        """
        return None

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def outgoing(self, ctx: ProcessContext, **meta: Any) -> Message:
        """Build a copy of the held broadcast message for retransmission."""
        if self._message is None:
            raise RuntimeError(
                f"process {self._uid} has no message to retransmit"
            )
        msg = self._message.restamped(self._uid, ctx.round_number)
        if meta:
            msg.meta.update(meta)
        return msg

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(uid={self._uid})"


class SilentProcess(Process):
    """A process that never transmits.  Useful in tests and lower bounds."""

    def decide_send(self, ctx: ProcessContext) -> Optional[Message]:
        return None


class ScriptedProcess(Process):
    """A process that follows a fixed transmission schedule.

    Args:
        uid: Process identifier.
        send_rounds: Collection of global round numbers in which to send
            (only takes effect once the process holds the message, since a
            process with nothing to say transmits nothing meaningful; pass
            ``send_without_message=True`` to transmit a dummy payload
            regardless, which some lower-bound constructions require).
        send_without_message: Transmit even before holding the broadcast
            message (the transmission then carries a ``None`` payload).
    """

    def __init__(
        self,
        uid: int,
        send_rounds: Iterable[int],
        send_without_message: bool = False,
    ) -> None:
        super().__init__(uid)
        self._send_rounds = frozenset(send_rounds)
        self._send_without_message = send_without_message

    def decide_send(self, ctx: ProcessContext) -> Optional[Message]:
        if ctx.round_number not in self._send_rounds:
            return None
        if self.has_message:
            return self.outgoing(ctx)
        if self._send_without_message:
            return Message(None, self.uid, ctx.round_number)
        return None
