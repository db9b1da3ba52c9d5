"""Bitmask fast-path engine for sweep workloads.

:class:`FastBroadcastEngine` executes the exact Section 2.1 round
semantics of :class:`~repro.sim.engine.BroadcastEngine` — it is a
drop-in subclass producing **bit-identical traces** (the differential
harness in ``tests/test_fast_engine_equivalence.py`` asserts this seed
for seed) — but resolves each round with Python-int set algebra instead
of per-node message lists:

* Node sets (active, reached, multiply-reached) are single Python ints
  with bit ``v`` standing for node ``v``; adjacency is precompiled to a
  per-node *self-plus-reliable-out* mask.
* One pass over the senders computes, with two masks, which nodes were
  reached at least once and which at least twice::

      reached_multi |= reached_once & reach(sender)
      reached_once  |= reach(sender)

  Under CR1–CR3 the reception at every node is a pure function of
  (sender?, arrival count 0/1/2+), so collisions and silence resolve by
  popcount-style mask tests without ever materialising an arrival list;
  only nodes with exactly one arrival need the actual
  :class:`~repro.sim.messages.Message`.
* Process classes that leave both ``deliver`` and ``on_reception`` at
  the :class:`~repro.sim.process.Process` defaults observe non-message
  receptions as provable no-ops, so the engine only visits *reached*
  nodes each round instead of every active node.  Classes overriding
  either hook (e.g. the gossip extension) are tracked in an observer
  mask and keep the reference engine's full delivery discipline.
* When every process declares one equal oblivious schedule
  (:meth:`~repro.sim.process.Process.send_schedule`: round robin,
  Strong Select), phase 1 asks only the round's scheduled active nodes
  to decide — a cached uid-to-node mask ANDed with the active mask —
  instead of every active process.
* Set algebra cannot express two things, which keep per-message work:
  CR4 collisions at non-senders and payload-identity custody tracking
  (which already operates on single delivered messages).  When the
  adversary has a real CR4 resolver, the arrival list of every
  *contested* node (reached twice or more, not a sender, not crashed) is
  built once per round by walking each sender's contested reach bits in
  ascending sender order — the order the reference engine appends
  arrivals in — and handed to the shared
  :func:`~repro.sim.collision.resolve_reception`.

Because the semantics are identical, the engines are interchangeable:
:func:`repro.sim.engine.build_engine` dispatches on
``EngineConfig.engine``, and the experiments layer
(:func:`repro.experiments.runner.execute_task`) runs every task that
does not ask for the reference oracle on this engine.
"""

from __future__ import annotations

from typing import (
    Any,
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.adversaries.base import Adversary
from repro.sim.collision import CollisionRule, resolve_reception
from repro.sim.engine import (
    BroadcastEngine,
    CompiledTopology,
    compile_topology,
    fold_round_counters,
)
from repro.sim.messages import COLLISION, Message, Reception, SILENCE, received
from repro.sim.process import Process, ProcessContext, SendSchedule
from repro.sim.trace import RoundRecord

# The shared topology compiler lives beside the reference engine and
# stays importable from here.
__all__ = ["CompiledTopology", "FastBroadcastEngine", "compile_topology"]


def _observes_non_messages(process: Process) -> bool:
    """Whether silence/collision deliveries can affect this process.

    ``Process.deliver`` mutates state only for message receptions and the
    base ``on_reception`` is a no-op, so a process whose class overrides
    neither hook provably ignores non-message receptions.
    """
    cls = type(process)
    return (
        cls.on_reception is not Process.on_reception
        or cls.deliver is not Process.deliver
    )


def _common_schedule(
    processes: Iterable[Process],
) -> Optional[SendSchedule]:
    """The oblivious schedule every process follows, or ``None``.

    Schedule-free algorithms (the :meth:`Process.send_schedule`
    default) end the check at their first process.
    """
    common: Optional[SendSchedule] = None
    for process in processes:
        schedule = process.send_schedule()
        if schedule is None:
            return None
        if common is None:
            common = schedule
        elif schedule is not common and schedule != common:
            return None
    return common


class FastBroadcastEngine(BroadcastEngine):
    """Bitmask drop-in for :class:`~repro.sim.engine.BroadcastEngine`.

    Constructor signature, public API, trace output, process-state
    evolution and adversary interaction are all identical to the
    reference engine; only the internal per-round resolution differs.
    See the module docstring for the algebra.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        network = self.network
        bit = self._topology.bit
        self._bit: List[int] = bit
        # Per-node reach mask: the sender itself plus its reliable
        # out-neighbours ("its message reaches ... and v itself").
        self._reach_mask: List[int] = self._topology.reach_mask
        # Nodes whose process observes silence/collision: they keep the
        # reference engine's every-round delivery discipline.
        self._observer_mask = sum(
            bit[v]
            for v in network.nodes
            if _observes_non_messages(self.process_at[v])
        )
        # Maintained by the _insert_active/_deactivate overrides;
        # construction precedes _setup(), so no node is active yet.
        self._active_mask = 0
        # Crashed-node bitmask, maintained by the churn overrides.
        self._crashed_mask = 0
        # (node, process, context) for each active node, ascending node
        # order; rebuilt lazily after activations.
        self._triples: List[Tuple[int, Process, ProcessContext]] = []
        self._triples_dirty = True
        # Whether CR4 collisions consult the adversary: the base-class
        # resolver is always silence, so the hot loop builds no arrival
        # lists for it.
        self._consult_cr4 = (
            self.config.collision_rule is CollisionRule.CR4
            and type(self.adversary).resolve_cr4 is not Adversary.resolve_cr4
        )
        # One oblivious schedule shared by every process: phase 1 then
        # asks only the round's scheduled active nodes to decide.  The
        # node mask of each scheduled uid collection is cached.
        self._schedule = _common_schedule(self.process_at.values())
        self._schedule_masks: Dict[Collection[int], int] = {}
        self._node_of_uid: Dict[int, int] = (
            {uid: v for v, uid in self.proc_map.items()}
            if self._schedule is not None
            else {}
        )

    def _insert_active(self, node: int) -> None:
        self._active_mask |= self._bit[node]
        self._triples_dirty = True
        super()._insert_active(node)

    def _deactivate(self, node: int) -> None:
        self._active_mask &= ~self._bit[node]
        self._triples_dirty = True
        super()._deactivate(node)

    def _crash_node(self, node: int) -> None:
        super()._crash_node(node)
        self._crashed_mask |= self._bit[node]

    def _recover_node(self, node: int, rnd: int) -> None:
        super()._recover_node(node, rnd)
        self._crashed_mask &= ~self._bit[node]

    def _active_triples(self) -> List[Tuple[int, Process, ProcessContext]]:
        if self._triples_dirty:
            self._triples = [
                (v, self.process_at[v], self._contexts[v])
                for v in self._active_sorted
            ]
            self._triples_dirty = False
        return self._triples

    def _decide_senders(self, rnd: int) -> Dict[int, Message]:
        """Phase 1: collect the round's senders in ascending node order.

        Only the contexts of processes asked to decide advance here;
        every other context is refreshed in phase 4 just before it
        observes anything.
        """
        senders: Dict[int, Message] = {}
        schedule = self._schedule
        if schedule is None:
            for node, process, ctx in self._active_triples():
                ctx.round_number = rnd
                msg = process.decide_send(ctx)
                if msg is not None:
                    senders[node] = msg
            return senders
        # Oblivious schedule: every process outside uids_at(rnd) would
        # return None, so only the scheduled active nodes are asked.
        uids = schedule.uids_at(rnd)
        due = self._schedule_masks.get(uids)
        if due is None:
            node_of = self._node_of_uid
            bit = self._bit
            due = sum(bit[node_of[u]] for u in uids if u in node_of)
            self._schedule_masks[uids] = due
        due &= self._active_mask
        process_at = self.process_at
        contexts = self._contexts
        while due:
            low = due & -due
            node = low.bit_length() - 1
            due ^= low
            ctx = contexts[node]
            ctx.round_number = rnd
            msg = process_at[node].decide_send(ctx)
            if msg is not None:
                senders[node] = msg
        return senders

    def _step(self) -> RoundRecord:
        self._round += 1
        rnd = self._round
        network = self.network
        recording = self.config.record_receptions
        rule = self.config.collision_rule
        bit = self._bit
        reach_mask = self._reach_mask
        contexts = self._contexts

        crashed_now, recovered_now = self._apply_churn(rnd)
        crashed_mask = self._crashed_mask

        # Phase 1: decisions (ascending node order, the insertion order
        # the reference engine guarantees).
        senders = self._decide_senders(rnd)

        # Phase 2: adversary (shared with the reference engine).
        view = self._adversary_view(rnd, senders)
        deliveries = self._validated_deliveries(view, senders)

        # Phase 3: arrival algebra.  After the pass, bit v of
        # reached_once means "some message reached v" and bit v of
        # reached_multi means "two or more messages reached v".
        reached_once = 0
        reached_multi = 0
        sender_reach: Dict[int, int] = {}
        for sender in senders:
            m = reach_mask[sender]
            targets = deliveries.get(sender)
            if targets:
                for t in targets:
                    m |= bit[t]
            sender_reach[sender] = m
            reached_multi |= reached_once & m
            reached_once |= m
        single = reached_once & ~reached_multi

        # CR4 with a real resolver consults the adversary once per
        # contested node, with that node's arrivals in ascending sender
        # order; every list is built here, in one walk over the senders.
        contested_arrivals: Dict[int, List[Message]] = {}
        if self._consult_cr4 and reached_multi:
            contested = reached_multi & ~crashed_mask
            for sender in senders:
                contested &= ~bit[sender]
            for sender, m in sender_reach.items():
                hits = m & contested
                msg = senders[sender]
                while hits:
                    low = hits & -hits
                    node = low.bit_length() - 1
                    arrivals = contested_arrivals.get(node)
                    if arrivals is None:
                        contested_arrivals[node] = [msg]
                    else:
                        arrivals.append(msg)
                    hits ^= low

        # Nodes with exactly one arrival are the only ones whose
        # reception carries a Message; one shared Reception per sender
        # serves all of that sender's unique receivers (receptions are
        # immutable value objects, so sharing is observationally
        # identical to the reference engine's fresh instances).
        unique_rec: Dict[int, Reception] = {}
        sender_rec: Dict[int, Reception] = {}
        if single:
            for sender, m in sender_reach.items():
                hits = m & single
                if not hits:
                    continue
                rec = received(senders[sender])
                sender_rec[sender] = rec
                while hits:
                    low = hits & -hits
                    unique_rec[low.bit_length() - 1] = rec
                    hits ^= low

        # Phase 4: resolution and delivery, ascending node order
        # (matching the reference engine's candidate ordering).  Without
        # recording, only reached nodes and active observers can change
        # state: an unreached non-observer hears silence, which its
        # process provably ignores.
        def cr4(node: int, msgs: List[Message]) -> Optional[Message]:
            return self.adversary.resolve_cr4(view, node, msgs)

        receptions: Optional[Dict[int, Reception]] = (
            {} if recording else None
        )
        newly_informed: List[int] = []
        newly_active: List[int] = []
        informed_round = self.trace.informed_round
        process_at = self.process_at
        deliver = self._deliver
        sender_msg = senders.get
        active_mask = self._active_mask
        observer_mask = self._observer_mask
        cr1 = rule is CollisionRule.CR1
        collision_on_multi = rule.provides_collision_detection
        silence_on_multi = rule is CollisionRule.CR3 or (
            rule is CollisionRule.CR4 and not self._consult_cr4
        )

        if recording:
            pending = 0
            candidates = iter(network.nodes)  # every reception is recorded
        else:
            # Crashed radios hear nothing: their positions never need a
            # visit (they cannot be active, so the observer term is
            # already clear of them).
            pending = (
                reached_once | (active_mask & observer_mask)
            ) & ~crashed_mask
            candidates = None

        while True:
            if candidates is not None:
                node = next(candidates, None)
                if node is None:
                    break
            else:
                if not pending:
                    break
                low = pending & -pending
                node = low.bit_length() - 1
                pending ^= low

            b = bit[node]
            if crashed_mask & b:
                # Crashed radio: arrivals dissolve, recorded as silence,
                # never consulted for, never woken (reference parity).
                if receptions is not None:
                    receptions[node] = SILENCE
                continue
            if not reached_once & b:
                # Nothing reached the node (so it cannot have sent:
                # senders always reach themselves) — silence under
                # every collision rule.
                reception = SILENCE
            elif reached_multi & b:
                own = sender_msg(node)
                if own is not None:
                    if cr1:
                        reception = COLLISION
                    else:
                        reception = sender_rec.get(node)
                        if reception is None:
                            reception = received(own)
                            sender_rec[node] = reception
                elif collision_on_multi:  # CR1/CR2 non-sender
                    reception = COLLISION
                elif silence_on_multi:  # CR3, or CR4 default resolver
                    reception = SILENCE
                else:
                    # A contested node under a real CR4 resolver: the
                    # shared resolution path consults the adversary.
                    reception = resolve_reception(
                        rule,
                        node,
                        False,
                        None,
                        contested_arrivals[node],
                        cr4_resolver=cr4,
                    )
            else:
                # Exactly one arrival: a lone sender hears itself (CR1's
                # collision needs two arrivals), a non-sender receives
                # the unique message.
                reception = unique_rec[node]

            if receptions is not None:
                receptions[node] = reception
            # `.message is not None` is the cheap attribute-level spelling
            # of Reception.is_message (a MESSAGE reception always carries
            # a message; the other kinds never do).
            is_message = reception.message is not None
            awake = active_mask & b
            if not is_message and not (awake and observer_mask & b):
                # Sleeping processes observe nothing; a non-observer
                # provably ignores a non-message delivery.
                continue
            # Phase 1 may have skipped this context; on_activate and
            # deliver must observe the current round.
            contexts[node].round_number = rnd
            if not awake:
                newly_active.append(node)  # wake mid-round
                self._activate(node)
            process = process_at[node]
            was_informed = informed_round[node] is not None
            deliver(node, process, reception)
            if not was_informed and informed_round[node] is None:
                if process.has_message and self._carries_payload(reception):
                    self._mark_informed(node, rnd)
                    newly_informed.append(node)

        # Observability reads the arrival masks, never feeds trace state.
        if self._telemetry.enabled:
            fold_round_counters(
                self._telemetry,
                network.n,
                senders,
                reached_once,
                reached_multi,
                crashed_mask,
                rule is CollisionRule.CR4,
            )

        record = RoundRecord(
            round_number=rnd,
            senders=senders,
            unreliable_deliveries=deliveries,
            newly_informed=tuple(newly_informed),
            newly_active=tuple(newly_active),
            receptions=receptions,
            crashed=crashed_now,
            recovered=recovered_now,
        )
        self.trace.rounds.append(record)
        return record
