"""The MMPS reliable message system: endpoints, fragmentation, acks.

This module reproduces the observable behaviour of MMPS [5]: reliable,
heterogeneous message passing over UDP-style datagrams.  Each processor gets
an :class:`Endpoint`; messages are fragmented to the segment MTU, transmitted
through the simulated network (paying contention and router costs), optionally
dropped (loss injection), acknowledged, and retransmitted on timeout.

Cost placement
--------------
* **send** (blocking): full send-path CPU inline, then transmission + ack.
* **isend** (asynchronous): a small initiation cost inline (copy into the
  stack); transmission proceeds in a background process — this is what lets
  STEN-2 overlap border exchange with grid computation.
* **recv** (blocking): waits for the reassembled message, then pays the
  receive-path CPU plus any coercion cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import MessagingError, PeerUnreachableError
from repro.hardware.network import HeterogeneousNetwork
from repro.hardware.processor import Processor
from repro.mmps.coercion import CoercionPolicy
from repro.mmps.commcache import CommRoundCache
from repro.mmps.message import Datagram, Message
from repro.mmps.params import HostCostParams
from repro.sim import Event, Store
from repro.sim.process import ProcessGenerator
from repro.telemetry import NULL_REGISTRY

__all__ = ["MMPS", "Endpoint", "EndpointStats", "MMPS_HEADER_BYTES"]

#: Per-datagram MMPS protocol header carried on the wire.
MMPS_HEADER_BYTES = 24


@dataclass
class EndpointStats:
    """Cumulative per-endpoint counters (useful in tests and benchmarks)."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    datagrams_sent: int = 0
    acks_sent: int = 0
    retransmissions: int = 0


class MMPS:
    """The message system: one per simulated network.

    Parameters
    ----------
    network:
        The simulated :class:`HeterogeneousNetwork` to run over.
    host_costs:
        Protocol-stack CPU cost model; defaults are era-calibrated.
    coercion:
        Cross-format conversion policy.
    loss_rate:
        Per-datagram drop probability (applied to data and ack datagrams).
    reliable:
        When ``True`` (MMPS semantics), messages are acked and retransmitted;
        ``False`` gives raw datagram best-effort delivery.
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry`.  Transport
        counters (messages, bytes, datagrams, acks, retransmissions,
        losses) are **sim-domain** integers — what the simulated protocol
        did — so the fast-forward engine can advance them exactly across
        skipped steady-state cycles (see :mod:`repro.sim.fastforward`).
    """

    def __init__(
        self,
        network: HeterogeneousNetwork,
        *,
        host_costs: Optional[HostCostParams] = None,
        coercion: Optional[CoercionPolicy] = None,
        loss_rate: float = 0.0,
        reliable: bool = True,
        metrics=None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.network = network
        self.sim = network.sim
        self.host_costs = host_costs or HostCostParams()
        self.coercion = coercion or CoercionPolicy()
        self.loss_rate = loss_rate
        self.reliable = reliable
        self._endpoints: dict[int, Endpoint] = {}
        self._loss_rng = network.streams.get("mmps.loss")
        self.datagrams_lost = 0
        self._dead: set[int] = set()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        m = self.metrics
        self._m_messages_sent = m.counter("mmps.messages_sent", help="messages delivered with assurance")
        self._m_messages_received = m.counter("mmps.messages_received", help="messages received")
        self._m_bytes_sent = m.counter("mmps.bytes_sent", help="payload bytes sent")
        self._m_bytes_received = m.counter("mmps.bytes_received", help="payload bytes received")
        self._m_datagrams_sent = m.counter("mmps.datagrams_sent", help="data datagrams put on the wire")
        self._m_acks_sent = m.counter("mmps.acks_sent", help="acknowledgement datagrams sent")
        self._m_retransmissions = m.counter("mmps.retransmissions", help="retransmission rounds")
        self._m_datagrams_lost = m.counter("mmps.datagrams_lost", help="datagrams dropped (loss or dead host)")
        #: Memoized per-route MTUs and fragment plans; steady-state cycles
        #: resend identical (route, size) messages, so fragmentation becomes
        #: a dict hit instead of a route resolution per message.
        self.comm_cache = CommRoundCache(self)

    def fail_processor(self, proc_id: int) -> None:
        """Fail-stop injection: the node vanishes from the message layer.

        Every datagram addressed to (or sent by) the processor is silently
        dropped from now on, exactly as a crashed host behaves on the wire.
        Reliable senders keep retransmitting until their retry budget is
        exhausted and then raise :class:`~repro.errors.PeerUnreachableError`
        with the destination and attempt count — the surfaced timeout a
        supervisor turns into a repartitioning trigger.
        """
        self._dead.add(proc_id)
        self.network.tracer.record("mmps", "fail", proc=proc_id)

    def is_failed(self, proc_id: int) -> bool:
        """Whether the message layer treats the processor as crashed."""
        return proc_id in self._dead

    def endpoint(self, proc: Processor) -> "Endpoint":
        """Get (creating on first use) the endpoint bound to ``proc``."""
        ep = self._endpoints.get(proc.proc_id)
        if ep is None:
            ep = Endpoint(self, proc)
            self._endpoints[proc.proc_id] = ep
        return ep

    def mtu_bytes(self, proc: Processor, dst: Optional[Processor] = None) -> int:
        """Fragmentation threshold for messages from ``proc`` (to ``dst``).

        The *path* MTU — the smallest link MTU along the route (source
        segment, plus the destination segment when the message crosses the
        router) — minus the MMPS per-datagram header, so every datagram
        fits every frame it rides.
        """
        if dst is not None:
            return self.comm_cache.path_mtu(proc, dst)
        return self._path_payload_mtu(proc, None)

    def _path_payload_mtu(self, proc: Processor, dst: Optional[Processor]) -> int:
        """Uncached MTU resolution — :class:`CommRoundCache`'s miss path."""
        if dst is not None:
            link_mtu = self.network.path_mtu(proc, dst)
        else:
            link_mtu = self.network.cluster(proc.cluster_name).segment.params.mtu_bytes
        payload = link_mtu - MMPS_HEADER_BYTES
        if payload <= 0:
            raise MessagingError(
                f"segment MTU {link_mtu} too small for the {MMPS_HEADER_BYTES}-byte "
                "MMPS header"
            )
        return payload

    # -- datagram transport ------------------------------------------------------

    def _transmit_datagram(self, dgram: Datagram) -> ProcessGenerator:
        """Carry one datagram through the network, then deliver or drop it."""
        src = self.network.processor(dgram.src)
        dst = self.network.processor(dgram.dst)
        if dgram.src in self._dead or dgram.dst in self._dead:
            # A crashed endpoint neither transmits nor receives; the frame
            # never reaches the wire (or falls off it at the dead NIC).
            self.datagrams_lost += 1
            self._m_datagrams_lost.inc()
            self.network.tracer.record(
                "mmps", "dead-drop", msg_id=dgram.msg_id, src=dgram.src, dst=dgram.dst
            )
            return None
        yield from self.network.transfer_frame(src, dst, dgram.nbytes + MMPS_HEADER_BYTES)
        if self.loss_rate > 0.0 and float(self._loss_rng.random()) < self.loss_rate:
            self.datagrams_lost += 1
            self._m_datagrams_lost.inc()
            self.network.tracer.record(
                "mmps", "drop", msg_id=dgram.msg_id, frag=dgram.frag_index
            )
            return None
        dst_ep = self._endpoints.get(dgram.dst)
        if dst_ep is None:
            raise MessagingError(
                f"datagram for processor {dgram.dst} but no endpoint is bound there"
            )
        dst_ep._on_datagram(dgram)
        return None


class Endpoint:
    """One processor's attachment to MMPS.

    Obtain via :meth:`MMPS.endpoint`.  All public operations are generators
    to be driven inside simulated processes (``yield from`` for inline work,
    ``yield`` on returned events for completions).
    """

    def __init__(self, mmps: MMPS, proc: Processor) -> None:
        self.mmps = mmps
        self.proc = proc
        self.sim = mmps.sim
        self._messages = Store(self.sim)
        self._reassembly: dict[int, dict[int, Datagram]] = {}
        self._completed: set[int] = set()
        self._ack_events: dict[int, Event] = {}
        # Pairwise-FIFO delivery: per-destination send sequence, and a
        # per-source reorder buffer holding completed messages that arrived
        # ahead of a retransmitted predecessor.
        self._send_seq: dict[int, int] = {}
        self._next_deliver: dict[int, int] = {}
        self._reorder: dict[int, dict[int, Message]] = {}
        self.stats = EndpointStats()

    # -- sending ---------------------------------------------------------------

    def _make_message(
        self, dst: Processor, nbytes: int, tag: str, payload: Any
    ) -> Message:
        seq = self._send_seq.get(dst.proc_id, 0)
        self._send_seq[dst.proc_id] = seq + 1
        return Message(
            src=self.proc.proc_id,
            dst=dst.proc_id,
            nbytes=nbytes,
            tag=tag,
            payload=payload,
            src_format=self.proc.spec.data_format,
            seq=seq,
        )

    def _fragments(self, msg: Message) -> list[Datagram]:
        # Memoized closed-form plan: never a zero-byte trailing fragment —
        # an exact-MTU-multiple message is exactly nbytes/mtu full datagrams;
        # only the mandatory single datagram of an empty message carries 0.
        sizes = self.mmps.comm_cache.fragment_sizes(
            self.proc, self.mmps.network.processor(msg.dst), msg.nbytes
        )
        count = len(sizes)
        return [
            Datagram(
                msg_id=msg.msg_id,
                src=msg.src,
                dst=msg.dst,
                frag_index=i,
                frag_count=count,
                nbytes=size,
                message=msg if i == count - 1 else None,
            )
            for i, size in enumerate(sizes)
        ]

    def send(
        self, dst: Processor, nbytes: int, tag: str = "", payload: Any = None
    ) -> ProcessGenerator:
        """Blocking send: returns (via StopIteration) once delivery is assured.

        Pays the full synchronous send CPU cost inline, then transmits and —
        in reliable mode — waits for the acknowledgement.
        """
        msg = self._make_message(dst, nbytes, tag, payload)
        frags = self._fragments(msg)
        cost = self.mmps.host_costs.send_cost_ms(self.proc.spec, nbytes, len(frags))
        yield self.sim.timeout(cost)
        yield self.sim.process(
            self._transmit_message(msg, frags), name=f"send:{msg.msg_id}"
        )
        return msg

    def isend(
        self, dst: Processor, nbytes: int, tag: str = "", payload: Any = None
    ) -> ProcessGenerator:
        """Asynchronous send: returns a completion event after a small inline cost.

        Use as ``done = yield from ep.isend(...)``; ``yield done`` later to
        wait for delivery assurance (the ack in reliable mode).
        """
        msg = self._make_message(dst, nbytes, tag, payload)
        frags = self._fragments(msg)
        init = self.mmps.host_costs.async_init_cost_ms(self.proc.spec, nbytes)
        yield self.sim.timeout(init)
        proc = self.sim.process(
            self._transmit_message(msg, frags), name=f"isend:{msg.msg_id}"
        )
        # Deliberately NOT defused: a sender may never wait on completion,
        # and a *successful* unawaited transmission is silent — but a failed
        # one (exhausted retries, protocol bug) must crash the simulation
        # rather than masquerade as a lost message.
        return proc

    def _transmit_message(self, msg: Message, frags: list[Datagram]) -> ProcessGenerator:
        """Transmit all fragments; in reliable mode, await ack / retransmit."""
        costs = self.mmps.host_costs
        ack_event: Optional[Event] = None
        if self.mmps.reliable:
            ack_event = self._ack_events.setdefault(msg.msg_id, self.sim.event())
        attempt = 0
        while True:
            for dgram in frags:
                # One NIC: fragments leave the host serially.
                yield from self.mmps._transmit_datagram(dgram)
                self.stats.datagrams_sent += 1
                self.mmps._m_datagrams_sent.inc()
            if not self.mmps.reliable or ack_event is None:
                break
            if ack_event.triggered:
                break
            timeout = self.sim.timeout(costs.retransmit_timeout_ms)
            winner, _value = yield self.sim.any_of([ack_event, timeout])
            if winner is ack_event:
                break
            attempt += 1
            self.stats.retransmissions += 1
            self.mmps._m_retransmissions.inc()
            if attempt > costs.max_retries:
                self._ack_events.pop(msg.msg_id, None)
                raise PeerUnreachableError(msg.msg_id, msg.dst, attempt)
        self._ack_events.pop(msg.msg_id, None)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += msg.nbytes
        self.mmps._m_messages_sent.inc()
        self.mmps._m_bytes_sent.inc(msg.nbytes)
        return msg

    # -- receiving --------------------------------------------------------------

    def recv(
        self, src: Optional[Processor] = None, tag: Optional[str] = None
    ) -> ProcessGenerator:
        """Blocking receive, optionally selective on source and/or tag.

        Returns the :class:`Message` after paying receive-path CPU and any
        coercion cost.
        """

        def matches(msg: Message) -> bool:
            if src is not None and msg.src != src.proc_id:
                return False
            if tag is not None and msg.tag != tag:
                return False
            return True

        msg: Message = yield self._messages.get(matches)
        ndgrams = self.mmps.comm_cache.round_datagrams(
            self.proc, self.mmps.network.processor(msg.src), msg.nbytes
        )
        cost = self.mmps.host_costs.recv_cost_ms(self.proc.spec, msg.nbytes, ndgrams)
        cost += self.mmps.coercion.cost_ms(msg.src_format, self.proc.spec, msg.nbytes)
        yield self.sim.timeout(cost)
        self.stats.messages_received += 1
        self.stats.bytes_received += msg.nbytes
        self.mmps._m_messages_received.inc()
        self.mmps._m_bytes_received.inc(msg.nbytes)
        return msg

    def irecv(self, src: Optional[Processor] = None, tag: Optional[str] = None):
        """Non-blocking receive: returns a :class:`Process` to wait on later."""
        return self.sim.process(self.recv(src=src, tag=tag), name="irecv")

    @property
    def pending_messages(self) -> int:
        """Completed messages waiting to be received."""
        return len(self._messages)

    # -- datagram arrival ---------------------------------------------------------

    def _on_datagram(self, dgram: Datagram) -> None:
        if dgram.is_ack:
            event = self._ack_events.get(dgram.msg_id)
            if event is not None and not event.triggered:
                event.succeed(dgram.msg_id)
            return
        if dgram.msg_id in self._completed:
            # Duplicate after delivery (our ack was lost): re-ack so the
            # sender stops retransmitting.
            if self.mmps.reliable:
                self._send_ack(dgram)
            return
        frags = self._reassembly.setdefault(dgram.msg_id, {})
        frags[dgram.frag_index] = dgram
        if len(frags) == dgram.frag_count:
            final = frags[dgram.frag_count - 1]
            assert final.message is not None
            del self._reassembly[dgram.msg_id]
            self._completed.add(dgram.msg_id)
            self._deliver_in_order(final.message)
            if self.mmps.reliable:
                self._send_ack(dgram)

    def _deliver_in_order(self, msg: Message) -> None:
        """Pairwise FIFO: hand messages of one sender over in send order.

        In unreliable mode there is no retransmission to wait for, so a gap
        in the sequence would stall the channel forever — messages are
        delivered as they complete instead.
        """
        if not self.mmps.reliable:
            self._messages.put(msg)
            return
        src = msg.src
        expected = self._next_deliver.get(src, 0)
        if msg.seq != expected:
            self._reorder.setdefault(src, {})[msg.seq] = msg
            return
        self._messages.put(msg)
        expected += 1
        buffered = self._reorder.get(src, {})
        while expected in buffered:
            self._messages.put(buffered.pop(expected))
            expected += 1
        self._next_deliver[src] = expected

    def _send_ack(self, dgram: Datagram) -> None:
        ack = Datagram(
            msg_id=dgram.msg_id,
            src=self.proc.proc_id,
            dst=dgram.src,
            frag_index=0,
            frag_count=1,
            nbytes=Datagram.ACK_BYTES,
            is_ack=True,
        )
        self.stats.acks_sent += 1
        self.mmps._m_acks_sent.inc()
        self.sim.process(self.mmps._transmit_datagram(ack), name=f"ack:{dgram.msg_id}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Endpoint proc={self.proc.proc_id} ({self.proc.spec.name})>"
