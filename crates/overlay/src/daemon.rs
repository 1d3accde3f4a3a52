//! Daemon tasks: async drivers around the sans-IO engines.
//!
//! One way to start a node, mirroring (and extending) the paper's
//! per-node multi-threaded daemon (§7.1): [`spawn_node`] runs any
//! combination of relay, source and destination roles over shared
//! transports.
//!
//! * Every port's **ingress** task peeks the flow id out of each
//!   received buffer and routes the frozen [`Bytes`] to either the relay
//!   plane or the session plane.
//! * The relay plane is one **worker** per [`RelayShard`]: it drives its
//!   shard (packets, plus a sleep until the shard's next wheel deadline
//!   — no periodic tick) and owns its own egress sender, batching sends
//!   to the same neighbour before awaiting the transport. Flows have
//!   shard affinity (`hash(flow_id) % N` via the shared [`FlowRouter`]),
//!   so shards never contend on flow state and a relay scales across
//!   cores.
//! * The session plane is a [`slicing_core::SessionManager`] split into
//!   per-shard workers that host thousands of source/destination
//!   endpoints.
//! * Receiver flows established by the relay plane get a colocated
//!   [`DestSession`] in their owning shard worker — flow affinity means
//!   the destination role adds no locks to the packet path — while the
//!   relay keeps forwarding downstream so neighbours cannot tell the
//!   node terminates traffic.
//!
//! Wire-garbage (buffers that fail packet parsing) is counted into the
//! relay's shared [`slicing_core::RelayStatsAtomic`] by whichever task
//! rejects it, and every driver folds its shard's counters into the same
//! cell, so tests and dashboards can watch a live relay without owning
//! its state.

use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::task::Poll;
use std::time::{Duration, Instant};

use bytes::Bytes;
use slicing_core::wheel::TimerWheel;
use slicing_core::{
    DestSession, FlowRouter, OverlayAddr, Packet, RelayOutput, RelayShard, RelayStatsAtomic,
    SessionConfig, SessionError, SessionId, SessionManager, SessionOutput, SessionRouter,
    SessionShard, SessionStats, SessionStatsAtomic, ShardedRelay, SourceSession, Tick,
};
use slicing_graph::packets::SendInstr;
use slicing_onion::{OnionPacket, OnionRelay};
use slicing_wire::{peek_flow_id, FlowId};
use std::sync::Arc;
use tokio::sync::mpsc;

use crate::{NodePort, PortSender};

/// Most packets a shard worker drains from its inbox before touching
/// the network (bounds latency of the first queued send; keeps the
/// egress batches dense under load).
const WORKER_DRAIN_BATCH: usize = 32;

/// Bucket width of a relay worker's colocated-destination wheel
/// (matching the session shards' wheels; bookkeeping only — wakes fire
/// exactly on time).
const DEST_WHEEL_GRANULARITY_MS: u64 = 50;
/// Buckets of that wheel (12.8 s horizon; later wakes ride rotations).
const DEST_WHEEL_BUCKETS: usize = 256;

/// Events the daemons report to the experiment harness.
#[derive(Clone, Debug)]
pub enum OverlayEvent {
    /// A relay completed flow establishment; `receiver` = destination?
    Established {
        /// The node that established.
        addr: OverlayAddr,
        /// The established flow.
        flow: FlowId,
        /// Whether it is the flow's destination.
        receiver: bool,
        /// Milliseconds since the daemon started.
        at_ms: u64,
    },
    /// The destination decoded and decrypted a data message.
    MessageReceived {
        /// Destination address.
        addr: OverlayAddr,
        /// Message sequence number.
        seq: u32,
        /// Plaintext length (payload itself omitted from events).
        len: usize,
        /// Milliseconds since the daemon started.
        at_ms: u64,
    },
}

/// Report one call's output as events.
fn emit_events(
    events: &mpsc::UnboundedSender<OverlayEvent>,
    addr: OverlayAddr,
    epoch: Instant,
    outputs: &RelayOutput,
) {
    let at_ms = epoch.elapsed().as_millis() as u64;
    for &(flow, receiver) in &outputs.established {
        let _ = events.send(OverlayEvent::Established {
            addr,
            flow,
            receiver,
            at_ms,
        });
    }
    for r in &outputs.received {
        let _ = events.send(OverlayEvent::MessageReceived {
            addr,
            seq: r.seq,
            len: r.plaintext.len(),
            at_ms,
        });
    }
}

/// Transmit `sends`, grouping consecutive sends to the same neighbour
/// into one transport batch (`scratch` is reused across calls).
async fn flush_sends(
    port: &PortSender,
    outputs: RelayOutput,
    batches: &mut Vec<(OverlayAddr, Vec<Bytes>)>,
) {
    // Group every same-destination send across the whole flush into one
    // transport call: a relay generation fans its `d` packets out to
    // different next hops, so same-destination sends interleave — runs
    // alone would leave every batch at one frame. Per-destination order
    // is preserved; order between destinations carries no meaning.
    for instr in outputs.sends {
        let frames = match batches.iter_mut().find(|(to, _)| *to == instr.to) {
            Some((_, frames)) => frames,
            None => {
                batches.push((instr.to, Vec::new()));
                &mut batches.last_mut().expect("just pushed").1
            }
        };
        frames.push(instr.packet.encode());
    }
    for (to, frames) in batches.iter_mut() {
        port.send_many(*to, frames).await;
    }
    // Keep the bucket allocations; frames were drained in place.
    batches.retain(|(_, frames)| frames.capacity() > 0);
}

/// One shard's worker: owns the shard, drives packets and the shard's
/// timer wheel, reports events, and transmits through its own egress
/// handle with consecutive same-neighbour sends batched.
///
/// The worker sleeps until the earliest wheel deadline (its own or a
/// colocated destination session's) or a packet — there is no periodic
/// tick. It exits when its inbox closes, i.e. once every ingress feeding
/// it has exited. One [`tokio::time::Sleep`] is kept and reset only when
/// that deadline moves. The timer arm is selected first, so sustained
/// traffic cannot starve a due gather flush or flow GC.
///
/// With `dest_spec` set, the worker also plays the **destination role**
/// for receiver flows its shard establishes: each gets a colocated
/// [`DestSession`] (flow affinity — no locks), fed from the relay's
/// decoded deliveries; completed stream messages go out on the spec's
/// delivery channel and acks/replies ride the reverse path through this
/// worker's egress.
async fn shard_worker(
    mut shard: RelayShard,
    mut rx: mpsc::Receiver<(OverlayAddr, Bytes)>,
    tx: PortSender,
    events: mpsc::UnboundedSender<OverlayEvent>,
    epoch: Instant,
    dest_spec: Option<DestSessionSpec>,
) {
    let addr = shard.addr();
    let stats = shard.shared_stats();
    let mut scratch = Vec::new();
    let mut dests = dest_spec.map(DestRole::new);
    let handle = |shard: &mut RelayShard, from: OverlayAddr, bytes: Bytes| match Packet::from_bytes(
        bytes,
    ) {
        Ok(packet) => shard.handle_packet(now_tick(epoch), from, &packet),
        Err(_) => {
            // The ingress peek admits buffers whose body later fails
            // full validation; they die here.
            stats.record_garbage();
            RelayOutput::default()
        }
    };
    let mut timer = WakeTimer::new(epoch);
    loop {
        let next = shard
            .next_deadline()
            .into_iter()
            .chain(dests.as_ref().and_then(DestRole::next_deadline))
            .min();
        let mut outputs = tokio::select! {
            _ = timer.until(next) => {
                let now = now_tick(epoch);
                let mut outputs = shard.poll(now);
                if let Some(dests) = &mut dests {
                    dests.poll(now, addr, epoch, &mut outputs.sends);
                    // The relay's flow GC is authoritative: a session
                    // whose flow was evicted dies with it.
                    dests.collect_evicted(&shard);
                }
                outputs
            }
            maybe = rx.recv() => {
                let Some((from, bytes)) = maybe else { break };
                handle(&mut shard, from, bytes)
            }
        };
        // Drain whatever else is already queued before touching the
        // network, so bursts produce dense egress batches.
        for _ in 0..WORKER_DRAIN_BATCH {
            match rx.try_recv() {
                Ok((from, bytes)) => outputs.merge(handle(&mut shard, from, bytes)),
                Err(_) => break,
            }
        }
        if let Some(dests) = &mut dests {
            dests.absorb(&shard, addr, epoch, &mut outputs);
        }
        emit_events(&events, addr, epoch, &outputs);
        flush_sends(&tx, outputs, &mut scratch).await;
        shard.publish_stats();
    }
    // Exiting (every ingress gone): leave the shared stats exact.
    shard.publish_stats();
}

/// A worker's one reusable timer: a [`tokio::time::Sleep`] reset only
/// when the worker's earliest wheel deadline changes.
struct WakeTimer {
    epoch: Instant,
    sleep: tokio::time::Sleep,
    armed: Option<Tick>,
}

impl WakeTimer {
    fn new(epoch: Instant) -> Self {
        WakeTimer {
            epoch,
            sleep: tokio::time::sleep_until(epoch),
            armed: None,
        }
    }

    /// A future completing at `next` (never, for `None`).
    fn until(&mut self, next: Option<Tick>) -> impl Future<Output = ()> + Unpin + '_ {
        if next != self.armed {
            if let Some(t) = next {
                let at = self.epoch + Duration::from_millis(t.0);
                Pin::new(&mut self.sleep).reset(at);
            }
            self.armed = next;
        }
        std::future::poll_fn(move |cx| match self.armed {
            Some(_) => Pin::new(&mut self.sleep).poll(cx),
            None => Poll::Pending,
        })
    }
}

/// Colocated destination sessions on one relay shard worker's receiver
/// flows. Like [`SessionShard`]'s slots, each session carries its own
/// wheel wake at its [`DestSession::next_due`], so the worker runs only
/// the sessions that are due and never scans the rest.
struct DestRole {
    spec: DestSessionSpec,
    sessions: HashMap<FlowId, DestSlot>,
    wheel: TimerWheel<FlowId>,
    fired: Vec<(Tick, FlowId)>,
    /// The shard's `flows_evicted` when sessions were last collected.
    evicted_seen: u64,
}

/// A colocated session plus its earliest scheduled wheel wake (so
/// re-scheduling never floods the wheel with duplicates).
struct DestSlot {
    dest: DestSession,
    wake: Option<Tick>,
}

impl DestRole {
    fn new(spec: DestSessionSpec) -> Self {
        DestRole {
            spec,
            sessions: HashMap::new(),
            wheel: TimerWheel::new(DEST_WHEEL_GRANULARITY_MS, DEST_WHEEL_BUCKETS),
            fired: Vec::new(),
            evicted_seen: 0,
        }
    }

    fn next_deadline(&self) -> Option<Tick> {
        self.wheel.next_deadline()
    }

    /// Register sessions for freshly established receiver flows and
    /// feed the relay's deliveries through them.
    fn absorb(
        &mut self,
        shard: &RelayShard,
        addr: OverlayAddr,
        epoch: Instant,
        outputs: &mut RelayOutput,
    ) {
        let now = now_tick(epoch);
        for &(flow, receiver) in &outputs.established {
            if receiver && !self.sessions.contains_key(&flow) {
                if let Some(info) = shard.flow_info(flow) {
                    let dest = DestSession::new(
                        addr,
                        flow,
                        info.clone(),
                        self.spec.config,
                        self.spec.seed ^ flow.0,
                    );
                    self.sessions.insert(flow, DestSlot { dest, wake: None });
                    self.reschedule(flow);
                }
            }
        }
        // Repair re-setups splice new neighbour lists into the relay's
        // flow; the colocated session's reverse routing must follow or
        // its acks keep fanning to the replaced parent.
        for &(flow, receiver) in &outputs.rekeyed {
            if receiver {
                if let (Some(slot), Some(info)) = (self.sessions.get_mut(&flow), shard.flow_info(flow))
                {
                    slot.dest.set_info(info.clone());
                }
            }
        }
        for r in &outputs.received {
            if let Some(slot) = self.sessions.get_mut(&r.flow) {
                let dout = slot.dest.handle_delivery(now, r.seq, r.plaintext.clone());
                absorb_dest_output(&self.spec, addr, epoch, r.flow, dout, &mut outputs.sends);
                self.reschedule(r.flow);
            }
        }
        // Replays the relay suppressed mean a lost ack: re-announce.
        for &(flow, seq) in &outputs.replayed {
            if let Some(slot) = self.sessions.get_mut(&flow) {
                let dout = slot.dest.handle_replay(now, seq);
                absorb_dest_output(&self.spec, addr, epoch, flow, dout, &mut outputs.sends);
                self.reschedule(flow);
            }
        }
    }

    /// Run every session whose wheel wake fired (validated lazily: a
    /// stale wake just re-arms).
    fn poll(&mut self, now: Tick, addr: OverlayAddr, epoch: Instant, sends: &mut Vec<SendInstr>) {
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.wheel.poll_expired(now, &mut fired);
        for &(_, flow) in &fired {
            let Some(slot) = self.sessions.get_mut(&flow) else {
                continue; // collected since
            };
            slot.wake = None;
            if slot.dest.next_due().is_some_and(|d| d.0 <= now.0) {
                let dout = slot.dest.poll(now);
                absorb_dest_output(&self.spec, addr, epoch, flow, dout, sends);
            }
            self.reschedule(flow);
        }
        self.fired = fired;
    }

    /// Drop sessions whose relay flow was evicted (checked only when
    /// the shard's eviction counter moved).
    fn collect_evicted(&mut self, shard: &RelayShard) {
        let evicted = shard.stats().flows_evicted;
        if evicted != self.evicted_seen {
            self.evicted_seen = evicted;
            self.sessions.retain(|&flow, _| shard.flow_info(flow).is_some());
        }
    }

    /// Re-arm the wheel at the session's earliest deadline, skipping
    /// when an earlier entry is already pending.
    fn reschedule(&mut self, flow: FlowId) {
        let Some(slot) = self.sessions.get_mut(&flow) else {
            return;
        };
        let Some(due) = slot.dest.next_due() else {
            return;
        };
        if slot.wake.is_none_or(|w| due.0 < w.0) {
            self.wheel.schedule(due, flow);
            slot.wake = Some(due);
        }
    }
}

/// Queue a dest session's reverse sends and report completed messages.
fn absorb_dest_output(
    spec: &DestSessionSpec,
    addr: OverlayAddr,
    epoch: Instant,
    flow: FlowId,
    dout: slicing_core::DestOutput,
    sends: &mut Vec<SendInstr>,
) {
    sends.extend(dout.sends);
    let at_ms = epoch.elapsed().as_millis() as u64;
    for (msg_id, payload) in dout.messages {
        let _ = spec.deliveries.send(StreamDelivery {
            addr,
            flow,
            msg_id,
            payload,
            at_ms,
        });
    }
}

// ---- the combined node: relay + source + destination roles ---------------

/// Colocated destination-session support for relay workers: receiver
/// flows established by the relay plane get a [`DestSession`] in their
/// owning shard worker.
#[derive(Clone)]
pub struct DestSessionSpec {
    /// Session tuning (ack cadence, reassembly quotas).
    pub config: SessionConfig,
    /// Base RNG seed (mixed with the flow id per session).
    pub seed: u64,
    /// Completed stream messages are reported here.
    pub deliveries: mpsc::UnboundedSender<StreamDelivery>,
}

/// A stream message completed at a combined node's destination role.
#[derive(Clone, Debug)]
pub struct StreamDelivery {
    /// The destination node.
    pub addr: OverlayAddr,
    /// The receiver flow it arrived on.
    pub flow: FlowId,
    /// Stream message id (per-session, in delivery order).
    pub msg_id: u32,
    /// The reassembled payload.
    pub payload: Vec<u8>,
    /// Milliseconds since the daemon epoch.
    pub at_ms: u64,
}

/// Events the session plane reports to the harness.
#[derive(Clone, Debug)]
pub enum SessionEvent {
    /// A source-side stream message was fully acknowledged end to end.
    Acked {
        /// The source session.
        session: SessionId,
        /// The completed message.
        msg_id: u32,
        /// Milliseconds since the daemon epoch.
        at_ms: u64,
    },
    /// A manager-hosted destination endpoint completed a message.
    Delivered {
        /// The destination session.
        session: SessionId,
        /// Stream message id.
        msg_id: u32,
        /// The reassembled payload.
        payload: Vec<u8>,
        /// Milliseconds since the daemon epoch.
        at_ms: u64,
    },
    /// A destination reply surfaced at a source session.
    Reply {
        /// The source session.
        session: SessionId,
        /// Reply id.
        reply_id: u32,
        /// Reply payload.
        payload: Vec<u8>,
        /// Milliseconds since the daemon epoch.
        at_ms: u64,
    },
    /// An unframed (legacy) message surfaced at a session endpoint.
    Raw {
        /// The session.
        session: SessionId,
        /// Protocol sequence number.
        seq: u32,
        /// Decoded payload.
        payload: Vec<u8>,
        /// Milliseconds since the daemon epoch.
        at_ms: u64,
    },
    /// A source session repaired its forwarding graph around
    /// reported-dead relays (targeted re-setup transmitted; buffered
    /// messages re-encoded against the repaired graph).
    Repaired {
        /// The repaired source session.
        session: SessionId,
        /// Relays that had been reported dead and were routed around.
        failed: usize,
        /// Milliseconds since the daemon epoch.
        at_ms: u64,
    },
    /// A command against a session failed (backpressure, quota, unknown
    /// id) — the session plane's typed error surface.
    Rejected {
        /// The session the command addressed.
        session: SessionId,
        /// Why it was rejected.
        error: SessionError,
        /// Milliseconds since the daemon epoch.
        at_ms: u64,
    },
}

/// Commands a [`SessionHandle`] routes to session shard workers.
enum SessionCommand {
    OpenSource {
        id: SessionId,
        source: Box<SourceSession>,
        setup: Vec<SendInstr>,
    },
    OpenDest {
        id: SessionId,
        dest: Box<DestSession>,
    },
    Send {
        id: SessionId,
        payload: Vec<u8>,
    },
    Repair {
        id: SessionId,
        pool: Vec<OverlayAddr>,
    },
    Close {
        id: SessionId,
    },
}

/// Driver-side handle to a spawned node's session plane: open, feed and
/// close sessions while the workers own the shards. Cloneable; commands
/// route by session id to the owning worker, results surface through
/// [`SessionEvent`]s and the shared stats.
#[derive(Clone)]
pub struct SessionHandle {
    next_id: Arc<AtomicU64>,
    router: SessionRouter,
    config: SessionConfig,
    cmds: Vec<mpsc::Sender<SessionCommand>>,
    stats: Arc<SessionStatsAtomic>,
}

impl SessionHandle {
    /// Open a source session (applies the node's default session
    /// config); `setup` is transmitted by the owning worker once the
    /// session's flows are registered, so reverse traffic can never
    /// race its registration.
    pub async fn open_source(
        &self,
        mut source: SourceSession,
        setup: Vec<SendInstr>,
    ) -> SessionId {
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        source.set_session_config(self.config);
        let shard = self.router.route_id(id);
        let _ = self.cmds[shard]
            .send(SessionCommand::OpenSource {
                id,
                source: Box::new(source),
                setup,
            })
            .await;
        id
    }

    /// Open a destination endpoint (endpoint mode — the node's ingress
    /// routes the flow's data packets straight to it).
    pub async fn open_dest(&self, dest: DestSession) -> SessionId {
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let shard = self.router.route_id(id);
        let _ = self.cmds[shard]
            .send(SessionCommand::OpenDest {
                id,
                dest: Box::new(dest),
            })
            .await;
        id
    }

    /// Queue one stream message on a session. Fire-and-forget: failures
    /// (backpressure, unknown id) surface as
    /// [`SessionEvent::Rejected`].
    pub async fn send(&self, id: SessionId, payload: Vec<u8>) {
        let shard = self.router.route_id(id);
        let _ = self.cmds[shard]
            .send(SessionCommand::Send { id, payload })
            .await;
    }

    /// Ask a source session to repair its forwarding graph around any
    /// relays reported dead, drawing replacements from `pool`.
    ///
    /// A no-op when the session has no reported failures, so drivers
    /// may call it speculatively (e.g. for every session not yet acked
    /// after a grace period). Outcomes surface as events: a performed
    /// repair emits [`SessionEvent::Repaired`]; an unknown id emits
    /// [`SessionEvent::Rejected`]; a repair the pool cannot satisfy
    /// emits nothing and the failure state is kept for a retry with a
    /// fresher pool.
    pub async fn repair(&self, id: SessionId, pool: Vec<OverlayAddr>) {
        let shard = self.router.route_id(id);
        let _ = self.cmds[shard]
            .send(SessionCommand::Repair { id, pool })
            .await;
    }

    /// Tear a session down.
    pub async fn close(&self, id: SessionId) {
        let shard = self.router.route_id(id);
        let _ = self.cmds[shard].send(SessionCommand::Close { id }).await;
    }

    /// Snapshot of the node's session-plane counters.
    pub fn stats(&self) -> SessionStats {
        self.stats.snapshot()
    }
}

/// Everything [`spawn_node`] needs to bring one overlay node up.
pub struct NodeSpec {
    /// The relay plane, if this node forwards traffic.
    pub relay: Option<ShardedRelay>,
    /// The session plane, if this node hosts endpoints.
    pub sessions: Option<SessionManager>,
    /// Every attachment point the node owns (its relay address and/or
    /// its pseudo-source addresses) — one shared ingress discipline
    /// routes each port's traffic to whichever plane owns the flow.
    pub ports: Vec<NodePort>,
    /// Colocated destination sessions on the relay plane's receiver
    /// flows.
    pub dest_sessions: Option<DestSessionSpec>,
    /// Relay-plane events.
    pub events: mpsc::UnboundedSender<OverlayEvent>,
    /// Session-plane events.
    pub session_events: Option<mpsc::UnboundedSender<SessionEvent>>,
    /// Shared epoch for the Tick clock.
    pub epoch: Instant,
}

/// A running node.
///
/// Dropping the handle also stops the node (every ingress's stop channel
/// closes), so harnesses that collect nodes in a `Vec` clean up by
/// dropping it.
pub struct NodeHandle {
    stops: Vec<mpsc::Sender<()>>,
    joins: Vec<tokio::task::JoinHandle<()>>,
    /// The session plane's driver handle (when the node hosts one).
    pub sessions: Option<SessionHandle>,
}

impl NodeHandle {
    /// Ask every ingress to exit (workers drain out when their inboxes
    /// close) and wait for the ingress tasks.
    ///
    /// Used by the churn driver to take a node off the overlay mid-flow:
    /// on TCP the node's port closes and peers' cached connections fail
    /// over to datagram drops, exactly like a crashed process.
    pub async fn shutdown(self) {
        for stop in &self.stops {
            let _ = stop.send(()).await;
        }
        for join in self.joins {
            let _ = join.await;
        }
    }

    /// Hard-abort the node's ingress tasks (teardown).
    pub fn abort(&self) {
        for join in &self.joins {
            join.abort();
        }
    }
}

/// A session-plane packet handed to a shard worker: `(owning session —
/// resolved once at the ingress — local, from, wire bytes)`.
type SessionPacket = (SessionId, OverlayAddr, OverlayAddr, Bytes);
/// A relay-plane packet handed to a shard worker: `(from, wire bytes)`.
type RelayPacket = (OverlayAddr, Bytes);

/// What a node ingress needs to steer one received buffer.
#[derive(Clone)]
struct IngressRouting {
    session: Option<(SessionRouter, Vec<mpsc::Sender<SessionPacket>>, Arc<SessionStatsAtomic>)>,
    relay: Option<(FlowRouter, Vec<mpsc::Sender<RelayPacket>>, Arc<RelayStatsAtomic>)>,
}

/// Spawn one overlay node hosting any combination of relay, source and
/// destination roles over shared transports.
///
/// Per port, an ingress task peeks each buffer's flow id and routes it:
/// flows registered with the session plane go to the owning
/// [`SessionShard`] worker, everything else to the relay plane's
/// [`RelayShard`] workers (or dies as garbage when no plane claims it).
/// Receiver flows the relay establishes get colocated [`DestSession`]s
/// when `dest_sessions` is set, so one node terminates, originates and
/// forwards traffic concurrently — with flow/session affinity keeping
/// every packet path lock-free.
///
/// # Example
///
/// Run one relay-only node with 4 shards on the in-process emulated
/// network, watch it count an unparseable frame through the shared
/// stats, and shut it down cleanly:
///
/// ```
/// use std::time::{Duration, Instant};
/// use slicing_core::{OverlayAddr, ShardedRelay};
/// use slicing_overlay::{spawn_node, EmulatedNet, NodeSpec};
/// use slicing_sim::wan::NetProfile;
/// use tokio::sync::mpsc;
///
/// #[tokio::main]
/// async fn main() {
///     let net = EmulatedNet::new(NetProfile::lan(), 1);
///     let port = net.attach(OverlayAddr(10));
///     let sender = net.attach(OverlayAddr(11));
///     let relay = ShardedRelay::new(OverlayAddr(10), 7, 4);
///     let stats = relay.shared_stats();
///     let (events, _events_rx) = mpsc::unbounded_channel();
///     let node = spawn_node(NodeSpec {
///         relay: Some(relay),
///         sessions: None,
///         ports: vec![port],
///         dest_sessions: None,
///         events,
///         session_events: None,
///         epoch: Instant::now(),
///     });
///
///     // Anything sent to OverlayAddr(10) is peeked for its flow id and
///     // dispatched to the shard owning that flow; garbage dies at the
///     // ingress and is counted in the shared stats.
///     sender.tx.send(OverlayAddr(10), bytes::Bytes::from(&b"junk"[..])).await;
///     while stats.snapshot().garbage == 0 {
///         tokio::time::sleep(Duration::from_millis(5)).await;
///     }
///     node.shutdown().await;
/// }
/// ```
pub fn spawn_node(spec: NodeSpec) -> NodeHandle {
    let NodeSpec {
        relay,
        sessions,
        ports,
        dest_sessions,
        events,
        session_events,
        epoch,
    } = spec;
    // Egress: one sender per attachment address, shared by the session
    // workers (SendInstr.from picks the port).
    let egress: Arc<HashMap<OverlayAddr, PortSender>> = Arc::new(
        ports
            .iter()
            .map(|p| (p.addr, p.tx.clone()))
            .collect(),
    );

    // Relay plane.
    let mut relay_routing = None;
    if let Some(relay) = relay {
        let relay_addr = relay.addr();
        let relay_tx = egress
            .get(&relay_addr)
            .cloned()
            .or_else(|| ports.first().map(|p| p.tx.clone()))
            .expect("spawn_node needs at least one port");
        let (shards, router, stats) = relay.into_parts();
        let mut shard_txs = Vec::with_capacity(shards.len());
        for shard in shards {
            let (stx, srx) = mpsc::channel::<(OverlayAddr, Bytes)>(1024);
            tokio::spawn(shard_worker(
                shard,
                srx,
                relay_tx.clone(),
                events.clone(),
                epoch,
                dest_sessions.clone(),
            ));
            shard_txs.push(stx);
        }
        relay_routing = Some((router, shard_txs, stats));
    }

    // Session plane.
    let mut session_routing = None;
    let mut session_handle = None;
    if let Some(manager) = sessions {
        let config = manager.default_config();
        let (shards, router, stats) = manager.into_parts();
        let mut packet_txs = Vec::with_capacity(shards.len());
        let mut cmd_txs = Vec::with_capacity(shards.len());
        for shard in shards {
            let (ptx, prx) = mpsc::channel::<SessionPacket>(1024);
            let (ctx, crx) = mpsc::channel::<SessionCommand>(256);
            tokio::spawn(session_worker(
                shard,
                prx,
                crx,
                Arc::clone(&egress),
                session_events.clone(),
                Arc::clone(&stats),
                epoch,
            ));
            packet_txs.push(ptx);
            cmd_txs.push(ctx);
        }
        session_handle = Some(SessionHandle {
            next_id: Arc::new(AtomicU64::new(1)),
            router: router.clone(),
            config,
            cmds: cmd_txs,
            stats: Arc::clone(&stats),
        });
        session_routing = Some((router, packet_txs, stats));
    }

    let routing = IngressRouting {
        session: session_routing,
        relay: relay_routing,
    };
    let mut stops = Vec::with_capacity(ports.len());
    let mut joins = Vec::with_capacity(ports.len());
    for port in ports {
        let (stop_tx, stop_rx) = mpsc::channel(1);
        stops.push(stop_tx);
        joins.push(tokio::spawn(node_ingress(port, routing.clone(), stop_rx)));
    }
    NodeHandle {
        stops,
        joins,
        sessions: session_handle,
    }
}

/// One port's ingress: peek the flow id, pick the plane, pick the
/// shard, hand the frozen buffer over. Datagram semantics — a full
/// worker inbox sheds the packet rather than stalling the other shards.
async fn node_ingress(mut port: NodePort, routing: IngressRouting, mut stop: mpsc::Receiver<()>) {
    let local = port.addr;
    loop {
        let received = tokio::select! {
            maybe = port.rx.recv() => maybe,
            _ = stop.recv() => None,
        };
        let Some((from, bytes)) = received else { break };
        match peek_flow_id(&bytes) {
            Some(flow) => {
                if let Some((router, txs, stats)) = &routing.session {
                    if let Some((shard, id)) = router.lookup(flow) {
                        if txs[shard].try_send((id, local, from, bytes)).is_err() {
                            stats.record_drop();
                        }
                        continue;
                    }
                }
                if let Some((router, txs, stats)) = &routing.relay {
                    let idx = router.route(flow);
                    if txs[idx].try_send((from, bytes)).is_err() {
                        stats.record_drop();
                    }
                    continue;
                }
                // No plane claims the flow on a session-only node.
                if let Some((_, _, stats)) = &routing.session {
                    stats.record_drop();
                }
            }
            None => {
                if let Some((_, _, stats)) = &routing.relay {
                    stats.record_garbage();
                } else if let Some((_, _, stats)) = &routing.session {
                    stats.record_drop();
                }
            }
        }
    }
    // Dropping the routing clones closes the workers' inboxes once
    // every ingress has exited.
}

/// A command line that can go dormant once the last handle is dropped
/// (so the worker's select loop does not spin on a closed channel).
struct CmdLine {
    rx: mpsc::Receiver<SessionCommand>,
    _keep: Option<mpsc::Sender<SessionCommand>>,
}

/// One session shard's worker: owns the shard, drives packets, driver
/// commands and the shard's timer wheel, transmits through the node's
/// shared egress map, and reports session events.
///
/// Like the relay workers it sleeps until the earliest wheel deadline
/// (timer arm first, so load cannot starve it). The transports push
/// their congestion pace hint when it changes; the worker folds the
/// slowest port's hint into the shard's pacing floor then.
async fn session_worker(
    mut shard: SessionShard,
    mut packets: mpsc::Receiver<SessionPacket>,
    cmds: mpsc::Receiver<SessionCommand>,
    egress: Arc<HashMap<OverlayAddr, PortSender>>,
    events: Option<mpsc::UnboundedSender<SessionEvent>>,
    stats: Arc<SessionStatsAtomic>,
    epoch: Instant,
) {
    let mut cmds = CmdLine {
        rx: cmds,
        _keep: None,
    };
    // Held for the worker's lifetime, so the hint line never closes
    // (transports without a congestion signal never notify).
    let (hint_tx, mut hints) = mpsc::channel::<()>(1);
    for port in egress.values() {
        port.watch_pace_hint(hint_tx.clone());
    }
    let mut scratch = Vec::new();
    let handle = |shard: &mut SessionShard,
                  id: SessionId,
                  local: OverlayAddr,
                  from: OverlayAddr,
                  bytes: Bytes| match Packet::from_bytes(bytes) {
        Ok(packet) => shard.handle_routed(now_tick(epoch), id, local, from, &packet),
        Err(_) => {
            stats.record_drop();
            SessionOutput::default()
        }
    };
    let mut timer = WakeTimer::new(epoch);
    loop {
        let next = shard.next_deadline();
        let mut out = tokio::select! {
            _ = timer.until(next) => shard.poll(now_tick(epoch)),
            maybe = packets.recv() => {
                let Some((id, local, from, bytes)) = maybe else { break };
                handle(&mut shard, id, local, from, bytes)
            }
            cmd = cmds.rx.recv() => {
                match cmd {
                    Some(cmd) => apply_session_command(&mut shard, cmd, &events, epoch),
                    None => {
                        // Driver handle gone: keep serving packets, stop
                        // selecting on the closed channel.
                        let (keep, rx) = mpsc::channel(1);
                        cmds = CmdLine { rx, _keep: Some(keep) };
                        continue;
                    }
                }
            }
            _ = hints.recv() => {
                // Sources slow their admission to what the wire is
                // actually draining (0 clears the override).
                let hint = egress
                    .values()
                    .filter_map(|p| p.pace_hint_ms())
                    .max()
                    .unwrap_or(0);
                shard.set_pace_override(hint);
                continue;
            }
        };
        for _ in 0..WORKER_DRAIN_BATCH {
            match packets.try_recv() {
                Ok((id, local, from, bytes)) => {
                    out.merge(handle(&mut shard, id, local, from, bytes))
                }
                Err(_) => break,
            }
        }
        emit_session_events(&events, epoch, &mut out);
        flush_instr_batches(&egress, out.sends, &mut scratch).await;
        shard.publish_stats();
    }
    shard.publish_stats();
}

/// Apply one driver command to a session shard.
fn apply_session_command(
    shard: &mut SessionShard,
    cmd: SessionCommand,
    events: &Option<mpsc::UnboundedSender<SessionEvent>>,
    epoch: Instant,
) -> SessionOutput {
    let now = now_tick(epoch);
    let mut out = SessionOutput::default();
    let reject = |id: SessionId, error: SessionError| {
        if let Some(ev) = events {
            let _ = ev.send(SessionEvent::Rejected {
                session: id,
                error,
                at_ms: epoch.elapsed().as_millis() as u64,
            });
        }
    };
    match cmd {
        SessionCommand::OpenSource { id, source, setup } => {
            match shard.open_source(now, id, *source) {
                // The session's flows are registered; setup may now hit
                // the wire without racing reverse traffic.
                Ok(()) => out.sends.extend(setup),
                Err(e) => reject(id, e),
            }
        }
        SessionCommand::OpenDest { id, dest } => {
            if let Err(e) = shard.open_dest(now, id, *dest) {
                reject(id, e);
            }
        }
        SessionCommand::Send { id, payload } => match shard.send(now, id, &payload) {
            Ok((_, sends)) => out.sends.extend(sends),
            Err(e) => reject(id, e),
        },
        SessionCommand::Repair { id, pool } => match shard.source_mut(id) {
            Some(source) => {
                if source.needs_repair() {
                    let failed = source.failed_nodes().len();
                    // A pool that cannot satisfy the rebuild keeps the
                    // failure state; the driver retries with a fresher
                    // pool (e.g. after more restarts were observed).
                    if let Ok(sends) = source.repair(&pool) {
                        out.sends.extend(sends);
                        if let Some(ev) = events {
                            let _ = ev.send(SessionEvent::Repaired {
                                session: id,
                                failed,
                                at_ms: epoch.elapsed().as_millis() as u64,
                            });
                        }
                    }
                }
            }
            None => reject(id, SessionError::UnknownSession),
        },
        SessionCommand::Close { id } => {
            shard.close(id);
        }
    }
    out
}

/// Report a shard output's session events.
fn emit_session_events(
    events: &Option<mpsc::UnboundedSender<SessionEvent>>,
    epoch: Instant,
    out: &mut SessionOutput,
) {
    let Some(ev) = events else {
        out.delivered.clear();
        out.acked.clear();
        out.replies.clear();
        out.raw.clear();
        return;
    };
    let at_ms = epoch.elapsed().as_millis() as u64;
    for (session, msg_id) in out.acked.drain(..) {
        let _ = ev.send(SessionEvent::Acked {
            session,
            msg_id,
            at_ms,
        });
    }
    for (session, msg_id, payload) in out.delivered.drain(..) {
        let _ = ev.send(SessionEvent::Delivered {
            session,
            msg_id,
            payload,
            at_ms,
        });
    }
    for (session, reply_id, payload) in out.replies.drain(..) {
        let _ = ev.send(SessionEvent::Reply {
            session,
            reply_id,
            payload,
            at_ms,
        });
    }
    for (session, seq, payload) in out.raw.drain(..) {
        let _ = ev.send(SessionEvent::Raw {
            session,
            seq,
            payload,
            at_ms,
        });
    }
}

/// Transmit `sends` through a per-address egress map, grouping every
/// send that shares a `(from, to)` pair across the whole flush into one
/// transport call — one connection-cache probe on TCP, one batch call on
/// UDP (which still makes one `send_to` syscall per datagram). A relay
/// generation fans its `d` packets out to *different* next hops, so
/// same-destination sends interleave rather than run consecutively;
/// grouping across the flush is what makes the batches dense. Per-destination order is preserved
/// (the only order a datagram transport carries); ordering *between*
/// destinations has no protocol meaning. Sends from addresses the node
/// does not own are dropped (a mis-addressed instruction, not a
/// transport error).
async fn flush_instr_batches(
    egress: &HashMap<OverlayAddr, PortSender>,
    sends: Vec<SendInstr>,
    batches: &mut Vec<((OverlayAddr, OverlayAddr), Vec<Bytes>)>,
) {
    // A flush touches a handful of neighbours; linear scan over the
    // bucket list beats a map allocation at these sizes.
    for instr in sends {
        let key = (instr.from, instr.to);
        let frames = match batches.iter_mut().find(|(k, _)| *k == key) {
            Some((_, frames)) => frames,
            None => {
                batches.push((key, Vec::new()));
                &mut batches.last_mut().expect("just pushed").1
            }
        };
        frames.push(instr.packet.encode());
    }
    for ((from, to), frames) in batches.iter_mut() {
        if let Some(port) = egress.get(from) {
            port.send_many(*to, frames).await;
        } else {
            frames.clear();
        }
    }
    // Keep the bucket allocations (frame Vecs are drained in place).
    batches.retain(|(_, frames)| frames.capacity() > 0);
}

/// Spawn an onion relay daemon on `port`.
pub fn spawn_onion_relay(
    mut relay: OnionRelay,
    mut port: NodePort,
    events: mpsc::UnboundedSender<OverlayEvent>,
    epoch: Instant,
) -> tokio::task::JoinHandle<()> {
    tokio::spawn(async move {
        let addr = port.addr;
        while let Some((_, bytes)) = port.rx.recv().await {
            let Ok(packet) = OnionPacket::from_bytes(bytes) else {
                continue;
            };
            let out = relay.handle_packet(&packet);
            let at_ms = epoch.elapsed().as_millis() as u64;
            if let Some(is_exit) = out.established {
                let _ = events.send(OverlayEvent::Established {
                    addr,
                    // Onion circuits have no slicing flow id.
                    flow: FlowId(0),
                    receiver: is_exit,
                    at_ms,
                });
            }
            for (seq, plaintext) in &out.delivered {
                let _ = events.send(OverlayEvent::MessageReceived {
                    addr,
                    seq: *seq,
                    len: plaintext.len(),
                    at_ms,
                });
            }
            for send in out.sends {
                port.tx.send(send.to, send.packet.encode()).await;
            }
        }
    })
}

/// Milliseconds since the epoch as a protocol [`Tick`].
pub fn now_tick(epoch: Instant) -> Tick {
    Tick(epoch.elapsed().as_millis() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmulatedNet;
    use slicing_sim::wan::NetProfile;

    /// Wait (bounded) until `cond` observes the shared stats; returns
    /// the last snapshot (see [`crate::testutil`]).
    async fn wait_stats(
        stats: &Arc<RelayStatsAtomic>,
        cond: impl Fn(&slicing_core::RelayStats) -> bool,
    ) -> slicing_core::RelayStats {
        crate::testutil::wait_until(|| stats.snapshot(), cond).await
    }

    /// A relay-only node over `shards` shards on an emulated port.
    fn relay_node(net: &EmulatedNet, shards: usize) -> (NodeHandle, Arc<RelayStatsAtomic>) {
        let relay = ShardedRelay::new(OverlayAddr(10), 7, shards);
        let stats = relay.shared_stats();
        let (events, _events_rx) = mpsc::unbounded_channel();
        let node = spawn_node(NodeSpec {
            relay: Some(relay),
            sessions: None,
            ports: vec![net.attach(OverlayAddr(10))],
            dest_sessions: None,
            events,
            session_events: None,
            epoch: Instant::now(),
        });
        (node, stats)
    }

    #[tokio::test]
    async fn relay_daemon_drops_garbage() {
        let net = EmulatedNet::new(NetProfile::lan(), 1);
        let sender = net.attach(OverlayAddr(11));
        let (node, stats) = relay_node(&net, 1);
        sender
            .tx
            .send(OverlayAddr(10), bytes::Bytes::from(&b"not a packet"[..]))
            .await;
        let seen = wait_stats(&stats, |s| s.garbage >= 1).await;
        assert_eq!(seen.garbage, 1, "node must count the unparseable frame");
        assert_eq!(seen.packets_in, 0, "garbage never reaches the engine");
        node.abort();
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn sharded_daemon_drops_garbage_at_ingress() {
        let net = EmulatedNet::new(NetProfile::lan(), 2);
        let sender = net.attach(OverlayAddr(11));
        let (node, stats) = relay_node(&net, 4);
        // Fails the ingress peek (bad magic): counted by the dispatcher.
        sender
            .tx
            .send(OverlayAddr(10), bytes::Bytes::from(&b"not a packet"[..]))
            .await;
        // Passes the peek but fails full validation (truncated body):
        // counted by the owning shard.
        let valid = slicing_wire::Packet::new(
            slicing_wire::PacketHeader {
                kind: slicing_wire::PacketKind::Data,
                flow_id: slicing_wire::FlowId(99),
                seq: 0,
                d: 2,
                slot_count: 1,
                slot_len: 10,
            },
            vec![vec![0u8; 10]],
        )
        .encode();
        sender
            .tx
            .send(OverlayAddr(10), valid.slice(..valid.len() - 1))
            .await;
        let seen = wait_stats(&stats, |s| s.garbage >= 2).await;
        assert_eq!(seen.garbage, 2, "both rejects must be counted");
        node.abort();
    }
}
