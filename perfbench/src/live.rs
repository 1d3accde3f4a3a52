//! The live run: every workload over real loopback UDP through the
//! production runtime (`spawn_node`, `UdpNet`, `SessionHandle`).
//!
//! One driver task generates the load and opens no sockets of its own;
//! the nodes run in the same process. The driver times each message
//! from when it was sent (closed loop) or due (open loop) to the moment
//! it sees the end-to-end ack, and checks every delivered byte against
//! what it sent.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use slicing_core::{
    DestPlacement, FlowId, GraphParams, OverlayAddr, RelayConfig, RelayStats, RelayStatsAtomic,
    SessionConfig, SessionId, SessionManager, ShardedRelay, SourceSession,
};
use slicing_overlay::{
    spawn_node, DestSessionSpec, NodeHandle, NodeSpec, OverlayEvent, SessionEvent, SessionHandle,
    StreamDelivery, UdpFaults, UdpNet, UdpStatsSnapshot,
};
use tokio::sync::mpsc;

use crate::stats;
use crate::workload::{self, Workload, PATHS, RELAY_SHARDS, SESSION_SHARDS, SPLIT, STAGES};

/// Longest wait for every session of one bring-up to establish.
const ESTABLISH_DEADLINE: Duration = Duration::from_secs(30);
/// Sessions opened at once. The driver opens the next wave when the
/// last one has established: a burst of all 1024 sessions' setup
/// packets (d′² per session at the first hop alone) overflows the
/// loopback sockets' receive buffers, and setup has no retransmission.
const SETUP_WAVE: usize = 128;
/// Longest wait, after the last message was sent, for the rest to be
/// acked; whatever is still open then counts as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(25);
/// Idle window after setup in which the traced run measures what the
/// daemons burn with no traffic.
const IDLE_WINDOW: Duration = Duration::from_secs(1);

/// Relay tuning every workload runs with (the settings of the
/// repository's own UDP session experiments).
pub fn relay_config() -> RelayConfig {
    RelayConfig {
        setup_flush_ms: 500,
        data_flush_ms: 150,
        ..RelayConfig::default()
    }
}

/// Session tuning every workload runs with.
pub fn session_config() -> SessionConfig {
    SessionConfig {
        retransmit_ms: 1_000,
        ack_interval_ms: 120,
        ..SessionConfig::default()
    }
}

pub fn graph_params() -> GraphParams {
    GraphParams::new(STAGES, SPLIT)
        .with_paths(PATHS)
        .with_dest_placement(DestPlacement::LastStage)
}

/// The destination's forward flow id in a source's graph — the id its
/// deliveries and establishment events carry.
pub fn receiver_flow(source: &SourceSession) -> FlowId {
    let g = source.graph();
    g.flow_ids[g.dest.stage][g.dest.index]
}

/// One driver-side `SessionHandle::send` call, kept in memory while
/// tracing.
pub struct LiveSpan {
    pub start_us: f64,
    pub end_us: f64,
    pub session: usize,
    pub msg: u32,
}

/// What the driver knows about one message.
struct MsgRec {
    due: Instant,
    expected: Option<Vec<u8>>,
    delivered_ms: Option<u64>,
    acked_ms: Option<u64>,
    verified: bool,
}

#[derive(Default)]
pub struct LiveReport {
    /// Every bring-up's time to the last session established, s.
    pub setup_s: Vec<f64>,
    pub sessions_established: usize,
    /// Messages the driver handed to the program.
    pub sent: u64,
    /// Distinct messages delivered with the right bytes.
    pub delivered: u64,
    /// Distinct messages acked end to end.
    pub acked: u64,
    /// Messages both acked and delivered byte-identical.
    pub ok: u64,
    /// Messages never sent because their session never established.
    pub unsent: u64,
    /// Sends the program rejected.
    pub rejected: u64,
    /// Wrong outputs (each one fails the run).
    pub errors: Vec<String>,
    /// Due (or send) → ack, per acked message, ms.
    pub latency_ms: Vec<f64>,
    /// Due → delivery stamp, ms.
    pub fwd_ms: Vec<f64>,
    /// Delivery stamp → ack stamp, ms.
    pub rev_ms: Vec<f64>,
    /// Open loop: how late each send left against its due time, ms.
    pub lateness_ms: Vec<f64>,
    /// Data phase: first send to last ack (or drain deadline), s.
    pub data_s: f64,
    pub cpu_s: f64,
    pub bytes: u64,
    pub peak_rss_mb: f64,
    pub threads: usize,
    pub idle_cpu_frac: Option<f64>,
    pub udp: UdpStatsSnapshot,
    /// Chunk retransmissions at the source during the data phase.
    pub retransmits: u64,
    pub relay: RelayStats,
    pub spans: Vec<LiveSpan>,
}

impl LiveReport {
    /// Messages attempted: sent, plus those a dead session never sent.
    pub fn attempted(&self) -> u64 {
        self.sent + self.unsent
    }
}

/// One brought-up topology: a pool of combined relay + destination
/// nodes and one source node hosting every session.
struct World {
    net: UdpNet,
    pool: Vec<NodeHandle>,
    source: NodeHandle,
    plane: SessionHandle,
    relay_stats: Vec<Arc<RelayStatsAtomic>>,
    ids: Vec<SessionId>,
    session_of: HashMap<SessionId, usize>,
    flow_session: HashMap<FlowId, usize>,
    established: Vec<bool>,
    epoch: Instant,
}

/// What a world reports back to the driver.
struct Inbox {
    deliveries: mpsc::UnboundedReceiver<StreamDelivery>,
    session_events: mpsc::UnboundedReceiver<SessionEvent>,
}

impl World {
    async fn shutdown(self) {
        for node in self.pool {
            node.shutdown().await;
        }
        self.source.shutdown().await;
    }

    fn relay_totals(&self) -> RelayStats {
        let mut t = RelayStats::default();
        for s in &self.relay_stats {
            let s = s.snapshot();
            t.packets_in += s.packets_in;
            t.packets_out += s.packets_out;
            t.drops += s.drops;
            t.garbage += s.garbage;
            t.setup_failures += s.setup_failures;
        }
        t
    }
}

/// Bring the topology up and wait until every session's destination
/// has established its receiver flow (or the deadline passes).
async fn bring_up(w: Workload, seed: u64, rep: u64) -> (World, Inbox, f64) {
    let t0 = Instant::now();
    let faults = UdpFaults {
        loss: w.loss(),
        ..UdpFaults::default()
    };
    let net = UdpNet::new(faults, workload::mix(seed ^ rep));
    let mut pool_ports = Vec::with_capacity(w.pool());
    for _ in 0..w.pool() {
        pool_ports.push(net.attach().await.expect("bind a loopback UDP socket"));
    }
    let mut pseudo_ports = Vec::with_capacity(PATHS);
    for _ in 0..PATHS {
        pseudo_ports.push(net.attach().await.expect("bind a loopback UDP socket"));
    }
    let pool_addrs: Vec<OverlayAddr> = pool_ports.iter().map(|p| p.addr).collect();
    let pseudo_addrs: Vec<OverlayAddr> = pseudo_ports.iter().map(|p| p.addr).collect();

    let (events_tx, mut events_rx) = mpsc::unbounded_channel();
    let (deliveries_tx, deliveries) = mpsc::unbounded_channel();
    let (session_events_tx, session_events) = mpsc::unbounded_channel();
    let epoch = t0;
    let mut pool = Vec::with_capacity(w.pool());
    let mut relay_stats = Vec::with_capacity(w.pool());
    for (i, port) in pool_ports.into_iter().enumerate() {
        let relay = ShardedRelay::with_config(
            port.addr,
            workload::mix(seed ^ (i as u64 + 1)),
            relay_config(),
            RELAY_SHARDS,
        );
        relay_stats.push(relay.shared_stats());
        pool.push(spawn_node(NodeSpec {
            relay: Some(relay),
            sessions: None,
            ports: vec![port],
            dest_sessions: Some(DestSessionSpec {
                config: session_config(),
                seed,
                deliveries: deliveries_tx.clone(),
            }),
            events: events_tx.clone(),
            session_events: None,
            epoch,
        }));
    }
    let source = spawn_node(NodeSpec {
        relay: None,
        sessions: Some(SessionManager::new(
            SESSION_SHARDS,
            w.sessions() + 8,
            session_config(),
        )),
        ports: pseudo_ports,
        dest_sessions: None,
        events: events_tx.clone(),
        session_events: Some(session_events_tx),
        epoch,
    });
    let plane = source
        .sessions
        .clone()
        .expect("the source node hosts sessions");

    let mut ids = Vec::with_capacity(w.sessions());
    let mut session_of = HashMap::with_capacity(w.sessions());
    let mut flow_session = HashMap::with_capacity(w.sessions());
    let mut established = vec![false; w.sessions()];
    let mut count = 0;
    let deadline = tokio::time::sleep(ESTABLISH_DEADLINE);
    tokio::pin!(deadline);
    let plans = workload::session_plans(w, seed);
    'waves: for wave in plans.chunks(SETUP_WAVE) {
        for plan in wave {
            let dest = pool_addrs[plan.dest];
            let candidates: Vec<OverlayAddr> =
                pool_addrs.iter().copied().filter(|&a| a != dest).collect();
            let (src, setup) = SourceSession::establish(
                graph_params(),
                &pseudo_addrs,
                &candidates,
                dest,
                plan.graph_seed,
            )
            .expect("the pool holds enough relays for the graph");
            flow_session.insert(receiver_flow(&src), ids.len());
            let id = plane.open_source(src, setup).await;
            session_of.insert(id, ids.len());
            ids.push(id);
        }
        while count < ids.len() {
            tokio::select! {
                ev = events_rx.recv() => match ev {
                    Some(OverlayEvent::Established { flow, receiver: true, .. }) => {
                        if let Some(&s) = flow_session.get(&flow) {
                            if !established[s] {
                                established[s] = true;
                                count += 1;
                            }
                        }
                    }
                    Some(_) => {}
                    None => break 'waves,
                },
                _ = &mut deadline => break 'waves,
            }
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let world = World {
        net,
        pool,
        source,
        plane,
        relay_stats,
        ids,
        session_of,
        flow_session,
        established,
        epoch,
    };
    let inbox = Inbox {
        deliveries,
        session_events,
    };
    (world, inbox, setup_s)
}

/// The driver's view of the data phase.
struct Driver {
    w: Workload,
    seed: u64,
    trace: bool,
    t0: Instant,
    next_msg: Vec<u32>,
    recs: HashMap<(usize, u32), MsgRec>,
    report: LiveReport,
    last_ack: Instant,
}

impl Driver {
    async fn send(&mut self, world: &World, session: usize, due: Instant) {
        if !world.established[session] {
            self.report.unsent += 1;
            return;
        }
        let msg = self.next_msg[session];
        self.next_msg[session] += 1;
        let payload = workload::payload(self.w, self.seed, session, msg);
        let start = Instant::now();
        world.plane.send(world.ids[session], payload.clone()).await;
        if self.trace {
            let end = Instant::now();
            self.report.spans.push(LiveSpan {
                start_us: start.duration_since(self.t0).as_secs_f64() * 1e6,
                end_us: end.duration_since(self.t0).as_secs_f64() * 1e6,
                session,
                msg,
            });
        }
        self.report.sent += 1;
        self.recs.insert(
            (session, msg),
            MsgRec {
                due,
                expected: Some(payload),
                delivered_ms: None,
                acked_ms: None,
                verified: false,
            },
        );
    }

    fn on_delivery(&mut self, world: &World, d: StreamDelivery) {
        let Some(&session) = world.flow_session.get(&d.flow) else {
            self.report
                .errors
                .push(format!("delivery on unknown flow {:?}", d.flow));
            return;
        };
        let Some(rec) = self.recs.get_mut(&(session, d.msg_id)) else {
            self.report
                .errors
                .push(format!("delivery of unsent message {session}/{}", d.msg_id));
            return;
        };
        let Some(expected) = rec.expected.take() else {
            self.report
                .errors
                .push(format!("message {session}/{} delivered twice", d.msg_id));
            return;
        };
        if expected != d.payload {
            self.report.errors.push(format!(
                "message {session}/{} delivered with wrong bytes (tag {:?})",
                d.msg_id,
                workload::payload_tag(&d.payload)
            ));
            return;
        }
        rec.verified = true;
        rec.delivered_ms = Some(d.at_ms);
        self.report.delivered += 1;
        self.report.bytes += d.payload.len() as u64;
    }

    /// Returns whether the event is a new ack.
    fn on_event(&mut self, world: &World, ev: SessionEvent) -> bool {
        match ev {
            SessionEvent::Acked {
                session,
                msg_id,
                at_ms,
            } => {
                let Some(&s) = world.session_of.get(&session) else {
                    self.report
                        .errors
                        .push(format!("ack on unknown session {session}"));
                    return false;
                };
                let Some(rec) = self.recs.get_mut(&(s, msg_id)) else {
                    self.report
                        .errors
                        .push(format!("ack for unsent message {s}/{msg_id}"));
                    return false;
                };
                if rec.acked_ms.is_some() {
                    self.report
                        .errors
                        .push(format!("message {s}/{msg_id} acked twice"));
                    return false;
                }
                let now = Instant::now();
                rec.acked_ms = Some(at_ms);
                self.report
                    .latency_ms
                    .push(now.duration_since(rec.due).as_secs_f64() * 1e3);
                self.report.acked += 1;
                self.last_ack = now;
                true
            }
            SessionEvent::Rejected { error, .. } => {
                // A rejected send never completes; it stays unacked and
                // counts as failed.
                eprintln!("send rejected: {error}");
                self.report.rejected += 1;
                false
            }
            _ => false,
        }
    }

    fn outstanding(&self) -> u64 {
        self.report.sent - self.report.acked - self.report.rejected
    }
}

/// Run one workload live. `trace` adds the idle window and keeps the
/// driver's spans.
pub async fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> LiveReport {
    let mut setup_s = Vec::with_capacity(w.setup_reps());
    let mut world = None;
    for rep in 0..w.setup_reps() as u64 {
        let (up, inbox, s) = bring_up(w, seed, rep).await;
        setup_s.push(s);
        if rep + 1 < w.setup_reps() as u64 {
            up.shutdown().await;
        } else {
            world = Some((up, inbox));
        }
    }
    let (world, mut inbox) = world.expect("at least one bring-up");
    let mut report = LiveReport {
        setup_s,
        sessions_established: world.established.iter().filter(|&&e| e).count(),
        ..LiveReport::default()
    };
    if trace {
        let cpu0 = stats::process_cpu_s();
        let t = Instant::now();
        tokio::time::sleep(IDLE_WINDOW).await;
        report.idle_cpu_frac = Some((stats::process_cpu_s() - cpu0) / t.elapsed().as_secs_f64());
    }

    let udp0 = world.net.stats();
    let retransmits0 = world.plane.stats().retransmits;
    let relay0 = world.relay_totals();
    let t0 = Instant::now();
    let cpu0 = stats::process_cpu_s();
    report.threads = stats::thread_count();
    let mut d = Driver {
        w,
        seed,
        trace,
        t0,
        next_msg: vec![0; w.sessions()],
        recs: HashMap::new(),
        report,
        last_ack: t0,
    };
    let send_until = t0 + Duration::from_secs(seconds);
    let schedule = match w {
        Workload::Chat => workload::chat_schedule(w, seed, seconds),
        _ => Vec::new(),
    };
    let drain_until = match w {
        Workload::Chat => t0 + Duration::from_micros(schedule.last().map_or(0, |a| a.due_us)),
        _ => send_until,
    } + DRAIN_DEADLINE;

    if w != Workload::Chat {
        for _ in 0..w.outstanding() {
            d.send(&world, 0, Instant::now()).await;
        }
    }
    let mut next = 0;
    loop {
        let sending = next < schedule.len();
        if !sending && d.outstanding() == 0 && (w == Workload::Chat || Instant::now() >= send_until)
        {
            break;
        }
        let next_due = schedule
            .get(next)
            .map_or(drain_until, |a| t0 + Duration::from_micros(a.due_us));
        tokio::select! {
            dv = inbox.deliveries.recv() => match dv {
                Some(dv) => d.on_delivery(&world, dv),
                None => break,
            },
            ev = inbox.session_events.recv() => match ev {
                Some(ev) => {
                    // Closed loop: each ack releases the next message.
                    if d.on_event(&world, ev) && w != Workload::Chat && Instant::now() < send_until {
                        d.send(&world, 0, Instant::now()).await;
                    }
                }
                None => break,
            },
            _ = tokio::time::sleep_until(next_due), if sending => {
                let now = Instant::now();
                while let Some(a) = schedule.get(next) {
                    let due = t0 + Duration::from_micros(a.due_us);
                    if due > now {
                        break;
                    }
                    d.report.lateness_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
                    d.send(&world, a.session, due).await;
                    next += 1;
                }
            }
            _ = tokio::time::sleep_until(drain_until), if !sending => break,
        }
    }
    // Deliveries race their acks on separate channels: collect any
    // delivery already reported before judging the run.
    while let Ok(dv) = inbox.deliveries.try_recv() {
        d.on_delivery(&world, dv);
    }
    let end = if d.outstanding() == 0 {
        d.last_ack
    } else {
        Instant::now()
    };
    let mut report = d.report;
    report.data_s = end.duration_since(t0).as_secs_f64();
    report.cpu_s = stats::process_cpu_s() - cpu0;
    report.udp = udp_delta(world.net.stats(), udp0);
    report.retransmits = world.plane.stats().retransmits - retransmits0;
    let relay1 = world.relay_totals();
    report.relay = RelayStats {
        packets_in: relay1.packets_in - relay0.packets_in,
        packets_out: relay1.packets_out - relay0.packets_out,
        drops: relay1.drops - relay0.drops,
        garbage: relay1.garbage - relay0.garbage,
        setup_failures: relay1.setup_failures,
        ..RelayStats::default()
    };
    for (&(s, m), rec) in &d.recs {
        let due_ms = rec.due.duration_since(world.epoch).as_secs_f64() * 1e3;
        if let Some(dv) = rec.delivered_ms {
            report.fwd_ms.push(dv as f64 - due_ms);
            if let Some(ack) = rec.acked_ms {
                report.rev_ms.push(ack as f64 - dv as f64);
            }
        }
        match (rec.acked_ms.is_some(), rec.verified) {
            (true, true) => report.ok += 1,
            (true, false) => report
                .errors
                .push(format!("message {s}/{m} acked but never delivered intact")),
            _ => {}
        }
    }
    report.peak_rss_mb = stats::peak_rss_mb();
    world.shutdown().await;
    report
}

fn udp_delta(a: UdpStatsSnapshot, b: UdpStatsSnapshot) -> UdpStatsSnapshot {
    UdpStatsSnapshot {
        datagrams_sent: a.datagrams_sent - b.datagrams_sent,
        send_calls: a.send_calls - b.send_calls,
        datagrams_received: a.datagrams_received - b.datagrams_received,
        recv_calls: a.recv_calls - b.recv_calls,
        feedback_sent: a.feedback_sent - b.feedback_sent,
        feedback_received: a.feedback_received - b.feedback_received,
        paced: a.paced - b.paced,
        queue_drops: a.queue_drops - b.queue_drops,
        injected_drops: a.injected_drops - b.injected_drops,
        injected_dups: a.injected_dups - b.injected_dups,
        injected_reorders: a.injected_reorders - b.injected_reorders,
    }
}
