//! The replay: the workload's seeded inputs driven through the sans-IO
//! engines on the benchmark's own in-memory, virtual-time loop, with
//! every public call timed.
//!
//! The loop mirrors what the daemon does around the engines — a relay
//! shard with colocated destination sessions per pool node, one session
//! manager at the source, timers every `POLL_MS` of virtual time — but
//! moves packets through a queue with a fixed `HOP_MS` of virtual delay
//! instead of sockets. So each call's wall time is the program's compute
//! alone, and the causal chain of calls that ends in a message's ack is
//! that message's blocking path with every wait taken out.
//!
//! Each benchmark-side step (one packet delivered, one timer fired, one
//! send issued) is a top-level span; the program calls it makes are its
//! children, so a step's self time is the loop's own overhead and is
//! never counted against the program. A step's cause is the step that
//! emitted the packet it handles; a destination's timer step is caused
//! by that destination's latest delivery step (the delivery state its
//! ack reports); other timer steps start a chain.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::Write as _;
use std::time::Instant;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slicing_core::{
    DestSession, FlowId, OverlayAddr, Packet, PacketKind, RelayOutput, SendInstr, SessionId,
    SessionManager, ShardedRelay, SourceSession, Tick,
};

use crate::live::{graph_params, receiver_flow, relay_config, session_config};
use crate::stats::{self, Span};
use crate::workload::{self, Workload, PATHS, RELAY_SHARDS, SESSION_SHARDS};

/// Virtual delay of one hop, ms.
const HOP_MS: u64 = 1;
/// Virtual timer period of every engine, ms (the daemon's poll period).
const POLL_MS: u64 = 50;
/// Bulk messages replayed (closed loop, the live window of 4).
const BULK_MSGS: u32 = 24;
/// Virtual time after which an unfinished replay is a failure, ms.
const VIRTUAL_LIMIT_MS: u64 = 600_000;
/// Messages whose blocking paths are written to the trace file (every
/// message's path is still measured; this only bounds the file).
const TRACED_PATHS: usize = 1000;

struct Tracer {
    zero: Instant,
    spans: Vec<Span>,
    cause: Vec<Option<usize>>,
    msg: Vec<Option<(usize, u32)>>,
}

impl Tracer {
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.zero.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.cause.push(None);
        self.msg.push(None);
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.zero.elapsed().as_nanos() as u64;
    }

    /// Time `f` as a child span of `parent`.
    fn call<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let r = f();
        self.close(id);
        r
    }
}

struct InFlight {
    from: OverlayAddr,
    to: OverlayAddr,
    bytes: Bytes,
    cause: usize,
}

struct PoolNode {
    relay: ShardedRelay,
    dests: HashMap<FlowId, DestSession>,
    /// Latest delivery step per destination session.
    last_delivery: HashMap<FlowId, usize>,
}

#[derive(Default)]
pub struct ReplayReport {
    pub establish_us: Vec<f64>,
    pub relay_setup_ns: Vec<f64>,
    pub relay_data_ns: Vec<f64>,
    pub relay_poll_us: Vec<f64>,
    /// Σ session send calls + Σ source timer calls that emitted packets, µs.
    pub session_send_us: f64,
    pub session_ack_us: f64,
    pub dest_us: f64,
    pub msgs: u64,
    pub acked: u64,
    pub delivered: u64,
    /// Program time along each message's blocking path, µs.
    pub path_us: Vec<f64>,
    /// The first data packet the source emitted (wire shape for probes).
    pub data_packet: Option<Bytes>,
    /// Plaintext bytes per chunk of this workload.
    pub chunk_len: usize,
    pub errors: Vec<String>,
    pub virtual_ms: u64,
}

struct Replay {
    w: Workload,
    seed: u64,
    now: u64,
    tr: Tracer,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    inflight: HashMap<u64, InFlight>,
    next_pkt: u64,
    mgr: SessionManager,
    pseudo: Vec<OverlayAddr>,
    pool: HashMap<OverlayAddr, PoolNode>,
    ids: Vec<SessionId>,
    session_of: HashMap<SessionId, usize>,
    flow_session: HashMap<FlowId, usize>,
    established: usize,
    loss: Option<StdRng>,
    next_msg: Vec<u32>,
    sent: HashMap<(usize, u32), (usize, Vec<u8>)>,
    acked_at: HashMap<(usize, u32), usize>,
    report: ReplayReport,
}

impl Replay {
    /// Encode and queue a call's sends, caused by `step`.
    fn emit(&mut self, step: usize, sends: Vec<SendInstr>) {
        for instr in sends {
            if self.loss.as_mut().is_some_and(|rng| {
                instr.packet.header.kind != PacketKind::Setup && rng.gen_bool(self.w.loss())
            }) {
                continue;
            }
            let bytes = self.tr.call("wire.encode", step, || instr.packet.encode());
            if self.report.data_packet.is_none()
                && instr.packet.header.kind == PacketKind::Data
                && self.pseudo.contains(&instr.from)
            {
                self.report.data_packet = Some(bytes.clone());
            }
            let id = self.next_pkt;
            self.next_pkt += 1;
            self.heap.push(Reverse((self.now + HOP_MS, id)));
            self.inflight.insert(
                id,
                InFlight {
                    from: instr.from,
                    to: instr.to,
                    bytes,
                    cause: step,
                },
            );
        }
    }

    fn send(&mut self, session: usize) {
        let msg = self.next_msg[session];
        self.next_msg[session] += 1;
        let payload = workload::payload(self.w, self.seed, session, msg);
        let step = self.tr.open("step.send", None);
        let now = Tick(self.now);
        let id = self.ids[session];
        let mgr = &mut self.mgr;
        let out = self
            .tr
            .call("session.send", step, || mgr.send(now, id, &payload));
        self.tr.msg[step] = Some((session, msg));
        match out {
            Ok((msg_id, sends)) => {
                if msg_id != msg {
                    self.report.errors.push(format!(
                        "replay: session {session} assigned id {msg_id} to message {msg}"
                    ));
                }
                self.emit(step, sends);
            }
            Err(e) => self
                .report
                .errors
                .push(format!("replay: send rejected: {e}")),
        }
        self.tr.close(step);
        self.report.msgs += 1;
        self.sent.insert((session, msg), (step, payload));
    }

    /// Fold a destination's completed messages into the checks.
    fn delivered(&mut self, flow: FlowId, step: usize, messages: Vec<(u32, Vec<u8>)>) {
        for (msg_id, bytes) in messages {
            let session = self.flow_session.get(&flow).copied();
            let ok = session
                .and_then(|s| self.sent.get(&(s, msg_id)))
                .is_some_and(|(_, expected)| *expected == bytes);
            if ok {
                self.report.delivered += 1;
                self.tr.msg[step] = session.map(|s| (s, msg_id));
            } else {
                self.report
                    .errors
                    .push(format!("replay: wrong delivery {session:?}/{msg_id}"));
            }
        }
    }

    /// The daemon's colocated destination role for one relay output.
    fn dest_role(&mut self, addr: OverlayAddr, step: usize, out: &RelayOutput) {
        let now = Tick(self.now);
        let node = self.pool.get_mut(&addr).expect("pool node");
        for &(flow, receiver) in &out.established {
            if receiver && !node.dests.contains_key(&flow) {
                if let Some(info) = node.relay.flow_info(flow) {
                    let dest = DestSession::new(
                        addr,
                        flow,
                        info.clone(),
                        session_config(),
                        self.seed ^ flow.0,
                    );
                    node.dests.insert(flow, dest);
                    self.established += 1;
                }
            }
        }
        let mut douts = Vec::new();
        for r in &out.received {
            if let Some(dest) = node.dests.get_mut(&r.flow) {
                let dout = self.tr.call("dest.delivery", step, || {
                    dest.handle_delivery(now, r.seq, r.plaintext.clone())
                });
                node.last_delivery.insert(r.flow, step);
                douts.push((r.flow, dout));
            }
        }
        for &(flow, seq) in &out.replayed {
            if let Some(dest) = node.dests.get_mut(&flow) {
                let dout = self
                    .tr
                    .call("dest.replay", step, || dest.handle_replay(now, seq));
                douts.push((flow, dout));
            }
        }
        for (flow, dout) in douts {
            self.delivered(flow, step, dout.messages);
            self.emit(step, dout.sends);
        }
    }

    fn deliver(&mut self, pkt: InFlight) {
        let step = self.tr.open("step.deliver", None);
        self.tr.cause[step] = Some(pkt.cause);
        let now = Tick(self.now);
        let parsed = self
            .tr
            .call("wire.parse", step, || Packet::from_bytes(pkt.bytes));
        let Ok(packet) = parsed else {
            self.report.errors.push("replay: unparseable packet".into());
            self.tr.close(step);
            return;
        };
        if self.pseudo.contains(&pkt.to) {
            let mgr = &mut self.mgr;
            let out = self.tr.call("session.handle", step, || {
                mgr.handle_packet(now, pkt.to, pkt.from, &packet)
            });
            for (id, msg_id) in out.acked {
                let Some(&s) = self.session_of.get(&id) else {
                    continue;
                };
                if self.acked_at.insert((s, msg_id), step).is_some() {
                    self.report
                        .errors
                        .push(format!("replay: {s}/{msg_id} acked twice"));
                }
                self.tr.msg[step] = Some((s, msg_id));
                self.report.acked += 1;
            }
            self.emit(step, out.sends);
        } else if let Some(node) = self.pool.get_mut(&pkt.to) {
            let name = match packet.header.kind {
                PacketKind::Setup => "relay.handle.setup",
                PacketKind::Data => "relay.handle.data",
                PacketKind::Control => "relay.handle.control",
            };
            let relay = &mut node.relay;
            let out = self
                .tr
                .call(name, step, || relay.handle_packet(now, pkt.from, &packet));
            self.dest_role(pkt.to, step, &out);
            self.emit(step, out.sends);
        }
        self.tr.close(step);
    }

    /// Every engine's timer work, as the daemon runs it each poll period.
    fn tick(&mut self) {
        let now = Tick(self.now);
        let step = self.tr.open("step.tick.source", None);
        let mgr = &mut self.mgr;
        let out = self.tr.call("session.poll", step, || mgr.poll(now));
        if !out.sends.is_empty() {
            let d = &self.tr.spans[step + 1];
            self.report.session_send_us += (d.end_ns - d.start_ns) as f64 / 1e3;
        }
        self.emit(step, out.sends);
        self.tr.close(step);

        let mut addrs: Vec<OverlayAddr> = self.pool.keys().copied().collect();
        addrs.sort_unstable();
        for addr in addrs {
            let step = self.tr.open("step.tick.relay", None);
            let relay = &mut self.pool.get_mut(&addr).expect("pool node").relay;
            let out = self.tr.call("relay.poll", step, || relay.poll(now));
            self.dest_role(addr, step, &out);
            self.emit(step, out.sends);
            self.tr.close(step);

            let node = self.pool.get_mut(&addr).expect("pool node");
            let mut due: Vec<FlowId> = node
                .dests
                .iter()
                .filter(|(_, d)| d.next_due().is_some_and(|t| t.0 <= now.0))
                .map(|(&f, _)| f)
                .collect();
            due.sort_unstable_by_key(|f| f.0);
            for flow in due {
                let step = self.tr.open("step.tick.dest", None);
                let node = self.pool.get_mut(&addr).expect("pool node");
                self.tr.cause[step] = node.last_delivery.get(&flow).copied();
                let dest = node.dests.get_mut(&flow).expect("due dest");
                let dout = self.tr.call("dest.poll", step, || dest.poll(now));
                self.delivered(flow, step, dout.messages);
                self.emit(step, dout.sends);
                self.tr.close(step);
            }
        }
    }

    /// Advance one virtual millisecond: deliver what is due, then fire
    /// timers on the poll period.
    fn step(&mut self) {
        while let Some(&Reverse((at, id))) = self.heap.peek() {
            if at > self.now {
                break;
            }
            self.heap.pop();
            let pkt = self.inflight.remove(&id).expect("queued packet");
            self.deliver(pkt);
        }
        if self.now.is_multiple_of(POLL_MS) {
            self.tick();
        }
        self.now += 1;
    }
}

/// Replay workload `w` from `seed`. `seconds` sizes the chat schedule
/// exactly as the live run does.
pub fn run(w: Workload, seed: u64, seconds: u64) -> ReplayReport {
    let pseudo: Vec<OverlayAddr> = (0..PATHS as u64)
        .map(|i| OverlayAddr(1_000_000 + i))
        .collect();
    let pool_addrs: Vec<OverlayAddr> = (0..w.pool() as u64)
        .map(|i| OverlayAddr(10_000 + i))
        .collect();
    let pool = pool_addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let relay = ShardedRelay::with_config(
                a,
                workload::mix(seed ^ (i as u64 + 1)),
                relay_config(),
                RELAY_SHARDS,
            );
            (
                a,
                PoolNode {
                    relay,
                    dests: HashMap::new(),
                    last_delivery: HashMap::new(),
                },
            )
        })
        .collect();
    let mut r = Replay {
        w,
        seed,
        now: 0,
        tr: Tracer {
            zero: Instant::now(),
            spans: Vec::new(),
            cause: Vec::new(),
            msg: Vec::new(),
        },
        heap: BinaryHeap::new(),
        inflight: HashMap::new(),
        next_pkt: 0,
        mgr: SessionManager::new(SESSION_SHARDS, w.sessions() + 8, session_config()),
        pseudo: pseudo.clone(),
        pool,
        ids: Vec::new(),
        session_of: HashMap::new(),
        flow_session: HashMap::new(),
        established: 0,
        loss: (w.loss() > 0.0).then(|| StdRng::seed_from_u64(workload::mix(seed ^ 0x1055))),
        next_msg: vec![0; w.sessions()],
        sent: HashMap::new(),
        acked_at: HashMap::new(),
        report: ReplayReport::default(),
    };

    // Setup: build every graph and open every session.
    for plan in workload::session_plans(w, seed) {
        let dest = pool_addrs[plan.dest];
        let candidates: Vec<OverlayAddr> =
            pool_addrs.iter().copied().filter(|&a| a != dest).collect();
        let step = r.tr.open("step.send", None);
        let (src, setup) = r.tr.call("graph.establish", step, || {
            SourceSession::establish(graph_params(), &pseudo, &candidates, dest, plan.graph_seed)
                .expect("the pool holds enough relays for the graph")
        });
        r.report.chunk_len = src.stream_chunk_len().min(w.msg_len());
        r.flow_session.insert(receiver_flow(&src), r.ids.len());
        let mgr = &mut r.mgr;
        let now = Tick(r.now);
        let id =
            r.tr.call("session.open", step, || mgr.open_source(now, src))
                .expect("the manager has room for every session");
        r.session_of.insert(id, r.ids.len());
        r.ids.push(id);
        r.emit(step, setup);
        r.tr.close(step);
    }
    while r.established < w.sessions() && r.now < VIRTUAL_LIMIT_MS {
        r.step();
    }
    if r.established < w.sessions() {
        r.report.errors.push(format!(
            "replay: {} of {} sessions established",
            r.established,
            w.sessions()
        ));
        return finish(r);
    }

    // Data phase on the live run's inputs.
    let start = r.now;
    match w {
        Workload::Chat => {
            let schedule = workload::chat_schedule(w, seed, seconds);
            let mut next = 0;
            while (next < schedule.len() || r.report.acked < r.report.msgs)
                && r.now < VIRTUAL_LIMIT_MS
            {
                while let Some(a) = schedule.get(next) {
                    if start + a.due_us / 1000 > r.now {
                        break;
                    }
                    r.send(a.session);
                    next += 1;
                }
                r.step();
            }
        }
        _ => {
            for _ in 0..w.outstanding() {
                r.send(0);
            }
            while r.report.acked < r.report.msgs && r.now < VIRTUAL_LIMIT_MS {
                let acked = r.report.acked;
                r.step();
                for _ in acked..r.report.acked {
                    if r.report.msgs < BULK_MSGS as u64 {
                        r.send(0);
                    }
                }
            }
        }
    }
    if r.report.acked < r.report.msgs {
        r.report.errors.push(format!(
            "replay: {} of {} messages acked by the virtual limit",
            r.report.acked, r.report.msgs
        ));
    }
    finish(r)
}

/// Fold the spans into per-layer figures and each message's path.
fn finish(mut r: Replay) -> ReplayReport {
    let self_ns = stats::self_times(&r.tr.spans);
    let mut report = std::mem::take(&mut r.report);
    report.virtual_ms = r.now;
    // Program time inside a step: its duration minus its own self time.
    let program_ns = |i: usize| -> u64 {
        let s = &r.tr.spans[i];
        (s.end_ns - s.start_ns) - self_ns[i]
    };
    for (i, s) in r.tr.spans.iter().enumerate() {
        let ns = self_ns[i] as f64;
        match s.name {
            "graph.establish" => report.establish_us.push(ns / 1e3),
            "relay.handle.setup" => report.relay_setup_ns.push(ns),
            "relay.handle.data" => report.relay_data_ns.push(ns),
            "relay.poll" => report.relay_poll_us.push(ns / 1e3),
            "session.send" => report.session_send_us += ns / 1e3,
            "session.handle" => report.session_ack_us += ns / 1e3,
            "dest.delivery" | "dest.replay" | "dest.poll" => report.dest_us += ns / 1e3,
            _ => {}
        }
    }
    let mut on_path: Vec<(usize, (usize, u32))> = Vec::new();
    let mut keys: Vec<&(usize, u32)> = r.acked_at.keys().collect();
    keys.sort_unstable();
    for key in keys {
        let Some(&(send_step, _)) = r.sent.get(key) else {
            continue;
        };
        let send_start = r.tr.spans[send_step].start_ns;
        let mut ns = 0;
        let mut saw_send = false;
        let mut cur = Some(r.acked_at[key]);
        while let Some(c) = cur {
            if r.tr.spans[c].start_ns < send_start {
                break;
            }
            ns += program_ns(c);
            saw_send |= c == send_step;
            on_path.push((c, *key));
            cur = r.tr.cause[c];
        }
        if !saw_send {
            ns += program_ns(send_step);
            on_path.push((send_step, *key));
        }
        report.path_us.push(ns as f64 / 1e3);
    }
    for &(c, key) in &on_path {
        r.tr.msg[c].get_or_insert(key);
    }
    write_path_spans(&r, &self_ns, &on_path);
    report
}

/// Write the steps on the first `TRACED_PATHS` messages' blocking
/// paths, each with its program calls, as JSON lines.
fn write_path_spans(r: &Replay, self_ns: &[u64], on_path: &[(usize, (usize, u32))]) {
    let path = format!(
        "{}/{}-seed{}-replay.jsonl",
        crate::TRACE_DIR,
        r.w.name(),
        r.seed
    );
    let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, s) in r.tr.spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    let mut out = Vec::new();
    let mut traced = std::collections::HashSet::new();
    for &(step, key) in on_path {
        if traced.len() == TRACED_PATHS && !traced.contains(&key) {
            continue;
        }
        traced.insert(key);
        let (session, msg) = key;
        for i in std::iter::once(step).chain(children.get(&step).into_iter().flatten().copied()) {
            let s = &r.tr.spans[i];
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \
                 \"parent\": {}, \"cause\": {}, \"session\": {session}, \"msg\": {msg}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[i],
                s.parent.map_or("null".into(), |p| p.to_string()),
                r.tr.cause[i].map_or("null".into(), |c| c.to_string()),
            );
        }
    }
    crate::write_trace(&path, &out);
}
