//! The repository benchmark. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk|bulk_lossy|chat --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload live over loopback UDP and prints the
//! end-to-end metrics. `--trace 1` runs it live again (its end-to-end
//! figures are printed beside the per-layer ones, so the cost of
//! tracing shows), then replays the same seeded inputs through the
//! sans-IO engines and probes each layer at the workload's shapes, and
//! prints the per-layer metrics. The last line of standard output is
//! always the JSON result; the process exits non-zero on a wrong output.

mod live;
mod probes;
mod replay;
mod stats;
mod workload;

use std::fmt::Write as _;

use workload::{Workload, HOPS_ROUND_TRIP};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// An ordered `name → (value, unit)` list printed as a JSON object.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value, unit));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .expect("metric recorded")
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to a String");
        }
        s.push('}');
        s
    }
}

/// The end-to-end figures of one live run.
fn end_to_end(r: &live::LiveReport) -> Metrics {
    let mut m = Metrics::default();
    let mb = r.bytes as f64 / 1e6;
    m.put("goodput_mbps", mb * 8.0 / r.data_s.max(1e-9), "Mb/s");
    m.put(
        "msg_ms_p50",
        stats::median(&r.latency_ms).unwrap_or(f64::MAX),
        "ms",
    );
    m.put(
        "msg_ms_p99",
        stats::tail(&r.latency_ms, 0.99).map_or(f64::MAX, |t| t.0),
        "ms",
    );
    m.put("cpu_s_per_mb", r.cpu_s / mb.max(1e-9), "s/MB");
    m.put(
        "setup_s",
        stats::median(&r.setup_s).expect("at least one bring-up"),
        "s",
    );
    m.put("peak_rss_mb", r.peak_rss_mb, "MiB");
    m
}

/// Where in-memory spans are written when a traced run ends.
const TRACE_DIR: &str = "perfbench/traces";

/// Write a trace file; a trace that cannot be written is reported and
/// does not fail the run.
fn write_trace(path: &str, bytes: &[u8]) {
    let written = std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(path, bytes));
    match written {
        Ok(()) => println!("trace: wrote {path}"),
        Err(e) => eprintln!("trace: cannot write {path}: {e}"),
    }
}

fn write_live_spans(args: &Args, r: &live::LiveReport) {
    let mut out = String::new();
    for s in &r.spans {
        writeln!(
            out,
            "{{\"name\": \"live.send\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"session\": {}, \"msg\": {}}}",
            s.start_us, s.end_us, s.session, s.msg
        )
        .expect("write to a String");
    }
    let path = format!(
        "{TRACE_DIR}/{}-seed{}-live.jsonl",
        args.workload.name(),
        args.seed
    );
    write_trace(&path, out.as_bytes());
}

/// Git revision of the checkout, when it is a git work tree.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn descriptor(args: &Args, r: &live::LiveReport) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let late = stats::median(&r.lateness_ms);
    let late_tail = stats::tail(&r.lateness_ms, 0.99);
    format!(
        "run: workload={} seed={} seconds={} trace={} nproc={} threads_running={} \
         gf_backends={:?} gf_active={:?}/{} crypto_backends={:?} crypto_active={:?}/{} \
         SLICING_GF_FORCE={} SLICING_CRYPTO_FORCE={} git_rev={} \
         generator_late_ms_p50={} generator_late_ms_tail={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc,
        r.threads,
        slicing_gf::simd::available_backends(),
        slicing_gf::simd::backend(),
        slicing_gf::simd::isa(),
        slicing_crypto::simd::available_backends(),
        slicing_crypto::simd::backend(),
        slicing_crypto::simd::isa(),
        env("SLICING_GF_FORCE"),
        env("SLICING_CRYPTO_FORCE"),
        git_rev(),
        late.map_or("n/a (closed loop)".into(), |v| format!("{v:.3}")),
        late_tail.map_or("n/a".into(), |(v, q, n)| format!(
            "{v:.3} (p{:.1} of {n})",
            q * 100.0
        )),
    )
}

/// Correctness: byte-identical deliveries (checked as they arrive) and
/// sent == delivered == acked at the end.
fn check(r: &live::LiveReport) -> Vec<String> {
    let mut errors = r.errors.clone();
    if r.sent != r.delivered || r.sent != r.acked {
        errors.push(format!(
            "sent {} delivered {} acked {} (must all be equal)",
            r.sent, r.delivered, r.acked
        ));
    }
    if r.unsent > 0 {
        errors.push(format!(
            "{} messages never sent: only {} sessions established",
            r.unsent, r.sessions_established
        ));
    }
    errors
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload bulk|bulk_lossy|chat --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let rt = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("runtime");
    let live = rt.block_on(live::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
    ));
    println!("{}", descriptor(&args, &live));
    let r = &live.relay;
    println!(
        "counters: relay packets_in={} drops={} garbage={} setup_failures={} | \
         udp datagrams_sent={} injected_drops={} queue_drops={} | session retransmits={} \
         | sent={} delivered={} acked={} rejected={} unsent={}",
        r.packets_in,
        r.drops,
        r.garbage,
        r.setup_failures,
        live.udp.datagrams_sent,
        live.udp.injected_drops,
        live.udp.queue_drops,
        live.retransmits,
        live.sent,
        live.delivered,
        live.acked,
        live.rejected,
        live.unsent,
    );
    let e2e = end_to_end(&live);
    let setups: Vec<String> = live.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    let tail = stats::tail(&live.latency_ms, 0.99).map_or("none".into(), |(v, q, n)| {
        format!("p{:.1} of {n} = {v:.3} ms", q * 100.0)
    });
    println!(
        "latency: samples={} tail_reported={tail} setups_s=[{}]",
        live.latency_ms.len(),
        setups.join(", ")
    );
    let mut errors = check(&live);
    let failed = live.attempted() - live.ok;

    let metrics = if args.trace {
        println!("traced_end_to_end: {}", e2e.json());
        write_live_spans(&args, &live);
        let replay = replay::run(args.workload, args.seed, args.seconds);
        errors.extend(replay.errors.iter().cloned());
        let packet = replay
            .data_packet
            .clone()
            .expect("the replay sent at least one data packet");
        let kernels = probes::kernels(&packet, replay.chunk_len);
        let rtt = rt.block_on(probes::udp_rtt(packet.clone()));
        println!(
            "replay: virtual_ms={} msgs={} acked={} delivered={} paths={} data_packet_bytes={} chunk_len={} rtt_samples={}",
            replay.virtual_ms,
            replay.msgs,
            replay.acked,
            replay.delivered,
            replay.path_us.len(),
            packet.len(),
            replay.chunk_len,
            rtt.len()
        );
        per_layer(&live, &e2e, &replay, &kernels, &rtt).json()
    } else {
        e2e.json()
    };
    for e in &errors {
        println!("WRONG: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        errors.is_empty(),
        live.attempted().max(1),
        failed,
        metrics
    );
    if !errors.is_empty() {
        std::process::exit(1);
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The per-layer figures: replay self times, probes and the live run's
/// counters, plus the share of the live median the layers explain.
fn per_layer(
    live: &live::LiveReport,
    e2e: &Metrics,
    replay: &replay::ReplayReport,
    k: &probes::KernelReport,
    rtt: &[f64],
) -> Metrics {
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let mut m = Metrics::default();
    m.put("graph.establish_us", mean(&replay.establish_us), "us");
    m.put("relay.setup_ns_per_pkt", mean(&replay.relay_setup_ns), "ns");
    m.put("relay.data_ns_per_pkt", mean(&replay.relay_data_ns), "ns");
    m.put("relay.poll_us_per_call", mean(&replay.relay_poll_us), "us");
    m.put(
        "session.send_us_per_msg",
        replay.session_send_us / replay.msgs.max(1) as f64,
        "us",
    );
    m.put(
        "session.ack_us_per_msg",
        replay.session_ack_us / replay.acked.max(1) as f64,
        "us",
    );
    m.put(
        "dest.us_per_msg",
        replay.dest_us / replay.delivered.max(1) as f64,
        "us",
    );
    let path_us = stats::median(&replay.path_us).unwrap_or(0.0);
    m.put("replay.path_us_per_msg", path_us, "us");
    m.put("wire.parse_ns", k.wire_parse_ns, "ns");
    m.put("wire.build_ns", k.wire_build_ns, "ns");
    m.put("codec.encode_ns", k.codec_encode_ns, "ns");
    m.put("codec.decode_ns", k.codec_decode_ns, "ns");
    m.put("codec.recombine_ns", k.codec_recombine_ns, "ns");
    m.put("gf.mul_add_gibs", k.gf_mul_add_gibs, "GiB/s");
    m.put("crypto.seal_ns", k.crypto_seal_ns, "ns");
    m.put("crypto.open_ns", k.crypto_open_ns, "ns");
    let rtt_p50 = stats::median(rtt).expect("ping-pong samples");
    m.put("udp.rtt_us_p50", rtt_p50, "us");
    m.put(
        "udp.rtt_us_p99",
        stats::tail(rtt, 0.99).expect("ping-pong samples").0,
        "us",
    );
    let u = &live.udp;
    m.put(
        "udp.dgrams_per_send_call",
        ratio(u.datagrams_sent, u.send_calls),
        "count",
    );
    m.put(
        "udp.dgrams_per_recv_call",
        ratio(u.datagrams_received, u.recv_calls),
        "count",
    );
    m.put("udp.paced_frac", ratio(u.paced, u.datagrams_sent), "frac");
    m.put("udp.queue_drops", u.queue_drops as f64, "count");
    m.put(
        "session.retransmits_per_msg",
        ratio(live.retransmits, live.sent),
        "count",
    );
    let r = &live.relay;
    m.put(
        "relay.pkts_in_per_msg",
        ratio(r.packets_in, live.acked),
        "count",
    );
    m.put(
        "relay.drops_per_kpkt",
        1e3 * ratio(r.drops, r.packets_in),
        "count",
    );
    m.put("relay.garbage", r.garbage as f64, "count");
    m.put(
        "msg.fwd_ms_p50",
        stats::median(&live.fwd_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "msg.rev_ms_p50",
        stats::median(&live.rev_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "daemon.idle_cpu_frac",
        live.idle_cpu_frac
            .expect("the traced run measures idle CPU"),
        "frac",
    );
    m.put("daemon.threads", live.threads as f64, "count");
    // What compute and the wire do not explain is waiting in the
    // daemon: msg p50 − blocking-path compute − round-trip hops × rtt/2.
    let msg_p50 = e2e.get("msg_ms_p50");
    let wait = msg_p50 - path_us / 1e3 - HOPS_ROUND_TRIP as f64 * rtt_p50 / 2e3;
    m.put("daemon.wait_ms_p50", wait, "ms");
    m.put("attributed_frac", 1.0 - wait / msg_p50, "frac");
    m
}
