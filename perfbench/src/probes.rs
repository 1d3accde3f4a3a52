//! Probes: each compute kernel timed alone at the workload's shapes
//! (data packet size, d, d′, chunk length), and a UDP ping-pong through
//! the production transport at the workload's datagram size.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use slicing_codec::recombine::recombine_multi_into;
use slicing_crypto::{SealingKey, SymmetricKey};
use slicing_overlay::{UdpFaults, UdpNet};
use slicing_wire::{Packet, PacketBuilder};

use crate::stats;
use crate::workload::{PATHS, SPLIT};

/// Timed batches per kernel; the median batch is reported.
const BATCHES: usize = 9;
/// Shortest batch, so timer resolution never dominates.
const MIN_BATCH: Duration = Duration::from_millis(3);
/// Ping-pong rounds (enough for a p99 with ten samples beyond it).
const RTT_ROUNDS: usize = 1000;
const RTT_WARMUP: usize = 20;

pub struct KernelReport {
    pub wire_parse_ns: f64,
    pub wire_build_ns: f64,
    pub codec_encode_ns: f64,
    pub codec_decode_ns: f64,
    pub codec_recombine_ns: f64,
    pub gf_mul_add_gibs: f64,
    pub crypto_seal_ns: f64,
    pub crypto_open_ns: f64,
}

/// Nanoseconds per call of `f`: the median of `BATCHES` timed batches,
/// each long enough to swamp the clock's resolution.
fn ns_per_op(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= MIN_BATCH {
            break;
        }
        iters *= 2;
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&batches).expect("batches")
}

/// Time every kernel at the shapes of a workload's data path:
/// `packet` is one data packet as it goes on the wire, `chunk_len` the
/// plaintext bytes one packet carries.
pub fn kernels(packet: &Bytes, chunk_len: usize) -> KernelReport {
    let mut rng = StdRng::seed_from_u64(0x9B0B);
    let parsed = Packet::from_bytes(packet.clone()).expect("a data packet the program built");
    let slots: Vec<Vec<u8>> = parsed.slots().map(<[u8]>::to_vec).collect();
    let header = parsed.header;

    let wire_parse_ns = ns_per_op(|| {
        black_box(Packet::from_bytes(black_box(packet.clone())).is_ok());
    });
    let wire_build_ns = ns_per_op(|| {
        let mut b = PacketBuilder::new(header);
        for s in &slots {
            b.push_slot(s);
        }
        black_box(b.build());
    });

    let mut msg = vec![0u8; chunk_len];
    rng.fill_bytes(&mut msg);
    let codec_encode_ns = ns_per_op(|| {
        black_box(slicing_codec::encode(
            black_box(&msg),
            SPLIT,
            PATHS,
            &mut rng,
        ));
    });
    let sliced = slicing_codec::encode(&msg, SPLIT, PATHS, &mut rng);
    assert_eq!(
        slicing_codec::decode(&sliced.slices[..SPLIT], SPLIT).expect("decode")[..chunk_len],
        msg[..],
        "codec probe round trip"
    );
    let codec_decode_ns = ns_per_op(|| {
        black_box(slicing_codec::decode(black_box(&sliced.slices[..SPLIT]), SPLIT).is_ok());
    });
    // A relay's regeneration: d received slots (coefficients ‖ block)
    // recombined into d′ fresh ones.
    let inputs: Vec<Vec<u8>> = sliced.slices[..SPLIT]
        .iter()
        .map(|s| [s.coeffs.as_slice(), s.payload.as_slice()].concat())
        .collect();
    let mut outs = vec![vec![0u8; inputs[0].len()]; PATHS];
    let codec_recombine_ns = ns_per_op(|| {
        let mut refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        recombine_multi_into(black_box(&inputs), &mut rng, &mut refs);
    });

    let src = msg.clone();
    let mut dst = vec![0u8; chunk_len];
    let mul_add_ns = ns_per_op(|| {
        slicing_gf::bulk::mul_add_slice(black_box(&mut dst), 0x57, black_box(&src));
    });
    let gf_mul_add_gibs = chunk_len as f64 / mul_add_ns * 1e9 / (1u64 << 30) as f64;

    let key = SealingKey::new(&SymmetricKey([7u8; 32]));
    let mut sealed = Vec::new();
    let crypto_seal_ns = ns_per_op(|| {
        key.seal_into(black_box(&msg), &mut sealed, &mut rng);
    });
    key.seal_into(&msg, &mut sealed, &mut rng);
    let mut buf = sealed.clone();
    // Includes restoring the sealed bytes (a chunk-sized copy) each call.
    let crypto_open_ns = ns_per_op(|| {
        buf.copy_from_slice(&sealed);
        black_box(key.open_in_place(black_box(&mut buf)).is_ok());
    });

    KernelReport {
        wire_parse_ns,
        wire_build_ns,
        codec_encode_ns,
        codec_decode_ns,
        codec_recombine_ns,
        gf_mul_add_gibs,
        crypto_seal_ns,
        crypto_open_ns,
    }
}

/// Round-trip times, µs, of `frame` bounced between two ports of one
/// `UdpNet` (the production send path, pacer, receive task and inbox).
pub async fn udp_rtt(frame: Bytes) -> Vec<f64> {
    let net = UdpNet::new(UdpFaults::default(), 0x5EED);
    let mut a = net.attach().await.expect("bind a loopback UDP socket");
    let mut b = net.attach().await.expect("bind a loopback UDP socket");
    let mut rtt = Vec::with_capacity(RTT_ROUNDS);
    for i in 0..RTT_WARMUP + RTT_ROUNDS {
        let t = Instant::now();
        a.tx.send(b.addr, frame.clone()).await;
        let (_, got) = b.rx.recv().await.expect("ping arrives");
        b.tx.send(a.addr, got).await;
        let (_, back) = a.rx.recv().await.expect("pong arrives");
        if i >= RTT_WARMUP {
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
        }
        assert_eq!(back, frame, "ping-pong frame came back changed");
    }
    rtt
}
