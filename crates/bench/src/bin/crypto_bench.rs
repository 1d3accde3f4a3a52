//! Endpoint crypto throughput smoke: GiB/s per primitive per available
//! backend, plus AEAD seal+open round trips per second with and without
//! the per-session caches — and a machine-readable `BENCH_crypto.json`
//! so CI records the perf trajectory across PRs.
//!
//! Self-timed so it runs in seconds as a CI step.
//! `--quick` (or `CRYPTO_BENCH_QUICK=1`) cuts trial counts for the CI
//! smoke run. Output goes to stdout as the usual aligned tables and to
//! `BENCH_crypto.json` in the current directory (`--out PATH`
//! overrides).
//!
//! The AEAD section times two shapes per backend and message size:
//!
//! * **cached** — a per-session [`SealingKey`] driving the zero-alloc
//!   `seal_into`/`open_in_place` pair (what the endpoints run now);
//! * **rederive** — a fresh `SealingKey` constructed for every seal and
//!   every open (the pre-PR cost structure: two HKDF subkey derivations
//!   plus HMAC ipad/opad compressions per operation, per side).
//!
//! The headline ratios the acceptance gate reads: SIMD cached vs scalar
//! rederive at 1500 B (the full PR speedup over the old path), and
//! scalar cached vs scalar rederive (the subkey/midstate caching win in
//! isolation, reported per message size — the relative win shrinks as
//! the fixed per-message derivation cost amortizes over longer
//! messages).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use slicing_bench::{banner, RunOpts, Table};
use slicing_crypto::{simd, ChaCha20, HmacKey, SealingKey, Sha256, SymmetricKey};

/// Bytes per bulk-primitive pass (L1-resident: measures the kernels,
/// not the memory bus).
const BULK: usize = 4096;

/// AEAD message sizes: a small control frame, a typical session chunk,
/// and a full data-packet budget (§7.2 uses 1500 B packets).
const SIZES: [usize; 3] = [64, 400, 1500];

/// Time `f` over `reps` calls and return GiB/s for `bytes_per_call`.
fn gibs(reps: usize, bytes_per_call: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: fault pages, prime the dispatch
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    let secs = start.elapsed().as_secs_f64();
    (reps * bytes_per_call) as f64 / secs / (1u64 << 30) as f64
}

/// Time `f` over `reps` calls and return calls per second.
fn per_sec(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    reps as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let opts = RunOpts::from_args();
    let quick = opts.quick || std::env::var_os("CRYPTO_BENCH_QUICK").is_some();
    let opts = RunOpts { quick, ..opts };
    let bulk_reps = opts.trials(100_000);
    let aead_reps = opts.trials(30_000);
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_crypto.json".to_string())
    };
    banner(
        "Endpoint crypto throughput (ChaCha20 / SHA-256 / AEAD)",
        &format!(
            "dispatch: {} ({}); backends: {:?}; bulk {BULK} B; aead {SIZES:?} B",
            simd::backend(),
            simd::isa(),
            simd::available_backends()
        ),
        "SIMD+caching ≥4× the re-deriving scalar seal+open at 1500 B",
    );

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut bulk = vec![0u8; BULK];
    rng.fill_bytes(&mut bulk);
    let chacha_key = [0x42u8; 32];
    let nonce = [7u8; 12];
    let key = SymmetricKey([0xA7; 32]);

    // ---- bulk primitives, per backend ---------------------------------
    let backends = simd::available_backends();
    let mut prim_table = Table::new(&["backend", "chacha20", "sha256", "hmac"]);
    let mut prim_json = Vec::new();
    let mut prim_gibs = Vec::new();
    for (bi, &backend) in backends.iter().enumerate() {
        let chacha = gibs(bulk_reps, BULK, || {
            ChaCha20::new_on(backend, &chacha_key, &nonce, 0).apply(&mut bulk);
        });
        let sha = gibs(bulk_reps, BULK, || {
            std::hint::black_box(Sha256::digest_on(backend, &bulk));
        });
        let mac_key = HmacKey::new_on(backend, &key.0);
        let hmac = gibs(bulk_reps, BULK, || {
            std::hint::black_box(mac_key.mac(&bulk));
        });
        prim_table.row(&[bi as f64, chacha, sha, hmac]);
        prim_json.push(format!(
            "    {{\"backend\": \"{backend}\", \"chacha20_gibs\": {chacha:.3}, \
             \"sha256_gibs\": {sha:.3}, \"hmac_gibs\": {hmac:.3}}}"
        ));
        prim_gibs.push((backend, chacha, sha));
    }
    println!("(backend column: index into {backends:?}; GiB/s, {BULK} B passes)");
    prim_table.print();
    println!();

    // ---- AEAD seal+open round trips, per backend and size -------------
    // cached   = per-session SealingKey + seal_into/open_in_place
    // rederive = fresh SealingKey per seal and per open (pre-PR shape)
    let mut aead_table = Table::new(&["backend", "msg_len", "cached/s", "rederive/s", "speedup"]);
    let mut aead_json = Vec::new();
    let mut results = Vec::new();
    for (bi, &backend) in backends.iter().enumerate() {
        for &len in &SIZES {
            let msg = vec![0xC3u8; len];
            let mut buf = Vec::new();
            let sk = SealingKey::new_on(backend, &key);
            let cached = per_sec(aead_reps, || {
                sk.seal_into(&msg, &mut buf, &mut rng);
                std::hint::black_box(sk.open_in_place(&mut buf).expect("tag"));
            });
            let rederive = per_sec(aead_reps, || {
                SealingKey::new_on(backend, &key).seal_into(&msg, &mut buf, &mut rng);
                std::hint::black_box(
                    SealingKey::new_on(backend, &key)
                        .open_in_place(&mut buf)
                        .expect("tag"),
                );
            });
            let speedup = cached / rederive;
            aead_table.row(&[bi as f64, len as f64, cached, rederive, speedup]);
            aead_json.push(format!(
                "    {{\"backend\": \"{backend}\", \"msg_len\": {len}, \
                 \"cached_msgs_per_s\": {cached:.0}, \
                 \"rederive_msgs_per_s\": {rederive:.0}, \
                 \"caching_speedup\": {speedup:.2}}}"
            ));
            results.push((backend, len, cached, rederive));
        }
    }
    println!("(seal+open round trips per second)");
    aead_table.print();
    println!();

    // ---- headline ratios ----------------------------------------------
    let scalar_rederive_1500 = results
        .iter()
        .find(|(b, l, ..)| format!("{b}") == "scalar" && *l == 1500)
        .map(|&(_, _, _, r)| r)
        .unwrap_or(f64::NAN);
    let best_cached_1500 = results
        .iter()
        .filter(|(_, l, ..)| *l == 1500)
        .map(|&(_, _, c, _)| c)
        .fold(f64::NAN, f64::max);
    let full_speedup_1500 = best_cached_1500 / scalar_rederive_1500;
    let scalar_caching: Vec<(usize, f64)> = results
        .iter()
        .filter(|(b, ..)| format!("{b}") == "scalar")
        .map(|&(_, l, c, r)| (l, c / r))
        .collect();
    println!("headline: best cached seal+open at 1500 B vs scalar rederive = {full_speedup_1500:.2}x");
    for (l, s) in &scalar_caching {
        println!("headline: scalar caching alone at {l} B = {s:.2}x");
    }

    let caching_json: Vec<String> = scalar_caching
        .iter()
        .map(|(l, s)| format!("\"{l}\": {s:.2}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"crypto_bench\",\n  \"bulk_bytes\": {BULK},\n  \
         \"dispatch\": \"{}\",\n  \"isa\": \"{}\",\n  \"primitives\": [\n{}\n  ],\n  \
         \"aead\": [\n{}\n  ],\n  \"headline\": {{\n    \
         \"simd_cached_vs_scalar_rederive_1500B\": {full_speedup_1500:.2},\n    \
         \"scalar_caching_speedup\": {{{}}}\n  }}\n}}\n",
        simd::backend(),
        simd::isa(),
        prim_json.join(",\n"),
        aead_json.join(",\n"),
        caching_json.join(", ")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_crypto.json");
    println!("wrote {out_path}");
}
