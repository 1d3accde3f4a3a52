//! The three workloads and their seeded inputs.
//!
//! Everything the program under test receives — which node is a
//! session's destination, the graph-building seeds, the chat arrival
//! schedule and every payload byte — is a pure function of the seed, so
//! the live run and the replay feed the engines the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Graph shape of every workload: L = 3 stages, split factor d = 2,
/// d′ = 3 paths, destination in the last stage.
pub const STAGES: usize = 3;
/// Split factor `d`.
pub const SPLIT: usize = 2;
/// Path count `d′`.
pub const PATHS: usize = 3;
/// Shards per relay node.
pub const RELAY_SHARDS: usize = 2;
/// Shards of the source node's session manager.
pub const SESSION_SHARDS: usize = 2;
/// UDP hops one message crosses there and back (L forward, L reverse).
pub const HOPS_ROUND_TRIP: usize = 2 * STAGES;

/// Bytes of a payload's self-describing prefix: session index and
/// per-session message index, so a delivery can be checked against
/// what was sent without trusting the program's own message ids.
const TAG_LEN: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One session, closed loop, 4 × 96 000 B outstanding.
    Bulk,
    /// `Bulk` with 2% injected datagram loss (setup exempt).
    BulkLossy,
    /// 1024 sessions, open-loop Poisson 400 B messages at 500 msg/s.
    Chat,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "bulk" => Some(Workload::Bulk),
            "bulk_lossy" => Some(Workload::BulkLossy),
            "chat" => Some(Workload::Chat),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::BulkLossy => "bulk_lossy",
            Workload::Chat => "chat",
        }
    }

    /// Injected loss on data datagrams.
    pub fn loss(self) -> f64 {
        match self {
            Workload::BulkLossy => 0.02,
            _ => 0.0,
        }
    }

    pub fn sessions(self) -> usize {
        match self {
            Workload::Chat => 1024,
            _ => 1,
        }
    }

    /// Combined relay + destination nodes. Bulk gets what the graph
    /// needs (L·d′ − 1 relays plus the destination) and four spares.
    pub fn pool(self) -> usize {
        match self {
            Workload::Chat => 32,
            _ => STAGES * PATHS + 4,
        }
    }

    pub fn msg_len(self) -> usize {
        match self {
            Workload::Chat => 400,
            _ => 96_000,
        }
    }

    /// Closed-loop messages kept outstanding (bulk only).
    pub fn outstanding(self) -> usize {
        4
    }

    /// Open-loop aggregate arrival rate (chat only), msg/s.
    pub fn rate(self) -> f64 {
        500.0
    }

    /// Times the whole topology is brought up to measure `setup_s`; the
    /// last bring-up carries the data phase.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Chat => 5,
            _ => 9,
        }
    }
}

/// SplitMix64 finaliser: decorrelates derived seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-session choices: the destination's index in the pool and the
/// seed the source builds its graph from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionPlan {
    pub dest: usize,
    pub graph_seed: u64,
}

pub fn session_plans(w: Workload, seed: u64) -> Vec<SessionPlan> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x5E55_1055));
    (0..w.sessions())
        .map(|_| SessionPlan {
            dest: rng.gen_range(0..w.pool()),
            graph_seed: rng.gen(),
        })
        .collect()
}

/// One open-loop arrival: due time since the data phase began, and the
/// session it goes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub due_us: u64,
    pub session: usize,
}

/// The chat schedule: `rate × seconds` messages (a fixed count) with
/// exponential inter-arrival gaps, each to a uniformly chosen session.
pub fn chat_schedule(w: Workload, seed: u64, seconds: u64) -> Vec<Arrival> {
    let count = (w.rate() * seconds as f64).round() as usize;
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0xC4A7_5C4E));
    let mut t_us = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen::<f64>();
            t_us += -(1.0 - u).ln() / w.rate() * 1e6;
            Arrival {
                due_us: t_us as u64,
                session: rng.gen_range(0..w.sessions()),
            }
        })
        .collect()
}

/// Payload `msg` of `session`: a tag naming both, then seeded bytes.
pub fn payload(w: Workload, seed: u64, session: usize, msg: u32) -> Vec<u8> {
    let mut p = vec![0u8; w.msg_len()];
    p[..4].copy_from_slice(&(session as u32).to_le_bytes());
    p[4..TAG_LEN].copy_from_slice(&msg.to_le_bytes());
    let mut rng = StdRng::seed_from_u64(mix(seed ^ mix(((session as u64) << 32) | msg as u64)));
    rng.fill_bytes(&mut p[TAG_LEN..]);
    p
}

/// The `(session, msg)` tag of a delivered payload.
pub fn payload_tag(p: &[u8]) -> Option<(usize, u32)> {
    let session = u32::from_le_bytes(p.get(..4)?.try_into().ok()?) as usize;
    let msg = u32::from_le_bytes(p.get(4..TAG_LEN)?.try_into().ok()?);
    Some((session, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_identical_from_a_seed_and_differs_across_seeds() {
        let a = chat_schedule(Workload::Chat, 7, 10);
        assert_eq!(a, chat_schedule(Workload::Chat, 7, 10));
        assert_ne!(a, chat_schedule(Workload::Chat, 8, 10));
        assert_eq!(a.len(), 5000);
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        // Poisson at 500/s: the last arrival lands near 10 s.
        let last_s = a.last().unwrap().due_us as f64 / 1e6;
        assert!((9.0..11.0).contains(&last_s), "last arrival at {last_s} s");
        assert!(a.iter().all(|m| m.session < 1024));
    }

    #[test]
    fn plans_and_payloads_are_identical_from_a_seed() {
        for w in [Workload::Bulk, Workload::BulkLossy, Workload::Chat] {
            assert_eq!(session_plans(w, 3), session_plans(w, 3));
            assert_ne!(session_plans(w, 3), session_plans(w, 4));
            assert!(session_plans(w, 3).iter().all(|p| p.dest < w.pool()));
        }
        let p = payload(Workload::Bulk, 9, 0, 5);
        assert_eq!(p, payload(Workload::Bulk, 9, 0, 5));
        assert_ne!(p, payload(Workload::Bulk, 10, 0, 5));
        assert_eq!(p.len(), 96_000);
        assert_eq!(payload_tag(&p), Some((0, 5)));
        assert_eq!(
            payload_tag(&payload(Workload::Chat, 1, 1023, 7)),
            Some((1023, 7))
        );
    }
}
