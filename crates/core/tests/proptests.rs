//! Property tests for the protocol engine: end-to-end delivery across
//! random shapes/seeds, robustness to garbage and replay, and failure
//! tolerance within the redundancy budget.

use proptest::prelude::*;
use slicing_core::testnet::TestNet;
use slicing_core::{DataMode, DestPlacement, GraphParams, OverlayAddr, SourceSession};

fn addrs(base: u64, n: usize) -> Vec<OverlayAddr> {
    (0..n as u64).map(|i| OverlayAddr(base + i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end delivery for arbitrary messages, shapes and seeds
    /// (Map mode: must be lossless).
    #[test]
    fn always_delivers(seed in any::<u64>(), l in 1usize..6, d in 2usize..4,
                       msg in proptest::collection::vec(any::<u8>(), 0..600)) {
        let pseudo = addrs(10_000, d);
        let candidates = addrs(20_000, l * d + 6);
        let dest = OverlayAddr(1);
        let mut nodes = candidates.clone();
        nodes.push(dest);
        let (mut source, setup) = SourceSession::establish(
            GraphParams::new(l, d), &pseudo, &candidates, dest, seed,
        ).unwrap();
        let mut net = TestNet::new(&nodes, seed);
        net.submit(setup);
        net.run_to_quiescence(Some(&mut source));
        let chunk = &msg[..msg.len().min(source.max_chunk_len())];
        let (_, sends) = source.send_message(chunk).expect("within chunk budget");
        net.submit(sends);
        net.run_to_quiescence(Some(&mut source));
        let got = net.messages_for(dest);
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(&got[0].1[..], chunk);
    }

    /// Any single relay failure is survivable when d' > d, regardless of
    /// which relay fails or when placement randomizes.
    #[test]
    fn single_failure_tolerated(seed in any::<u64>(), victim_seed in any::<u8>()) {
        let (l, d, dp) = (4usize, 2usize, 3usize);
        let pseudo = addrs(10_000, dp);
        let candidates = addrs(20_000, l * dp + 6);
        let dest = OverlayAddr(1);
        let mut nodes = candidates.clone();
        nodes.push(dest);
        let params = GraphParams::new(l, d)
            .with_paths(dp)
            .with_dest_placement(DestPlacement::LastStage);
        let (mut source, setup) = SourceSession::establish(
            params, &pseudo, &candidates, dest, seed,
        ).unwrap();
        let mut net = TestNet::new(&nodes, seed);
        net.submit(setup);
        net.run_to_quiescence(Some(&mut source));
        // Pick any non-destination relay as the victim.
        let relays: Vec<OverlayAddr> = source.graph().relay_addrs()
            .filter(|&a| a != dest).collect();
        let victim = relays[victim_seed as usize % relays.len()];
        net.fail(victim);
        let (_, sends) = source.send_message(b"survives one failure").expect("within chunk budget");
        net.submit(sends);
        net.settle(Some(&mut source), 1_500, l + 1);
        let got = net.messages_for(dest);
        prop_assert_eq!(got.len(), 1, "victim {:?}", victim);
    }

    /// Garbage packets aimed at live flows never panic the relays and
    /// never corrupt delivered plaintext.
    #[test]
    fn garbage_resistant(seed in any::<u64>(),
                         garbage in proptest::collection::vec(any::<u8>(), 0..200)) {
        let (l, d) = (3usize, 2usize);
        let pseudo = addrs(10_000, d);
        let candidates = addrs(20_000, 12);
        let dest = OverlayAddr(1);
        let mut nodes = candidates.clone();
        nodes.push(dest);
        let (mut source, setup) = SourceSession::establish(
            GraphParams::new(l, d), &pseudo, &candidates, dest, seed,
        ).unwrap();
        let mut net = TestNet::new(&nodes, seed);
        net.submit(setup);
        net.run_to_quiescence(Some(&mut source));
        // Inject garbage directly into every relay.
        let garbage_addr = OverlayAddr(424242);
        let relay_addrs: Vec<OverlayAddr> = net.relays.keys().copied().collect();
        for addr in relay_addrs {
            if let Ok(p) = slicing_wire::Packet::decode(&garbage) {
                let relay = net.relays.get_mut(&addr).unwrap();
                let _ = relay.handle_packet(slicing_core::Tick(5), garbage_addr, &p);
            }
        }
        let (_, sends) = source.send_message(b"clean").expect("within chunk budget");
        net.submit(sends);
        net.run_to_quiescence(Some(&mut source));
        let got = net.messages_for(dest);
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(&got[0].1[..], b"clean");
    }

    /// Replayed data packets are deduplicated: the destination delivers
    /// each sequence number exactly once.
    #[test]
    fn replay_deduplicated(seed in any::<u64>()) {
        let (l, d) = (3usize, 2usize);
        let pseudo = addrs(10_000, d);
        let candidates = addrs(20_000, 12);
        let dest = OverlayAddr(1);
        let mut nodes = candidates.clone();
        nodes.push(dest);
        let (mut source, setup) = SourceSession::establish(
            GraphParams::new(l, d), &pseudo, &candidates, dest, seed,
        ).unwrap();
        let mut net = TestNet::new(&nodes, seed);
        net.submit(setup);
        net.run_to_quiescence(Some(&mut source));
        let (_, sends) = source.send_message(b"once").expect("within chunk budget");
        net.submit(sends.clone());
        net.run_to_quiescence(Some(&mut source));
        // Replay the identical packets.
        net.submit(sends);
        net.run_to_quiescence(Some(&mut source));
        let got = net.messages_for(dest);
        prop_assert_eq!(got.len(), 1, "replay must not double-deliver");
    }

    /// Recode mode with redundancy delivers reliably too (rank collapse
    /// is covered by the extra slice).
    #[test]
    fn recode_with_redundancy_delivers(seed in any::<u64>()) {
        let (l, d, dp) = (4usize, 2usize, 3usize);
        let pseudo = addrs(10_000, dp);
        let candidates = addrs(20_000, l * dp + 6);
        let dest = OverlayAddr(1);
        let mut nodes = candidates.clone();
        nodes.push(dest);
        let params = GraphParams::new(l, d)
            .with_paths(dp)
            .with_data_mode(DataMode::Recode);
        let (mut source, setup) = SourceSession::establish(
            params, &pseudo, &candidates, dest, seed,
        ).unwrap();
        let mut net = TestNet::new(&nodes, seed);
        net.submit(setup);
        net.run_to_quiescence(Some(&mut source));
        let (_, sends) = source.send_message(b"recoded").expect("within chunk budget");
        net.submit(sends);
        net.run_to_quiescence(Some(&mut source));
        let got = net.messages_for(dest);
        prop_assert_eq!(got.len(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `TimerWheel::next_deadline` equals a brute-force minimum over
    /// every pending entry (past-due entries count from the sweep
    /// cursor's bucket start) across random schedule/poll sequences —
    /// past deadlines, deadlines far beyond the horizon, re-armed
    /// (stale) keys and polls that skip whole rotations — and a driver
    /// that wakes at that instant always finds work.
    #[test]
    fn wheel_next_deadline_matches_brute_force(
        granularity in 1u64..60,
        buckets in 1usize..12,
        ops in proptest::collection::vec(any::<u64>(), 1..160),
    ) {
        use slicing_core::wheel::TimerWheel;
        use slicing_core::Tick;
        let mut wheel = TimerWheel::new(granularity, buckets);
        let horizon = granularity * buckets as u64;
        let mut pending: Vec<(u64, u32)> = Vec::new();
        let mut now = 0u64;
        let mut floor = 0u64;
        let mut out = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            let arg = op >> 8;
            if op % 3 != 0 {
                // Schedule: up to 2 horizons in the past or 5 ahead.
                let deadline = (now + arg % (7 * horizon + 1)).saturating_sub(2 * horizon);
                let key = (arg % 8) as u32; // keys repeat: stale entries
                wheel.schedule(Tick(deadline), key);
                pending.push((deadline, key));
            } else {
                // Advance (sometimes by several rotations) and poll.
                now += arg % (3 * horizon + 1);
                out.clear();
                wheel.poll_expired(Tick(now), &mut out);
                floor = now / granularity * granularity;
                let mut fired: Vec<(u64, u32)> = out.iter().map(|&(t, k)| (t.0, k)).collect();
                let mut due: Vec<(u64, u32)> =
                    pending.iter().copied().filter(|&(d, _)| d <= now).collect();
                pending.retain(|&(d, _)| d > now);
                fired.sort_unstable();
                due.sort_unstable();
                prop_assert_eq!(fired, due, "op {}", i);
            }
            let brute = pending.iter().map(|&(d, _)| d.max(floor)).min();
            prop_assert_eq!(wheel.next_deadline().map(|t| t.0), brute, "op {}", i);
            prop_assert_eq!(wheel.len(), pending.len());
            // Waking at the reported instant always delivers something.
            if let Some(at) = brute {
                let mut probe = wheel.clone();
                let mut got = Vec::new();
                probe.poll_expired(Tick(at.max(now)), &mut got);
                prop_assert!(!got.is_empty(), "op {}: empty wake at {}", i, at);
            }
        }
    }
}
