//! A hashed timer wheel over protocol [`Tick`]s.
//!
//! The relay's flow table used to discover expired work by scanning every
//! flow on every 50 ms poll — O(flows) per tick, with a scratch
//! allocation to boot. The wheel inverts that: deadlines are registered
//! once when the work is created (a gather starts, a flow is admitted),
//! and [`poll_expired`](TimerWheel::poll_expired) touches only the
//! buckets the clock has swept past since the previous poll. A poll that
//! finds nothing due does no allocation and never looks at a live flow.
//! [`next_deadline`](TimerWheel::next_deadline) says exactly when the
//! next poll has work, so drivers sleep until then instead of ticking.
//!
//! Design notes:
//!
//! * **Hashed, not hierarchical**: a deadline lands in bucket
//!   `(deadline / granularity) % buckets`. Entries whose deadline lies
//!   beyond the wheel's horizon simply stay in their bucket across
//!   rotations and are re-examined once per rotation — a deliberate
//!   trade: `O(1)` insert, no cascade step, and the occasional re-check
//!   costs one comparison.
//! * **Exact firing at the boundary**: the bucket the current time falls
//!   into is swept *partially* (entries due now fire, the rest stay) and
//!   re-swept on the next poll, so a deadline fires on the first poll
//!   with `now >= deadline` — never early, never a bucket late.
//! * **Lazy cancellation**: there are no timer handles. Callers
//!   re-validate when an entry fires (is the gather still unflushed? is
//!   the flow actually idle?) and either act or re-arm. Stale entries
//!   cost one match arm each.

use crate::time::Tick;

/// A hashed timer wheel mapping deadlines to caller-defined keys.
#[derive(Clone, Debug)]
pub struct TimerWheel<K> {
    /// Bucket width in milliseconds.
    granularity_ms: u64,
    /// The buckets; each holds `(deadline, key)` pairs in arbitrary order.
    buckets: Vec<Vec<(Tick, K)>>,
    /// The next bucket-time (in `granularity_ms` units) to sweep; only
    /// ever advances.
    cursor: u64,
    /// Live entries across all buckets.
    len: usize,
}

impl<K> TimerWheel<K> {
    /// A wheel with the given bucket width and count (horizon =
    /// `granularity_ms × buckets`).
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(granularity_ms: u64, buckets: usize) -> Self {
        assert!(granularity_ms > 0, "zero granularity");
        assert!(buckets > 0, "zero buckets");
        TimerWheel {
            granularity_ms,
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            cursor: 0,
            len: 0,
        }
    }

    /// Number of pending entries (including stale ones not yet fired).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Register `key` to fire once `now >= deadline`.
    ///
    /// Deadlines already in the past are delivered on the next poll.
    pub fn schedule(&mut self, deadline: Tick, key: K) {
        // A deadline whose natural bucket the cursor has already swept
        // would wait a full rotation; clamp it to the cursor's bucket so
        // the next poll delivers it.
        let bucket_time = (deadline.0 / self.granularity_ms).max(self.cursor);
        let idx = (bucket_time % self.buckets.len() as u64) as usize;
        self.buckets[idx].push((deadline, key));
        self.len += 1;
    }

    /// The earliest instant a [`poll_expired`](TimerWheel::poll_expired)
    /// would deliver something, exactly: the minimum over every pending
    /// entry (stale ones included — the wheel cannot tell) of its
    /// deadline, with entries already behind the sweep reported at the
    /// cursor's bucket start, the earliest time the next poll can run.
    /// `None` when the wheel is empty.
    ///
    /// Drivers sleep until this instant instead of polling on a fixed
    /// tick, so the bucket width is a bookkeeping granularity, not a
    /// latency floor. Cost: the buckets from the cursor up to the first
    /// one holding an entry due this rotation, plus their entries; only
    /// a wheel whose every entry lies beyond the horizon is scanned in
    /// full.
    pub fn next_deadline(&self) -> Option<Tick> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len() as u64;
        let floor = self.cursor * self.granularity_ms;
        // Earliest entry seen so far that lies beyond this rotation.
        let mut later: Option<u64> = None;
        for bucket_time in self.cursor..self.cursor + n {
            let mut here: Option<u64> = None;
            for &(deadline, _) in &self.buckets[(bucket_time % n) as usize] {
                let due = deadline.0.max(floor);
                let slot = if due / self.granularity_ms == bucket_time {
                    &mut here
                } else {
                    &mut later
                };
                *slot = Some(slot.map_or(due, |t| t.min(due)));
            }
            // Every entry in a later bucket of this rotation, and every
            // entry beyond it, is due at a later bucket-time.
            if let Some(t) = here {
                return Some(Tick(t));
            }
        }
        later.map(Tick)
    }

    /// Pop every entry with `deadline <= now` into `out` (appending, in
    /// bucket-sweep order), advancing the cursor. Reuses `out`'s capacity
    /// — an idle poll allocates nothing.
    ///
    /// Cost is `O(buckets swept + entries fired)`, and a catch-up after
    /// any gap is capped at one sweep of every bucket: a gap of ≥ one
    /// rotation visits each bucket exactly once rather than once per
    /// elapsed bucket-time (a suspended daemon or a simulator jumping
    /// virtual time hours ahead must not spin).
    pub fn poll_expired(&mut self, now: Tick, out: &mut Vec<(Tick, K)>) {
        // Re-arm monotonicity: the cursor never moves backwards, so a
        // deadline re-armed by a fired entry lands at or ahead of the
        // sweep (never in a bucket the sweep silently skipped).
        let swept_from = self.cursor;
        let now_bucket = now.0 / self.granularity_ms;
        let n = self.buckets.len() as u64;
        if now_bucket > self.cursor && now_bucket - self.cursor >= n {
            // Long gap: one full rotation covers every entry once.
            for bucket in &mut self.buckets {
                let mut i = 0;
                while i < bucket.len() {
                    if bucket[i].0 .0 <= now.0 {
                        out.push(bucket.swap_remove(i));
                        self.len -= 1;
                    } else {
                        i += 1;
                    }
                }
            }
            self.cursor = now_bucket;
            debug_assert!(self.cursor >= swept_from, "wheel cursor moved backwards");
            return;
        }
        while self.cursor <= now_bucket {
            let idx = (self.cursor % self.buckets.len() as u64) as usize;
            let bucket = &mut self.buckets[idx];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].0 .0 <= now.0 {
                    out.push(bucket.swap_remove(i));
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
            if self.cursor == now_bucket {
                // The current bucket is only partially elapsed: entries
                // due later this bucket stay, and the cursor stays so the
                // next poll re-sweeps it.
                break;
            }
            self.cursor += 1;
        }
        debug_assert!(self.cursor >= swept_from, "wheel cursor moved backwards");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        w.poll_expired(Tick(now), &mut out);
        let mut keys: Vec<u32> = out.into_iter().map(|(_, k)| k).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn fires_exactly_at_deadline() {
        let mut w = TimerWheel::new(50, 64);
        w.schedule(Tick(1_234), 1);
        assert!(drain(&mut w, 1_233).is_empty(), "must not fire early");
        assert_eq!(drain(&mut w, 1_234), vec![1], "must fire at the boundary");
        assert!(w.is_empty());
    }

    #[test]
    fn deadline_on_bucket_boundary() {
        let mut w = TimerWheel::new(50, 64);
        w.schedule(Tick(100), 7); // exactly the start of a bucket
        assert!(drain(&mut w, 99).is_empty());
        assert_eq!(drain(&mut w, 100), vec![7]);
    }

    #[test]
    fn past_deadline_fires_on_next_poll() {
        let mut w = TimerWheel::new(50, 64);
        let mut out = Vec::new();
        w.poll_expired(Tick(10_000), &mut out); // advance cursor
        w.schedule(Tick(3), 9); // long past; natural bucket already swept
        assert_eq!(drain(&mut w, 10_000), vec![9]);
    }

    #[test]
    fn beyond_horizon_survives_rotation() {
        // Horizon = 50 ms × 8 buckets = 400 ms; a 1-second deadline wraps
        // twice and still fires exactly once, at the right time.
        let mut w = TimerWheel::new(50, 8);
        w.schedule(Tick(1_000), 3);
        for now in (0..1_000).step_by(40) {
            assert!(drain(&mut w, now).is_empty(), "fired early at {now}");
        }
        assert_eq!(drain(&mut w, 1_000), vec![3]);
    }

    #[test]
    fn skipped_polls_deliver_everything() {
        let mut w = TimerWheel::new(50, 16);
        for k in 0..100u32 {
            w.schedule(Tick(k as u64 * 37), k);
        }
        assert_eq!(w.len(), 100);
        // One giant jump collects all of them.
        let fired = drain(&mut w, 100 * 37);
        assert_eq!(fired, (0..100).collect::<Vec<_>>());
        assert!(w.is_empty());
    }

    #[test]
    fn partial_bucket_is_reswept() {
        let mut w = TimerWheel::new(50, 64);
        w.schedule(Tick(120), 1);
        w.schedule(Tick(140), 2);
        assert_eq!(drain(&mut w, 125), vec![1]); // same bucket, only #1 due
        assert_eq!(drain(&mut w, 140), vec![2]); // re-swept, #2 fires
    }

    #[test]
    fn giant_time_jump_is_one_rotation_not_a_spin() {
        // A day-long gap must complete instantly (one bucket sweep) and
        // still fire everything due while keeping future entries.
        let mut w = TimerWheel::new(50, 64);
        w.schedule(Tick(500), 1);
        let day = 24 * 3600 * 1000;
        w.schedule(Tick(day + 10_000), 2);
        assert_eq!(drain(&mut w, day), vec![1]);
        assert_eq!(w.len(), 1);
        // The wheel keeps working after the jump: exact firing resumes.
        assert!(drain(&mut w, day + 9_999).is_empty());
        assert_eq!(drain(&mut w, day + 10_000), vec![2]);
    }

    #[test]
    fn next_deadline_is_the_earliest_entry() {
        let mut w = TimerWheel::new(50, 64);
        assert_eq!(w.next_deadline(), None);
        w.schedule(Tick(730), 1);
        w.schedule(Tick(120), 2);
        w.schedule(Tick(140), 3);
        assert_eq!(w.next_deadline(), Some(Tick(120)));
        assert_eq!(drain(&mut w, 125), vec![2]);
        assert_eq!(w.next_deadline(), Some(Tick(140)), "partial bucket");
        assert_eq!(drain(&mut w, 140), vec![3]);
        assert_eq!(w.next_deadline(), Some(Tick(730)));
        assert_eq!(drain(&mut w, 730), vec![1]);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn next_deadline_clamps_past_due_entries_to_the_cursor() {
        let mut w = TimerWheel::new(50, 64);
        let mut out = Vec::new();
        w.poll_expired(Tick(10_020), &mut out); // cursor bucket starts at 10_000
        w.schedule(Tick(10_400), 1);
        w.schedule(Tick(3), 2); // long past: the next poll delivers it
        assert_eq!(w.next_deadline(), Some(Tick(10_000)));
        assert_eq!(drain(&mut w, 10_020), vec![2]);
        assert_eq!(w.next_deadline(), Some(Tick(10_400)));
    }

    #[test]
    fn next_deadline_sees_entries_beyond_the_horizon() {
        // Horizon = 50 ms × 256 buckets = 12.8 s.
        let mut w = TimerWheel::new(50, 256);
        w.schedule(Tick(60_000), 1);
        w.schedule(Tick(40_010), 2);
        assert_eq!(w.next_deadline(), Some(Tick(40_010)));
        // An in-horizon entry in a later bucket beats a beyond-horizon
        // entry sharing an earlier bucket index.
        w.schedule(Tick(40_010 - 12_800 * 3 + 50), 3); // bucket after #2's
        assert_eq!(w.next_deadline(), Some(Tick(1_660)));
        assert_eq!(drain(&mut w, 1_660), vec![3]);
        assert_eq!(w.next_deadline(), Some(Tick(40_010)));
    }

    #[test]
    fn next_deadline_counts_stale_entries_until_they_fire() {
        // Lazy cancellation: a superseded entry still bounds the next
        // wake (one spurious, harmless wake), then vanishes.
        let mut w = TimerWheel::new(50, 64);
        w.schedule(Tick(200), 7); // later re-armed…
        w.schedule(Tick(500), 7); // …to here; the 200 entry is stale
        assert_eq!(w.next_deadline(), Some(Tick(200)));
        assert_eq!(drain(&mut w, 200), vec![7]); // caller re-validates
        assert_eq!(w.next_deadline(), Some(Tick(500)));
    }

    #[test]
    fn idle_poll_allocates_nothing() {
        let mut w: TimerWheel<u32> = TimerWheel::new(50, 64);
        w.schedule(Tick(1_000_000), 5);
        let mut out: Vec<(Tick, u32)> = Vec::new();
        w.poll_expired(Tick(500), &mut out);
        assert!(out.is_empty());
        assert_eq!(out.capacity(), 0, "idle poll must not allocate");
    }
}
