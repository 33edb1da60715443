//! A deterministic simulation of an unreliable datagram link.
//!
//! Messages are sent at a tick and delivered at a later tick; in
//! between, the configured faults apply: the link may drop a message,
//! deliver it twice, corrupt a copy in flight, hold it for extra ticks,
//! or scramble the arrival order within a tick. All randomness comes
//! from one seeded [`StdRng`], so the full fault schedule — which
//! messages die, which arrive mangled, and when — replays exactly from
//! `(FaultConfig, seed)`.

use std::collections::BTreeMap;

use lppa_rng::rngs::StdRng;
use lppa_rng::seq::SliceRandom;
use lppa_rng::{Rng, SeedableRng};

use crate::fault::FaultConfig;

/// Counters describing what the link did to the traffic it carried.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages handed to [`SimTransport::send`].
    pub sent: u64,
    /// Copies handed back by [`SimTransport::deliver`].
    pub delivered: u64,
    /// Messages silently lost.
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Copies mutated in flight.
    pub corrupted: u64,
    /// Copies held beyond the minimum one-tick latency.
    pub delayed: u64,
}

/// The simulated link. `T` is the wire message type; corruption is
/// modelled by a caller-supplied mutator because only the caller knows
/// the message structure.
#[derive(Clone, Debug)]
pub struct SimTransport<T> {
    config: FaultConfig,
    rng: StdRng,
    /// Arrival tick → queued copies, keyed for deterministic iteration.
    /// Each copy keeps its global send sequence so in-order delivery is
    /// well defined when `reorder` is off.
    inflight: BTreeMap<u64, Vec<(u64, T)>>,
    next_seq: u64,
    /// Link counters, updated by `send`/`deliver`.
    pub stats: TransportStats,
}

impl<T: Clone> SimTransport<T> {
    /// A link with the given fault profile, seeded for replay.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        Self {
            config,
            rng: StdRng::seed_from_u64(seed),
            inflight: BTreeMap::new(),
            next_seq: 0,
            stats: TransportStats::default(),
        }
    }

    /// Sends `msg` at tick `now`. Surviving copies arrive at
    /// `now + 1 + extra` where `extra` is the sampled delay; corrupted
    /// copies are mutated through `corrupt` with the link's own RNG so
    /// damage is part of the replayable schedule.
    pub fn send<F>(&mut self, now: u64, msg: T, mut corrupt: F)
    where
        F: FnMut(&mut T, &mut StdRng),
    {
        self.stats.sent += 1;
        if self.rng.gen_bool(self.config.drop) {
            self.stats.dropped += 1;
            return;
        }
        let copies = if self.rng.gen_bool(self.config.duplicate) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let extra = if self.config.max_delay > 0 && self.rng.gen_bool(self.config.delay) {
                self.stats.delayed += 1;
                self.rng.gen_range(1..=self.config.max_delay)
            } else {
                0
            };
            let mut copy = msg.clone();
            if self.rng.gen_bool(self.config.corrupt) {
                self.stats.corrupted += 1;
                corrupt(&mut copy, &mut self.rng);
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.inflight.entry(now + 1 + extra).or_default().push((seq, copy));
        }
    }

    /// Returns every copy arriving at `tick`. In-order links deliver by
    /// send sequence; reordering links shuffle the tick's batch with the
    /// seeded RNG.
    pub fn deliver(&mut self, tick: u64) -> Vec<T> {
        let Some(mut batch) = self.inflight.remove(&tick) else {
            return Vec::new();
        };
        if self.config.reorder {
            batch.shuffle(&mut self.rng);
        } else {
            batch.sort_by_key(|(seq, _)| *seq);
        }
        self.stats.delivered += batch.len() as u64;
        batch.into_iter().map(|(_, msg)| msg).collect()
    }

    /// Copies still in flight (sent, not yet delivered or expired).
    pub fn pending(&self) -> usize {
        self.inflight.values().map(Vec::len).sum()
    }

    /// Drops everything still in flight — the link at the end of a
    /// phase, where stragglers can no longer matter.
    pub fn flush(&mut self) {
        let lost: usize = self.pending();
        self.stats.dropped += lost as u64;
        self.inflight.clear();
    }
}

/// A transport that moves opaque encoded frames. `SimTransport<Vec<u8>>`
/// is its one implementation: the socket auctioneer in `lppa-net` runs
/// every frame it receives through one as its seeded chaos ingress, so
/// the collect engine downstream sees the simulated round's schedule.
///
/// Ticks are the session clock: a frame sent at `now` becomes eligible
/// for delivery at `now + 1` at the earliest. Implementations own their
/// fault model (simulated chaos or genuine network weather) and report
/// it through [`FrameTransport::frame_stats`].
pub trait FrameTransport {
    /// Sends one encoded frame at tick `now`.
    fn send_frame(&mut self, now: u64, frame: Vec<u8>);

    /// Every frame arriving at tick `now`, in the link's delivery order.
    fn poll_frames(&mut self, now: u64) -> Vec<Vec<u8>>;

    /// Discards frames still in flight — end of phase, stragglers can no
    /// longer matter.
    fn flush_frames(&mut self);

    /// Link counters.
    fn frame_stats(&self) -> TransportStats;
}

/// The simulated link carrying raw frames: chaos corruption flips one
/// random byte via [`crate::chaos::corrupt_frame`].
impl FrameTransport for SimTransport<Vec<u8>> {
    fn send_frame(&mut self, now: u64, frame: Vec<u8>) {
        self.send(now, frame, |bytes, rng| crate::chaos::corrupt_frame(bytes, rng));
    }

    fn poll_frames(&mut self, now: u64) -> Vec<Vec<u8>> {
        self.deliver(now)
    }

    fn flush_frames(&mut self) {
        self.flush();
    }

    fn frame_stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_corrupt(_: &mut u32, _: &mut StdRng) {}

    #[test]
    fn reliable_link_delivers_everything_next_tick_in_order() {
        let mut link = SimTransport::new(FaultConfig::none(), 1);
        for i in 0..10u32 {
            link.send(0, i, no_corrupt);
        }
        assert_eq!(link.deliver(1), (0..10).collect::<Vec<_>>());
        assert_eq!(link.stats.delivered, 10);
        assert_eq!(link.stats.dropped, 0);
        assert_eq!(link.pending(), 0);
    }

    #[test]
    fn chaotic_link_replays_identically_from_the_same_seed() {
        let run = |seed: u64| {
            let mut link = SimTransport::new(FaultConfig::chaotic(), seed);
            let mut got = Vec::new();
            for tick in 0..20u64 {
                if tick < 10 {
                    link.send(tick, tick as u32, |m, rng| *m ^= rng.gen_range(1..=u32::MAX));
                }
                got.extend(link.deliver(tick));
            }
            (got, link.stats)
        };
        let (a, stats_a) = run(7);
        let (b, stats_b) = run(7);
        assert_eq!(a, b);
        assert_eq!(stats_a, stats_b);
        let (c, _) = run(8);
        assert_ne!(a, c, "different seeds should (overwhelmingly) differ");
    }

    #[test]
    fn drop_rate_one_loses_everything() {
        let cfg = FaultConfig { drop: 1.0, ..FaultConfig::none() };
        let mut link = SimTransport::new(cfg, 3);
        for i in 0..5u32 {
            link.send(0, i, no_corrupt);
        }
        assert!(link.deliver(1).is_empty());
        assert_eq!(link.stats.dropped, 5);
    }

    #[test]
    fn duplicate_rate_one_doubles_everything() {
        let cfg = FaultConfig { duplicate: 1.0, ..FaultConfig::none() };
        let mut link = SimTransport::new(cfg, 4);
        link.send(0, 9u32, no_corrupt);
        assert_eq!(link.deliver(1), vec![9, 9]);
        assert_eq!(link.stats.duplicated, 1);
    }

    #[test]
    fn corruption_runs_the_mutator() {
        let cfg = FaultConfig { corrupt: 1.0, ..FaultConfig::none() };
        let mut link = SimTransport::new(cfg, 5);
        link.send(0, 1u32, |m, _| *m = 999);
        assert_eq!(link.deliver(1), vec![999]);
        assert_eq!(link.stats.corrupted, 1);
    }

    #[test]
    fn delayed_copies_arrive_later_and_flush_counts_stragglers() {
        let cfg = FaultConfig { delay: 1.0, max_delay: 4, ..FaultConfig::none() };
        let mut link = SimTransport::new(cfg, 6);
        for i in 0..8u32 {
            link.send(0, i, no_corrupt);
        }
        // Nothing arrives at tick 1 unless the sampled extra delay was 1.
        let mut seen = 0;
        for tick in 1..=5 {
            seen += link.deliver(tick).len();
        }
        assert_eq!(seen, 8, "all copies arrive within 1 + max_delay ticks");
        link.send(10, 42, no_corrupt);
        link.flush();
        assert_eq!(link.pending(), 0);
        assert_eq!(link.stats.dropped, 1, "flushed straggler counts as dropped");
    }
}
