//! The one transfer result every transport layer returns.
//!
//! The stats zoo this replaces grew one struct per call path: plain
//! transfers returned a bare [`Time`], backpressured ones a
//! `RouteTransferStats`, reliable sends a `Delivery` — and every caller
//! that wanted end-to-end accounting had to stitch them together by
//! hand. [`TransferOutcome`] is the union: finish times, byte counts,
//! per-segment stop-wire stalls, and the fault/retry story of the
//! self-healing loop, in one comparable value returned by
//! [`crate::network::Connection::transfer`]/[`transfer_backpressured`](crate::network::Connection::transfer_backpressured)
//! on crossbar routes and mesh routes alike, and carried by every delivered
//! [`crate::routesim::WormOutcome`] of
//! [`crate::routesim::RouteSim::run_resilient`].
//!
//! Layers fill in what they know and leave the rest at the documented
//! defaults: a plain crossbar transfer has one attempt and no stalls;
//! a resilient run adds attempts/faults on top of its final successful
//! transmission.

use crate::stopwire::StopWireStats;
use pm_sim::metrics::{MetricId, MetricRegistry};
use pm_sim::time::Time;

/// What one transfer did, across every layer that touched it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferOutcome {
    /// When the last payload byte completed at the destination.
    pub finished: Time,
    /// When the worm's tail left the source link: the source NI is free
    /// from here on even though bytes may still sit in downstream
    /// FIFOs. Equal to `finished` minus the head latency for
    /// unobstructed streams.
    pub source_released: Time,
    /// Payload bytes the caller asked to move (resilient runs: payload
    /// delivered intact, excluding retransmitted copies).
    pub bytes: u64,
    /// Total *stop* assertions over every route segment.
    pub stop_transitions: u64,
    /// Link ticks the source sat gated while it still had bytes. The
    /// link is byte-clocked, so each stalled tick is exactly one byte
    /// slot the stream lost — see [`TransferOutcome::stalled_bytes`].
    pub stalled_ticks: u64,
    /// Per-segment stop-wire statistics in route order (empty for
    /// transfers that ran without flow control).
    pub per_segment: Vec<StopWireStats>,
    /// The network plane that carried the (final) transfer.
    pub plane: u32,
    /// Wire transmissions used, first attempt included. Plain
    /// transfers are always 1.
    pub attempts: u32,
    /// Attempts lost to CRC failures at the receiver.
    pub crc_failures: u32,
    /// Attempts severed mid-flight by a link death.
    pub severed: u32,
    /// Whether the preferred plane was abandoned for the other one.
    pub failed_over: bool,
    /// Whether the carrying route detoured around a dead link within
    /// its plane.
    pub rerouted: bool,
    /// The verified CRC-16 of the delivered message. Always `None`: no
    /// transport carries payload contents. pmbench's route digest still
    /// hashes it, so it goes with the next change to the benchmark.
    pub crc: Option<u16>,
}

impl TransferOutcome {
    /// An unobstructed stream on `plane`: one attempt, no stalls, no
    /// faults. The building block the richer constructors extend.
    pub fn streamed(finished: Time, source_released: Time, bytes: u64, plane: u32) -> Self {
        TransferOutcome {
            finished,
            source_released,
            bytes,
            stop_transitions: 0,
            stalled_ticks: 0,
            per_segment: Vec::new(),
            plane,
            attempts: 1,
            crc_failures: 0,
            severed: 0,
            failed_over: false,
            rerouted: false,
            crc: None,
        }
    }

    /// Stalled link ticks expressed as the byte slots they cost: the
    /// link moves one byte per tick, so the two are numerically equal.
    /// This is the quantity the registry reconciliation pins against
    /// the `*/stalled_bytes` counter.
    pub fn stalled_bytes(&self) -> u64 {
        self.stalled_ticks
    }

    /// Publishes this outcome's counters into `reg` under `prefix`:
    /// `{prefix}/transfers`, `{prefix}/bytes`, `{prefix}/stalled_bytes`,
    /// `{prefix}/stop_transitions`, `{prefix}/attempts`,
    /// `{prefix}/crc_failures`, `{prefix}/severed`,
    /// `{prefix}/failovers`, `{prefix}/reroutes`, plus a
    /// `{prefix}/transfer_bytes` size histogram and a
    /// `{prefix}/segment_max_occupancy` FIFO-depth histogram.
    ///
    /// This is the convenience form: it re-resolves every path through
    /// the registry's string index on each call. Hot paths that publish
    /// per message should allocate an [`OutcomeHandles`] once and use
    /// [`publish_to`](Self::publish_to) instead.
    pub fn publish(&self, reg: &mut MetricRegistry, prefix: &str) {
        let handles = OutcomeHandles::new(reg, prefix);
        self.publish_to(reg, &handles);
    }

    /// Publishes this outcome through preallocated `handles`: pure
    /// dense-index counter adds and histogram records, no path
    /// formatting and no `BTreeMap` walks. This is the per-message hot
    /// path of the traffic engine; `tests/bench_guard.rs` bounds its
    /// cost.
    pub fn publish_to(&self, reg: &mut MetricRegistry, handles: &OutcomeHandles) {
        reg.add(handles.transfers, 1);
        reg.add(handles.bytes, self.bytes);
        reg.add(handles.stalled_bytes, self.stalled_bytes());
        reg.add(handles.stop_transitions, self.stop_transitions);
        reg.add(handles.attempts, u64::from(self.attempts));
        reg.add(handles.crc_failures, u64::from(self.crc_failures));
        reg.add(handles.severed, u64::from(self.severed));
        reg.add(handles.failovers, u64::from(self.failed_over));
        reg.add(handles.reroutes, u64::from(self.rerouted));
        reg.record(handles.transfer_bytes, self.bytes);
        for seg in &self.per_segment {
            reg.record(handles.segment_max_occupancy, u64::from(seg.max_occupancy));
        }
    }
}

/// Preallocated registry handles for every path
/// [`TransferOutcome::publish`] writes, resolved once at scenario
/// setup so the per-message publish is a handful of `Vec` index
/// updates. Registration is idempotent: constructing handles over an
/// existing prefix reuses the metrics already there.
#[derive(Clone, Copy, Debug)]
pub struct OutcomeHandles {
    transfers: MetricId,
    bytes: MetricId,
    stalled_bytes: MetricId,
    stop_transitions: MetricId,
    attempts: MetricId,
    crc_failures: MetricId,
    severed: MetricId,
    failovers: MetricId,
    reroutes: MetricId,
    transfer_bytes: MetricId,
    segment_max_occupancy: MetricId,
}

impl OutcomeHandles {
    /// Registers (or finds) the full outcome metric family under
    /// `prefix` and returns the dense handles.
    pub fn new(reg: &mut MetricRegistry, prefix: &str) -> Self {
        OutcomeHandles {
            transfers: reg.counter(&format!("{prefix}/transfers")),
            bytes: reg.counter(&format!("{prefix}/bytes")),
            stalled_bytes: reg.counter(&format!("{prefix}/stalled_bytes")),
            stop_transitions: reg.counter(&format!("{prefix}/stop_transitions")),
            attempts: reg.counter(&format!("{prefix}/attempts")),
            crc_failures: reg.counter(&format!("{prefix}/crc_failures")),
            severed: reg.counter(&format!("{prefix}/severed")),
            failovers: reg.counter(&format!("{prefix}/failovers")),
            reroutes: reg.counter(&format!("{prefix}/reroutes")),
            transfer_bytes: reg.histogram(&format!("{prefix}/transfer_bytes")),
            segment_max_occupancy: reg.histogram(&format!("{prefix}/segment_max_occupancy")),
        }
    }
}

/// The finish time is the value most callers historically consumed;
/// `Time::from(outcome)` keeps timing-only code terse.
impl From<TransferOutcome> for Time {
    fn from(o: TransferOutcome) -> Time {
        o.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_outcome_has_plain_defaults() {
        let o = TransferOutcome::streamed(Time::from_ps(900), Time::from_ps(700), 64, 1);
        assert_eq!(o.attempts, 1);
        assert_eq!(o.stalled_bytes(), 0);
        assert_eq!(o.per_segment.len(), 0);
        assert_eq!(o.plane, 1);
        assert_eq!(o.crc, None);
        assert!(!o.failed_over && !o.rerouted);
        assert_eq!(Time::from(o), Time::from_ps(900));
    }

    #[test]
    fn publish_to_matches_publish_byte_for_byte() {
        let mut o = TransferOutcome::streamed(Time::from_ps(900), Time::from_ps(700), 64, 0);
        o.stalled_ticks = 5;
        o.stop_transitions = 2;
        o.attempts = 3;
        o.crc_failures = 1;
        o.rerouted = true;

        let mut by_path = MetricRegistry::new();
        let mut by_handle = MetricRegistry::new();
        let handles = OutcomeHandles::new(&mut by_handle, "net");
        for _ in 0..7 {
            o.publish(&mut by_path, "net");
            o.publish_to(&mut by_handle, &handles);
        }
        assert_eq!(by_path.to_csv(), by_handle.to_csv());
    }

    #[test]
    fn publish_writes_the_documented_paths() {
        let mut reg = MetricRegistry::new();
        let mut o = TransferOutcome::streamed(Time::from_ps(900), Time::from_ps(700), 64, 0);
        o.stalled_ticks = 5;
        o.stop_transitions = 2;
        o.failed_over = true;
        o.publish(&mut reg, "net/pair0");
        o.publish(&mut reg, "net/pair0");
        assert_eq!(reg.counter_value("net/pair0/transfers"), Some(2));
        assert_eq!(reg.counter_value("net/pair0/bytes"), Some(128));
        assert_eq!(reg.counter_value("net/pair0/stalled_bytes"), Some(10));
        assert_eq!(reg.counter_value("net/pair0/failovers"), Some(2));
        assert_eq!(reg.counter_value("net/pair0/reroutes"), Some(0));
    }
}
