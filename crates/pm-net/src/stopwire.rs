//! The per-link *stop* wire: soft flow control on a crossbar output.
//!
//! §3.2 of the paper: every byte-parallel link carries a *stop* signal
//! back towards the sender. When a receiver's input FIFO (32 x 64-bit
//! words on the network interface) fills past a threshold it asserts
//! *stop*; the sender, which samples the wire on every byte clock,
//! pauses after the bytes already in flight and resumes once the wire
//! deasserts. Flow control is lossless: the assert threshold leaves
//! enough headroom for the in-flight bytes, so the FIFO never overflows
//! and no byte is ever dropped.
//!
//! The model works in discrete **link ticks** (one byte time each, both
//! sides clock-synchronous at 60 MHz, as the backplane links are). One
//! stream = one worm's bytes crossing one output port whose downstream
//! side is blocked during externally-imposed *stall windows*. Per tick:
//!
//! 1. the sender, if it still has bytes and observed *stop* deasserted
//!    [`StopWireConfig::stop_lag`] + 1 ticks ago, pushes one byte into
//!    the FIFO;
//! 2. the downstream side, unless stalled this tick, pops one byte;
//! 3. the receiver re-evaluates the wire: assert at occupancy >=
//!    [`StopWireConfig::stop_threshold`], deassert at <=
//!    [`StopWireConfig::resume_threshold`] (hysteresis), hold otherwise.
//!
//! One engine computes this, [`stream_batched`]: between state changes
//! the fill and drain rates are constant, so the occupancy trajectory is
//! piecewise linear and every threshold crossing, gate flip, stall
//! boundary and exhaustion point can be computed in closed form. Cost
//! is proportional to the number of stop/resume *transitions*, not to
//! the number of bytes. [`stream_per_flit`] is its reference: it
//! literally executes every tick, which is the paper's per-byte
//! semantics, and `tests/parity.rs` pins the two to each other
//! byte-for-byte. Whole routes chain batched streams in
//! [`stream_route`], whose reference is the joint tick-by-tick
//! simulation of every FIFO in `tests/properties.rs`.

use pm_sim::rng::SimRng;

/// A stall schedule: sorted, disjoint, half-open `[start, end)` windows
/// of absolute link ticks during which a downstream consumer cannot
/// accept bytes. Shared by the stop-wire engines, the per-destination
/// schedules of [`crate::routesim::Backpressure`] and the route-level
/// composition in [`stream_route`].
pub type StallWindows = Vec<(u64, u64)>;

/// Geometry and thresholds of one receiver FIFO + stop wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StopWireConfig {
    /// Receiver FIFO capacity in bytes. The PowerMANNA network interface
    /// FIFO is 32 x 64-bit words = 256 bytes.
    pub fifo_bytes: u32,
    /// Assert *stop* when end-of-tick occupancy reaches this.
    pub stop_threshold: u32,
    /// Deassert *stop* when end-of-tick occupancy falls back to this.
    pub resume_threshold: u32,
    /// Extra ticks before the sender observes a wire transition (wire
    /// flight time plus transceiver registers), on top of the one-tick
    /// sampling delay every synchronous sender has.
    pub stop_lag: u32,
}

impl StopWireConfig {
    /// The PowerMANNA backplane link: 256-byte (32-word) FIFO, stop at
    /// 7/8 full, resume at half, a few ticks of wire lag.
    pub fn powermanna() -> Self {
        StopWireConfig {
            fifo_bytes: 256,
            stop_threshold: 224,
            resume_threshold: 128,
            stop_lag: 4,
        }
    }

    /// Worst-case bytes the FIFO must absorb after asserting *stop*:
    /// one per tick of observation delay, plus the asserting byte.
    pub fn headroom_needed(&self) -> u32 {
        self.stop_threshold + self.stop_lag + 1
    }

    /// Panics unless the configuration is lossless and makes sense:
    /// resume below stop, and stop early enough that the in-flight
    /// bytes fit ([`Self::headroom_needed`] within the FIFO).
    pub fn validate(&self) {
        assert!(
            self.resume_threshold < self.stop_threshold,
            "resume threshold must sit below the stop threshold"
        );
        assert!(
            self.headroom_needed() <= self.fifo_bytes,
            "stop threshold {} + lag {} leaves no headroom in a {}-byte FIFO",
            self.stop_threshold,
            self.stop_lag,
            self.fifo_bytes
        );
    }
}

/// What one stream did, in link ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StopWireStats {
    /// Bytes delivered downstream (always equals the bytes offered —
    /// the flow control is lossless).
    pub delivered: u64,
    /// Absolute tick of the last delivered byte.
    pub finish_tick: u64,
    /// Number of *stop* assertions (false -> true transitions).
    pub stop_transitions: u64,
    /// Ticks the sender sat gated by *stop* while it still had bytes.
    pub stalled_ticks: u64,
    /// Peak end-of-tick FIFO occupancy in bytes.
    pub max_occupancy: u32,
}

/// Like [`stream_batched`], but also returns the *gate windows*: the
/// tick intervals during which the sender still had bytes to offer but
/// sat gated by *stop*. The total width of the windows equals
/// [`StopWireStats::stalled_ticks`]. When this stream models one route
/// segment, its gate windows are exactly the ticks its sender refuses
/// to pop the upstream FIFO — i.e. the stall schedule the *upstream*
/// segment's drain experiences. [`stream_route`] chains them hop by hop.
fn stream_gates(
    config: StopWireConfig,
    start_tick: u64,
    bytes: u64,
    stalls: &[(u64, u64)],
) -> (StopWireStats, StallWindows) {
    let mut gates = StallWindows::new();
    let stats = batched_impl(config, start_tick, bytes, stalls, Some(&mut gates));
    (stats, gates)
}

/// Appends `[k, k + len)` to a gate-window list, merging with the last
/// window when adjacent so the list stays sorted and disjoint.
fn push_gate_window(gates: &mut StallWindows, k: u64, len: u64) {
    match gates.last_mut() {
        Some(last) if last.1 == k => last.1 = k + len,
        _ => gates.push((k, k + len)),
    }
}

fn assert_windows_sorted(stalls: &[(u64, u64)]) {
    for w in stalls.windows(2) {
        assert!(
            w[0].1 <= w[1].0,
            "stall windows must be sorted and disjoint: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    for &(s, e) in stalls {
        assert!(s < e, "empty stall window [{s}, {e})");
    }
}

/// Tick-by-tick reference engine; see the module docs for the tick
/// semantics. Cost is one iteration per link tick of the stream's
/// lifetime, which is what the batched engine exists to avoid.
pub fn stream_per_flit(
    config: StopWireConfig,
    start_tick: u64,
    bytes: u64,
    stalls: &[(u64, u64)],
) -> StopWireStats {
    config.validate();
    assert_windows_sorted(stalls);
    let mut stats = StopWireStats {
        finish_tick: start_tick,
        ..StopWireStats::default()
    };
    if bytes == 0 {
        return stats;
    }

    // The sender observes the wire state of `lag + 1` ticks ago; keep
    // that many end-of-tick states in a ring. Slot k % len holds the
    // state of tick k - len, which is exactly the tick the sender sees
    // at tick k — read before overwrite.
    let lag = config.stop_lag as usize + 1;
    let mut ring = vec![false; lag];
    let mut occ: u32 = 0;
    let mut sent: u64 = 0;
    let mut stop = false;
    let mut window = 0usize;

    let mut k = start_tick;
    while stats.delivered < bytes {
        // (1) Sender.
        let gate = ring[(k as usize) % lag];
        if sent < bytes {
            if gate {
                stats.stalled_ticks += 1;
            } else {
                occ += 1;
                sent += 1;
            }
        }
        // (2) Downstream drain, unless stalled this tick.
        while window < stalls.len() && stalls[window].1 <= k {
            window += 1;
        }
        let stalled = window < stalls.len() && stalls[window].0 <= k && k < stalls[window].1;
        if !stalled && occ > 0 {
            occ -= 1;
            stats.delivered += 1;
            stats.finish_tick = k;
        }
        // (3) Receiver re-evaluates the wire on the end-of-tick occupancy.
        if occ >= config.stop_threshold {
            if !stop {
                stats.stop_transitions += 1;
            }
            stop = true;
        } else if occ <= config.resume_threshold {
            stop = false;
        }
        stats.max_occupancy = stats.max_occupancy.max(occ);
        ring[(k as usize) % lag] = stop;
        k += 1;
    }
    stats
}

/// Closed-form batched engine: identical results to
/// [`stream_per_flit`], cost proportional to the number of stop/resume
/// and stall transitions instead of the number of ticks.
pub fn stream_batched(
    config: StopWireConfig,
    start_tick: u64,
    bytes: u64,
    stalls: &[(u64, u64)],
) -> StopWireStats {
    batched_impl(config, start_tick, bytes, stalls, None)
}

fn batched_impl(
    config: StopWireConfig,
    start_tick: u64,
    bytes: u64,
    stalls: &[(u64, u64)],
    mut gates: Option<&mut StallWindows>,
) -> StopWireStats {
    config.validate();
    assert_windows_sorted(stalls);
    let mut stats = StopWireStats {
        finish_tick: start_tick,
        ..StopWireStats::default()
    };
    if bytes == 0 {
        return stats;
    }

    let lag = u64::from(config.stop_lag) + 1;
    let mut occ: u64 = 0;
    let mut sent: u64 = 0;
    let mut stop = false;
    // The sender's gate is the stop state delayed by `lag` ticks:
    // pending flips scheduled when stop transitions, applied in order.
    let mut gate = false;
    let mut flips: std::collections::VecDeque<(u64, bool)> = std::collections::VecDeque::new();
    let mut window = 0usize;

    let mut k = start_tick;
    while stats.delivered < bytes {
        // --- Constant-rate segment starting at tick k -----------------
        while window < stalls.len() && stalls[window].1 <= k {
            window += 1;
        }
        let stalled = window < stalls.len() && stalls[window].0 <= k && k < stalls[window].1;
        if let Some(&(at, v)) = flips.front() {
            if at <= k {
                gate = v;
                flips.pop_front();
                continue; // re-derive rates under the new gate
            }
        }
        let arr: u64 = u64::from(sent < bytes && !gate);
        let drain: u64 = u64::from(!stalled && (occ > 0 || arr > 0));
        let slope_up = arr > drain; // occupancy grows (+1/tick)
        let slope_down = drain > arr; // occupancy shrinks (-1/tick)

        // The segment ends at the earliest of these boundaries, each
        // expressed as a tick count dt >= 1 from k.
        let mut dt = u64::MAX;
        // Next stall boundary (start of the current/next window or end
        // of the active one) changes the drain rate.
        if stalled {
            dt = dt.min(stalls[window].1 - k);
        } else if window < stalls.len() {
            dt = dt.min(stalls[window].0.max(k + 1) - k);
        }
        // Next scheduled gate flip changes the arrival rate.
        if let Some(&(at, _)) = flips.front() {
            dt = dt.min(at - k);
        }
        // Sender exhaustion changes the arrival rate.
        if arr == 1 {
            dt = dt.min(bytes - sent);
        }
        // Completion.
        if drain == 1 {
            dt = dt.min(bytes - stats.delivered);
        }
        // Occupancy hitting zero turns the drain off (when not refilled).
        if slope_down {
            dt = dt.min(occ);
        }
        // Threshold crossings flip the wire. Crossing at the end of the
        // tick where occupancy first meets the threshold.
        if slope_up && !stop && occ < u64::from(config.stop_threshold) {
            dt = dt.min(u64::from(config.stop_threshold) - occ);
        }
        if slope_down && stop && occ > u64::from(config.resume_threshold) {
            dt = dt.min(occ - u64::from(config.resume_threshold));
        }
        debug_assert!(dt >= 1, "segment must advance");
        if dt == u64::MAX {
            // Nothing changes on its own: the sender is gated with no
            // pending flip, or everything is idle — impossible in a
            // validated configuration (a gate-on always schedules the
            // matching gate-off via the resume threshold).
            unreachable!("stop-wire stream wedged at tick {k}");
        }

        // --- Apply the segment in closed form -------------------------
        occ = occ + arr * dt - drain * dt;
        sent += arr * dt;
        if drain == 1 {
            stats.delivered += dt;
            stats.finish_tick = k + dt - 1;
        }
        // Ticks where the sender still had bytes but was gated. `sent`
        // cannot change inside a gated segment, so the whole segment
        // counts or none of it does.
        if gate && sent < bytes {
            stats.stalled_ticks += dt;
            if let Some(g) = gates.as_deref_mut() {
                push_gate_window(g, k, dt);
            }
        }
        stats.max_occupancy = stats.max_occupancy.max(occ as u32);
        k += dt;

        // --- End-of-segment wire transitions --------------------------
        if !stop && occ >= u64::from(config.stop_threshold) {
            stop = true;
            stats.stop_transitions += 1;
            flips.push_back((k - 1 + lag, true));
        } else if stop && occ <= u64::from(config.resume_threshold) {
            stop = false;
            flips.push_back((k - 1 + lag, false));
        }
    }
    stats
}

/// What a whole route's worth of chained stop-wire streams did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteFlowStats {
    /// Bytes delivered to the destination (lossless: equals the offer).
    pub delivered: u64,
    /// Absolute tick of the last byte's delivery at the destination.
    pub finish_tick: u64,
    /// Absolute tick the first segment's FIFO drained its last byte —
    /// when the worm's tail leaves the source link. Under downstream
    /// blocking this trails [`Self::finish_tick`] by far less than the
    /// unobstructed gap, because backpressure holds bytes *upstream*.
    pub source_finish_tick: u64,
    /// Total *stop* assertions summed over every segment.
    pub stop_transitions: u64,
    /// Ticks the *source* sat gated while it still had bytes (the first
    /// segment's [`StopWireStats::stalled_ticks`]).
    pub stalled_ticks: u64,
    /// Per-segment stream statistics, in route order (source first).
    pub per_segment: Vec<StopWireStats>,
}

/// Streams `bytes` through a whole route of stop-wire segments, source
/// first: `segments[0]` is the node→crossbar link, the last segment the
/// crossbar→node link at the destination, and `dst_stalls` are the
/// ticks the destination NI cannot accept bytes.
///
/// All segments share one link-tick timeline (wormhole cut-through: a
/// byte pushed into a hop's FIFO can be popped by the next hop in the
/// same tick, so an unobstructed route delivers one byte per tick
/// regardless of length — propagation is charged separately, once, by
/// the connection model). The composition runs the *last* segment
/// against `dst_stalls` with [`stream_batched`], extracts its gate
/// windows (the ticks its sender refuses to pop the upstream FIFO), and
/// feeds them upstream as the previous segment's stall schedule, and so
/// on back to the source. `tests/properties.rs` pins this against a
/// joint tick-by-tick simulation of all FIFOs.
///
/// # Panics
///
/// Panics on an empty segment list, on an invalid segment config, and —
/// for multi-segment routes — unless every segment satisfies
/// `resume_threshold > stop_lag`. That is the condition under which an
/// inter-hop FIFO can never underrun while its consumer is ungated and
/// hungry (occupancy at gate release is at least `resume_threshold -
/// stop_lag - 1` plus the same-tick cut-through byte), which is what
/// makes the segment-by-segment composition exact.
pub fn stream_route(
    segments: &[StopWireConfig],
    start_tick: u64,
    bytes: u64,
    dst_stalls: &[(u64, u64)],
) -> RouteFlowStats {
    assert!(!segments.is_empty(), "route needs at least one segment");
    if segments.len() > 1 {
        for config in segments {
            assert!(
                config.resume_threshold > config.stop_lag,
                "multi-hop composition needs resume_threshold {} > stop_lag {} \
                 or an inter-hop FIFO could underrun while bytes remain",
                config.resume_threshold,
                config.stop_lag
            );
        }
    }
    let mut per_segment = vec![StopWireStats::default(); segments.len()];
    let mut stalls: StallWindows = dst_stalls.to_vec();
    for (i, &config) in segments.iter().enumerate().rev() {
        let (stats, gates) = stream_gates(config, start_tick, bytes, &stalls);
        per_segment[i] = stats;
        stalls = gates;
    }
    let first = per_segment[0];
    let last = *per_segment.last().unwrap();
    RouteFlowStats {
        delivered: last.delivered,
        finish_tick: last.finish_tick,
        source_finish_tick: first.finish_tick,
        stop_transitions: per_segment.iter().map(|s| s.stop_transitions).sum(),
        stalled_ticks: first.stalled_ticks,
        per_segment,
    }
}

/// Generates a deterministic random backpressure schedule: up to
/// `count` stall windows over `[0, horizon)` ticks, each 1..=`max_len`
/// ticks long, sorted and merged so they are disjoint.
pub fn random_windows(rng: &mut SimRng, horizon: u64, count: u32, max_len: u64) -> Vec<(u64, u64)> {
    assert!(horizon > 0 && max_len > 0);
    let mut raw: Vec<(u64, u64)> = (0..count)
        .map(|_| {
            let start = rng.gen_range(0, horizon);
            let len = rng.gen_range(1, max_len + 1);
            (start, start + len)
        })
        .collect();
    raw.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(raw.len());
    for (s, e) in raw {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StopWireConfig {
        StopWireConfig::powermanna()
    }

    /// Both engines, for the tests that hold each to the same property.
    type Engine = fn(StopWireConfig, u64, u64, &[(u64, u64)]) -> StopWireStats;
    const ENGINES: [Engine; 2] = [stream_per_flit, stream_batched];

    #[test]
    fn unobstructed_stream_runs_at_link_rate() {
        for engine in ENGINES {
            let s = engine(cfg(), 10, 500, &[]);
            assert_eq!(s.delivered, 500);
            // One byte per tick, cut-through: last byte on tick 10+499.
            assert_eq!(s.finish_tick, 509);
            assert_eq!(s.stop_transitions, 0);
            assert_eq!(s.stalled_ticks, 0);
            // Cut-through: each byte arrives and leaves in the same tick,
            // so the end-of-tick occupancy never builds up.
            assert_eq!(s.max_occupancy, 0);
        }
    }

    #[test]
    fn long_stall_asserts_stop_and_bounds_occupancy() {
        let c = cfg();
        for engine in ENGINES {
            // Downstream blocked long enough to fill the FIFO well past
            // the stop threshold if flow control did not intervene.
            let s = engine(c, 0, 2000, &[(0, 1000)]);
            assert_eq!(s.delivered, 2000, "lossless");
            assert!(s.stop_transitions >= 1);
            assert!(s.stalled_ticks > 0);
            assert!(
                s.max_occupancy <= c.fifo_bytes,
                "occupancy {} overflows the {}-byte FIFO",
                s.max_occupancy,
                c.fifo_bytes
            );
            assert!(s.max_occupancy <= c.headroom_needed());
        }
    }

    #[test]
    fn engines_agree_on_simple_schedules() {
        let c = cfg();
        for (start, bytes, stalls) in [
            (0u64, 64u64, vec![]),
            (7, 1000, vec![(0, 300)]),
            (3, 4096, vec![(10, 400), (500, 900), (1000, 1400)]),
            (0, 257, vec![(0, 5000)]),
        ] {
            let a = stream_per_flit(c, start, bytes, &stalls);
            let b = stream_batched(c, start, bytes, &stalls);
            assert_eq!(a, b, "engines diverge for start={start} bytes={bytes}");
        }
    }

    #[test]
    fn stall_before_stream_start_is_inert() {
        for engine in ENGINES {
            let s = engine(cfg(), 1000, 100, &[(0, 900)]);
            assert_eq!(s.finish_tick, 1099);
            assert_eq!(s.stop_transitions, 0);
        }
    }

    #[test]
    fn random_windows_are_sorted_and_disjoint() {
        let mut rng = SimRng::seed_from(99);
        for _ in 0..50 {
            let w = random_windows(&mut rng, 10_000, 20, 500);
            assert_windows_sorted(&w);
        }
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn overflowing_config_rejected() {
        let mut c = cfg();
        c.stop_threshold = c.fifo_bytes; // no room for in-flight bytes
        c.validate();
    }

    #[test]
    fn gate_windows_match_stalled_ticks() {
        let c = cfg();
        let stalls = vec![(10, 400), (500, 900), (1200, 1500)];
        let (batched, gates) = stream_gates(c, 3, 4096, &stalls);
        assert_eq!(batched, stream_per_flit(c, 3, 4096, &stalls));
        assert_windows_sorted(&gates);
        let width: u64 = gates.iter().map(|&(s, e)| e - s).sum();
        assert_eq!(width, batched.stalled_ticks);
        assert!(batched.stalled_ticks > 0, "schedule should gate the sender");
    }

    #[test]
    fn single_segment_route_equals_plain_stream() {
        let c = cfg();
        let stalls = vec![(0, 700)];
        let flow = stream_route(&[c], 5, 2000, &stalls);
        let plain = stream_per_flit(c, 5, 2000, &stalls);
        assert_eq!(flow.per_segment, vec![plain]);
        assert_eq!(flow.finish_tick, plain.finish_tick);
        assert_eq!(flow.source_finish_tick, plain.finish_tick);
        assert_eq!(flow.stalled_ticks, plain.stalled_ticks);
    }

    #[test]
    fn unobstructed_route_delivers_at_link_rate_regardless_of_length() {
        let c = cfg();
        for n in 1..=4 {
            let flow = stream_route(&vec![c; n], 10, 500, &[]);
            assert_eq!(flow.delivered, 500);
            assert_eq!(flow.finish_tick, 509, "cut-through: length-free");
            assert_eq!(flow.stalled_ticks, 0);
            assert_eq!(flow.stop_transitions, 0);
        }
    }

    #[test]
    fn destination_block_backpressures_the_source() {
        let c = cfg();
        // Destination blocked long enough that every FIFO on a 3-segment
        // route fills and the stop chain reaches the source.
        let flow = stream_route(&[c; 3], 0, 8192, &[(0, 4000)]);
        assert_eq!(flow.delivered, 8192, "lossless end to end");
        assert!(flow.stalled_ticks > 0, "source must feel the block");
        assert!(flow.stop_transitions >= 3, "every hop should assert stop");
        for s in &flow.per_segment {
            assert!(s.max_occupancy <= c.headroom_needed());
        }
        // The source link frees long before the destination finishes
        // draining: the route's FIFOs hold the in-flight tail.
        assert!(flow.source_finish_tick < flow.finish_tick);
    }

    #[test]
    #[should_panic(expected = "resume_threshold")]
    fn multi_hop_route_rejects_underrun_prone_config() {
        let c = StopWireConfig {
            fifo_bytes: 64,
            stop_threshold: 32,
            resume_threshold: 2,
            stop_lag: 8,
        };
        c.validate(); // fine on its own...
        stream_route(&[c; 2], 0, 100, &[]); // ...not in a chain
    }
}
