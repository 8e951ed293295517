//! Flit-level, event-driven simulation of one crossbar under load.
//!
//! The connection-level model in [`crate::network`] is exact for the
//! microbenchmarks, but §3's *blocking behaviour* argument — crossbars
//! give "the favorable blocking behavior of the hypercube at much lower
//! cost" — is about what happens when many worms compete. This module
//! simulates that directly: packets (route byte + payload + close byte)
//! injected on the 16 inputs, per-input FIFOs, per-output arbitration,
//! byte-level timing on the link clock, driven by the discrete-event
//! queue in `pm-sim`.

use crate::crossbar::CrossbarConfig;
use crate::stopwire::{self, StallWindows, StopWireConfig, StopWireEngine};
use pm_sim::event::EventQueue;
use pm_sim::stats::Histogram;
use pm_sim::time::{Duration, Time};
use std::collections::VecDeque;

/// One packet to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Input port it arrives on.
    pub input: u32,
    /// Output port its route byte selects.
    pub output: u32,
    /// Payload bytes (excluding route and close bytes).
    pub payload: u32,
    /// When its first byte reaches the input FIFO.
    pub inject_at: Time,
}

/// Downstream backpressure applied to the crossbar's output ports.
///
/// Each output port gets a schedule of stall windows (absolute link
/// ticks during which its downstream side cannot accept bytes); worms
/// streaming through a stalled port are throttled by the per-link
/// *stop* wire modelled in [`crate::stopwire`]. Ports beyond the end of
/// `windows` are unobstructed.
#[derive(Clone, Debug)]
pub struct Backpressure {
    /// FIFO geometry and stop/resume thresholds of the links.
    pub stop: StopWireConfig,
    /// Which stop-wire engine computes each stream (the parity suite
    /// runs both and asserts identical results).
    pub engine: StopWireEngine,
    /// Per-output stall windows, sorted disjoint `[start, end)` link
    /// ticks — the same schedule type route-level backpressure uses.
    pub windows: Vec<StallWindows>,
}

/// Result of simulating a packet batch.
#[derive(Clone, Debug)]
pub struct FlitSimResult {
    /// Per-packet completion times (last byte out of the output port), in
    /// the order packets were supplied.
    pub completions: Vec<Time>,
    /// Nanoseconds each packet's head waited for its output port beyond
    /// the route decode (the blocking §3 talks about).
    pub head_blocking: Histogram,
    /// The makespan: when the last byte left the crossbar.
    pub finished_at: Time,
    /// Total payload bytes moved.
    pub payload_bytes: u64,
    /// Stop-wire assertions across all streams (0 without backpressure).
    pub stop_transitions: u64,
    /// Link ticks senders spent gated by *stop* (0 without backpressure).
    pub stalled_link_ticks: u64,
}

impl FlitSimResult {
    /// Aggregate throughput over the makespan, in Mbyte/s.
    pub fn throughput_mbs(&self) -> f64 {
        if self.finished_at == Time::ZERO {
            return 0.0;
        }
        self.payload_bytes as f64 / self.finished_at.as_secs_f64() / 1e6
    }
}

/// A reusable wormhole-crossbar simulator.
///
/// All per-run state (per-port queues, waiter lists, the event queue,
/// the arrival-order scratch) lives in this struct and is recycled
/// between calls to [`FlitSim::run`], so an offered-load sweep that
/// simulates hundreds of batches allocates its working set once instead
/// of once per sweep point. [`simulate`] remains the one-shot
/// convenience wrapper.
///
/// Two structural optimisations over the original event loop, both
/// output-preserving:
///
/// * Arrivals never enter the event heap. The full arrival schedule is
///   known up front, so the run merge-iterates a sorted arrival cursor
///   against the heap, which then only ever holds in-flight completions
///   — at most one per input port — instead of one event per packet.
///   Simultaneous arrivals (every traffic generator emits bursts of
///   them) cost an index increment, not a heap sift.
/// * Waiter-list membership is tracked by a per-input flag, replacing
///   the `VecDeque::contains` linear scan that ran once per blocked
///   arbitration attempt.
pub struct FlitSim {
    /// In-flight completions only: packet idx, due when its worm's last
    /// byte leaves the output port.
    queue: EventQueue<usize>,
    /// Per-input queue of pending packet indices (head-of-line order).
    input_queue: Vec<VecDeque<usize>>,
    /// Per-input: streaming right now?
    input_busy: Vec<bool>,
    /// Per-input: when the current head packet reached the FIFO front.
    head_ready_at: Vec<Time>,
    /// Per-output: held by a worm?
    output_busy: Vec<bool>,
    /// Per-output: inputs whose head is blocked on this output, FIFO order.
    waiters: Vec<VecDeque<usize>>,
    /// Per-input: already registered in some output's waiter list?
    waiting: Vec<bool>,
    /// Packet indices sorted by inject time (arrival cursor scratch).
    order: Vec<usize>,
    config: CrossbarConfig,
    byte_time: Duration,
    completions: Vec<Time>,
    head_blocking: Histogram,
    finished_at: Time,
    payload_bytes: u64,
    stop_transitions: u64,
    stalled_link_ticks: u64,
}

impl Default for FlitSim {
    fn default() -> Self {
        Self::new()
    }
}

impl FlitSim {
    /// Creates a simulator with empty (lazily sized) buffers.
    pub fn new() -> Self {
        FlitSim {
            queue: EventQueue::new(),
            input_queue: Vec::new(),
            input_busy: Vec::new(),
            head_ready_at: Vec::new(),
            output_busy: Vec::new(),
            waiters: Vec::new(),
            waiting: Vec::new(),
            order: Vec::new(),
            config: CrossbarConfig::powermanna(),
            byte_time: crate::wire::WireConfig::synchronous().byte_time,
            completions: Vec::new(),
            head_blocking: Histogram::new("head_blocking_ns"),
            finished_at: Time::ZERO,
            payload_bytes: 0,
            stop_transitions: 0,
            stalled_link_ticks: 0,
        }
    }

    /// Resets all per-run state for `config`/`packets`, keeping buffers.
    fn reset(&mut self, config: CrossbarConfig, packets: &[Packet]) {
        let ports = config.ports as usize;
        self.queue.clear();
        self.input_queue.iter_mut().for_each(VecDeque::clear);
        self.input_queue.resize_with(ports, VecDeque::new);
        self.input_busy.clear();
        self.input_busy.resize(ports, false);
        self.head_ready_at.clear();
        self.head_ready_at.resize(ports, Time::ZERO);
        self.output_busy.clear();
        self.output_busy.resize(ports, false);
        self.waiters.iter_mut().for_each(VecDeque::clear);
        self.waiters.resize_with(ports, VecDeque::new);
        self.waiting.clear();
        self.waiting.resize(ports, false);
        self.order.clear();
        self.order.extend(0..packets.len());
        // Stable: simultaneous injections keep supplied order.
        self.order.sort_by_key(|&i| packets[i].inject_at);
        self.config = config;
        self.completions = vec![Time::ZERO; packets.len()];
        self.head_blocking = Histogram::new("head_blocking_ns");
        self.finished_at = Time::ZERO;
        self.payload_bytes = 0;
        self.stop_transitions = 0;
        self.stalled_link_ticks = 0;
    }

    /// Simulates one packet batch; see [`simulate`] for the model.
    /// Results are identical to a fresh simulator's — reuse only
    /// recycles allocations, never state.
    ///
    /// # Panics
    ///
    /// Panics if a packet references a port outside the crossbar.
    pub fn run(&mut self, config: CrossbarConfig, packets: &[Packet]) -> FlitSimResult {
        self.run_inner(config, packets, None)
    }

    /// Like [`FlitSim::run`], but with downstream backpressure on the
    /// output ports: a worm streaming through a stalled port is paced by
    /// the per-link *stop* wire instead of draining at link rate.
    ///
    /// Streaming is quantised to the link byte clock (each worm starts
    /// on the next tick edge), so completion times are not comparable
    /// picosecond-for-picosecond with [`FlitSim::run`]; with an empty
    /// schedule the worms still never stall and the stop counters stay
    /// zero. Both [`StopWireEngine`]s produce byte-identical results.
    ///
    /// # Panics
    ///
    /// Panics if a packet references a port outside the crossbar, if a
    /// stall schedule is unsorted, or if `bp.stop` is not lossless.
    pub fn run_with_backpressure(
        &mut self,
        config: CrossbarConfig,
        packets: &[Packet],
        bp: &Backpressure,
    ) -> FlitSimResult {
        self.run_inner(config, packets, Some(bp))
    }

    fn run_inner(
        &mut self,
        config: CrossbarConfig,
        packets: &[Packet],
        bp: Option<&Backpressure>,
    ) -> FlitSimResult {
        for p in packets {
            assert!(
                p.input < config.ports && p.output < config.ports,
                "packet references port outside the {}x{} crossbar",
                config.ports,
                config.ports
            );
        }
        self.reset(config, packets);
        // Merge the sorted arrival cursor with the completion heap. On a
        // tie an arrival is handled first, matching the event order of
        // the all-events-in-one-heap formulation (arrivals were
        // scheduled first and the queue breaks ties by insertion order).
        let mut cursor = 0;
        while cursor < self.order.len() {
            let at = packets[self.order[cursor]].inject_at;
            if let Some((now, idx)) = self.queue.pop_if_before(at) {
                self.on_done(packets, idx, now, bp);
            } else {
                let idx = self.order[cursor];
                cursor += 1;
                self.on_arrive(packets, idx, at, bp);
            }
        }
        // All packets injected; drain the in-flight completions.
        while let Some((now, idx)) = self.queue.pop() {
            self.on_done(packets, idx, now, bp);
        }
        FlitSimResult {
            completions: std::mem::take(&mut self.completions),
            head_blocking: std::mem::replace(
                &mut self.head_blocking,
                Histogram::new("head_blocking_ns"),
            ),
            finished_at: self.finished_at,
            payload_bytes: self.payload_bytes,
            stop_transitions: self.stop_transitions,
            stalled_link_ticks: self.stalled_link_ticks,
        }
    }

    /// Starts `input`'s head packet if the input is idle and its output
    /// is free; otherwise registers it as a waiter.
    fn try_start(
        &mut self,
        packets: &[Packet],
        input: usize,
        now: Time,
        bp: Option<&Backpressure>,
    ) {
        if self.input_busy[input] {
            return;
        }
        let Some(&pkt_idx) = self.input_queue[input].front() else {
            return;
        };
        let p = packets[pkt_idx];
        let out = p.output as usize;
        if self.output_busy[out] {
            if !self.waiting[input] {
                self.waiters[out].push_back(input);
                self.waiting[input] = true;
            }
            return;
        }
        // Route-byte serialisation + decode count from when the head hit
        // the FIFO front; any wait beyond that is blocking.
        let decode_done = self.head_ready_at[input] + self.byte_time + self.config.route_time;
        let start = now.max(decode_done);
        let waited = start.since(decode_done.min(start));
        self.head_blocking.record(waited.as_ps() / 1000);

        self.output_busy[out] = true;
        self.input_busy[input] = true;
        self.input_queue[input].pop_front();
        // Cut-through: payload + close byte at link rate — paced by the
        // downstream stop wire when backpressure is modelled.
        let done = match bp {
            None => start + self.byte_time * (u64::from(p.payload) + 1),
            Some(bp) => {
                let bt = self.byte_time.as_ps();
                let start_tick = start.as_ps().div_ceil(bt);
                let windows = bp.windows.get(out).map_or(&[][..], Vec::as_slice);
                let s = stopwire::stream(
                    bp.engine,
                    bp.stop,
                    start_tick,
                    u64::from(p.payload) + 1,
                    windows,
                );
                self.stop_transitions += s.stop_transitions;
                self.stalled_link_ticks += s.stalled_ticks;
                Time::from_ps((s.finish_tick + 1) * bt)
            }
        };
        self.completions[pkt_idx] = done;
        self.finished_at = self.finished_at.max(done);
        self.payload_bytes += u64::from(p.payload);
        self.queue.schedule(done, pkt_idx);
    }

    fn on_arrive(&mut self, packets: &[Packet], idx: usize, now: Time, bp: Option<&Backpressure>) {
        let input = packets[idx].input as usize;
        self.input_queue[input].push_back(idx);
        if self.input_queue[input].len() == 1 && !self.input_busy[input] {
            self.head_ready_at[input] = now;
        }
        self.try_start(packets, input, now, bp);
    }

    fn on_done(&mut self, packets: &[Packet], idx: usize, now: Time, bp: Option<&Backpressure>) {
        let p = packets[idx];
        let input = p.input as usize;
        let out = p.output as usize;
        self.input_busy[input] = false;
        self.output_busy[out] = false;

        // Fair arbitration: wake the longest-blocked waiter first (the
        // hardware arbiter rotates grants); the freeing input's own next
        // packet joins the back of the queue if it wants the same output.
        while let Some(waiter) = self.waiters[out].pop_front() {
            self.waiting[waiter] = false;
            let wants = self.input_queue[waiter]
                .front()
                .is_some_and(|&i| packets[i].output == p.output);
            if wants && !self.input_busy[waiter] {
                self.try_start(packets, waiter, now, bp);
                if self.output_busy[out] {
                    break;
                }
            }
        }
        // The freed input's next head may now arbitrate (or queue).
        if !self.input_queue[input].is_empty() {
            self.head_ready_at[input] = now;
            self.try_start(packets, input, now, bp);
        }
    }
}

/// Simulates one crossbar serving a batch of packets.
///
/// Per packet, the model charges: serialisation of the route byte, the
/// decode time, waiting for the output port (wormhole head-of-line: a
/// blocked worm also blocks everything behind it on its input), then
/// cut-through streaming of payload + close byte at link rate.
///
/// # Panics
///
/// Panics if a packet references a port outside the crossbar.
///
/// # Examples
///
/// ```
/// use pm_net::crossbar::CrossbarConfig;
/// use pm_net::flitsim::{simulate, Packet};
/// use pm_sim::time::Time;
///
/// let packets = vec![
///     Packet { input: 0, output: 5, payload: 256, inject_at: Time::ZERO },
///     Packet { input: 1, output: 6, payload: 256, inject_at: Time::ZERO },
/// ];
/// let r = simulate(CrossbarConfig::powermanna(), &packets);
/// // Disjoint ports: both complete without blocking.
/// assert_eq!(r.head_blocking.total(), 2);
/// assert_eq!(r.head_blocking.quantile(1.0), 1);
/// ```
pub fn simulate(config: CrossbarConfig, packets: &[Packet]) -> FlitSimResult {
    FlitSim::new().run(config, packets)
}

/// Generates `packets_per_input` packets on every input with uniformly
/// random destinations, for saturation experiments.
pub fn uniform_traffic(
    config: CrossbarConfig,
    packets_per_input: u32,
    payload: u32,
    seed: u64,
) -> Vec<Packet> {
    let mut rng = pm_sim::rng::SimRng::seed_from(seed);
    let mut out = Vec::new();
    for input in 0..config.ports {
        for k in 0..packets_per_input {
            let output = rng.gen_range(0, u64::from(config.ports)) as u32;
            out.push(Packet {
                input,
                output,
                payload,
                inject_at: Time::ZERO + Duration::from_ns(10) * u64::from(k),
            });
        }
    }
    out
}

/// A permutation pattern: input `i` sends to output `(i + rotate) mod P`
/// — the conflict-free case a crossbar handles at full rate.
pub fn permutation_traffic(
    config: CrossbarConfig,
    packets_per_input: u32,
    payload: u32,
    rotate: u32,
) -> Vec<Packet> {
    let mut out = Vec::new();
    for input in 0..config.ports {
        let output = (input + rotate) % config.ports;
        for k in 0..packets_per_input {
            out.push(Packet {
                input,
                output,
                payload,
                inject_at: Time::ZERO + Duration::from_ns(10) * u64::from(k),
            });
        }
    }
    out
}

/// A hot-spot pattern: every input sends to output 0 — the worst case.
pub fn hotspot_traffic(
    config: CrossbarConfig,
    packets_per_input: u32,
    payload: u32,
) -> Vec<Packet> {
    let mut out = Vec::new();
    for input in 0..config.ports {
        for k in 0..packets_per_input {
            out.push(Packet {
                input,
                output: 0,
                payload,
                inject_at: Time::ZERO + Duration::from_ns(10) * u64::from(k),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CrossbarConfig {
        CrossbarConfig::powermanna()
    }

    #[test]
    fn single_packet_timing() {
        let p = vec![Packet {
            input: 3,
            output: 9,
            payload: 64,
            inject_at: Time::ZERO,
        }];
        let r = simulate(cfg(), &p);
        // route byte (16.7 ns) + decode (200 ns) + 65 bytes at link rate.
        let expect =
            Duration::from_ps(16_667) + Duration::from_ns(200) + Duration::from_ps(16_667) * 65;
        assert_eq!(r.completions[0], Time::ZERO + expect);
    }

    #[test]
    fn permutation_traffic_never_blocks() {
        let packets = permutation_traffic(cfg(), 8, 256, 5);
        let r = simulate(cfg(), &packets);
        assert_eq!(r.head_blocking.total(), packets.len() as u64);
        assert!(
            r.head_blocking.quantile(0.99) <= 1,
            "p99 blocking {} ns",
            r.head_blocking.quantile(0.99)
        );
        // All 16 streams at 60 MB/s: aggregate near 16x one link.
        assert!(
            r.throughput_mbs() > 700.0,
            "aggregate {:.0} MB/s",
            r.throughput_mbs()
        );
    }

    #[test]
    fn hotspot_serialises_on_one_output() {
        let packets = hotspot_traffic(cfg(), 2, 256);
        let r = simulate(cfg(), &packets);
        // One output at 60 MB/s bounds aggregate throughput.
        assert!(
            r.throughput_mbs() < 65.0,
            "hotspot {:.0} MB/s must be one-link bound",
            r.throughput_mbs()
        );
        // And blocking is rampant.
        assert!(r.head_blocking.quantile(0.5) > 1000);
    }

    #[test]
    fn uniform_traffic_lands_between_extremes() {
        let packets = uniform_traffic(cfg(), 16, 256, 7);
        let r = simulate(cfg(), &packets);
        let perm = simulate(cfg(), &permutation_traffic(cfg(), 16, 256, 1));
        let hot = simulate(cfg(), &hotspot_traffic(cfg(), 16, 256));
        assert!(r.throughput_mbs() > hot.throughput_mbs());
        assert!(r.throughput_mbs() < perm.throughput_mbs());
    }

    #[test]
    fn completions_cover_every_packet() {
        let packets = uniform_traffic(cfg(), 4, 64, 3);
        let r = simulate(cfg(), &packets);
        assert_eq!(r.completions.len(), packets.len());
        assert!(r.completions.iter().all(|&c| c > Time::ZERO));
        assert_eq!(
            r.payload_bytes,
            packets.iter().map(|p| u64::from(p.payload)).sum::<u64>()
        );
    }

    #[test]
    fn head_of_line_blocking_is_real() {
        // Input 0: first packet to the hot output, second to a free one.
        // The second must wait for the first even though its own output
        // is idle (wormhole, no virtual output queueing).
        let packets = vec![
            Packet {
                input: 1,
                output: 5,
                payload: 4096,
                inject_at: Time::ZERO,
            },
            Packet {
                input: 0,
                output: 5,
                payload: 64,
                inject_at: Time::from_ps(1),
            },
            Packet {
                input: 0,
                output: 9,
                payload: 64,
                inject_at: Time::from_ps(2),
            },
        ];
        let r = simulate(cfg(), &packets);
        // Packet 2 cannot finish before packet 1 started draining, which
        // waits on the 4-KB worm holding output 5.
        assert!(r.completions[2] > r.completions[0] - Duration::from_us(10));
        assert!(r.completions[1] > r.completions[0]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = simulate(cfg(), &uniform_traffic(cfg(), 8, 128, 42));
        let b = simulate(cfg(), &uniform_traffic(cfg(), 8, 128, 42));
        assert_eq!(a.completions, b.completions);
    }

    #[test]
    fn reused_simulator_matches_fresh_runs() {
        // One FlitSim across a whole sweep (the hot-path allocation
        // reuse) must produce bit-identical results to fresh simulators,
        // including directly after a heavily-blocked hotspot run.
        let mut sim = FlitSim::new();
        for (per_input, payload, seed) in [(8u32, 128u32, 42u64), (4, 512, 7), (16, 64, 99)] {
            for packets in [
                uniform_traffic(cfg(), per_input, payload, seed),
                hotspot_traffic(cfg(), per_input, payload),
                permutation_traffic(cfg(), per_input, payload, 3),
            ] {
                let reused = sim.run(cfg(), &packets);
                let fresh = simulate(cfg(), &packets);
                assert_eq!(reused.completions, fresh.completions);
                assert_eq!(reused.finished_at, fresh.finished_at);
                assert_eq!(reused.payload_bytes, fresh.payload_bytes);
                assert_eq!(
                    reused.head_blocking.quantile(0.5),
                    fresh.head_blocking.quantile(0.5)
                );
            }
        }
    }

    #[test]
    fn empty_backpressure_never_stalls() {
        let bp = Backpressure {
            stop: StopWireConfig::powermanna(),
            engine: StopWireEngine::Batched,
            windows: Vec::new(),
        };
        let packets = uniform_traffic(cfg(), 8, 256, 11);
        let r = FlitSim::new().run_with_backpressure(cfg(), &packets, &bp);
        assert_eq!(r.stop_transitions, 0);
        assert_eq!(r.stalled_link_ticks, 0);
        assert_eq!(r.completions.len(), packets.len());
        assert_eq!(
            r.payload_bytes,
            packets.iter().map(|p| u64::from(p.payload)).sum::<u64>()
        );
    }

    #[test]
    fn backpressure_delays_the_stalled_output_only() {
        // Output 0 blocked for a long stretch; output 1 unobstructed.
        let stall_until = 100_000u64;
        let bp = Backpressure {
            stop: StopWireConfig::powermanna(),
            engine: StopWireEngine::Batched,
            windows: vec![vec![(0, stall_until)]],
        };
        let packets = vec![
            Packet {
                input: 0,
                output: 0,
                payload: 1024,
                inject_at: Time::ZERO,
            },
            Packet {
                input: 1,
                output: 1,
                payload: 1024,
                inject_at: Time::ZERO,
            },
        ];
        let r = FlitSim::new().run_with_backpressure(cfg(), &packets, &bp);
        assert!(r.completions[0] > r.completions[1]);
        assert!(r.stop_transitions >= 1);
        assert!(r.stalled_link_ticks > 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_port_rejected() {
        simulate(
            cfg(),
            &[Packet {
                input: 16,
                output: 0,
                payload: 1,
                inject_at: Time::ZERO,
            }],
        );
    }
}
