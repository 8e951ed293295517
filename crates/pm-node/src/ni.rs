//! The network interface (§3.3 of the paper).
//!
//! "Instead of using a complex network interface controller (NIC), we
//! implemented a simple but fast interface to the network. … For each
//! direction, there is a FIFO buffer of 32 64-bit words to decouple the
//! different transfer rates. The addressing of the FIFOs and the control
//! registers of the two link interfaces in a node is memory-mapped, so
//! the CPUs of the SMP node can provide all the functionality of a
//! powerful NIC by directly accessing the link interface."
//!
//! [`NiDirection`] models one direction of one link interface as a
//! three-stage chain with stop-signal flow control:
//!
//! 1. the 256-byte **send FIFO** the sending CPU fills with PIO stores;
//! 2. the **wire** (60 Mbyte/s serialiser + propagation + crossbar
//!    pass-through), which only launches a chunk when the receive side
//!    has credit for it (the stop wire);
//! 3. the 256-byte **receive FIFO** the receiving CPU drains with PIO
//!    loads.
//!
//! The small FIFO capacities are exactly what causes the bidirectional
//! shortfall of Figure 12; [`NiConfig::with_fifo_factor`] provides the
//! deeper-FIFO ablation §5.2 suggests.

use pm_net::fifo::TimedFifo;
use pm_net::wire::{Wire, WireConfig};
use pm_sim::time::{Duration, Time};
use std::collections::VecDeque;

/// Bytes the link-interface ASIC appends to every message for its
/// CRC-16 check sum (§3.3). Wire-level byte counts are
/// `payload + CRC_TRAILER_BYTES`.
pub const CRC_TRAILER_BYTES: u32 = 2;

/// Geometry and timing of one link interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NiConfig {
    /// Send-FIFO capacity in bytes (32 x 64-bit words = 256).
    pub send_fifo_bytes: u32,
    /// Receive-FIFO capacity in bytes (32 x 64-bit words = 256).
    pub recv_fifo_bytes: u32,
    /// The link the interface serialises onto.
    pub wire: WireConfig,
    /// Fixed path delay beyond the wire (crossbar pass-through for an
    /// established connection).
    pub path_delay: Duration,
    /// Cost for the CPU to move one 64-bit word to/from the memory-mapped
    /// FIFO (an uncached store/load across the ADSP switch).
    pub pio_word_cost: Duration,
    /// Cost to read an NI status register (FIFO level poll).
    pub status_poll_cost: Duration,
}

impl Default for NiConfig {
    fn default() -> Self {
        Self::powermanna()
    }
}

impl NiConfig {
    /// The PowerMANNA link interface through one crossbar.
    ///
    /// PIO costs are derived from the 60 MHz board clock: a memory-mapped
    /// 64-bit store costs about two board cycles through the ADSP switch;
    /// a status poll one round trip.
    pub fn powermanna() -> Self {
        NiConfig {
            send_fifo_bytes: 256,
            recv_fifo_bytes: 256,
            wire: WireConfig::synchronous(),
            // One crossbar pass-through on an established connection.
            path_delay: Duration::from_ns(100),
            pio_word_cost: Duration::from_ns(33),
            status_poll_cost: Duration::from_ns(50),
        }
    }

    /// A variant with `factor`-times deeper FIFOs — the ablation §5.2
    /// suggests ("This overhead could be significantly reduced if larger
    /// FIFO buffers were implemented").
    pub fn with_fifo_factor(self, factor: u32) -> Self {
        NiConfig {
            send_fifo_bytes: self.send_fifo_bytes * factor,
            recv_fifo_bytes: self.recv_fifo_bytes * factor,
            ..self
        }
    }
}

/// One direction of a link interface: sender NI FIFO → wire → receiver
/// NI FIFO, with stop-signal flow control between the stages.
///
/// Push/pop calls must progress in non-decreasing time order per side;
/// the communication driver interleaves both sides chronologically.
///
/// # Examples
///
/// ```
/// use pm_node::ni::{NiConfig, NiDirection};
/// use pm_sim::time::Time;
///
/// let mut dir = NiDirection::new(NiConfig::powermanna());
/// let pushed = dir.push(Time::ZERO, 64).expect("fifo empty");
/// let available = dir.data_available(pushed, 64).expect("in flight");
/// assert!(available > pushed);
/// ```
#[derive(Clone, Debug)]
pub struct NiDirection {
    config: NiConfig,
    /// Stage 1: the sender-side FIFO (pushed by the CPU, popped when the
    /// wire has serialised a chunk out).
    send_fifo: TimedFifo,
    /// Stage 2: the serialiser.
    wire: Wire,
    /// Credit tracker for the receive side: occupied from wire *launch*
    /// until the receiving CPU pops — this is the stop signal's reach.
    credit: TimedFifo,
    /// Chunks sitting in the send FIFO waiting for receive-side credit
    /// (the stop wire is asserted): (time the CPU finished pushing, bytes).
    parked: VecDeque<(Time, u32)>,
    /// Arrival log at the receive FIFO: (arrival time, cumulative bytes).
    arrivals: Vec<(Time, u64)>,
    /// Cumulative bytes the receiving CPU has popped.
    popped: u64,
    bytes: u64,
    /// Chunks whose wire launch waited on receive-side credit (the stop
    /// wire held them parked in the send FIFO).
    stop_stalls: u64,
    /// Highest receive-FIFO occupancy seen at any chunk landing, in bytes.
    peak_recv_level: u32,
}

impl NiDirection {
    /// Creates an idle direction.
    pub fn new(config: NiConfig) -> Self {
        NiDirection {
            send_fifo: TimedFifo::new(config.send_fifo_bytes),
            wire: Wire::new(config.wire),
            credit: TimedFifo::new(config.recv_fifo_bytes),
            parked: VecDeque::new(),
            arrivals: Vec::new(),
            popped: 0,
            config,
            bytes: 0,
            stop_stalls: 0,
            peak_recv_level: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> NiConfig {
        self.config
    }

    /// The sending CPU pushes `bytes` (one chunk, at most a cache line)
    /// into the send FIFO at `t`, paying PIO cost per 64-bit word.
    ///
    /// Returns the completion time of the push (when the CPU's stores are
    /// done), or `None` if the FIFO has no room and none is known to
    /// appear — the memory-mapped status register would read "full", and
    /// the driver must drain the receive side first.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the send-FIFO or receive-FIFO capacity.
    pub fn push(&mut self, t: Time, bytes: u32) -> Option<Time> {
        let space_at = self.send_fifo.space_available(t, bytes)?;
        let words = u64::from(bytes.div_ceil(8));
        let done = space_at.max(t) + self.config.pio_word_cost * words;
        self.send_fifo.push(done, bytes);
        // The chunk launches onto the wire once the receive side has
        // credit (stop-signal flow control); until then it parks in the
        // send FIFO.
        self.parked.push_back((done, bytes));
        self.try_launch();
        self.bytes += u64::from(bytes);
        Some(done)
    }

    /// Launches parked chunks onto the wire as long as receive-side
    /// credit (known from recorded pops) permits.
    fn try_launch(&mut self) {
        while let Some(&(ready, bytes)) = self.parked.front() {
            let Some(credit_at) = self.credit.space_available(ready, bytes) else {
                break;
            };
            let launch = ready.max(credit_at).max(self.wire.free_at());
            if credit_at > ready {
                self.stop_stalls += 1;
            }
            self.credit.push(launch, bytes);
            self.peak_recv_level = self.peak_recv_level.max(self.credit.level(launch));
            let (wire_start, arrive) = self.wire.send(launch, bytes);
            // The chunk leaves the send FIFO as its last byte serialises.
            let left_fifo = wire_start + self.config.wire.byte_time * u64::from(bytes);
            self.send_fifo.pop(left_fifo, bytes);
            // It lands in the receive FIFO after propagation + crossbar.
            let landed = arrive + self.config.path_delay;
            let cum = self.arrivals.last().map_or(0, |&(_, c)| c) + u64::from(bytes);
            self.arrivals.push((landed, cum));
            self.parked.pop_front();
        }
    }

    /// When `bytes` become available to the receiving CPU (pushes already
    /// recorded only).
    pub fn data_available(&self, t: Time, bytes: u32) -> Option<Time> {
        let need = self.popped + u64::from(bytes);
        let landed = self.arrivals.partition_point(|&(_, cum)| cum < need);
        self.arrivals.get(landed).map(|&(at, _)| at.max(t))
    }

    /// The receiving CPU pops `bytes` from the receive FIFO at `t`,
    /// paying PIO cost per word. Returns the pop completion time, or
    /// `None` if the data has not arrived.
    pub fn pop(&mut self, t: Time, bytes: u32) -> Option<Time> {
        let at = self.data_available(t, bytes)?;
        let words = u64::from(bytes.div_ceil(8));
        let done = at + self.config.pio_word_cost * words;
        self.popped += u64::from(bytes);
        self.credit.pop(at, bytes);
        // Freed credit may release parked chunks (stop wire deasserts).
        self.try_launch();
        Some(done)
    }

    /// Cost of one status-register poll.
    pub fn poll_cost(&self) -> Duration {
        self.config.status_poll_cost
    }

    /// Bytes sitting in (or in flight towards) the receive FIFO at `t`.
    pub fn recv_level(&self, t: Time) -> u32 {
        self.credit.level(t)
    }

    /// Total payload bytes pushed through this direction.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Chunks whose wire launch was delayed by the stop wire (no
    /// receive-side credit when they were ready).
    pub fn stop_stalls(&self) -> u64 {
        self.stop_stalls
    }

    /// Highest receive-FIFO occupancy observed, in bytes.
    pub fn peak_recv_level(&self) -> u32 {
        self.peak_recv_level
    }

    /// Publishes this direction's counters under `prefix`: `bytes`,
    /// `stop_stalls` and `peak_recv_fifo_bytes` (the high-water mark of
    /// receive-FIFO occupancy).
    pub fn publish_metrics(&self, reg: &mut pm_sim::metrics::MetricRegistry, prefix: &str) {
        reg.count(&format!("{prefix}/bytes"), self.bytes);
        reg.count(&format!("{prefix}/stop_stalls"), self.stop_stalls);
        reg.count(
            &format!("{prefix}/peak_recv_fifo_bytes"),
            u64::from(self.peak_recv_level),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pays_pio_per_word() {
        let cfg = NiConfig::powermanna();
        let mut dir = NiDirection::new(cfg);
        let done = dir.push(Time::ZERO, 64).unwrap();
        // 8 words x 33 ns.
        assert_eq!(done, Time::ZERO + cfg.pio_word_cost * 8);
    }

    #[test]
    fn data_arrives_after_wire_and_path() {
        let cfg = NiConfig::powermanna();
        let mut dir = NiDirection::new(cfg);
        let pushed = dir.push(Time::ZERO, 8).unwrap();
        let avail = dir.data_available(Time::ZERO, 8).unwrap();
        let min = pushed + cfg.wire.byte_time * 8 + cfg.wire.latency + cfg.path_delay;
        assert_eq!(avail, min);
    }

    #[test]
    fn pop_waits_for_arrival() {
        let mut dir = NiDirection::new(NiConfig::powermanna());
        assert!(dir.pop(Time::ZERO, 8).is_none());
        dir.push(Time::ZERO, 8).unwrap();
        let popped = dir.pop(Time::ZERO, 8).unwrap();
        assert!(popped > Time::ZERO);
    }

    #[test]
    fn send_fifo_backpressures_when_receiver_stalls() {
        // With no pops, the pipeline holds send FIFO + recv credit; beyond
        // that, pushes block.
        let mut dir = NiDirection::new(NiConfig::powermanna());
        let mut t = Time::ZERO;
        let mut pushed = 0u32;
        while let Some(done) = dir.push(t, 64) {
            t = done;
            pushed += 64;
            assert!(pushed <= 2048, "flow control never engaged");
        }
        // Both FIFOs' worth (256 + 256) must fit before blocking.
        assert!(
            pushed >= 512,
            "blocked too early at {pushed} bytes (send+recv FIFOs hold 512)"
        );
        // Draining the receiver frees space for more pushes.
        let drained = dir.pop(t, 64).expect("data waiting");
        assert!(dir.push(drained, 64).is_some());
    }

    #[test]
    fn streaming_reaches_link_rate() {
        // With an eager receiver, throughput approaches 60 MB/s.
        let mut dir = NiDirection::new(NiConfig::powermanna());
        let mut send_t = Time::ZERO;
        let mut recv_t = Time::ZERO;
        let total = 64 * 1024u32;
        let mut sent = 0;
        let mut received = 0;
        let mut last_data = Time::ZERO;
        while received < total {
            if sent < total {
                if let Some(done) = dir.push(send_t, 64) {
                    send_t = done;
                    sent += 64;
                    continue;
                }
            }
            let popped = dir.pop(recv_t, 64).expect("sender is ahead");
            recv_t = popped;
            received += 64;
            last_data = popped;
        }
        let mbs = total as f64 / last_data.as_secs_f64() / 1e6;
        assert!(
            (50.0..61.0).contains(&mbs),
            "streaming {mbs:.1} MB/s should approach the 60 MB/s link"
        );
    }

    #[test]
    fn deeper_fifos_buffer_more_before_blocking() {
        let shallow = NiConfig::powermanna();
        let deep = NiConfig::powermanna().with_fifo_factor(4);
        let capacity = |cfg: NiConfig| -> u32 {
            let mut dir = NiDirection::new(cfg);
            let mut t = Time::ZERO;
            let mut pushed = 0;
            while let Some(done) = dir.push(t, 64) {
                t = done;
                pushed += 64;
                if pushed > 1 << 20 {
                    break;
                }
            }
            pushed
        };
        assert!(capacity(deep) > capacity(shallow) * 2);
    }

    #[test]
    #[should_panic(expected = "chunk larger than FIFO")]
    fn oversized_chunk_panics() {
        let mut dir = NiDirection::new(NiConfig::powermanna());
        dir.push(Time::ZERO, 512);
    }

    #[test]
    fn stop_wire_stalls_and_fifo_high_water_are_observable() {
        // Fill both FIFOs with no receiver: launches beyond the credit
        // window stall, and the receive FIFO hits its capacity.
        let mut dir = NiDirection::new(NiConfig::powermanna());
        let mut t = Time::ZERO;
        while let Some(done) = dir.push(t, 64) {
            t = done;
        }
        assert_eq!(dir.stop_stalls(), 0, "nothing launched late yet");
        assert_eq!(dir.peak_recv_level(), 256, "recv credit window is full");
        // Draining releases parked chunks whose launch waited on credit.
        let mut rt = t;
        while let Some(done) = dir.pop(rt, 64) {
            rt = done;
        }
        assert!(dir.stop_stalls() > 0, "parked chunks launched late");

        let mut reg = pm_sim::metrics::MetricRegistry::new();
        dir.publish_metrics(&mut reg, "node0/ni/tx");
        assert_eq!(reg.counter_value("node0/ni/tx/bytes"), Some(dir.bytes()));
        assert_eq!(
            reg.counter_value("node0/ni/tx/stop_stalls"),
            Some(dir.stop_stalls())
        );
        assert_eq!(
            reg.counter_value("node0/ni/tx/peak_recv_fifo_bytes"),
            Some(256)
        );
    }

    #[test]
    fn small_message_latency_is_microseconds() {
        // An 8-byte payload end to end: PIO in, wire, PIO out — the order
        // of a microsecond, matching Figure 9's scale.
        let mut dir = NiDirection::new(NiConfig::powermanna());
        dir.push(Time::ZERO, 8).unwrap();
        let done = dir.pop(Time::ZERO, 8).unwrap();
        let us = done.as_us_f64();
        assert!(us < 2.0, "8-byte one-hop path {us:.2} us too slow");
        assert!(us > 0.2, "8-byte path {us:.2} us implausibly fast");
    }
}
