//! The physical link: a rate-limited, fixed-latency byte conduit.
//!
//! §3.2: "The PowerMANNA link is a clock-synchronous, byte-parallel,
//! bidirectional point-to-point connection operating at 60 MHz. Each port
//! simultaneously supports incoming and outgoing connections at up to
//! 60 Mbyte/s (120 Mbyte/s full-duplex)." A [`Wire`] models *one
//! direction* of such a link; full duplex means two independent `Wire`s.
//!
//! Inter-cabinet links pass through asynchronous transceivers (§3.2) which
//! add propagation latency (up to 30 m of cable plus synchronisation) but
//! keep the same byte rate thanks to their 2-Kbyte FIFOs.

use pm_sim::resource::Resource;
use pm_sim::time::{Duration, Time};

/// Rate and latency of one link direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireConfig {
    /// Time to serialise one byte onto the link (the 60 MHz link clock
    /// moves one byte per cycle: 16.667 ns).
    pub byte_time: Duration,
    /// Propagation latency from sender to receiver (board traces for
    /// synchronous links; cable + synchroniser for asynchronous ones).
    pub latency: Duration,
}

impl WireConfig {
    /// A synchronous backplane link at 60 MHz: one byte per 16.667 ns,
    /// negligible (one-cycle) propagation.
    pub fn synchronous() -> Self {
        WireConfig {
            byte_time: Duration::from_ps(16_667),
            latency: Duration::from_ps(16_667),
        }
    }

    /// An asynchronous inter-cabinet link: same byte rate, plus cable
    /// flight time (≤30 m ≈ 150 ns) and synchroniser cycles.
    pub fn asynchronous() -> Self {
        WireConfig {
            byte_time: Duration::from_ps(16_667),
            latency: Duration::from_ns(250),
        }
    }

    /// Peak bandwidth of one direction in Mbyte/s.
    pub fn bandwidth_mbs(&self) -> f64 {
        1.0 / (self.byte_time.as_secs_f64() * 1e6)
    }
}

/// One direction of a link: accepts byte chunks, delivers them after
/// serialisation + propagation.
///
/// # Examples
///
/// ```
/// use pm_net::wire::{Wire, WireConfig};
/// use pm_sim::time::Time;
///
/// let mut w = Wire::new(WireConfig::synchronous());
/// let (start, arrive) = w.send(Time::ZERO, 64);
/// assert_eq!(start, Time::ZERO);
/// // 64 bytes at 60 MB/s ≈ 1.07 us on the wire.
/// assert!(arrive.as_us_f64() > 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct Wire {
    config: WireConfig,
    serializer: Resource,
    bytes_sent: u64,
}

impl Wire {
    /// Creates an idle wire.
    pub fn new(config: WireConfig) -> Self {
        Wire {
            config,
            serializer: Resource::new(),
            bytes_sent: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> WireConfig {
        self.config
    }

    /// Sends a chunk of `bytes` no earlier than `t`.
    ///
    /// Returns `(start, arrive)`: when serialisation began (the wire is a
    /// shared serial resource — concurrent sends queue) and when the last
    /// byte reaches the far end.
    pub fn send(&mut self, t: Time, bytes: u32) -> (Time, Time) {
        let occupancy = self.config.byte_time * bytes as u64;
        let start = self.serializer.acquire(t, occupancy);
        self.bytes_sent += bytes as u64;
        (start, start + occupancy + self.config.latency)
    }

    /// When the wire next becomes free to accept a new chunk.
    pub fn free_at(&self) -> Time {
        self.serializer.next_free()
    }

    /// Total bytes pushed through this wire.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_link_is_60_mbs() {
        let bw = WireConfig::synchronous().bandwidth_mbs();
        assert!((59.0..61.0).contains(&bw), "bandwidth {bw:.1}");
    }

    #[test]
    fn chunks_serialise_back_to_back() {
        let cfg = WireConfig::synchronous();
        let mut w = Wire::new(cfg);
        let (s0, _) = w.send(Time::ZERO, 8);
        let (s1, _) = w.send(Time::ZERO, 8);
        assert_eq!(s0, Time::ZERO);
        assert_eq!(s1, Time::ZERO + cfg.byte_time * 8);
        assert_eq!(w.bytes_sent(), 16);
    }

    #[test]
    fn streaming_achieves_link_rate() {
        let cfg = WireConfig::synchronous();
        let mut w = Wire::new(cfg);
        let chunks = 1000u32;
        let mut last_arrival = Time::ZERO;
        for _ in 0..chunks {
            let (_, arrive) = w.send(Time::ZERO, 64);
            last_arrival = arrive;
        }
        let mbs = (chunks as f64 * 64.0) / last_arrival.as_secs_f64() / 1e6;
        assert!(
            (57.0..61.0).contains(&mbs),
            "streaming bandwidth {mbs:.1} MB/s"
        );
    }

    #[test]
    fn async_link_same_rate_higher_latency() {
        let sync = WireConfig::synchronous();
        let asyn = WireConfig::asynchronous();
        assert_eq!(sync.byte_time, asyn.byte_time);
        assert!(asyn.latency > sync.latency);
        let mut w = Wire::new(asyn);
        let (_, arrive) = w.send(Time::ZERO, 1);
        assert_eq!(arrive, Time::ZERO + asyn.byte_time + asyn.latency);
    }

    #[test]
    fn idle_gap_passes_through() {
        let mut w = Wire::new(WireConfig::synchronous());
        w.send(Time::ZERO, 64);
        let later = Time::from_ps(10_000_000);
        let (s, _) = w.send(later, 8);
        assert_eq!(s, later);
    }
}
