//! The asynchronous inter-cabinet transceiver (§3.2).
//!
//! "Physically, the clock-synchronous link protocol is limited to short
//! distances, e.g. within a cabinet. To bridge the greater distance
//! between cabinets (up to 30 m) asynchronous transceivers have been
//! implemented. On the input side of the transceivers, there are
//! asynchronous FIFO buffers with 2-Kbyte entries allowing soft flow
//! control over a longer distance."
//!
//! [`TransceiverConfig`] describes the pair: sender-side synchroniser,
//! cable flight time and the receiver-side 2-KB asynchronous FIFO. The
//! deep FIFO is what lets the stop signal work over a cable whose round
//! trip exceeds many byte times. Routes charge an asynchronous segment
//! its latency through [`WireConfig::asynchronous`] and its flow control
//! through [`TransceiverConfig::stop_wire`].

use crate::stopwire::StopWireConfig;
use crate::wire::WireConfig;
use pm_sim::time::Duration;

/// Transceiver configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransceiverConfig {
    /// Cable length in metres (≤30 per the paper).
    pub cable_metres: u32,
    /// Synchroniser cost per chunk at each end (clock-domain crossing).
    pub sync_latency: Duration,
    /// Receive-side asynchronous FIFO capacity (2 KB in hardware).
    pub fifo_bytes: u32,
    /// The link clocking on both sides.
    pub wire: WireConfig,
}

impl Default for TransceiverConfig {
    fn default() -> Self {
        Self::powermanna(30)
    }
}

impl TransceiverConfig {
    /// The PowerMANNA transceiver at the given cable length.
    ///
    /// # Panics
    ///
    /// Panics if the cable exceeds the 30 m the hardware supports.
    pub fn powermanna(cable_metres: u32) -> Self {
        assert!(cable_metres <= 30, "cable limited to 30 m");
        TransceiverConfig {
            cable_metres,
            sync_latency: Duration::from_ns(50),
            fifo_bytes: 2048,
            wire: WireConfig::synchronous(),
        }
    }

    /// Signal flight time over the cable (~5 ns/m).
    pub fn flight_time(&self) -> Duration {
        Duration::from_ns(5 * self.cable_metres as u64)
    }

    /// Stop-signal round trip: the window of data that can still arrive
    /// after the receiver asserts stop. The 2-KB FIFO must cover it.
    pub fn stop_round_trip(&self) -> Duration {
        self.flight_time() * 2 + self.sync_latency * 2
    }

    /// Bytes in flight during one stop round trip at link rate.
    pub fn skid_bytes(&self) -> u32 {
        (self.stop_round_trip().as_ps() / self.wire.byte_time.as_ps()) as u32 + 1
    }

    /// The stop-wire view of an asynchronous route segment: the deep
    /// receive-side FIFO with its *stop* observed one cable round trip
    /// late. Stop asserts at 7/8 full (clamped so the skid bytes always
    /// fit), resumes at half, and the lag is [`Self::skid_bytes`] link
    /// ticks — the asynchronous analogue of the backplane link's
    /// [`StopWireConfig::powermanna`].
    pub fn stop_wire(&self) -> StopWireConfig {
        let lag = self.skid_bytes();
        let config = StopWireConfig {
            fifo_bytes: self.fifo_bytes,
            stop_threshold: (self.fifo_bytes * 7 / 8).min(self.fifo_bytes - lag - 1),
            resume_threshold: self.fifo_bytes / 2,
            stop_lag: lag,
        };
        config.validate();
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_time_scales_with_cable() {
        let short = TransceiverConfig::powermanna(2);
        let long = TransceiverConfig::powermanna(30);
        assert_eq!(short.flight_time(), Duration::from_ns(10));
        assert_eq!(long.flight_time(), Duration::from_ns(150));
        assert!(long.stop_round_trip() > short.stop_round_trip());
    }

    #[test]
    fn skid_fits_comfortably_in_2kb() {
        // The FIFO exists precisely to cover the stop-signal round trip:
        // at 30 m the skid is a few dozen bytes, far below 2 KB.
        let cfg = TransceiverConfig::powermanna(30);
        assert!(
            cfg.skid_bytes() < cfg.fifo_bytes / 4,
            "skid {}",
            cfg.skid_bytes()
        );
    }

    #[test]
    fn stop_wire_covers_the_skid_and_composes_in_routes() {
        let cfg = TransceiverConfig::powermanna(30);
        let sw = cfg.stop_wire();
        assert_eq!(sw.fifo_bytes, 2048);
        assert_eq!(sw.stop_lag, cfg.skid_bytes());
        // Lossless by construction, and deep enough to compose with
        // synchronous hops in a multi-segment route (no underrun).
        assert!(sw.headroom_needed() <= sw.fifo_bytes);
        assert!(sw.resume_threshold > sw.stop_lag);
        // Even the worst-case legal cable keeps its skid covered.
        for metres in [0, 1, 15, 30] {
            TransceiverConfig::powermanna(metres).stop_wire();
        }
    }

    #[test]
    #[should_panic(expected = "30 m")]
    fn cable_too_long_rejected() {
        TransceiverConfig::powermanna(31);
    }
}
