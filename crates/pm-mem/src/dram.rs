//! The interleaved, pipelined node memory.
//!
//! §2 of the paper: "The interleaved and pipelined node memory of up to
//! 1 Gbyte uses cheap standard DRAM modules and provides an access
//! bandwidth of 640 Mbyte/s." The bandwidth comes from *interleaving*
//! line transfers across banks so that bank busy times overlap; a single
//! bank is much slower.

use pm_sim::resource::Resource;
use pm_sim::time::{Duration, Time};

/// Timing/geometry parameters for the banked DRAM model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of interleaved banks (a power of two).
    pub banks: u32,
    /// Bytes per interleave unit (a power of two) — consecutive units
    /// round-robin over banks. PowerMANNA interleaves cache-line-sized
    /// bursts.
    pub interleave_bytes: u32,
    /// Time from row access start to first data (access latency).
    pub access: Duration,
    /// Bank busy time per burst (precharge + burst) — the bank cannot accept
    /// the next request until this elapses.
    pub bank_busy: Duration,
    /// Time to stream one line across the memory data pins once data flows.
    pub line_transfer: Duration,
}

impl DramConfig {
    /// The PowerMANNA node memory: 4-way interleaved over 64-byte bursts.
    ///
    /// 640 Mbyte/s over 64-byte lines = one line per 100 ns when
    /// pipelined; a single access sees ~120 ns to first data.
    pub fn powermanna() -> Self {
        DramConfig {
            banks: 4,
            interleave_bytes: 64,
            access: Duration::from_ns(120),
            bank_busy: Duration::from_ns(200),
            line_transfer: Duration::from_ns(100),
        }
    }

    /// A non-interleaved PC-class memory system (used by the Pentium II
    /// baseline): single logical bank, EDO/SDRAM-era timings.
    pub fn pc_sdram() -> Self {
        DramConfig {
            banks: 1,
            interleave_bytes: 32,
            access: Duration::from_ns(110),
            bank_busy: Duration::from_ns(130),
            line_transfer: Duration::from_ns(60),
        }
    }

    /// The SUN Ultra-I node memory: 2-way interleaved.
    pub fn sun_ultra() -> Self {
        DramConfig {
            banks: 2,
            interleave_bytes: 32,
            access: Duration::from_ns(130),
            bank_busy: Duration::from_ns(180),
            line_transfer: Duration::from_ns(80),
        }
    }

    /// Peak streaming bandwidth in Mbyte/s implied by the configuration
    /// (all banks pipelined).
    pub fn peak_bandwidth_mbs(&self) -> f64 {
        // With perfect pipelining, a line leaves every max(bank_busy/banks,
        // line_transfer).
        let per_line = (self.bank_busy.as_ps() / self.banks as u64).max(self.line_transfer.as_ps());
        self.interleave_bytes as f64 / (per_line as f64 * 1e-12) / 1e6
    }
}

/// The banked DRAM timing model.
///
/// # Examples
///
/// ```
/// use pm_mem::dram::{Dram, DramConfig};
/// use pm_sim::time::Time;
///
/// let mut d = Dram::new(DramConfig::powermanna());
/// let first = d.access(0x0000, Time::ZERO);
/// // A second access to a *different* bank starts immediately (interleaving)…
/// let other_bank = d.access(0x0040, Time::ZERO);
/// assert_eq!(first.0, other_bank.0);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    config: DramConfig,
    banks: Vec<Resource>,
    pins: Resource,
    accesses: u64,
    bank_conflicts: u64,
}

impl Dram {
    /// Creates the model with all banks idle.
    ///
    /// # Panics
    ///
    /// Panics if the configured bank count or interleave unit is zero or
    /// not a power of two.
    pub fn new(config: DramConfig) -> Self {
        assert!(
            config.banks.is_power_of_two(),
            "bank count must be a power of two"
        );
        assert!(
            config.interleave_bytes.is_power_of_two(),
            "interleave unit must be a power of two"
        );
        Dram {
            banks: vec![Resource::new(); config.banks as usize],
            pins: Resource::new(),
            config,
            accesses: 0,
            bank_conflicts: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Which bank serves `addr`.
    pub fn bank_of(&self, addr: u64) -> u32 {
        ((addr >> self.config.interleave_bytes.trailing_zeros()) & u64::from(self.config.banks - 1))
            as u32
    }

    /// Performs a line access at `addr` starting no earlier than `t`.
    ///
    /// Returns `(start, data_ready)`: when the bank accepted the request and
    /// when the full line has been delivered.
    pub fn access(&mut self, addr: u64, t: Time) -> (Time, Time) {
        self.accesses += 1;
        let bank = self.bank_of(addr) as usize;
        let start = self.banks[bank].acquire(t, self.config.bank_busy);
        if start > t {
            // The bank was still busy with an earlier burst: the request
            // waited. (Pin contention below does not count — only bank
            // serialisation is a *conflict* in the interleaving sense.)
            self.bank_conflicts += 1;
        }
        // The banks share one set of data pins: the line streams out over
        // them once the bank has the data, which is what caps the node
        // memory at its 640 Mbyte/s figure.
        let data_at = start + self.config.access;
        let pin_start = self.pins.acquire(data_at, self.config.line_transfer);
        let ready = pin_start + self.config.line_transfer;
        (start, ready)
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses that found their bank still busy with an earlier burst
    /// (started later than requested because of bank serialisation).
    pub fn bank_conflicts(&self) -> u64 {
        self.bank_conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_interleave_across_banks() {
        let d = Dram::new(DramConfig::powermanna());
        assert_eq!(d.bank_of(0), 0);
        assert_eq!(d.bank_of(64), 1);
        assert_eq!(d.bank_of(128), 2);
        assert_eq!(d.bank_of(192), 3);
        assert_eq!(d.bank_of(256), 0);
    }

    #[test]
    fn same_bank_serialises() {
        let cfg = DramConfig::powermanna();
        let mut d = Dram::new(cfg);
        let (s0, _) = d.access(0, Time::ZERO);
        let (s1, _) = d.access(256, Time::ZERO); // bank 0 again
        assert_eq!(s0, Time::ZERO);
        assert_eq!(s1, Time::ZERO + cfg.bank_busy);
    }

    #[test]
    fn different_banks_pipeline() {
        let cfg = DramConfig::powermanna();
        let mut d = Dram::new(cfg);
        let (s0, r0) = d.access(0, Time::ZERO);
        let (s1, r1) = d.access(64, Time::ZERO);
        // Both banks accept simultaneously; the second line only waits for
        // the shared data pins, not a full bank busy period.
        assert_eq!(s0, s1);
        assert_eq!(r1, r0 + cfg.line_transfer);
    }

    #[test]
    fn streaming_reaches_configured_bandwidth() {
        // Stream 1024 sequential lines and check achieved bandwidth is
        // close to the configured peak.
        let cfg = DramConfig::powermanna();
        let mut d = Dram::new(cfg);
        let mut t = Time::ZERO;
        let lines = 1024u64;
        let mut last_ready = Time::ZERO;
        for i in 0..lines {
            let (start, ready) = d.access(i * 64, t);
            t = start; // issue next as soon as this one starts
            last_ready = last_ready.max(ready);
        }
        let total_bytes = lines * 64;
        let mbs = total_bytes as f64 / last_ready.as_secs_f64() / 1e6;
        let peak = cfg.peak_bandwidth_mbs();
        assert!(
            mbs > peak * 0.8 && mbs <= peak * 1.05,
            "streaming {mbs:.1} MB/s vs peak {peak:.1}"
        );
    }

    #[test]
    fn powermanna_peak_is_about_640_mbs() {
        let peak = DramConfig::powermanna().peak_bandwidth_mbs();
        assert!(
            (600.0..680.0).contains(&peak),
            "peak {peak:.1} MB/s should be about 640"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_three_banks() {
        let mut cfg = DramConfig::powermanna();
        cfg.banks = 3;
        Dram::new(cfg);
    }

    #[test]
    #[should_panic(expected = "interleave unit must be a power of two")]
    fn rejects_a_48_byte_interleave() {
        let mut cfg = DramConfig::powermanna();
        cfg.interleave_bytes = 48;
        Dram::new(cfg);
    }
}
