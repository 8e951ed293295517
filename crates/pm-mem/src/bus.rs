//! The processor-bus timing model.
//!
//! §2 of the paper explains the two properties that decide SMP scaling:
//!
//! 1. The MPC620 bus protocol *sequentialises the address phases* — the
//!    snoop protocol requires every master to observe every address in
//!    order, so address/snoop phases are a single shared resource on all
//!    three modelled machines.
//! 2. Data phases differ: PowerMANNA's ADSP switch gives every master a
//!    point-to-point data path to memory (data phases of different masters
//!    proceed in parallel); the SUN and the Pentium II route all data over
//!    one shared bus.
//!
//! [`SnoopBus`] models both phases with [`Resource`] occupancy timelines.

use pm_sim::resource::Resource;
use pm_sim::time::{Duration, Time};

/// How data phases are routed between masters and memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataPath {
    /// One shared data bus: all masters' data phases serialise
    /// (conventional SMP, e.g. the Pentium II board).
    Shared,
    /// Point-to-point paths per master (the PowerMANNA ADSP switch): data
    /// phases of different masters overlap; only same-master transfers
    /// serialise.
    PerPort,
}

/// Timing parameters of the bus.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BusConfig {
    /// Occupancy of one address/snoop phase (always sequentialised).
    pub addr_phase: Duration,
    /// Occupancy of one line data phase on a data path.
    pub data_phase: Duration,
    /// Whether the protocol supports split transactions. Without them the
    /// address phase also holds the data path for the whole transaction
    /// (address + memory latency + data), which is how a non-split bus
    /// loses throughput under contention.
    pub split_transactions: bool,
    /// Data-path arrangement.
    pub data_path: DataPath,
}

impl BusConfig {
    /// The PowerMANNA node bus: 60 MHz, split transactions, ADSP per-port
    /// data paths. One address phase per bus clock pair; the MPC620 is
    /// configured with its 128-bit data bus (§2), so a 64-byte line moves
    /// in 4 bus beats.
    pub fn powermanna() -> Self {
        let bus_cycle = Duration::from_ps(16_667); // 60 MHz
        BusConfig {
            addr_phase: bus_cycle * 2,
            data_phase: bus_cycle * 4,
            split_transactions: true,
            data_path: DataPath::PerPort,
        }
    }

    /// The SUN Ultra-I UPA interconnect: 84 MHz, split transactions but a
    /// shared data path; 32-byte lines move in 4 beats (128-bit data path
    /// at half rate modelled as 4 beats).
    pub fn sun_ultra() -> Self {
        let bus_cycle = Duration::from_ps(11_905); // 84 MHz
        BusConfig {
            addr_phase: bus_cycle * 2,
            data_phase: bus_cycle * 4,
            split_transactions: true,
            data_path: DataPath::Shared,
        }
    }

    /// The Pentium II front-side bus at 60 MHz: in-order, non-split,
    /// shared; a 32-byte line moves in 4 beats.
    pub fn pentium_fsb(bus_mhz: f64) -> Self {
        let ps = (1e6 / bus_mhz).round() as u64;
        let bus_cycle = Duration::from_ps(ps);
        BusConfig {
            addr_phase: bus_cycle * 2,
            data_phase: bus_cycle * 4,
            split_transactions: false,
            data_path: DataPath::Shared,
        }
    }
}

/// Statistics accumulated by the bus model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Address/snoop phases issued.
    pub addr_phases: u64,
    /// Data phases issued.
    pub data_phases: u64,
    /// Total time requests waited for the address phase beyond their
    /// request time (contention).
    pub addr_wait: Duration,
    /// Total time requests waited for a data path.
    pub data_wait: Duration,
}

impl BusStats {
    /// Publishes the counters under `{prefix}/addr_phases`,
    /// `{prefix}/data_phases`, `{prefix}/addr_wait_ps` and
    /// `{prefix}/data_wait_ps` (waits are contention totals in
    /// picoseconds).
    pub fn publish(&self, reg: &mut pm_sim::metrics::MetricRegistry, prefix: &str) {
        reg.count(&format!("{prefix}/addr_phases"), self.addr_phases);
        reg.count(&format!("{prefix}/data_phases"), self.data_phases);
        reg.count(&format!("{prefix}/addr_wait_ps"), self.addr_wait.as_ps());
        reg.count(&format!("{prefix}/data_wait_ps"), self.data_wait.as_ps());
    }
}

/// The shared bus: a sequentialised address/snoop phase plus data paths.
///
/// # Examples
///
/// ```
/// use pm_mem::bus::{BusConfig, SnoopBus};
/// use pm_sim::time::Time;
///
/// let mut bus = SnoopBus::new(BusConfig::powermanna(), 2);
/// // Two masters issue transactions at the same instant; their address
/// // phases are sequentialised but their data phases overlap (ADSP).
/// let a = bus.transaction(0, Time::ZERO, true);
/// let b = bus.transaction(1, Time::ZERO, true);
/// assert!(b.addr_done > a.addr_done);
/// ```
#[derive(Clone, Debug)]
pub struct SnoopBus {
    config: BusConfig,
    addr: Resource,
    shared_data: Resource,
    port_data: Vec<Resource>,
    stats: BusStats,
}

/// Completion times of one bus transaction's phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusGrant {
    /// When the address/snoop phase finished (snoop result known).
    pub addr_done: Time,
    /// When the data phase finished (line delivered), equal to `addr_done`
    /// for address-only transactions (upgrades).
    pub data_done: Time,
}

impl SnoopBus {
    /// Creates a bus with `masters` ports.
    ///
    /// # Panics
    ///
    /// Panics if `masters` is zero.
    pub fn new(config: BusConfig, masters: usize) -> Self {
        assert!(masters > 0, "bus needs at least one master");
        SnoopBus {
            config,
            addr: Resource::new(),
            shared_data: Resource::new(),
            port_data: vec![Resource::new(); masters],
            stats: BusStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> BusConfig {
        self.config
    }

    /// Number of master ports.
    pub fn masters(&self) -> usize {
        self.port_data.len()
    }

    /// Issues a full transaction from `master` at time `t`.
    ///
    /// `with_data` selects whether a data phase follows the address phase
    /// (misses move a line; upgrades are address-only).
    ///
    /// # Panics
    ///
    /// Panics if `master` is out of range.
    pub fn transaction(&mut self, master: usize, t: Time, with_data: bool) -> BusGrant {
        assert!(master < self.port_data.len(), "master index out of range");
        let (addr_phase, data_phase) = (self.config.addr_phase, self.config.data_phase);
        if self.config.split_transactions {
            let a_start = self.addr.acquire(t, addr_phase);
            self.stats.addr_phases += 1;
            self.stats.addr_wait += a_start.since(t.min(a_start));
            let addr_done = a_start + addr_phase;
            if !with_data {
                return BusGrant {
                    addr_done,
                    data_done: addr_done,
                };
            }
            let d = self.data_resource(master);
            let d_start = d.acquire(addr_done, data_phase);
            self.stats.data_phases += 1;
            self.stats.data_wait += d_start.since(addr_done);
            BusGrant {
                addr_done,
                data_done: d_start + data_phase,
            }
        } else {
            // Non-split: the whole transaction (address + data) occupies
            // both the address sequencer and the data bus back to back.
            let occupancy = if with_data {
                addr_phase + data_phase
            } else {
                addr_phase
            };
            let a_start = self.addr.acquire(t, occupancy);
            self.stats.addr_phases += 1;
            self.stats.addr_wait += a_start.since(t.min(a_start));
            if with_data {
                // Mirror occupancy onto the shared data bus so utilisation
                // statistics reflect reality.
                let d = self.data_resource(master);
                let d_start = d.acquire(a_start + addr_phase, data_phase);
                self.stats.data_phases += 1;
                self.stats.data_wait += d_start.since(a_start + addr_phase);
                BusGrant {
                    addr_done: a_start + addr_phase,
                    data_done: d_start + data_phase,
                }
            } else {
                let done = a_start + occupancy;
                BusGrant {
                    addr_done: done,
                    data_done: done,
                }
            }
        }
    }

    /// Issues a standalone data movement from `master` at `t` (write-back
    /// of a dirty victim, cache-to-cache copy). Returns its completion time.
    pub fn data_only(&mut self, master: usize, t: Time) -> Time {
        assert!(master < self.port_data.len(), "master index out of range");
        let data_phase = self.config.data_phase;
        let d = self.data_resource(master);
        let start = d.acquire(t, data_phase);
        self.stats.data_phases += 1;
        self.stats.data_wait += start.since(t.min(start));
        start + data_phase
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    fn data_resource(&mut self, master: usize) -> &mut Resource {
        match self.config.data_path {
            DataPath::Shared => &mut self.shared_data,
            DataPath::PerPort => &mut self.port_data[master],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_phases_always_sequentialise() {
        for cfg in [
            BusConfig::powermanna(),
            BusConfig::sun_ultra(),
            BusConfig::pentium_fsb(60.0),
        ] {
            let mut bus = SnoopBus::new(cfg, 2);
            let a = bus.transaction(0, Time::ZERO, false);
            let b = bus.transaction(1, Time::ZERO, false);
            assert!(
                b.addr_done >= a.addr_done + cfg.addr_phase,
                "address phases overlapped on {cfg:?}"
            );
        }
    }

    #[test]
    fn adsp_data_phases_overlap_across_masters() {
        let cfg = BusConfig::powermanna();
        let mut bus = SnoopBus::new(cfg, 2);
        let a = bus.transaction(0, Time::ZERO, true);
        let b = bus.transaction(1, Time::ZERO, true);
        // Master 1's data phase starts right after its (later) address
        // phase, not after master 0's data phase.
        assert_eq!(b.data_done, b.addr_done + cfg.data_phase);
        assert!(b.data_done < a.data_done + cfg.data_phase + cfg.data_phase);
    }

    #[test]
    fn shared_data_path_serialises_masters() {
        let cfg = BusConfig::sun_ultra();
        let mut bus = SnoopBus::new(cfg, 2);
        let a = bus.transaction(0, Time::ZERO, true);
        let b = bus.transaction(1, Time::ZERO, true);
        // Master 1 must wait for master 0's data phase to clear.
        assert!(b.data_done >= a.data_done + cfg.data_phase);
    }

    #[test]
    fn non_split_bus_holds_everything() {
        let cfg = BusConfig::pentium_fsb(60.0);
        let mut bus = SnoopBus::new(cfg, 2);
        let a = bus.transaction(0, Time::ZERO, true);
        let b = bus.transaction(1, Time::ZERO, true);
        // Second transaction's *address* phase waited for the entire first
        // transaction.
        assert!(b.addr_done >= a.addr_done + cfg.addr_phase + cfg.data_phase);
    }

    #[test]
    fn address_only_transactions_skip_data() {
        let cfg = BusConfig::powermanna();
        let mut bus = SnoopBus::new(cfg, 1);
        let g = bus.transaction(0, Time::ZERO, false);
        assert_eq!(g.addr_done, g.data_done);
        assert_eq!(bus.stats().data_phases, 0);
    }

    #[test]
    fn data_only_uses_port_path() {
        let mut bus = SnoopBus::new(BusConfig::powermanna(), 2);
        let d0 = bus.data_only(0, Time::ZERO);
        let d1 = bus.data_only(1, Time::ZERO);
        assert_eq!(d0, d1, "per-port write-backs should overlap");
        let mut shared = SnoopBus::new(BusConfig::sun_ultra(), 2);
        let s0 = shared.data_only(0, Time::ZERO);
        let s1 = shared.data_only(1, Time::ZERO);
        assert!(s1 > s0, "shared bus write-backs must serialise");
    }

    #[test]
    #[should_panic(expected = "master index")]
    fn rejects_bad_master() {
        let mut bus = SnoopBus::new(BusConfig::powermanna(), 2);
        bus.transaction(2, Time::ZERO, true);
    }

    #[test]
    fn stats_track_waits() {
        let cfg = BusConfig::sun_ultra();
        let mut bus = SnoopBus::new(cfg, 2);
        bus.transaction(0, Time::ZERO, true);
        bus.transaction(1, Time::ZERO, true);
        let s = bus.stats();
        assert_eq!(s.addr_phases, 2);
        assert_eq!(s.data_phases, 2);
        assert!(s.data_wait > Duration::ZERO);
    }
}
