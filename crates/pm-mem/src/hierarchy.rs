//! The composed memory system: per-CPU L1 + L2 over a snoop bus and DRAM.
//!
//! The model is *functional over cache metadata* and *timing over
//! resources*: an access walks the real tag stores (so capacity, conflict
//! and coherence behaviour are exact) and collects its latency from the
//! configured hit times, bus phases and DRAM bank timings (so contention
//! between the two processors of a node emerges from resource occupancy).

use crate::bus::{BusConfig, SnoopBus};
use crate::cache::{Cache, CacheStats};
use crate::dram::{Dram, DramConfig};
use crate::geometry::CacheGeometry;
use crate::mesi::{fill_state, snoop, MesiState, SnoopKind, SnoopResponse};
use crate::tlb::{Tlb, TlbConfig, TlbStats};
use pm_sim::time::{Duration, Time};

/// Whether an access reads or writes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// One memory access request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Access {
    /// Virtual byte address. The hierarchy translates it through a
    /// deterministic page-placement function (see [`virt_to_phys`])
    /// before indexing the physically-indexed L2 and DRAM banks.
    pub addr: u64,
    /// Read or write.
    pub kind: AccessKind,
}

/// Deterministic page placement: maps a virtual address to the physical
/// address the OS would have backed it with.
///
/// Real systems hand out physical pages in an order unrelated to virtual
/// layout, which *diffuses* conflict misses in physically-indexed caches
/// instead of letting two large allocations alias set-for-set. The model
/// multiplies the 4-KB virtual page number by a large odd constant — a
/// bijection on `u64`, so distinct pages never collide — and keeps the
/// page offset. L1 indexing is unaffected (its index bits lie within the
/// page on all three machines' relevant configurations), exactly as on
/// virtually-indexed L1 hardware.
///
/// # Examples
///
/// ```
/// use pm_mem::hierarchy::virt_to_phys;
///
/// // Same page, same placement; offset preserved.
/// assert_eq!(virt_to_phys(0x5000) + 5, virt_to_phys(0x5005));
/// // Different pages scatter.
/// assert_ne!(virt_to_phys(0x5000) + 0x1000, virt_to_phys(0x6000));
/// ```
pub fn virt_to_phys(vaddr: u64) -> u64 {
    const PAGE: u64 = 4096;
    // 512 pages = 2 MB, the largest cache in any modelled system: pages
    // permute *within* their 2-MB block by a per-block pseudo-random XOR
    // mask, so two different allocations land at uncorrelated cache
    // offsets while the mapping stays bijective.
    const BLOCK_PAGES: u64 = 512;
    let vpage = vaddr / PAGE;
    let block = vpage / BLOCK_PAGES;
    // SplitMix64 finaliser as the per-block hash.
    let mut z = block.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mask = (z ^ (z >> 31)) % BLOCK_PAGES;
    let ppage = (block * BLOCK_PAGES) | ((vpage % BLOCK_PAGES) ^ mask);
    ppage * PAGE + vaddr % PAGE
}

impl Access {
    /// A read at `addr`.
    pub fn read(addr: u64) -> Self {
        Access {
            addr,
            kind: AccessKind::Read,
        }
    }

    /// A write at `addr`.
    pub fn write(addr: u64) -> Self {
        Access {
            addr,
            kind: AccessKind::Write,
        }
    }
}

/// Where an access was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ServiceLevel {
    /// On-chip L1 data cache.
    L1,
    /// Board-level L2 cache.
    L2,
    /// Another CPU's cache supplied the line (MESI intervention).
    CacheToCache,
    /// Node DRAM.
    Dram,
}

/// Result of one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Time from request to data available.
    pub latency: Duration,
    /// Absolute completion time (`request time + latency`).
    pub done_at: Time,
    /// Which level satisfied the request.
    pub level: ServiceLevel,
}

/// Full configuration of a node's memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of CPUs sharing the node (each gets private L1 + L2).
    pub cpus: usize,
    /// L1 data-cache geometry.
    pub l1: CacheGeometry,
    /// L2 cache geometry.
    pub l2: CacheGeometry,
    /// L1 hit latency.
    pub l1_hit: Duration,
    /// Additional latency of an L2 hit (beyond the L1 lookup).
    pub l2_hit: Duration,
    /// Extra latency of a cache-to-cache intervention beyond the bus
    /// phases (the remote cache's lookup and turnaround).
    pub c2c_penalty: Duration,
    /// Bus timing.
    pub bus: BusConfig,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Data-TLB geometry and miss cost.
    pub tlb: TlbConfig,
}

impl HierarchyConfig {
    /// The PowerMANNA node (§2, Table 1): 32 K 8-way L1 / 2 M L2, 64-byte
    /// lines, L2 at the full 180 MHz CPU clock, ADSP split-transaction bus,
    /// 4-way interleaved DRAM.
    pub fn mpc620_node(cpus: usize) -> Self {
        let cpu_cycle = Duration::from_ps(5_556); // 180 MHz
        HierarchyConfig {
            cpus,
            l1: CacheGeometry::new(32 * 1024, 8, 64),
            l2: CacheGeometry::new(2 * 1024 * 1024, 1, 64),
            l1_hit: cpu_cycle,
            l2_hit: cpu_cycle * 6,
            c2c_penalty: cpu_cycle * 8,
            bus: BusConfig::powermanna(),
            dram: DramConfig::powermanna(),
            tlb: TlbConfig::mpc620(),
        }
    }

    /// The SUN Ultra-I node (Table 1): 16 K L1 / 512 K L2, 32-byte lines.
    pub fn sun_ultra_node(cpus: usize) -> Self {
        let cpu_cycle = Duration::from_ps(5_952); // 168 MHz
        HierarchyConfig {
            cpus,
            l1: CacheGeometry::new(16 * 1024, 1, 32),
            l2: CacheGeometry::new(512 * 1024, 1, 32),
            l1_hit: cpu_cycle,
            l2_hit: cpu_cycle * 7,
            c2c_penalty: cpu_cycle * 10,
            bus: BusConfig::sun_ultra(),
            dram: DramConfig::sun_ultra(),
            tlb: TlbConfig::ultrasparc(),
        }
    }

    /// The Pentium II node (Table 1): 16 K L1 / 512 K L2, 32-byte lines.
    /// `cpu_mhz` selects the 180 MHz (clock-matched) or 266 MHz build;
    /// `bus_mhz` is 60 or 66 accordingly.
    pub fn pentium_node(cpus: usize, cpu_mhz: f64, bus_mhz: f64) -> Self {
        let cpu_cycle = Duration::from_ps((1e6 / cpu_mhz).round() as u64);
        HierarchyConfig {
            cpus,
            l1: CacheGeometry::new(16 * 1024, 4, 32),
            l2: CacheGeometry::new(512 * 1024, 4, 32),
            l1_hit: cpu_cycle,
            // The PII L2 runs at half core clock on the cartridge bus.
            l2_hit: cpu_cycle * 10,
            c2c_penalty: cpu_cycle * 12,
            bus: BusConfig::pentium_fsb(bus_mhz),
            dram: DramConfig::pc_sdram(),
            tlb: TlbConfig::pentium_ii(),
        }
    }
}

/// Per-CPU cache pair plus data TLB.
#[derive(Clone, Debug)]
struct CpuCaches {
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
}

/// The composed, shared memory system of one node.
///
/// # Examples
///
/// ```
/// use pm_mem::hierarchy::{Access, HierarchyConfig, MemorySystem, ServiceLevel};
/// use pm_sim::time::Time;
///
/// let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(2));
/// let r = mem.access(0, Access::read(0x4000), Time::ZERO);
/// assert_eq!(r.level, ServiceLevel::Dram);
/// let r2 = mem.access(0, Access::read(0x4000), r.done_at);
/// assert_eq!(r2.level, ServiceLevel::L1);
/// ```
#[derive(Clone, Debug)]
pub struct MemorySystem {
    config: HierarchyConfig,
    cpus: Vec<CpuCaches>,
    bus: SnoopBus,
    dram: Dram,
    interventions: u64,
    upgrades: u64,
}

impl MemorySystem {
    /// Creates an empty (cold-cache) memory system.
    ///
    /// # Panics
    ///
    /// Panics if `config.cpus` is zero or if L1/L2 line sizes differ (the
    /// model keeps L1 inclusive in L2 at line granularity).
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(config.cpus > 0, "node needs at least one CPU");
        assert_eq!(
            config.l1.line_bytes(),
            config.l2.line_bytes(),
            "L1/L2 line sizes must match for the inclusive hierarchy"
        );
        let cpus = (0..config.cpus)
            .map(|_| CpuCaches {
                l1: Cache::new(config.l1),
                l2: Cache::new(config.l2),
                tlb: Tlb::new(config.tlb),
            })
            .collect();
        MemorySystem {
            cpus,
            bus: SnoopBus::new(config.bus, config.cpus),
            dram: Dram::new(config.dram),
            config,
            interventions: 0,
            upgrades: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// The cache line size in bytes (same at both levels).
    pub fn line_bytes(&self) -> u32 {
        self.config.l1.line_bytes()
    }

    /// Performs one access by CPU `cpu` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn access(&mut self, cpu: usize, access: Access, t: Time) -> AccessResult {
        assert!(cpu < self.cpus.len(), "cpu index out of range");
        let want_write = access.kind == AccessKind::Write;

        // --- Address translation ---------------------------------------
        // A dTLB miss delays the whole access by the table-walk penalty;
        // the caches and DRAM banks index the *physical* address.
        let t = if self.cpus[cpu].tlb.translate(access.addr) {
            t
        } else {
            t + self.config.tlb.miss_penalty
        };
        let addr = self.config.l1.line_base(virt_to_phys(access.addr));

        // --- L1 lookup -----------------------------------------------
        let l1_state = self.cpus[cpu].l1.lookup(addr);
        let after_l1 = t + self.config.l1_hit;
        if l1_state.readable() {
            if !want_write || l1_state.writable() {
                if want_write {
                    self.cpus[cpu].l1.set_state(addr, MesiState::Modified);
                    self.cpus[cpu].l2.set_state(addr, MesiState::Modified);
                }
                return AccessResult {
                    latency: self.config.l1_hit,
                    done_at: after_l1,
                    level: ServiceLevel::L1,
                };
            }
            // Write hit on a Shared line: bus upgrade (address-only).
            let done = self.upgrade(cpu, addr, after_l1);
            return AccessResult {
                latency: done.since(t),
                done_at: done,
                level: ServiceLevel::L1,
            };
        }

        // --- L2 lookup -----------------------------------------------
        let l2_state = self.cpus[cpu].l2.lookup(addr);
        let after_l2 = after_l1 + self.config.l2_hit;
        if l2_state.readable() {
            if !want_write || l2_state.writable() {
                let new_l1_state = if want_write {
                    self.cpus[cpu].l2.set_state(addr, MesiState::Modified);
                    MesiState::Modified
                } else {
                    l2_state
                };
                self.fill_l1(cpu, addr, new_l1_state);
                return AccessResult {
                    latency: after_l2.since(t),
                    done_at: after_l2,
                    level: ServiceLevel::L2,
                };
            }
            // Write hit on Shared in L2: upgrade, then fill L1 Modified.
            let done = self.upgrade(cpu, addr, after_l2);
            self.fill_l1(cpu, addr, MesiState::Modified);
            return AccessResult {
                latency: done.since(t),
                done_at: done,
                level: ServiceLevel::L2,
            };
        }

        // --- Miss: bus transaction ------------------------------------
        let kind = if want_write {
            SnoopKind::ReadExclusive
        } else {
            SnoopKind::Read
        };
        let grant = self.bus.transaction(cpu, after_l2, true);

        // Snoop every other CPU's caches at the end of the address phase.
        let mut remote_had_copy = false;
        let mut intervention = false;
        for other in 0..self.cpus.len() {
            if other == cpu {
                continue;
            }
            let remote_state = self.cpus[other].l2.probe(addr);
            if remote_state == MesiState::Invalid {
                continue;
            }
            remote_had_copy = true;
            let (resp, next) = snoop(remote_state, kind);
            if resp == SnoopResponse::Intervention {
                intervention = true;
            }
            self.cpus[other].l2.snoop_set_state(addr, next);
            // Keep L1 no more permissive than L2 (inclusive hierarchy).
            let l1_next = match next {
                MesiState::Invalid => MesiState::Invalid,
                s => {
                    if self.cpus[other].l1.probe(addr) != MesiState::Invalid {
                        s
                    } else {
                        continue;
                    }
                }
            };
            self.cpus[other].l1.snoop_set_state(addr, l1_next);
        }

        let (level, data_at) = if intervention {
            // Cache-to-cache transfer: the remote cache supplies the line
            // over the data path; DRAM is not involved.
            self.interventions += 1;
            (
                ServiceLevel::CacheToCache,
                grant.data_done + self.config.c2c_penalty,
            )
        } else {
            // DRAM access overlaps the data phase: the line is ready when
            // both the bank delivers and the data path has moved it.
            let (_, dram_ready) = self.dram.access(addr, grant.addr_done);
            (ServiceLevel::Dram, grant.data_done.max(dram_ready))
        };

        // Install in L2 and L1, handling victims (dirty write-backs occupy
        // the data path but do not delay the demand access — the MPC620's
        // split transactions let them drain later).
        let new_state = fill_state(kind, remote_had_copy);
        if let Some(victim) = self.cpus[cpu].l2.fill(addr, new_state) {
            // Inclusive hierarchy: an L2 victim evicts its L1 copy too.
            self.cpus[cpu]
                .l1
                .set_state(victim.base_addr, MesiState::Invalid);
            if victim.state.dirty() {
                self.bus.data_only(cpu, data_at);
            }
        }
        self.fill_l1(cpu, addr, new_state);

        AccessResult {
            latency: data_at.since(t),
            done_at: data_at,
            level,
        }
    }

    /// L1 statistics of one CPU.
    pub fn l1_stats(&self, cpu: usize) -> CacheStats {
        self.cpus[cpu].l1.stats()
    }

    /// L2 statistics of one CPU.
    pub fn l2_stats(&self, cpu: usize) -> CacheStats {
        self.cpus[cpu].l2.stats()
    }

    /// Bus statistics.
    pub fn bus_stats(&self) -> crate::bus::BusStats {
        self.bus.stats()
    }

    /// Number of cache-to-cache interventions served.
    pub fn interventions(&self) -> u64 {
        self.interventions
    }

    /// Number of Shared→Modified upgrades issued.
    pub fn upgrades(&self) -> u64 {
        self.upgrades
    }

    /// Total DRAM line accesses.
    pub fn dram_accesses(&self) -> u64 {
        self.dram.accesses()
    }

    /// DRAM accesses that serialised behind a busy bank.
    pub fn dram_bank_conflicts(&self) -> u64 {
        self.dram.bank_conflicts()
    }

    /// TLB statistics of one CPU.
    pub fn tlb_stats(&self, cpu: usize) -> TlbStats {
        self.cpus[cpu].tlb.stats()
    }

    /// Number of CPUs sharing this node's memory system.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// Publishes every counter this system accumulated under `prefix`:
    /// per-CPU `cpu{i}/l1`, `cpu{i}/l2` and `cpu{i}/tlb` subtrees, the
    /// shared `bus` subtree, the coherence totals (`interventions`,
    /// `upgrades`) and the `dram` subtree (`accesses`, `bank_conflicts`).
    ///
    /// Pull-based: the hot access path never touches a registry; callers
    /// copy the counters out after a run, so skipping the call leaves the
    /// simulation byte-identical.
    pub fn publish_metrics(&self, reg: &mut pm_sim::metrics::MetricRegistry, prefix: &str) {
        for cpu in 0..self.cpus.len() {
            self.l1_stats(cpu)
                .publish(reg, &format!("{prefix}/cpu{cpu}/l1"));
            self.l2_stats(cpu)
                .publish(reg, &format!("{prefix}/cpu{cpu}/l2"));
            self.tlb_stats(cpu)
                .publish(reg, &format!("{prefix}/cpu{cpu}/tlb"));
        }
        self.bus_stats().publish(reg, &format!("{prefix}/bus"));
        reg.count(&format!("{prefix}/interventions"), self.interventions);
        reg.count(&format!("{prefix}/upgrades"), self.upgrades);
        reg.count(&format!("{prefix}/dram/accesses"), self.dram.accesses());
        reg.count(
            &format!("{prefix}/dram/bank_conflicts"),
            self.dram.bank_conflicts(),
        );
    }

    /// Snapshot of every CPU's L2 MESI state for the line containing the
    /// *virtual* address `vaddr` (translated internally).
    pub fn coherence_snapshot(&self, vaddr: u64) -> Vec<MesiState> {
        let addr = self.config.l1.line_base(virt_to_phys(vaddr));
        self.cpus.iter().map(|c| c.l2.probe(addr)).collect()
    }

    /// Checks the global MESI invariants for the line containing `vaddr`:
    ///
    /// 1. at most one cache holds it Modified or Exclusive;
    /// 2. an M/E holder excludes every other copy (no M+S mixtures);
    /// 3. each CPU's L1 state is never more permissive than its L2
    ///    (inclusion).
    ///
    /// Returns `Err` naming the violated invariant.
    pub fn check_coherence(&self, vaddr: u64) -> Result<(), String> {
        let addr = self.config.l1.line_base(virt_to_phys(vaddr));
        let l2: Vec<MesiState> = self.cpus.iter().map(|c| c.l2.probe(addr)).collect();
        let owners = l2
            .iter()
            .filter(|s| matches!(s, MesiState::Modified | MesiState::Exclusive))
            .count();
        if owners > 1 {
            return Err(format!("multiple M/E owners for {vaddr:#x}: {l2:?}"));
        }
        if owners == 1 {
            let copies = l2.iter().filter(|s| **s != MesiState::Invalid).count();
            if copies > 1 {
                return Err(format!(
                    "M/E owner coexists with other copies for {vaddr:#x}: {l2:?}"
                ));
            }
        }
        for (i, c) in self.cpus.iter().enumerate() {
            let l1 = c.l1.probe(addr);
            let l2s = c.l2.probe(addr);
            let rank = |s: MesiState| match s {
                MesiState::Invalid => 0,
                MesiState::Shared => 1,
                MesiState::Exclusive => 2,
                MesiState::Modified => 3,
            };
            if rank(l1) > rank(l2s) {
                return Err(format!(
                    "inclusion violated on cpu {i} for {vaddr:#x}: L1 {l1} > L2 {l2s}"
                ));
            }
        }
        Ok(())
    }

    /// Replaces this instance with `MemorySystem::new(config)`.
    ///
    /// # Panics
    ///
    /// Same requirements as [`MemorySystem::new`].
    pub fn reset_to(&mut self, config: HierarchyConfig) {
        *self = MemorySystem::new(config);
    }

    fn upgrade(&mut self, cpu: usize, addr: u64, t: Time) -> Time {
        self.upgrades += 1;
        let grant = self.bus.transaction(cpu, t, false);
        for other in 0..self.cpus.len() {
            if other == cpu {
                continue;
            }
            self.cpus[other]
                .l2
                .snoop_set_state(addr, MesiState::Invalid);
            self.cpus[other]
                .l1
                .snoop_set_state(addr, MesiState::Invalid);
        }
        self.cpus[cpu].l1.set_state(addr, MesiState::Modified);
        self.cpus[cpu].l2.set_state(addr, MesiState::Modified);
        grant.addr_done
    }

    /// Installs the line the L1 of `cpu` just missed; `Cache::fill`
    /// asserts that it is absent.
    fn fill_l1(&mut self, cpu: usize, addr: u64, state: MesiState) {
        if let Some(victim) = self.cpus[cpu].l1.fill(addr, state) {
            if victim.state.dirty() {
                // Write the dirty L1 victim down into L2 (no bus traffic;
                // the L2 is private and on the module).
                self.cpus[cpu]
                    .l2
                    .set_state(victim.base_addr, MesiState::Modified);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm(cpus: usize) -> MemorySystem {
        MemorySystem::new(HierarchyConfig::mpc620_node(cpus))
    }

    #[test]
    fn cold_miss_goes_to_dram() {
        let mut m = pm(1);
        let r = m.access(0, Access::read(0x1000), Time::ZERO);
        assert_eq!(r.level, ServiceLevel::Dram);
        assert!(r.latency > Duration::from_ns(100));
    }

    #[test]
    fn published_metrics_mirror_the_accessors() {
        let mut m = pm(2);
        let mut t = Time::ZERO;
        for k in 0..64u64 {
            t = m.access((k % 2) as usize, Access::read(k * 72), t).done_at;
        }
        let mut reg = pm_sim::metrics::MetricRegistry::new();
        m.publish_metrics(&mut reg, "node0/mem");
        for cpu in 0..m.cpu_count() {
            let l1 = m.l1_stats(cpu);
            assert_eq!(
                reg.counter_value(&format!("node0/mem/cpu{cpu}/l1/hits")),
                Some(l1.hits)
            );
            assert_eq!(
                reg.counter_value(&format!("node0/mem/cpu{cpu}/l1/misses")),
                Some(l1.misses)
            );
            let tlb = m.tlb_stats(cpu);
            assert_eq!(
                reg.counter_value(&format!("node0/mem/cpu{cpu}/tlb/misses")),
                Some(tlb.misses)
            );
        }
        assert_eq!(
            reg.counter_value("node0/mem/bus/addr_phases"),
            Some(m.bus_stats().addr_phases)
        );
        assert_eq!(
            reg.counter_value("node0/mem/dram/accesses"),
            Some(m.dram_accesses())
        );
        assert_eq!(
            reg.counter_value("node0/mem/dram/bank_conflicts"),
            Some(m.dram_bank_conflicts())
        );
    }

    #[test]
    fn warm_line_hits_l1() {
        let mut m = pm(1);
        let r0 = m.access(0, Access::read(0x1000), Time::ZERO);
        let r1 = m.access(0, Access::read(0x1020), r0.done_at);
        assert_eq!(r1.level, ServiceLevel::L1);
        assert_eq!(r1.latency, m.config().l1_hit);
    }

    #[test]
    fn l1_capacity_eviction_falls_to_l2() {
        let mut m = pm(1);
        let mut t = Time::ZERO;
        // The L1 is 32 K, 8-way, 64 sets: touching 9 lines in the same set
        // evicts the first to L2.
        let set_stride = 64 * 64u64; // lines mapping to the same L1 set
        for i in 0..9 {
            let r = m.access(0, Access::read(i * set_stride), t);
            t = r.done_at;
        }
        let r = m.access(0, Access::read(0), t);
        assert_eq!(r.level, ServiceLevel::L2);
    }

    #[test]
    fn read_read_sharing_across_cpus() {
        let mut m = pm(2);
        let r0 = m.access(0, Access::read(0x2000), Time::ZERO);
        let r1 = m.access(1, Access::read(0x2000), r0.done_at);
        // CPU1 misses to DRAM (clean remote copy, no intervention) and both
        // end Shared.
        assert_eq!(r1.level, ServiceLevel::Dram);
        let r2 = m.access(0, Access::read(0x2000), r1.done_at);
        assert_eq!(r2.level, ServiceLevel::L1);
    }

    #[test]
    fn dirty_remote_line_triggers_intervention() {
        let mut m = pm(2);
        let w = m.access(0, Access::write(0x3000), Time::ZERO);
        let r = m.access(1, Access::read(0x3000), w.done_at);
        assert_eq!(r.level, ServiceLevel::CacheToCache);
        assert_eq!(m.interventions(), 1);
    }

    #[test]
    fn write_to_shared_line_upgrades() {
        let mut m = pm(2);
        let a = m.access(0, Access::read(0x4000), Time::ZERO);
        let b = m.access(1, Access::read(0x4000), a.done_at);
        let w = m.access(0, Access::write(0x4000), b.done_at);
        assert_eq!(m.upgrades(), 1);
        // The other CPU's copy is gone: its next read misses.
        let r = m.access(1, Access::read(0x4000), w.done_at);
        assert_ne!(r.level, ServiceLevel::L1);
    }

    #[test]
    fn write_then_write_stays_local() {
        let mut m = pm(2);
        let w0 = m.access(0, Access::write(0x5000), Time::ZERO);
        let w1 = m.access(0, Access::write(0x5008), w0.done_at);
        assert_eq!(w1.level, ServiceLevel::L1);
        assert_eq!(m.upgrades(), 0);
    }

    #[test]
    fn ping_pong_line_bounces_between_caches() {
        let mut m = pm(2);
        let mut t = Time::ZERO;
        let mut c2c = 0;
        for i in 0..10 {
            let r = m.access(i % 2, Access::write(0x6000), t);
            t = r.done_at;
            if r.level == ServiceLevel::CacheToCache {
                c2c += 1;
            }
        }
        assert!(c2c >= 8, "expected sustained ping-pong, got {c2c}");
    }

    #[test]
    fn streaming_misses_every_line_once() {
        let mut m = pm(1);
        let mut t = Time::ZERO;
        let lines = 256u64;
        for i in 0..lines {
            for w in 0..8u64 {
                let r = m.access(0, Access::read(i * 64 + w * 8), t);
                t = r.done_at;
            }
        }
        assert_eq!(m.dram_accesses(), lines);
        let s = m.l1_stats(0);
        assert_eq!(s.misses, lines);
        assert_eq!(s.hits, lines * 7);
    }

    #[test]
    fn inclusive_l2_eviction_removes_l1_copy() {
        // Direct-mapped L2: find a second virtual line whose *physical*
        // placement maps to the same L2 set as line 0, then check that
        // evicting it from L2 also removes the L1 copy (inclusion).
        let cfg = HierarchyConfig::mpc620_node(1);
        let set_of = |vaddr: u64| cfg.l2.set_index(virt_to_phys(vaddr));
        let target = set_of(0);
        let conflict = (1..1 << 20)
            .map(|k| k * cfg.l2.size_bytes())
            .find(|&a| set_of(a) == target)
            .expect("some block permutation collides with line 0");
        let mut m = MemorySystem::new(cfg);
        let r0 = m.access(0, Access::read(0), Time::ZERO);
        let r1 = m.access(0, Access::read(conflict), r0.done_at);
        // Line 0 was evicted from L2 and must also be gone from L1.
        let r2 = m.access(0, Access::read(0), r1.done_at);
        assert_eq!(r2.level, ServiceLevel::Dram);
    }

    #[test]
    fn sun_and_pentium_configs_construct() {
        let _ = MemorySystem::new(HierarchyConfig::sun_ultra_node(2));
        let _ = MemorySystem::new(HierarchyConfig::pentium_node(2, 180.0, 60.0));
        let _ = MemorySystem::new(HierarchyConfig::pentium_node(2, 266.0, 66.0));
    }

    #[test]
    #[should_panic(expected = "cpu index")]
    fn rejects_bad_cpu() {
        let mut m = pm(1);
        m.access(1, Access::read(0), Time::ZERO);
    }
}

#[cfg(test)]
mod coherence_tests {
    use super::*;
    use pm_sim::rng::SimRng;

    /// Drives random shared-line traffic from both CPUs and checks the
    /// global MESI invariants after every access.
    #[test]
    fn invariants_hold_under_random_traffic() {
        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(2));
        let mut rng = SimRng::seed_from(2024);
        let lines: Vec<u64> = (0..8).map(|i| i * 64).collect();
        let mut t = Time::ZERO;
        for step in 0..2000 {
            let cpu = rng.gen_range(0, 2) as usize;
            let line = lines[rng.gen_range(0, lines.len() as u64) as usize];
            let access = if rng.gen_bool(0.4) {
                Access::write(line)
            } else {
                Access::read(line)
            };
            let r = mem.access(cpu, access, t);
            t = r.done_at;
            for &l in &lines {
                mem.check_coherence(l)
                    .unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
    }

    #[test]
    fn snapshot_reflects_states() {
        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(2));
        let w = mem.access(0, Access::write(0x9000), Time::ZERO);
        let snap = mem.coherence_snapshot(0x9000);
        assert_eq!(snap[0], MesiState::Modified);
        assert_eq!(snap[1], MesiState::Invalid);
        let r = mem.access(1, Access::read(0x9000), w.done_at);
        let snap = mem.coherence_snapshot(0x9000);
        assert_eq!(snap[0], MesiState::Shared);
        assert_eq!(snap[1], MesiState::Shared);
        let _ = r;
    }

    #[test]
    fn four_cpu_invariants_hold() {
        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(4));
        let mut rng = SimRng::seed_from(7);
        let mut t = Time::ZERO;
        for _ in 0..3000 {
            let cpu = rng.gen_range(0, 4) as usize;
            let line = rng.gen_range(0, 4) * 64;
            let access = if rng.gen_bool(0.5) {
                Access::write(line)
            } else {
                Access::read(line)
            };
            let r = mem.access(cpu, access, t);
            t = r.done_at;
        }
        for line in 0..4u64 {
            mem.check_coherence(line * 64).expect("invariants hold");
        }
    }
}
