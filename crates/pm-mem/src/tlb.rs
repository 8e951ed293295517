//! A data TLB model.
//!
//! The MPC620 "provides support for demand-paged virtual-memory address
//! translation" (§2) with an on-chip MMU. For the evaluation one TLB
//! property matters enormously: the naive MatMult's column walk touches a
//! new page almost every access once the row stride passes the page size,
//! and the TLB reach (entries x 4 KB) is what separates the naive curve
//! from the transposed one at large N.
//!
//! Each set keeps its pages in recency order, most recently used first
//! and empty entries last, as [`crate::cache`] keeps its lines: a hit
//! moves its page to the front and a miss shifts the set down one slot,
//! dropping the last (empty or least recently used) entry, and writes
//! the new page at the front. The naive MatMult alternates between a
//! page of A and a page of B, so most of its hits in the UltraSPARC's
//! single 64-way set reuse the second most recent page and are found in
//! the second slot scanned.

use crate::cache::move_to_front;
use pm_sim::time::Duration;

/// TLB geometry and miss cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: u32,
    /// Associativity (entries per set).
    pub ways: u32,
    /// Page size in bytes.
    pub page_bytes: u32,
    /// Latency added to an access that misses the TLB (hardware table
    /// walk on the MPC620/PII, software handler on the UltraSPARC).
    pub miss_penalty: Duration,
}

impl TlbConfig {
    /// The MPC620 data TLB: 128 entries, 2-way, hardware table walk.
    pub fn mpc620() -> Self {
        TlbConfig {
            entries: 128,
            ways: 2,
            page_bytes: 4096,
            miss_penalty: Duration::from_ns(150),
        }
    }

    /// The UltraSPARC-I dTLB: 64 entries, fully associative, but a
    /// *software* miss handler (Solaris TSB) — expensive misses.
    pub fn ultrasparc() -> Self {
        TlbConfig {
            entries: 64,
            ways: 64,
            page_bytes: 8192,
            miss_penalty: Duration::from_ns(360),
        }
    }

    /// The Pentium II dTLB: 64 entries, 4-way, fast hardware walker with
    /// page tables usually resident in L2.
    pub fn pentium_ii() -> Self {
        TlbConfig {
            entries: 64,
            ways: 4,
            page_bytes: 4096,
            miss_penalty: Duration::from_ns(120),
        }
    }

    /// Address range covered when fully populated.
    pub fn reach_bytes(&self) -> u64 {
        self.entries as u64 * self.page_bytes as u64
    }
}

/// TLB statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations that hit.
    pub hits: u64,
    /// Translations that missed (paid the walk penalty).
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio over all translations.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Publishes the counters under `{prefix}/hits` and `{prefix}/misses`.
    pub fn publish(&self, reg: &mut pm_sim::metrics::MetricRegistry, prefix: &str) {
        reg.count(&format!("{prefix}/hits"), self.hits);
        reg.count(&format!("{prefix}/misses"), self.misses);
    }
}

/// The page number of an empty entry. No address produces it
/// ([`Tlb::new`] checks), so a scan compares page numbers alone.
const EMPTY_PAGE: u64 = u64::MAX;

/// A set-associative TLB with LRU replacement.
///
/// # Examples
///
/// ```
/// use pm_mem::tlb::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::mpc620());
/// assert!(!tlb.translate(0x1000));      // cold miss
/// assert!(tlb.translate(0x1FFF));       // same page: hit
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    /// The page number in each of the `entries` slots, set-major: set `s`
    /// owns the `ways` slots from `s * ways`, most recently used first and
    /// empty entries last.
    pages: Vec<u64>,
    /// log2 of the page size.
    page_shift: u32,
    /// `sets - 1` when the set count is a power of two; `None` selects
    /// the remainder by the set count.
    set_mask: Option<u64>,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics unless the page size is a power of two, the TLB has at
    /// least one entry, and `ways` is nonzero and divides `entries`.
    /// Panics on one-byte pages too: every address is then its own page
    /// number, which leaves no spare one to mark an empty entry.
    pub fn new(config: TlbConfig) -> Self {
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size power of two"
        );
        assert!(
            config.page_bytes > 1,
            "one-byte pages leave no spare page number for an empty entry"
        );
        assert!(config.entries > 0, "TLB needs at least one entry");
        assert!(
            config.ways > 0 && config.entries.is_multiple_of(config.ways),
            "ways must divide entries"
        );
        let sets = u64::from(config.entries / config.ways);
        Tlb {
            config,
            pages: vec![EMPTY_PAGE; config.entries as usize],
            page_shift: config.page_bytes.trailing_zeros(),
            set_mask: sets.is_power_of_two().then_some(sets - 1),
            stats: TlbStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Translates `addr`: returns `true` on a hit. A miss installs the
    /// page (caller adds [`TlbConfig::miss_penalty`] to its latency).
    pub fn translate(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        let ways = self.config.ways as usize;
        let set = match self.set_mask {
            Some(mask) => page & mask,
            None => remainder(page, &self.config),
        };
        let base = set as usize * ways;
        let slots = &mut self.pages[base..base + ways];
        let hit = slots.iter().position(|&p| p == page);
        // A miss overwrites the last entry, which is empty or least
        // recently used.
        move_to_front(slots, hit.unwrap_or(ways - 1), page);
        if hit.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit.is_some()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

/// The set of `page` when the set count is not a power of two. Out of
/// line, so the divisions stay off the path every modelled machine takes.
#[cold]
#[inline(never)]
fn remainder(page: u64, config: &TlbConfig) -> u64 {
    page % u64::from(config.entries / config.ways)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(TlbConfig::mpc620());
        assert!(!t.translate(0x0));
        assert!(t.translate(0xFFF));
        assert!(!t.translate(0x1000));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn working_set_within_reach_stays_resident() {
        let cfg = TlbConfig::mpc620();
        let mut t = Tlb::new(cfg);
        // Touch 64 pages (half the reach), twice: second pass all hits.
        for p in 0..64u64 {
            t.translate(p * 4096);
        }
        let misses_before = t.stats().misses;
        for p in 0..64u64 {
            assert!(t.translate(p * 4096), "page {p} should be resident");
        }
        assert_eq!(t.stats().misses, misses_before);
    }

    #[test]
    fn thrash_beyond_reach() {
        let cfg = TlbConfig::mpc620();
        let mut t = Tlb::new(cfg);
        let pages = cfg.entries as u64 * 4; // 4x the capacity
        for round in 0..3 {
            for p in 0..pages {
                t.translate(p * 4096);
            }
            let _ = round;
        }
        assert!(
            t.stats().miss_ratio() > 0.9,
            "cyclic overflow should thrash: {:.2}",
            t.stats().miss_ratio()
        );
    }

    #[test]
    fn alternating_pages_survive_a_miss_in_a_full_set() {
        let cfg = TlbConfig::ultrasparc(); // one set of 64 ways
        let page = |p: u64| p * u64::from(cfg.page_bytes);
        let mut t = Tlb::new(cfg);
        for p in 0..64 {
            t.translate(page(p));
        }
        // Pages 0 and 1 were the two oldest; alternating makes them the
        // two most recent, so page 2 is now the least recently used.
        for _ in 0..10 {
            assert!(t.translate(page(0)));
            assert!(t.translate(page(1)));
        }
        assert!(!t.translate(page(64)));
        for p in [0, 1].into_iter().chain(3..64) {
            assert!(t.translate(page(p)), "page {p} should be resident");
        }
        assert!(!t.translate(page(2)), "page 2 should have been evicted");
    }

    #[test]
    fn ultrasparc_uses_8k_pages() {
        let cfg = TlbConfig::ultrasparc();
        let mut t = Tlb::new(cfg);
        assert!(!t.translate(0));
        assert!(t.translate(8191));
        assert_eq!(cfg.reach_bytes(), 64 * 8192);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        Tlb::new(TlbConfig {
            entries: 0,
            ways: 1,
            page_bytes: 4096,
            miss_penalty: Duration::ZERO,
        });
    }

    #[test]
    #[should_panic(expected = "no spare page number")]
    fn one_byte_pages_panic() {
        Tlb::new(TlbConfig {
            page_bytes: 1,
            ..TlbConfig::mpc620()
        });
    }

    #[test]
    #[should_panic(expected = "ways must divide")]
    fn bad_geometry_panics() {
        Tlb::new(TlbConfig {
            entries: 10,
            ways: 3,
            page_bytes: 4096,
            miss_penalty: Duration::ZERO,
        });
    }
}
