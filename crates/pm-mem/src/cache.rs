//! A set-associative, write-back, write-allocate cache with per-line MESI
//! state and LRU replacement.
//!
//! Each set keeps its lines in recency order, most recently used first
//! and empty slots last, so the order is the LRU state: a hit moves its
//! line to the front, a fill shifts the set down one slot and writes at
//! the front (the slot shifted out is empty or least recently used), and
//! an invalidation removes the line and appends an empty slot. MatMult's
//! reuse sits at the top of that stack, so most hits are found in the
//! first ways scanned.

use crate::geometry::CacheGeometry;
use crate::mesi::MesiState;

/// Per-line metadata: tag and MESI state.
#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    state: MesiState,
}

/// The tag of an empty slot. No address produces it ([`Cache::new`]
/// checks), so a scan compares tags alone.
const EMPTY_TAG: u64 = u64::MAX;

/// An empty slot.
const EMPTY: Line = Line {
    tag: EMPTY_TAG,
    state: MesiState::Invalid,
};

/// Writes `entry` at the front of `set` and shifts the entries in front
/// of slot `way` down one slot, overwriting the entry at `way`: with the
/// way of a hit this moves it to the front, and with the last way it
/// makes room for a new entry.
pub(crate) fn move_to_front<T: Copy>(set: &mut [T], way: usize, entry: T) {
    if way > 0 {
        set.copy_within(..way, 1);
    }
    set[0] = entry;
}

/// A victim line pushed out by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedLine {
    /// Base address of the evicted line.
    pub base_addr: u64,
    /// Its MESI state at eviction; [`MesiState::Modified`] means a
    /// write-back is due.
    pub state: MesiState,
}

/// Hit/miss/eviction counters for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the line in a readable state.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Fills that displaced a valid line.
    pub evictions: u64,
    /// Evictions of Modified lines (write-backs).
    pub writebacks: u64,
    /// Lines invalidated by snoops.
    pub snoop_invalidations: u64,
}

impl CacheStats {
    /// Miss ratio over all lookups (0.0 when no lookups happened).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Publishes the counters under `{prefix}/hits`, `{prefix}/misses`,
    /// `{prefix}/evictions`, `{prefix}/writebacks` and
    /// `{prefix}/snoop_invalidations`.
    pub fn publish(&self, reg: &mut pm_sim::metrics::MetricRegistry, prefix: &str) {
        reg.count(&format!("{prefix}/hits"), self.hits);
        reg.count(&format!("{prefix}/misses"), self.misses);
        reg.count(&format!("{prefix}/evictions"), self.evictions);
        reg.count(&format!("{prefix}/writebacks"), self.writebacks);
        reg.count(
            &format!("{prefix}/snoop_invalidations"),
            self.snoop_invalidations,
        );
    }
}

/// A set-associative cache tag store.
///
/// The cache is *functional over metadata*: it tracks which lines are
/// present and in which MESI state, but carries no data values (the
/// workloads compute values independently; timing only needs presence).
///
/// # Examples
///
/// ```
/// use pm_mem::cache::Cache;
/// use pm_mem::geometry::CacheGeometry;
/// use pm_mem::mesi::MesiState;
///
/// let mut c = Cache::new(CacheGeometry::new(1024, 2, 64));
/// assert_eq!(c.probe(0x40), MesiState::Invalid);
/// c.fill(0x40, MesiState::Exclusive);
/// assert_eq!(c.probe(0x40), MesiState::Exclusive);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `sets * ways` slots, set-major: set `s` owns the `ways` slots from
    /// `s * ways`, most recently used first and empty slots last.
    lines: Vec<Line>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has one-byte lines and one set: every
    /// address is then its own tag, which leaves no spare tag to mark an
    /// empty slot.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            geometry.tag(u64::MAX) != EMPTY_TAG,
            "one-byte lines in one set leave no spare tag for an empty slot"
        );
        Cache {
            geometry,
            lines: vec![EMPTY; geometry.sets() as usize * geometry.ways() as usize],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The index of the first slot of the set `addr` maps to.
    fn set_base(&self, addr: u64) -> usize {
        self.geometry.set_index(addr) as usize * self.geometry.ways() as usize
    }

    /// The slot holding the line containing `addr`, if it is resident.
    fn find(&self, addr: u64) -> Option<usize> {
        let base = self.set_base(addr);
        let tag = self.geometry.tag(addr);
        self.lines[base..base + self.geometry.ways() as usize]
            .iter()
            .position(|l| l.tag == tag)
            .map(|way| base + way)
    }

    /// Returns the MESI state of the line containing `addr` without
    /// affecting LRU order or statistics.
    pub fn probe(&self, addr: u64) -> MesiState {
        self.find(addr)
            .map_or(MesiState::Invalid, |i| self.lines[i].state)
    }

    /// Looks up `addr`, updating LRU order and hit/miss statistics.
    /// Returns the line state ([`MesiState::Invalid`] on miss).
    pub fn lookup(&mut self, addr: u64) -> MesiState {
        let Some(i) = self.find(addr) else {
            self.stats.misses += 1;
            return MesiState::Invalid;
        };
        let base = self.set_base(addr);
        let line = self.lines[i];
        move_to_front(&mut self.lines[base..=i], i - base, line);
        self.stats.hits += 1;
        line.state
    }

    /// Installs the line containing `addr` in `state`, evicting the LRU
    /// victim if the set is full. Returns the victim, if any.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (fill after hit is a model
    /// bug) or if `state` is [`MesiState::Invalid`].
    pub fn fill(&mut self, addr: u64, state: MesiState) -> Option<EvictedLine> {
        assert!(state != MesiState::Invalid, "cannot fill an Invalid line");
        let geometry = self.geometry;
        let tag = geometry.tag(addr);
        let base = self.set_base(addr);
        let set = &mut self.lines[base..base + geometry.ways() as usize];
        assert!(
            set.iter().all(|l| l.tag != tag),
            "fill of already-present line {addr:#x}"
        );
        // The last slot is empty or least recently used, so a set with a
        // free slot evicts nothing and a full set evicts its LRU line.
        let last = set.len() - 1;
        let old = set[last];
        move_to_front(set, last, Line { tag, state });
        if old.state == MesiState::Invalid {
            return None;
        }
        self.stats.evictions += 1;
        if old.state.dirty() {
            self.stats.writebacks += 1;
        }
        Some(EvictedLine {
            base_addr: geometry.line_addr(old.tag, geometry.set_index(addr)),
            state: old.state,
        })
    }

    /// Sets the MESI state of a present line (upgrade/downgrade).
    ///
    /// Setting [`MesiState::Invalid`] removes the line. Does nothing if the
    /// line is absent. The lines that stay keep their LRU order.
    pub fn set_state(&mut self, addr: u64, state: MesiState) {
        let Some(i) = self.find(addr) else {
            return;
        };
        if state == MesiState::Invalid {
            // Close the gap and append an empty slot.
            let end = self.set_base(addr) + self.geometry.ways() as usize;
            self.lines.copy_within(i + 1..end, i);
            self.lines[end - 1] = EMPTY;
        } else {
            self.lines[i].state = state;
        }
    }

    /// Applies a snoop-driven state change, counting invalidations.
    pub fn snoop_set_state(&mut self, addr: u64, state: MesiState) {
        if state == MesiState::Invalid && self.probe(addr) != MesiState::Invalid {
            self.stats.snoop_invalidations += 1;
        }
        self.set_state(addr, state);
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| l.state != MesiState::Invalid)
            .count()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets, 2 ways, 64-byte lines = 512 bytes
        Cache::new(CacheGeometry::new(512, 2, 64))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(0x40), MesiState::Invalid);
        c.fill(0x40, MesiState::Exclusive);
        assert_eq!(c.lookup(0x40), MesiState::Exclusive);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = small();
        c.fill(0x40, MesiState::Shared);
        assert_eq!(c.lookup(0x7f), MesiState::Shared);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Set 0 holds lines with addresses k * sets * line = k * 256.
        c.fill(0, MesiState::Exclusive);
        c.fill(256, MesiState::Exclusive);
        // Touch line 0 so line 256 becomes LRU.
        c.lookup(0);
        let victim = c.fill(512, MesiState::Exclusive).expect("eviction");
        assert_eq!(victim.base_addr, 256);
        assert_eq!(c.probe(0), MesiState::Exclusive);
        assert_eq!(c.probe(256), MesiState::Invalid);
    }

    #[test]
    fn invalidation_frees_a_slot_and_keeps_lru_order() {
        // 4 sets, 4 ways: set 0 holds the lines at multiples of 256.
        let mut c = Cache::new(CacheGeometry::new(1024, 4, 64));
        for k in 0..4 {
            c.fill(k * 256, MesiState::Exclusive);
        }
        c.lookup(0); // most recent first: 0, 768, 512, 256
        c.set_state(512, MesiState::Invalid);
        assert_eq!(c.fill(1024, MesiState::Exclusive), None);
        let victim = c.fill(1280, MesiState::Exclusive).expect("eviction");
        assert_eq!(victim.base_addr, 256);
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    #[should_panic(expected = "no spare tag")]
    fn one_byte_lines_in_one_set_panic() {
        Cache::new(CacheGeometry::new(4, 4, 1));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small();
        c.fill(0, MesiState::Modified);
        c.fill(256, MesiState::Exclusive);
        let v = c.fill(512, MesiState::Exclusive).expect("eviction");
        assert_eq!(v.state, MesiState::Modified);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn evicted_base_address_reconstruction() {
        let g = CacheGeometry::new(512, 1, 64); // 8 direct-mapped sets
        let mut c = Cache::new(g);
        let addr = 0x1234u64 & !63; // some line
        c.fill(addr, MesiState::Modified);
        let conflicting = addr + 8 * 64; // same set, next tag
        let v = c
            .fill(conflicting, MesiState::Exclusive)
            .expect("conflict eviction");
        assert_eq!(v.base_addr, addr);
    }

    #[test]
    fn set_state_transitions() {
        let mut c = small();
        c.fill(0x40, MesiState::Exclusive);
        c.set_state(0x40, MesiState::Modified);
        assert_eq!(c.probe(0x40), MesiState::Modified);
        c.set_state(0x40, MesiState::Invalid);
        assert_eq!(c.probe(0x40), MesiState::Invalid);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn snoop_invalidation_counted() {
        let mut c = small();
        c.fill(0x40, MesiState::Shared);
        c.snoop_set_state(0x40, MesiState::Invalid);
        assert_eq!(c.stats().snoop_invalidations, 1);
        // Invalidating an absent line does not count.
        c.snoop_set_state(0x80, MesiState::Invalid);
        assert_eq!(c.stats().snoop_invalidations, 1);
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_fill_panics() {
        let mut c = small();
        c.fill(0x40, MesiState::Exclusive);
        c.fill(0x44, MesiState::Shared); // same line
    }

    #[test]
    fn miss_ratio() {
        let mut c = small();
        c.lookup(0);
        c.fill(0, MesiState::Exclusive);
        c.lookup(0);
        c.lookup(0);
        assert!((c.stats().miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_working_set_behaviour() {
        // A working set larger than the cache keeps missing; smaller fits.
        let mut c = Cache::new(CacheGeometry::new(4096, 4, 64)); // 64 lines
                                                                 // Fill 32 lines (fits).
        for i in 0..32u64 {
            if c.lookup(i * 64) == MesiState::Invalid {
                c.fill(i * 64, MesiState::Exclusive);
            }
        }
        // Second pass: all hits.
        let before = c.stats().misses;
        for i in 0..32u64 {
            assert_ne!(c.lookup(i * 64), MesiState::Invalid);
        }
        assert_eq!(c.stats().misses, before);
    }
}
