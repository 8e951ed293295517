//! Cache geometry and address slicing.

/// Size, associativity and line length of one cache level.
///
/// # Examples
///
/// ```
/// use pm_mem::geometry::CacheGeometry;
///
/// // The MPC620's on-chip data cache: 32 Kbyte, 8-way, 64-byte lines.
/// let g = CacheGeometry::new(32 * 1024, 8, 64);
/// assert_eq!(g.sets(), 64);
/// assert_eq!(g.line_index(0x1040), 0x41);
/// assert_eq!(g.set_index(0x1040), 0x41 % 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: u32,
    line_bytes: u32,
    /// log2 of the line size: an address shifted right by this is its
    /// line index.
    line_shift: u32,
    /// log2 of the set count: a line index shifted right by this is its
    /// tag, and its low `set_shift` bits are its set.
    set_shift: u32,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` and `ways` are nonzero powers of two and
    /// `size_bytes` is an exact multiple of `ways * line_bytes`.
    pub fn new(size_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways > 0, "associativity must be nonzero");
        let way_bytes = ways as u64 * line_bytes as u64;
        assert!(
            size_bytes >= way_bytes && size_bytes.is_multiple_of(way_bytes),
            "cache size {size_bytes} not a multiple of ways*line = {way_bytes}"
        );
        let sets = size_bytes / way_bytes;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheGeometry {
            size_bytes,
            ways,
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
        }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity (lines per set).
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Line length in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        1 << self.set_shift
    }

    /// Global line index of an address (address divided by line size).
    pub fn line_index(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Set an address maps to.
    pub fn set_index(&self, addr: u64) -> u64 {
        self.line_index(addr) & (self.sets() - 1)
    }

    /// Tag stored for an address (line index with set bits removed).
    pub fn tag(&self, addr: u64) -> u64 {
        self.line_index(addr) >> self.set_shift
    }

    /// Base address of the line with `tag` in set `set`: the inverse of
    /// [`CacheGeometry::tag`] and [`CacheGeometry::set_index`].
    pub(crate) fn line_addr(&self, tag: u64, set: u64) -> u64 {
        ((tag << self.set_shift) | set) << self.line_shift
    }

    /// Base address of the line containing `addr`.
    pub fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes as u64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpc620_l1_geometry() {
        let g = CacheGeometry::new(32 * 1024, 8, 64);
        assert_eq!(g.sets(), 64);
        assert_eq!(g.ways(), 8);
        assert_eq!(g.line_bytes(), 64);
    }

    #[test]
    fn pentium_l1_geometry() {
        let g = CacheGeometry::new(16 * 1024, 4, 32);
        assert_eq!(g.sets(), 128);
    }

    #[test]
    fn slicing_roundtrip() {
        let g = CacheGeometry::new(32 * 1024, 8, 64);
        let addr = 0xdead_b000u64 + 37;
        let set = g.set_index(addr);
        let tag = g.tag(addr);
        // tag+set reconstruct the line index
        assert_eq!(tag * g.sets() + set, g.line_index(addr));
        assert_eq!(g.line_base(addr), addr & !63);
        assert_eq!(g.line_addr(tag, set), g.line_base(addr));
    }

    #[test]
    fn distinct_tags_same_set_conflict() {
        let g = CacheGeometry::new(1024, 1, 64); // 16 direct-mapped sets
        let a = 0u64;
        let b = 1024u64; // same set, different tag
        assert_eq!(g.set_index(a), g.set_index(b));
        assert_ne!(g.tag(a), g.tag(b));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_line() {
        CacheGeometry::new(1024, 2, 48);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_fractional_sets() {
        CacheGeometry::new(1000, 2, 64);
    }
}
