//! The sweep-point entry into a cold [`MemorySystem`].

use crate::hierarchy::{HierarchyConfig, MemorySystem};

/// Runs `f` on `MemorySystem::new(config)`; nothing is kept between
/// calls.
///
/// # Examples
///
/// ```
/// use pm_mem::hierarchy::{Access, HierarchyConfig, ServiceLevel};
/// use pm_mem::pool::with_node_mem;
/// use pm_sim::time::Time;
///
/// let cfg = HierarchyConfig::mpc620_node(1);
/// for _ in 0..2 {
///     let r = with_node_mem(cfg, |mem| mem.access(0, Access::read(0x40), Time::ZERO));
///     // Every call starts cold: the second one misses to DRAM again.
///     assert_eq!(r.level, ServiceLevel::Dram);
/// }
/// ```
pub fn with_node_mem<R>(config: HierarchyConfig, f: impl FnOnce(&mut MemorySystem) -> R) -> R {
    f(&mut MemorySystem::new(config))
}
