//! Memory hierarchy models for the PowerMANNA reproduction.
//!
//! The paper's node performance results (HINT's QUIPS curve, MatMult's
//! naive/transposed gap, the dual-processor speedups of Figure 8) are all
//! memory-hierarchy effects. This crate provides the functional + timing
//! models those experiments run on:
//!
//! * [`geometry`] — cache geometry (size/ways/line) and address slicing.
//! * [`mesi`] — the MESI coherence states and snoop transaction types the
//!   MPC620 implements in hardware.
//! * [`cache`] — a set-associative, write-back, write-allocate cache with
//!   LRU replacement and per-line MESI state.
//! * [`dram`] — the interleaved, pipelined node memory (640 Mbyte/s from
//!   cheap DRAM banks, as §2 of the paper describes).
//! * [`bus`] — the processor-bus timing model: sequentialised address/snoop
//!   phases (the MPC620 protocol) with either a shared data bus (SUN,
//!   Pentium II) or per-port point-to-point data paths (the PowerMANNA
//!   ADSP switch).
//! * [`hierarchy`] — the composed [`hierarchy::MemorySystem`]: per-CPU
//!   L1 + L2, shared snoop bus, DRAM; returns access latency and records
//!   hit/miss/intervention statistics.
//! * [`pool`] — `with_node_mem`, which hands a sweep point a cold
//!   `MemorySystem`.
//!
//! # Examples
//!
//! ```
//! use pm_mem::hierarchy::{Access, HierarchyConfig, MemorySystem};
//! use pm_sim::time::Time;
//!
//! let cfg = HierarchyConfig::mpc620_node(2);
//! let mut mem = MemorySystem::new(cfg);
//! // First touch misses everywhere, second touch hits in L1.
//! let cold = mem.access(0, Access::read(0x1000), Time::ZERO);
//! let warm = mem.access(0, Access::read(0x1008), cold.done_at);
//! assert!(cold.latency > warm.latency);
//! ```

pub mod bus;
pub mod cache;
pub mod dram;
pub mod geometry;
pub mod hierarchy;
pub mod mesi;
pub mod pool;
pub mod tlb;

pub use bus::{BusConfig, DataPath, SnoopBus};
pub use cache::{Cache, CacheStats, EvictedLine};
pub use dram::{Dram, DramConfig};
pub use geometry::CacheGeometry;
pub use hierarchy::{Access, AccessResult, HierarchyConfig, MemorySystem, ServiceLevel};
pub use mesi::{MesiState, SnoopKind};
pub use tlb::{Tlb, TlbConfig, TlbStats};
