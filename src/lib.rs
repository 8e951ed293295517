//! # powermanna
//!
//! A simulator and reproduction harness for **PowerMANNA**, the
//! distributed-memory parallel computer built from dual PowerPC MPC620
//! nodes and a hierarchy of 16x16 wormhole-routed crossbars
//! (Behr, Pletner, Sodan — HPCA 2000).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — simulated time, clocks, event queues, resources, statistics.
//! * [`isa`] — the abstract micro-op ISA traced by the workload kernels.
//! * [`mem`] — caches, MESI coherence, the interleaved DRAM model.
//! * [`cpu`] — the superscalar CPU timing model (MPC620 and the two
//!   comparison machines from Table 1).
//! * [`node`] — the single-board node: dispatcher, network interface,
//!   CRC.
//! * [`net`] — links, crossbars, topologies, route and fault simulation.
//! * [`comm`] — the user-level PIO messaging layer and cluster baselines.
//! * [`workloads`] — HINT and MatMult reimplementations.
//! * [`machine`] — system assembly (Table 1 configs) and the experiment
//!   harness regenerating every figure in the paper.
//!
//! # Quick start
//!
//! ```
//! use powermanna::machine::systems;
//!
//! // Build the paper's two-way PowerMANNA node and run a dot-product
//! // kernel through its timing model.
//! let node = systems::powermanna().node;
//! assert_eq!(node.cpu.clock.mhz(), 180.0);
//! ```

pub use pm_comm as comm;
pub use pm_core as machine;
pub use pm_cpu as cpu;
pub use pm_isa as isa;
pub use pm_mem as mem;
pub use pm_net as net;
pub use pm_node as node;
pub use pm_sim as sim;
pub use pm_workloads as workloads;
