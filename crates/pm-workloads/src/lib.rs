//! Workload kernels for the PowerMANNA evaluation (§5.1 of the paper).
//!
//! * [`hint`] — a reimplementation of the HINT benchmark (Gustafson &
//!   Snell): hierarchical refinement of the integral of `(1-x)/(1+x)`
//!   over `[0,1]`, reporting QUIPS (quality improvements per second).
//!   The kernel is *functional* — it really subdivides intervals and
//!   bounds the integral — and each pass streams the instructions its
//!   inner loop would execute, so the timing model sees the true
//!   working-set growth.
//! * [`matmult`] — the NASPAR-style MatMult benchmark in the paper's two
//!   versions: (a) naive row-by-column and (b) multiply-by-transpose
//!   (including the transposition cost), with the odd-stride allocation
//!   the figures specify. Large sizes are simulated by row sampling.
//! * [`stream`] — the STREAM triad micro-kernel used by the node-scaling
//!   ablation.
//! * [`traffic`] — deterministic multi-tenant traffic generation
//!   (Poisson, bursty, hotspot, uniform all-to-all) for the X12
//!   offered-load collapse study.
//!
//! # Examples
//!
//! ```
//! use pm_workloads::hint::{Hint, HintType};
//!
//! let mut h = Hint::new(HintType::Double);
//! let pass = h.pass();
//! assert!(h.quality() > 1.0);
//! assert!(pass.ops.map(|i| i.op.flops()).sum::<u64>() > 0);
//! ```

pub mod blocked;
pub mod hint;
pub mod matmult;
pub mod stencil;
pub mod stream;
pub mod traffic;

pub use blocked::BlockedMatMult;
pub use hint::{Hint, HintPass, HintType};
pub use matmult::{MatMult, MatMultVersion};
pub use stencil::Stencil;
pub use traffic::{Message, TrafficConfig, TrafficGen, TrafficPattern};
