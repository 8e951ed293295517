//! Abstract micro-op ISA for the PowerMANNA timing models.
//!
//! The paper's evaluation does not depend on PowerPC instruction encodings;
//! it depends on *instruction classes* — how many integer/floating-point
//! operations, loads, stores and branches a kernel issues, their register
//! dependences and their memory addresses. This crate defines that
//! abstraction:
//!
//! * [`Instr`] — one micro-operation with an [`OpClass`], up to two source
//!   registers, a destination register and an optional memory reference or
//!   branch descriptor.
//! * [`TraceBuilder`] — an ergonomic emitter that materialises small
//!   kernels (the STREAM triad, the stencil) and the test oracles. The
//!   lazy HINT and MatMult emitters in `pm-workloads` name registers from
//!   the same [`RegNames`] sequence.
//!
//! The CPU model in `pm-cpu` executes any `IntoIterator<Item = Instr>`, so
//! traces may be materialised (small kernels) or generated lazily (large
//! sweeps).
//!
//! # Examples
//!
//! ```
//! use pm_isa::{TraceBuilder, OpClass};
//!
//! let mut tb = TraceBuilder::new();
//! let (a, b) = (tb.reg(), tb.reg());
//! let x = tb.load(0x1000, 8);
//! let y = tb.fmadd(a, b, x);
//! tb.store(y, 0x2000, 8);
//! let trace = tb.finish();
//! assert_eq!(trace.len(), 3);
//! assert_eq!(trace.instrs()[1].op, OpClass::FpMadd);
//! ```

pub mod instr;
pub mod parse;
pub mod trace;

pub use instr::{BranchInfo, Instr, MemKind, MemRef, OpClass, Reg, VAddr};
pub use parse::{parse_kernel, ParseError};
pub use trace::{RegNames, Trace, TraceBuilder, TraceStats};
