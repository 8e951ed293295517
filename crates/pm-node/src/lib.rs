//! The PowerMANNA single-board node computer (§2 + §3.3 of the paper).
//!
//! * [`dispatcher`] — the central dispatcher: absorbs the MPC620's
//!   split-transaction, pipelined, tagged out-of-order bus protocol and
//!   presents a simple interface to all other units (patent pending, per
//!   the paper).
//! * [`crc`] — the CRC the link-interface ASIC generates and checks on
//!   every message.
//! * [`ni`] — the network interface: per-direction FIFOs of 32 x 64-bit
//!   words, memory-mapped to the CPUs; no NIC processor, no DMA.
//! * [`node`] — the assembled dual-MPC620 node.
//!
//! The §2 ADSP switch has no model of its own here: its per-master data
//! paths are the memory bus's [`pm_mem::bus::DataPath::PerPort`].
//!
//! # Examples
//!
//! ```
//! use pm_node::node::Node;
//!
//! let node = Node::powermanna();
//! assert_eq!(node.cpu.clock.mhz(), 180.0);
//! assert_eq!(node.config().ni.send_fifo_bytes, 256); // 32 x 64-bit words
//! ```

pub mod crc;
pub mod dispatcher;
pub mod ni;
pub mod node;

pub use crc::{crc16, Crc16};
pub use dispatcher::{Dispatcher, DispatcherConfig, TransactionKind};
pub use ni::{NiConfig, NiDirection};
pub use node::{Node, NodeConfig};
