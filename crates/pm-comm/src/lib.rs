//! User-level communication for the PowerMANNA reproduction (§3.3, §4,
//! §5.2 of the paper).
//!
//! PowerMANNA has no NIC processor and no DMA: the node CPUs drive the
//! memory-mapped link interfaces directly. This crate implements that
//! software layer and the microbenchmarks of Figures 9–12:
//!
//! * [`config`] — the communication-stack cost model (route setup, the
//!   user-level software send/receive overheads, the direction-switch
//!   cost of the bidirectional driver).
//! * [`duplex`] — a full-duplex channel between two nodes: two
//!   [`pm_node::ni::NiDirection`]s plus functional messages with CRC.
//! * [`driver`] — the PIO driver loops: blocking send/receive, ping-pong,
//!   saturation streaming, and the 4-cache-line alternating bidirectional
//!   loop §5.2 describes.
//! * [`baselines`] — calibrated LogGP-style models of BIP and FM on the
//!   Myrinet/PentiumPro cluster the paper compares against (its own
//!   numbers are quoted from the literature, so ours are too).
//! * [`reliable`] — the recovery tiers over the CRC:
//!   [`reliable::ResilientNetwork`] drives capped retransmission, plane
//!   failover and fault accounting over multi-hop routes.
//!
//! # Examples
//!
//! ```
//! use pm_comm::config::CommConfig;
//! use pm_comm::driver;
//!
//! let cfg = CommConfig::powermanna();
//! let lat = driver::one_way_latency(&cfg, 8);
//! // Figure 9: 8 bytes in 2.75 us.
//! assert!((2.0..3.5).contains(&lat.as_us_f64()));
//! ```

pub mod baselines;
pub mod config;
pub mod driver;
pub mod duplex;
pub mod earth;
pub mod mpi;
pub mod reliable;

pub use baselines::LoggpModel;
pub use config::CommConfig;
pub use duplex::{DuplexChannel, Message, RecvError};
pub use earth::{EarthConfig, EarthRun};
pub use mpi::MpiWorld;
pub use reliable::{DeliveryError, ResilientNetwork, RetryPolicy};
