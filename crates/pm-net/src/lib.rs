//! The PowerMANNA communication system (§3 of the paper).
//!
//! * [`wire`] — the physical link: clock-synchronous, byte-parallel,
//!   bidirectional at 60 MHz (60 Mbyte/s per direction); asynchronous
//!   transceiver variants add inter-cabinet latency.
//! * [`fifo`] — byte FIFOs with capacity and time-aware occupancy, the
//!   building block of soft (stop-signal) flow control.
//! * [`crossbar`] — the 16x16 crossbar ASIC: per-input route decoding,
//!   per-output arbitration, wormhole connections opened by a `route`
//!   byte (0.2 us through-routing) and torn down by `close`.
//! * [`topology`] — the interconnect graph and the standard PowerMANNA
//!   configurations: the eight-node cluster with two crossbars
//!   (Figure 5a) and the 256-processor system built from row/column
//!   permutation networks (Figure 5b).
//! * [`network`] — connection-level simulation over a topology: open a
//!   wormhole connection, stream bytes at link rate, close.
//! * [`routesim`] — flit-level wormhole simulation of whole routes
//!   (up to three crossbars) with oblivious or adaptive path choice,
//!   scaled for 1000+ simultaneous worms on the 1024-node hierarchy.
//! * [`fault`] — seeded, deterministic fault plans: transient flit
//!   corruption, scheduled permanent link deaths and scheduled
//!   repairs, driving the duplicated-network failover in [`network`],
//!   the rerouting in [`mesh`], and the self-healing loop in
//!   [`routesim`].
//! * [`backoff`] — the capped exponential retry backoff, optionally
//!   jittered, shared by every retransmitting layer.
//! * [`health`] — per-source online link-health tables: quarantine
//!   learned from failed opens and delivery timeouts only (no oracle),
//!   escalating windows, re-probe and reinstatement.
//!
//! # Examples
//!
//! ```
//! use pm_net::topology::Topology;
//! use pm_net::network::Network;
//! use pm_sim::time::Time;
//!
//! let mut net = Network::new(Topology::cluster8());
//! let mut conn = net.open(0, 5, 0, Time::ZERO).expect("route exists");
//! let outcome = conn.transfer(conn.ready_at(), 1024);
//! conn.close(&mut net, outcome.finished);
//! assert!(outcome.finished > Time::ZERO);
//! ```

pub mod backoff;
pub mod crossbar;
pub mod error;
pub mod fault;
pub mod fifo;
pub mod flitsim;
pub mod health;
pub mod mesh;
pub mod network;
pub mod outcome;
pub mod routesim;
pub mod stopwire;
pub mod topology;
pub mod transceiver;
pub mod wire;

pub use backoff::RetryPolicy;
pub use crossbar::{Crossbar, CrossbarConfig};
pub use error::NetError;
pub use fault::{
    FaultPlan, FaultPlanError, FaultStats, LinkDown, LinkRef, LinkRepair, TransientInjector,
};
pub use fifo::TimedFifo;
pub use flitsim::{FlitSimResult, Packet};
pub use health::{HealthConfig, HealthTable};
pub use mesh::{Mesh, MeshConfig, MeshError};
pub use network::{Connection, FailoverOutcome, Network, RouteBackpressure, RouteError};
pub use outcome::{OutcomeHandles, TransferOutcome};
pub use routesim::{
    FailoverMode, ResilienceConfig, ResilienceStats, ResilientResult, RoutePolicy, RouteSim,
    RouteSimResult, WatchdogConfig, Worm, WormOutcome,
};
pub use stopwire::{RouteFlowStats, StallWindows, StopWireConfig, StopWireEngine, StopWireStats};
pub use topology::{LinkKey, LinkKind, NodeId, Topology, XbarId};
pub use transceiver::TransceiverConfig;
pub use wire::{Wire, WireConfig};
