//! Simulation substrate for the PowerMANNA reproduction.
//!
//! This crate provides the building blocks every other crate in the
//! workspace uses to model hardware in simulated time:
//!
//! * [`time`] — picosecond-resolution simulated [`time::Time`] and
//!   exact-period [`time::Clock`] domains (the paper's 180 MHz CPU clock,
//!   60 MHz bus clock and 60 MHz link clock never share a period, so all
//!   conversions go through picoseconds).
//! * [`event`] — a deterministic discrete-event queue used by the
//!   flit-level network simulator.
//! * [`resource`] — an occupancy-timeline [`resource::Resource`] that
//!   models contention on buses, banks and links without a full event loop.
//! * [`par`] — a zero-dependency bounded worker pool; [`par::par_sweep`]
//!   fans independent sweep points across threads with results stitched
//!   back in input order, so parallel runs stay byte-identical to serial.
//! * [`rng`] — a small, seedable, dependency-free PRNG so every experiment
//!   is reproducible bit-for-bit.
//! * [`stats`] — counters, histograms, series, figures and tables plus
//!   CSV/markdown/ASCII rendering for the experiment harness.
//! * [`metrics`] — the hierarchical [`metrics::MetricRegistry`] every
//!   model layer publishes its counters and histograms into, keyed by
//!   component path (`node0/mem/cpu0/l1/hits`), rendered as a tree or
//!   diff-stable CSV.
//!
//! # Examples
//!
//! ```
//! use pm_sim::time::{Clock, Time};
//!
//! let cpu = Clock::from_mhz(180.0);
//! let bus = Clock::from_mhz(60.0);
//! // Three CPU cycles fit in one bus cycle (180 MHz vs 60 MHz).
//! assert_eq!(cpu.cycles_in(bus.period()), 3);
//! assert_eq!(cpu.time_of_cycle(3), Time::from_ps(bus.period().as_ps()));
//! ```

pub mod event;
pub mod metrics;
pub mod par;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use metrics::{MetricId, MetricRegistry};
pub use par::par_sweep;
pub use resource::Resource;
pub use rng::SimRng;
pub use stats::{Counter, Histogram, Series};
pub use time::{Clock, Duration, Time};
