//! Occupancy-timeline resources for contention modelling.
//!
//! The node-level timing models (bus address/data phases, DRAM banks,
//! link serialisers) do not need a full event loop: each shared unit can be
//! modelled as a *resource* that remembers when it next becomes free.
//! A request arriving at `t` is serviced at `max(t, next_free)` and holds
//! the resource for its occupancy. Contention then *emerges* from the
//! interleaving of requests — exactly how the paper's dispatcher
//! sequentialises MPC620 address phases while the ADSP switch lets data
//! phases proceed in parallel.

use crate::time::{Duration, Time};

/// A unit that serves one request at a time (a bus phase, an arbiter
/// grant, a non-pipelined functional unit).
///
/// # Examples
///
/// ```
/// use pm_sim::resource::Resource;
/// use pm_sim::time::{Duration, Time};
///
/// let mut addr_phase = Resource::new();
/// // Two snoop address phases requested at the same instant are
/// // sequentialised, as the MPC620 bus protocol requires.
/// let a = addr_phase.acquire(Time::ZERO, Duration::from_ns(17));
/// let b = addr_phase.acquire(Time::ZERO, Duration::from_ns(17));
/// assert_eq!(a, Time::ZERO);
/// assert_eq!(b, Time::from_ps(17_000));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Resource {
    next_free: Time,
    busy: Duration,
    grants: u64,
}

impl Resource {
    /// Creates a resource that is free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the resource at `t` for `occupancy`; returns the grant
    /// time (when service actually starts).
    pub fn acquire(&mut self, t: Time, occupancy: Duration) -> Time {
        let start = t.max(self.next_free);
        self.next_free = start + occupancy;
        self.busy += occupancy;
        self.grants += 1;
        start
    }

    /// The instant at which the resource next becomes free.
    pub fn next_free(&self) -> Time {
        self.next_free
    }

    /// Total time the resource has been occupied.
    pub fn busy_time(&self) -> Duration {
        self.busy
    }

    /// Number of grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Fraction of `[0, horizon]` during which the resource was occupied.
    ///
    /// Returns 0.0 for a zero horizon.
    pub fn utilization(&self, horizon: Duration) -> f64 {
        if horizon == Duration::ZERO {
            0.0
        } else {
            self.busy.as_ps() as f64 / horizon.as_ps() as f64
        }
    }

    /// Resets the resource to free-at-zero, clearing statistics.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: Duration = Duration::from_ns(1);

    #[test]
    fn resource_serialises_overlapping_requests() {
        let mut r = Resource::new();
        let g0 = r.acquire(Time::ZERO, NS * 10);
        let g1 = r.acquire(Time::from_ps(2_000), NS * 10);
        let g2 = r.acquire(Time::from_ps(25_000), NS * 10);
        assert_eq!(g0, Time::ZERO);
        assert_eq!(g1, Time::from_ps(10_000)); // waited 8 ns
        assert_eq!(g2, Time::from_ps(25_000)); // no wait, was free
        assert_eq!(r.grants(), 3);
        assert_eq!(r.busy_time(), NS * 30);
    }

    #[test]
    fn resource_utilization() {
        let mut r = Resource::new();
        r.acquire(Time::ZERO, NS * 25);
        assert!((r.utilization(NS * 100) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(Duration::ZERO), 0.0);
    }

    #[test]
    fn resource_reset_clears_state() {
        let mut r = Resource::new();
        r.acquire(Time::ZERO, NS);
        r.reset();
        assert_eq!(r.grants(), 0);
        assert_eq!(r.acquire(Time::ZERO, NS), Time::ZERO);
    }
}
