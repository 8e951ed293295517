//! The 16x16 crossbar ASIC (§3.1).
//!
//! The device "integrates all the FIFO buffers and the command- and
//! address-decoding logic for each input channel and the arbiters for the
//! output channels into a single ASIC. It implements a wormhole routing
//! protocol … The setup of a logical connection is initiated by a *route*
//! command. If there are no collisions, this through-routing takes only
//! 0.2 microseconds." Unlike the CM-5's fat-tree switch, *any* input can
//! be routed to *any* output.
//!
//! Connections are circuit-like in time: a route command claims an output
//! port from its establishment until the matching close command. The
//! simulation records opens and closes in time order (the network
//! orchestrator guarantees this), so a route issued against a port whose
//! previous holder has already recorded its close simply waits until that
//! close — which is exactly the blocking behaviour §3 talks about.

use pm_sim::metrics::MetricRegistry;
use pm_sim::time::{Duration, Time};

/// Crossbar geometry and timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrossbarConfig {
    /// Number of ports (16 in the PowerMANNA ASIC).
    pub ports: u32,
    /// Through-routing time when the output is free (route-byte decode +
    /// arbitration): 0.2 µs.
    pub route_time: Duration,
    /// Per-input FIFO capacity in bytes (holds wormhole backlog when the
    /// output is blocked).
    pub input_fifo_bytes: u32,
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        Self::powermanna()
    }
}

impl CrossbarConfig {
    /// The PowerMANNA 16x16 crossbar.
    pub fn powermanna() -> Self {
        CrossbarConfig {
            ports: 16,
            route_time: Duration::from_ns(200),
            input_fifo_bytes: 1024,
        }
    }
}

/// A wormhole connection grant through one crossbar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteGrant {
    /// When the connection was established (output port won).
    pub established: Time,
    /// The output port now held by this connection.
    pub out_port: u32,
}

/// The crossbar: route decoding plus per-output arbitration.
///
/// # Examples
///
/// ```
/// use pm_net::crossbar::{Crossbar, CrossbarConfig};
/// use pm_sim::time::Time;
///
/// let mut xb = Crossbar::new(CrossbarConfig::powermanna());
/// let g = xb.route(0, 7, Time::ZERO);
/// // 0.2 us through-routing on an idle output.
/// assert_eq!(g.established.as_us_f64(), 0.2);
/// xb.close(7, g.established);
/// ```
#[derive(Clone, Debug)]
pub struct Crossbar {
    config: CrossbarConfig,
    /// Per-output: instant from which the port is free again.
    free_at: Vec<Time>,
    /// Per-output: whether a connection holds the port with no close
    /// recorded yet.
    held: Vec<bool>,
    routes: u64,
    conflicts: u64,
    /// Per-output route commands, indexed by port.
    port_routes: Vec<u64>,
    /// Per-output arbitration conflicts, indexed by port.
    port_conflicts: Vec<u64>,
}

impl Crossbar {
    /// Creates an idle crossbar.
    ///
    /// # Panics
    ///
    /// Panics if the configured port count is zero.
    pub fn new(config: CrossbarConfig) -> Self {
        assert!(config.ports > 0, "crossbar needs ports");
        Crossbar {
            free_at: vec![Time::ZERO; config.ports as usize],
            held: vec![false; config.ports as usize],
            port_routes: vec![0; config.ports as usize],
            port_conflicts: vec![0; config.ports as usize],
            config,
            routes: 0,
            conflicts: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> CrossbarConfig {
        self.config
    }

    /// Processes a route command arriving on `in_port` at `t`, requesting
    /// `out_port`. If the previous holder's close has been recorded, the
    /// grant waits until that close; the wait is counted as a conflict.
    ///
    /// # Panics
    ///
    /// Panics if either port is out of range, or if the output is held by
    /// a connection whose close has not been recorded yet (record closes
    /// in time order before routing over them).
    pub fn route(&mut self, in_port: u32, out_port: u32, t: Time) -> RouteGrant {
        assert!(in_port < self.config.ports, "input port out of range");
        assert!(out_port < self.config.ports, "output port out of range");
        let o = out_port as usize;
        assert!(
            !self.held[o],
            "output port {out_port} is held by an open connection; record its close first"
        );
        self.routes += 1;
        self.port_routes[o] += 1;
        let decode_done = t + self.config.route_time;
        if self.free_at[o] > decode_done {
            self.conflicts += 1;
            self.port_conflicts[o] += 1;
        }
        let established = decode_done.max(self.free_at[o]);
        self.held[o] = true;
        self.free_at[o] = Time::MAX;
        RouteGrant {
            established,
            out_port,
        }
    }

    /// Records the close command for `out_port` at `t`, releasing the
    /// connection.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range or not currently held.
    pub fn close(&mut self, out_port: u32, t: Time) {
        assert!(out_port < self.config.ports, "output port out of range");
        let o = out_port as usize;
        assert!(self.held[o], "close on an unheld output port");
        self.held[o] = false;
        self.free_at[o] = t;
    }

    /// Whether `out_port` is currently held by an open connection.
    pub fn is_held(&self, out_port: u32) -> bool {
        self.held[out_port as usize]
    }

    /// Total route commands processed.
    pub fn routes(&self) -> u64 {
        self.routes
    }

    /// Route commands that had to wait for a busy output.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Route commands granted on output `port`.
    pub fn port_routes(&self, port: u32) -> u64 {
        self.port_routes[port as usize]
    }

    /// Arbitration conflicts on output `port`.
    pub fn port_conflicts(&self, port: u32) -> u64 {
        self.port_conflicts[port as usize]
    }

    /// Publishes route/conflict counters under `prefix`: the crossbar
    /// totals plus a `{prefix}/port{p}/...` breakdown for every output
    /// port that saw traffic. A crossbar that routed nothing publishes
    /// nothing, as idle ports do, to keep the tree readable.
    pub fn publish_metrics(&self, reg: &mut MetricRegistry, prefix: &str) {
        if self.routes == 0 {
            return;
        }
        reg.count(&format!("{prefix}/routes"), self.routes);
        reg.count(&format!("{prefix}/conflicts"), self.conflicts);
        for p in 0..self.config.ports {
            let routes = self.port_routes[p as usize];
            if routes > 0 {
                reg.count(&format!("{prefix}/port{p}/routes"), routes);
                reg.count(
                    &format!("{prefix}/port{p}/conflicts"),
                    self.port_conflicts[p as usize],
                );
            }
        }
    }

    /// Resets all ports to idle.
    pub fn reset(&mut self) {
        self.free_at.fill(Time::ZERO);
        self.held.fill(false);
        self.routes = 0;
        self.conflicts = 0;
        self.port_routes.fill(0);
        self.port_conflicts.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_route_takes_200ns() {
        let mut xb = Crossbar::new(CrossbarConfig::powermanna());
        let g = xb.route(3, 9, Time::ZERO);
        assert_eq!(g.established, Time::from_ps(200_000));
        assert!(xb.is_held(9));
    }

    #[test]
    fn any_input_reaches_any_output() {
        // The paper contrasts this with the CM-5's level-restricted 8x8
        // switch: here all 16x16 pairs must route.
        for in_p in 0..16 {
            for out_p in 0..16 {
                let mut xb = Crossbar::new(CrossbarConfig::powermanna());
                let g = xb.route(in_p, out_p, Time::ZERO);
                assert_eq!(g.out_port, out_p);
            }
        }
    }

    #[test]
    fn route_after_recorded_close_waits_for_it() {
        let mut xb = Crossbar::new(CrossbarConfig::powermanna());
        let g0 = xb.route(0, 5, Time::ZERO);
        let close_at = g0.established + Duration::from_us(3);
        xb.close(5, close_at);
        // A new route issued *during* the old connection's lifetime blocks
        // until the close, plus its own decode.
        let g1 = xb.route(1, 5, Time::from_ps(500_000));
        assert_eq!(g1.established, close_at);
        assert_eq!(xb.conflicts(), 1);
    }

    #[test]
    #[should_panic(expected = "held by an open connection")]
    fn routing_over_open_connection_panics() {
        let mut xb = Crossbar::new(CrossbarConfig::powermanna());
        xb.route(0, 5, Time::ZERO);
        xb.route(1, 5, Time::ZERO);
    }

    #[test]
    fn distinct_outputs_do_not_conflict() {
        let mut xb = Crossbar::new(CrossbarConfig::powermanna());
        let g0 = xb.route(0, 1, Time::ZERO);
        let g1 = xb.route(2, 3, Time::ZERO);
        assert_eq!(g0.established, g1.established);
        assert_eq!(xb.conflicts(), 0);
    }

    #[test]
    #[should_panic(expected = "output port out of range")]
    fn rejects_port_17() {
        let mut xb = Crossbar::new(CrossbarConfig::powermanna());
        xb.route(0, 16, Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "unheld output")]
    fn close_requires_open_connection() {
        let mut xb = Crossbar::new(CrossbarConfig::powermanna());
        xb.close(0, Time::ZERO);
    }

    #[test]
    fn reuse_after_close_is_prompt() {
        let mut xb = Crossbar::new(CrossbarConfig::powermanna());
        let g = xb.route(0, 5, Time::ZERO);
        xb.close(5, g.established + Duration::from_us(1));
        let g2 = xb.route(2, 5, Time::from_ps(2_000_000));
        assert_eq!(g2.established, Time::from_ps(2_200_000));
        assert_eq!(xb.routes(), 2);
    }

    #[test]
    fn only_a_crossbar_that_routed_publishes() {
        let mut xb = Crossbar::new(CrossbarConfig::powermanna());
        let mut reg = MetricRegistry::new();
        xb.publish_metrics(&mut reg, "idle");
        assert!(reg.is_empty(), "an idle crossbar publishes no rows");
        xb.route(0, 5, Time::ZERO);
        xb.publish_metrics(&mut reg, "busy");
        assert_eq!(reg.counter_value("busy/routes"), Some(1));
        assert_eq!(reg.counter_value("busy/conflicts"), Some(0));
        assert_eq!(reg.counter_value("busy/port5/routes"), Some(1));
        assert_eq!(reg.len(), 4, "idle ports publish no rows");
    }

    #[test]
    fn reset_releases_everything() {
        let mut xb = Crossbar::new(CrossbarConfig::powermanna());
        xb.route(0, 5, Time::ZERO);
        xb.reset();
        assert!(!xb.is_held(5));
        let g = xb.route(1, 5, Time::ZERO);
        assert_eq!(g.established, Time::from_ps(200_000));
    }
}
