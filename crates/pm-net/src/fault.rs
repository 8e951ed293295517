//! Deterministic fault injection for the network substrate.
//!
//! §3.3 builds the communication system for reliability — CRC
//! generation/checking in the link-interface ASIC and **duplicated
//! networks** with two link interfaces per node — but reliability only
//! means something against concrete failures. This module supplies the
//! failures: a seeded [`FaultPlan`] describes transient flit corruption
//! (a probability per transmission) and permanent link-down events at
//! scheduled instants (node link interfaces or crossbar ports). The same
//! seed always produces the same plan, the same corruption draws, and
//! the same recovery trace, so every degradation curve is reproducible
//! bit-for-bit.
//!
//! Recovery lives one layer up, where both the network and the CRC are
//! visible (`pm_comm::reliable::ResilientNetwork` — pm-net cannot depend
//! on pm-node): tier 1 retransmits CRC-failed messages with capped
//! attempts and exponential backoff, tier 2 fails over to the secondary
//! network plane ([`crate::network::Network::open_with_failover`]),
//! tier 3 reroutes meshes around dead links
//! ([`crate::mesh::Mesh::fail_link`]). [`FaultStats`] counts what each
//! tier absorbed.

use crate::topology::{Endpoint, LinkKey, NodeId, Topology, XbarId};
use pm_sim::rng::SimRng;
use pm_sim::time::{Duration, Time};

/// Seed perturbation for the link-down schedule stream ("LNKD").
const SCHEDULE_STREAM: u64 = 0x4C4E_4B44;
/// Seed perturbation for the transient-corruption stream ("FLIT").
const TRANSIENT_STREAM: u64 = 0x464C_4954;

/// A physical link named by the fault plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkRef {
    /// A node's link interface (the cable into its plane-`plane`
    /// crossbar).
    NodeLink {
        /// The node whose interface dies.
        node: NodeId,
        /// Which duplicated-network plane (0 or 1).
        plane: u32,
    },
    /// A crossbar port (kills the whole dual-link attached to it, both
    /// directions).
    XbarPort {
        /// The crossbar.
        xbar: XbarId,
        /// The port whose link dies.
        port: u32,
    },
}

impl LinkRef {
    /// Resolves this reference to the canonical [`LinkKey`] of the
    /// physical link it names on `topology`, or `None` if the node,
    /// plane, crossbar or port does not exist there (or the port is not
    /// wired). This is the check [`FaultPlan::validate`] applies to
    /// every scheduled event.
    pub fn key(&self, topology: &Topology) -> Option<LinkKey> {
        match *self {
            LinkRef::NodeLink { node, plane } => topology.node_link_key(node, plane),
            LinkRef::XbarPort { xbar, port } => topology.canonical_link_key(xbar, port),
        }
    }
}

/// A scheduled permanent link failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkDown {
    /// When the link dies. Transfers whose worm is still on the link at
    /// this instant lose their tail.
    pub at: Time,
    /// Which link dies.
    pub link: LinkRef,
}

/// A scheduled link repair: the previously killed link comes back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkRepair {
    /// When the link is physically serviceable again. Online health
    /// models do not learn this from the plan — they discover it by
    /// re-probing after their quarantine window expires.
    pub at: Time,
    /// Which link comes back.
    pub link: LinkRef,
}

/// Why a [`FaultPlan`] could not be built or applied.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultPlanError {
    /// The transient corruption rate must be a probability in `[0, 1)`:
    /// a wire that corrupts every transmission can never deliver, so a
    /// rate of 1 (or anything non-finite or negative) is rejected
    /// instead of silently clamped.
    InvalidRate(f64),
    /// A scheduled event names a link the target topology does not
    /// have (node/plane out of range, crossbar/port out of range, or an
    /// unwired port). Before this check, such events silently never
    /// fired — a plan built for one topology applied to another just
    /// looked like a miraculously clean run.
    UnknownLink(LinkRef),
}

impl core::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultPlanError::InvalidRate(r) => {
                write!(f, "transient fault rate {r} outside [0, 1)")
            }
            FaultPlanError::UnknownLink(l) => {
                write!(f, "fault plan names a link the topology lacks: {l:?}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A seeded, fully deterministic description of what goes wrong and
/// when.
///
/// # Examples
///
/// ```
/// use pm_net::fault::{FaultPlan, LinkRef};
/// use pm_sim::time::Time;
///
/// let plan = FaultPlan::clean(42)
///     .with_transient_rate(0.1)
///     .unwrap()
///     .kill_link(Time::from_ps(1_000_000), LinkRef::NodeLink { node: 0, plane: 0 });
/// assert_eq!(plan.schedule().len(), 1);
/// assert_eq!(plan, FaultPlan::clean(42).with_transient_rate(0.1).unwrap()
///     .kill_link(Time::from_ps(1_000_000), LinkRef::NodeLink { node: 0, plane: 0 }));
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    link_downs: Vec<LinkDown>,
    repairs: Vec<LinkRepair>,
}

impl FaultPlan {
    /// A plan with no faults at all — the baseline every degraded run is
    /// compared against.
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            link_downs: Vec::new(),
            repairs: Vec::new(),
        }
    }

    /// Sets the per-transmission corruption probability.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::InvalidRate`] unless `0 <= rate < 1`.
    pub fn with_transient_rate(mut self, rate: f64) -> Result<Self, FaultPlanError> {
        if !rate.is_finite() || !(0.0..1.0).contains(&rate) {
            return Err(FaultPlanError::InvalidRate(rate));
        }
        self.transient_rate = rate;
        Ok(self)
    }

    /// Schedules a permanent failure of `link` at `at`.
    pub fn kill_link(mut self, at: Time, link: LinkRef) -> Self {
        self.link_downs.push(LinkDown { at, link });
        self.link_downs.sort_by_key(|d| d.at);
        self
    }

    /// Schedules `link` to come back at `at` (typically paired with an
    /// earlier [`FaultPlan::kill_link`] of the same link — a rolling
    /// death-and-repair campaign). Repair makes the cable serviceable
    /// again; whether traffic returns to it is up to the consumer's
    /// health model re-probing it.
    pub fn repair_link(mut self, at: Time, link: LinkRef) -> Self {
        self.repairs.push(LinkRepair { at, link });
        self.repairs.sort_by_key(|r| r.at);
        self
    }

    /// Schedules a repair `delay` after every currently scheduled link
    /// death — the "every failure gets serviced" campaign shape in one
    /// call.
    pub fn repair_all_after(mut self, delay: Duration) -> Self {
        let repairs: Vec<LinkRepair> = self
            .link_downs
            .iter()
            .map(|d| LinkRepair {
                at: d.at + delay,
                link: d.link,
            })
            .collect();
        self.repairs.extend(repairs);
        self.repairs.sort_by_key(|r| r.at);
        self
    }

    /// Schedules `count` link failures drawn uniformly over the links
    /// `topology` actually has — node links *and* crossbar-to-crossbar
    /// links, each physical link counted once — at seed-derived instants
    /// within `[0, horizon)`. Every generated [`LinkRef`] is valid for
    /// `topology` by construction, so a hierarchical system's 272
    /// crossbars get their middle uplinks killed too, not just node
    /// cables. The schedule is a pure function of the plan seed: the
    /// same seed always kills the same links at the same times.
    ///
    /// # Panics
    ///
    /// Panics if `topology` has no links.
    pub fn random_link_downs(mut self, topology: &Topology, count: u32, horizon: Duration) -> Self {
        let links = link_refs(topology);
        assert!(!links.is_empty(), "topology has no links to kill");
        let mut rng = SimRng::seed_from(self.seed ^ SCHEDULE_STREAM);
        for _ in 0..count {
            let link = links[rng.gen_range(0, links.len() as u64) as usize];
            let at = Time::from_ps(rng.gen_range(0, horizon.as_ps().max(1)));
            self.link_downs.push(LinkDown { at, link });
        }
        self.link_downs.sort_by_key(|d| d.at);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-transmission corruption probability.
    pub fn transient_rate(&self) -> f64 {
        self.transient_rate
    }

    /// The link-down schedule, sorted by time.
    pub fn schedule(&self) -> &[LinkDown] {
        &self.link_downs
    }

    /// The repair schedule, sorted by time.
    pub fn repairs(&self) -> &[LinkRepair] {
        &self.repairs
    }

    /// Checks that every scheduled death and repair names a link
    /// `topology` actually has. Consumers apply this before a run;
    /// [`crate::routesim::RouteSim::run_resilient`] does it for you.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::UnknownLink`] with the first offending
    /// reference.
    pub fn validate(&self, topology: &Topology) -> Result<(), FaultPlanError> {
        for link in self
            .link_downs
            .iter()
            .map(|d| d.link)
            .chain(self.repairs.iter().map(|r| r.link))
        {
            if link.key(topology).is_none() {
                return Err(FaultPlanError::UnknownLink(link));
            }
        }
        Ok(())
    }
}

/// Every physical link of `topology` exactly once, in deterministic
/// order: walk crossbars and ports ascending; node cables are named
/// from their single crossbar port, dual links from their
/// lexicographically smaller end (the same canonicalisation
/// [`Topology::canonical_link_key`] uses).
fn link_refs(topology: &Topology) -> Vec<LinkRef> {
    let mut out = Vec::new();
    for xbar in 0..topology.crossbars() {
        for port in 0..topology.crossbar_config(xbar).ports {
            match topology.port_peer(xbar, port) {
                Some((Endpoint::Node { node, link }, _)) => {
                    out.push(LinkRef::NodeLink { node, plane: link });
                }
                Some((Endpoint::Xbar { xbar: b, port: bp }, _)) if (xbar, port) < (b, bp) => {
                    out.push(LinkRef::XbarPort { xbar, port });
                }
                _ => {}
            }
        }
    }
    out
}

/// The transient half of a [`FaultPlan`], drawing per-transmission
/// corruption decisions from the plan's seed.
///
/// Each call to [`TransientInjector::draw`] consumes the same amount of
/// randomness whether or not the transmission is corrupted, so the
/// decision stream depends only on the draw *sequence*, never on payload
/// contents.
#[derive(Clone, Debug)]
pub struct TransientInjector {
    rng: SimRng,
    rate: f64,
    drawn: u64,
    corrupted: u64,
}

impl TransientInjector {
    /// Creates the injector for a plan.
    pub fn new(plan: &FaultPlan) -> Self {
        TransientInjector {
            rng: SimRng::seed_from(plan.seed() ^ TRANSIENT_STREAM),
            rate: plan.transient_rate(),
            drawn: 0,
            corrupted: 0,
        }
    }

    /// The corruption probability per draw.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Decides whether one transmission of `payload_len` bytes is
    /// corrupted in flight; if so, returns the `(byte, bit)` to flip
    /// (after the sending ASIC computed the CRC, so the receiver's check
    /// must catch it).
    pub fn draw(&mut self, payload_len: usize) -> Option<(usize, u8)> {
        self.drawn += 1;
        // Burn the position randomness unconditionally: the stream stays
        // aligned across rate sweeps with the same seed.
        let hit = self.rng.gen_bool(self.rate);
        let byte = self.rng.gen_range(0, payload_len.max(1) as u64) as usize;
        let bit = self.rng.gen_range(0, 8) as u8;
        if hit && payload_len > 0 {
            self.corrupted += 1;
            Some((byte, bit))
        } else {
            None
        }
    }

    /// Transmissions decided so far.
    pub fn drawn(&self) -> u64 {
        self.drawn
    }

    /// Transmissions corrupted so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }
}

/// What the recovery tiers did for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages handed to the transport.
    pub messages: u64,
    /// Wire transmissions (first attempts + retransmissions).
    pub transmissions: u64,
    /// CRC failures detected at route endpoints (tier 1 recoveries).
    pub crc_failures: u64,
    /// Opens served by the non-preferred plane because the preferred one
    /// had no healthy route (tier 2 recoveries).
    pub failovers: u64,
    /// Opens whose plane was kept but whose route detoured around a dead
    /// link (tier 2/3 recoveries).
    pub reroutes: u64,
    /// Scheduled link-down events applied so far.
    pub link_downs: u64,
    /// Transfers severed mid-flight by a link death (their tail never
    /// arrived; retransmitted).
    pub severed: u64,
    /// Payload bytes delivered intact (goodput numerator).
    pub delivered_bytes: u64,
    /// Messages abandoned after the retry cap.
    pub retries_exhausted: u64,
}

impl FaultStats {
    /// Goodput in Mbyte/s over `elapsed`: intact payload only — headers,
    /// CRC trailers and every retransmission are overhead.
    pub fn goodput_mbs(&self, elapsed: Duration) -> f64 {
        if elapsed == Duration::ZERO {
            return 0.0;
        }
        self.delivered_bytes as f64 / elapsed.as_secs_f64() / 1e6
    }

    /// Publishes every field as a counter under `prefix`
    /// (`{prefix}/messages`, `{prefix}/transmissions`, …,
    /// `{prefix}/delivered_bytes`, `{prefix}/retries_exhausted`). The
    /// registry-side goodput reconciliation divides
    /// `{prefix}/delivered_bytes` by the experiment's elapsed time,
    /// which is exactly [`FaultStats::goodput_mbs`].
    pub fn publish(&self, reg: &mut pm_sim::metrics::MetricRegistry, prefix: &str) {
        reg.count(&format!("{prefix}/messages"), self.messages);
        reg.count(&format!("{prefix}/transmissions"), self.transmissions);
        reg.count(&format!("{prefix}/crc_failures"), self.crc_failures);
        reg.count(&format!("{prefix}/failovers"), self.failovers);
        reg.count(&format!("{prefix}/reroutes"), self.reroutes);
        reg.count(&format!("{prefix}/link_downs"), self.link_downs);
        reg.count(&format!("{prefix}/severed"), self.severed);
        reg.count(&format!("{prefix}/delivered_bytes"), self.delivered_bytes);
        reg.count(
            &format!("{prefix}/retries_exhausted"),
            self.retries_exhausted,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let t = Topology::system256();
        let horizon = Duration::from_ms(5);
        let a = FaultPlan::clean(7).random_link_downs(&t, 6, horizon);
        let b = FaultPlan::clean(7).random_link_downs(&t, 6, horizon);
        assert_eq!(a, b);
        assert_eq!(a.schedule().len(), 6);
    }

    #[test]
    fn different_seeds_diverge() {
        let t = Topology::system256();
        let horizon = Duration::from_ms(5);
        let a = FaultPlan::clean(1).random_link_downs(&t, 6, horizon);
        let b = FaultPlan::clean(2).random_link_downs(&t, 6, horizon);
        assert_ne!(a.schedule(), b.schedule());
    }

    #[test]
    fn schedule_is_sorted_by_time() {
        let plan = FaultPlan::clean(3)
            .kill_link(Time::from_ps(500), LinkRef::NodeLink { node: 1, plane: 0 })
            .kill_link(Time::from_ps(100), LinkRef::XbarPort { xbar: 0, port: 3 })
            .random_link_downs(&Topology::cluster8(), 4, Duration::from_us(1));
        let times: Vec<u64> = plan.schedule().iter().map(|d| d.at.as_ps()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn out_of_range_rates_are_rejected() {
        for bad in [-0.1, 1.0, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                FaultPlan::clean(0).with_transient_rate(bad).is_err(),
                "rate {bad} must be rejected"
            );
        }
        assert!(FaultPlan::clean(0).with_transient_rate(0.0).is_ok());
        assert!(FaultPlan::clean(0).with_transient_rate(0.999).is_ok());
    }

    #[test]
    fn injector_is_deterministic_and_counts() {
        let plan = FaultPlan::clean(11).with_transient_rate(0.5).unwrap();
        let draws = |plan: &FaultPlan| {
            let mut inj = TransientInjector::new(plan);
            (0..200).map(|_| inj.draw(64)).collect::<Vec<_>>()
        };
        assert_eq!(draws(&plan), draws(&plan));
        let mut inj = TransientInjector::new(&plan);
        for _ in 0..200 {
            inj.draw(64);
        }
        assert_eq!(inj.drawn(), 200);
        assert!(
            (60..140).contains(&(inj.corrupted() as i64)),
            "rate 0.5 over 200 draws gave {}",
            inj.corrupted()
        );
    }

    #[test]
    fn zero_rate_never_corrupts_but_still_burns_randomness() {
        let plan = FaultPlan::clean(5).with_transient_rate(0.0).unwrap();
        let mut inj = TransientInjector::new(&plan);
        for _ in 0..50 {
            assert!(inj.draw(32).is_none());
        }
        assert_eq!(inj.corrupted(), 0);
        // The decision stream must not depend on the rate: a rate-0 and a
        // rate-0.5 injector with the same seed draw the same positions.
        let noisy = FaultPlan::clean(5).with_transient_rate(0.5).unwrap();
        let mut a = TransientInjector::new(&plan);
        let mut b = TransientInjector::new(&noisy);
        for _ in 0..50 {
            a.draw(32);
            b.draw(32);
        }
        assert_eq!(a.rng, b.rng, "streams must stay aligned across rates");
    }

    #[test]
    fn empty_payload_is_never_corrupted() {
        let plan = FaultPlan::clean(9).with_transient_rate(0.99).unwrap();
        let mut inj = TransientInjector::new(&plan);
        for _ in 0..20 {
            assert!(inj.draw(0).is_none());
        }
    }

    #[test]
    fn random_link_downs_only_names_links_the_topology_has() {
        let t = Topology::system1024();
        let plan = FaultPlan::clean(21).random_link_downs(&t, 64, Duration::from_ms(2));
        assert_eq!(plan.schedule().len(), 64);
        plan.validate(&t).expect("every generated ref resolves");
        // The draw covers crossbar-to-crossbar links, not just node
        // cables — the whole point of the topology-aware constructor.
        assert!(plan
            .schedule()
            .iter()
            .any(|d| matches!(d.link, LinkRef::XbarPort { .. })));
        assert_eq!(
            plan,
            FaultPlan::clean(21).random_link_downs(&t, 64, Duration::from_ms(2))
        );
    }

    #[test]
    fn validate_rejects_out_of_range_refs() {
        let t = Topology::system256();
        // A plan drawn for the 1024-node machine names nodes and
        // crossbars a 128-node topology lacks; before validation these
        // events silently never fired.
        let plan = FaultPlan::clean(3).random_link_downs(
            &Topology::system1024(),
            16,
            Duration::from_ms(1),
        );
        let err = plan.validate(&t).unwrap_err();
        assert!(matches!(err, FaultPlanError::UnknownLink(_)), "{err}");
        // Same for a crossbar port beyond the 16x16 ASIC.
        let bad =
            FaultPlan::clean(0).kill_link(Time::ZERO, LinkRef::XbarPort { xbar: 0, port: 99 });
        assert!(bad.validate(&t).is_err());
        // In-range plans pass.
        FaultPlan::clean(3)
            .random_link_downs(&t, 16, Duration::from_ms(1))
            .validate(&t)
            .expect("in-range plan validates");
    }

    #[test]
    fn repairs_sort_by_time_and_pair_with_deaths() {
        let l0 = LinkRef::NodeLink { node: 0, plane: 0 };
        let l1 = LinkRef::NodeLink { node: 1, plane: 1 };
        let plan = FaultPlan::clean(5)
            .kill_link(Time::from_ps(9_000), l1)
            .kill_link(Time::from_ps(1_000), l0)
            .repair_all_after(Duration::from_ps(500));
        let ats: Vec<u64> = plan.repairs().iter().map(|r| r.at.as_ps()).collect();
        assert_eq!(ats, vec![1_500, 9_500]);
        assert_eq!(plan.repairs()[0].link, l0);
        // An explicit repair interleaves into time order.
        let plan = plan.repair_link(Time::from_ps(4_000), l1);
        let ats: Vec<u64> = plan.repairs().iter().map(|r| r.at.as_ps()).collect();
        assert_eq!(ats, vec![1_500, 4_000, 9_500]);
    }

    #[test]
    fn goodput_accounts_only_delivered_bytes() {
        let stats = FaultStats {
            delivered_bytes: 60_000_000,
            ..FaultStats::default()
        };
        let g = stats.goodput_mbs(Duration::from_ms(1000));
        assert!((g - 60.0).abs() < 1e-9, "goodput {g}");
        assert_eq!(stats.goodput_mbs(Duration::ZERO), 0.0);
    }
}
