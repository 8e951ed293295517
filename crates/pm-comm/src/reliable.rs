//! Fault injection and retransmission: the recovery tiers over the CRC.
//!
//! §3.3: the link-interface ASIC's CRC ensures "that communication is not
//! only efficient but also reliable". Reliability needs the *detection*
//! (CRC, modelled in [`crate::duplex`] and [`pm_node::crc`]) and the
//! *recovery*, which [`ResilientNetwork`] supplies over multi-hop
//! [`pm_net::Network`] routes driven by a seeded
//! [`pm_net::fault::FaultPlan`]: tier 1 retransmits CRC-failed messages
//! with exponential backoff, tier 2 fails over to the secondary
//! duplicated-network plane when a link death partitions the preferred
//! one (240→120 MB/s degradation), and the [`FaultStats`] ledger records
//! what each tier absorbed. Attempts are capped ([`RetryPolicy`]) and
//! failures are typed ([`DeliveryError`]): a hopeless route returns an
//! error instead of spinning forever.

use crate::config::CommConfig;
use crate::duplex::Message;
use pm_net::error::NetError;
use pm_net::fault::{FaultPlan, FaultStats, TransientInjector};
use pm_net::network::{Network, RouteError};
use pm_net::outcome::TransferOutcome;
use pm_net::topology::NodeId;
pub use pm_net::RetryPolicy;
use pm_node::ni::CRC_TRAILER_BYTES;
use pm_sim::time::{Duration, Time};

/// An 8-byte NACK's worth of wire plus driver turnaround: the fixed
/// part of every retransmission gap, added to the policy's backoff.
const NACK_COST: Duration = Duration::from_us(1);

/// Why a message could not be delivered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeliveryError {
    /// Every attempt up to [`RetryPolicy::max_attempts`] failed its CRC
    /// check (or was severed mid-flight).
    AttemptsExhausted {
        /// Attempts actually made.
        attempts: u32,
    },
    /// No healthy route exists on either network plane — retrying
    /// cannot help until a link is repaired.
    Unreachable {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
}

impl core::fmt::Display for DeliveryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeliveryError::AttemptsExhausted { attempts } => {
                write!(f, "gave up after {attempts} failed transmissions")
            }
            DeliveryError::Unreachable { src, dst } => {
                write!(f, "no healthy route from node {src} to node {dst}")
            }
        }
    }
}

impl std::error::Error for DeliveryError {}

/// Delivery failures fold into the layer-spanning [`NetError`] so a
/// caller mixing route opens, mesh traffic and reliable sends can `?`
/// them all into one error type.
impl From<DeliveryError> for NetError {
    fn from(e: DeliveryError) -> Self {
        match e {
            DeliveryError::AttemptsExhausted { attempts } => {
                NetError::AttemptsExhausted { attempts }
            }
            DeliveryError::Unreachable { src, dst } => NetError::Unreachable { src, dst },
        }
    }
}

/// CRC-checked, retransmitting, plane-failing-over transport over a
/// multi-hop [`Network`] — the three recovery tiers composed.
///
/// Owns the network plus a [`FaultPlan`]: scheduled link deaths are
/// applied as simulated time advances, transfers in flight across a
/// dying link are severed and retransmitted, and opens fall over to the
/// secondary duplicated-network plane when the preferred one has no
/// healthy route left.
///
/// # Examples
///
/// ```
/// use pm_comm::reliable::ResilientNetwork;
/// use pm_net::fault::FaultPlan;
/// use pm_net::network::Network;
/// use pm_net::topology::Topology;
/// use pm_sim::time::Time;
///
/// let plan = FaultPlan::clean(7).with_transient_rate(0.2).unwrap();
/// let mut rn = ResilientNetwork::new(Network::new(Topology::two_nodes()), plan);
/// let o = rn.send(0, 1, 0, Time::ZERO, &[0xAB; 256]).unwrap();
/// assert_eq!(rn.stats().delivered_bytes, 256);
/// assert_eq!(o.bytes, 256);
/// assert!(o.finished > Time::ZERO);
/// assert!(o.crc.is_some(), "reliable sends carry the verified CRC");
/// ```
#[derive(Clone, Debug)]
pub struct ResilientNetwork {
    net: Network,
    plan: FaultPlan,
    injector: TransientInjector,
    policy: RetryPolicy,
    /// Software send/receive overheads of the PIO driver (§4).
    sw_send: Duration,
    sw_recv: Duration,
    /// Cursor into the plan's link-down schedule: events before it are
    /// applied to the network.
    next_event: usize,
    stats: FaultStats,
}

impl ResilientNetwork {
    /// Wraps a network with a fault plan, the default [`RetryPolicy`]
    /// and the PowerMANNA software overheads.
    pub fn new(net: Network, plan: FaultPlan) -> Self {
        let comm = CommConfig::powermanna();
        let injector = TransientInjector::new(&plan);
        ResilientNetwork {
            net,
            plan,
            injector,
            policy: RetryPolicy::default(),
            sw_send: comm.sw_send,
            sw_recv: comm.sw_recv,
            next_event: 0,
            stats: FaultStats::default(),
        }
    }

    /// Replaces the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts > 0, "need at least one attempt");
        self.policy = policy;
        self
    }

    /// The fault plan driving this transport.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped network (crossbar state, dead links).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The recovery ledger.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Publishes the recovery ledger and the wrapped network's crossbar
    /// counters under `prefix`: `{prefix}/faults/...`
    /// ([`FaultStats::publish`]) and `{prefix}/net/...`
    /// ([`Network::publish_metrics`]).
    pub fn publish_metrics(&self, reg: &mut pm_sim::metrics::MetricRegistry, prefix: &str) {
        self.stats.publish(reg, &format!("{prefix}/faults"));
        self.net.publish_metrics(reg, &format!("{prefix}/net"));
    }

    /// Applies every scheduled link death at or before `t`.
    pub fn advance_to(&mut self, t: Time) {
        while let Some(ev) = self.plan.schedule().get(self.next_event) {
            if ev.at > t {
                break;
            }
            if let Some(key) = self.net.link_key(ev.link) {
                if !self.net.is_link_dead(key) {
                    self.net.fail_link(ev.link);
                    self.stats.link_downs += 1;
                }
            }
            self.next_event += 1;
        }
    }

    /// The instant of the first still-pending link death at or before
    /// `until` that hits one of `keys`, if any.
    fn first_death_hitting(&self, keys: &[pm_net::topology::LinkKey], until: Time) -> Option<Time> {
        self.plan.schedule()[self.next_event..]
            .iter()
            .take_while(|ev| ev.at <= until)
            .find(|ev| {
                self.net
                    .link_key(ev.link)
                    .is_some_and(|k| keys.contains(&k))
            })
            .map(|ev| ev.at)
    }

    /// Sends `payload` from `src` to `dst` starting at `t`, preferring
    /// `preferred_plane`, and drives retransmission / plane failover
    /// until the receiver holds a CRC-verified copy or the attempt cap
    /// runs out. Scheduled link deaths are applied as simulated time
    /// passes; a death severing the worm mid-flight costs that attempt.
    ///
    /// The returned [`TransferOutcome`] tells the whole story of the
    /// message: [`finished`](TransferOutcome::finished) is the software
    /// receive completion, [`bytes`](TransferOutcome::bytes) the intact
    /// payload (CRC trailer and retransmitted copies excluded),
    /// [`attempts`](TransferOutcome::attempts)/[`crc_failures`](TransferOutcome::crc_failures)/[`severed`](TransferOutcome::severed)
    /// what the retry loop absorbed, and
    /// [`plane`](TransferOutcome::plane)/[`failed_over`](TransferOutcome::failed_over)/[`rerouted`](TransferOutcome::rerouted)
    /// how the successful attempt was routed.
    ///
    /// # Errors
    ///
    /// [`DeliveryError::Unreachable`] when no healthy route exists on
    /// either plane; [`DeliveryError::AttemptsExhausted`] when the cap
    /// runs out.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        preferred_plane: u32,
        t: Time,
        payload: &[u8],
    ) -> Result<TransferOutcome, DeliveryError> {
        self.stats.messages += 1;
        let msg = Message::new(payload.to_vec());
        let wire_bytes = payload.len() as u64 + u64::from(CRC_TRAILER_BYTES);
        let mut attempt_start = t;
        let mut msg_crc_failures = 0u32;
        let mut msg_severed = 0u32;
        for attempt in 1..=self.policy.max_attempts {
            self.advance_to(attempt_start);
            let opened = self.net.open_with_failover(
                src,
                dst,
                preferred_plane,
                attempt_start + self.sw_send,
            );
            let (mut conn, outcome) = match opened {
                Ok(x) => x,
                Err(RouteError::NoPath | RouteError::NoHealthyPath) => {
                    return Err(DeliveryError::Unreachable { src, dst });
                }
                Err(RouteError::PortHeld) => {
                    // Contention, not partition: back off like a NACK and
                    // burn an attempt waiting for the blocker to close.
                    attempt_start +=
                        NACK_COST + self.policy.gap_after(self.stats.messages, attempt);
                    continue;
                }
            };
            if outcome.failed_over {
                self.stats.failovers += 1;
            }
            if outcome.rerouted {
                self.stats.reroutes += 1;
            }
            self.stats.transmissions += 1;
            let wire = conn.transfer(conn.ready_at(), wire_bytes);
            let arrived = wire.finished;
            let keys = self.net.topology().route_link_keys(conn.route());
            let severed_at = self.first_death_hitting(&keys, arrived);
            // The close byte trails the worm (or what was left of it);
            // releasing the ports keeps crossbar state consistent either
            // way.
            conn.close(&mut self.net, arrived);
            self.advance_to(arrived);
            if let Some(death) = severed_at {
                // The tail never made it past the dying link; the sender
                // times out and tries again — on the surviving plane if
                // the death partitioned this one.
                self.stats.severed += 1;
                msg_severed += 1;
                attempt_start = death.max(attempt_start)
                    + NACK_COST
                    + self.policy.gap_after(self.stats.messages, attempt);
                continue;
            }
            let mut wire_msg = msg.clone();
            if let Some((byte, bit)) = self.injector.draw(wire_msg.len()) {
                wire_msg.corrupt_bit(byte, bit);
            }
            let received_at = arrived + self.sw_recv;
            if !wire_msg.verify() {
                // The receiving link interface discards the message; a
                // NACK and backoff precede the retransmission.
                self.stats.crc_failures += 1;
                msg_crc_failures += 1;
                attempt_start =
                    received_at + NACK_COST + self.policy.gap_after(self.stats.messages, attempt);
                continue;
            }
            self.stats.delivered_bytes += payload.len() as u64;
            let mut delivered = wire;
            delivered.finished = received_at;
            delivered.bytes = payload.len() as u64;
            delivered.plane = outcome.plane;
            delivered.attempts = attempt;
            delivered.crc_failures = msg_crc_failures;
            delivered.severed = msg_severed;
            delivered.failed_over = outcome.failed_over;
            delivered.rerouted = outcome.rerouted;
            delivered.crc = Some(wire_msg.crc());
            return Ok(delivered);
        }
        self.stats.retries_exhausted += 1;
        Err(DeliveryError::AttemptsExhausted {
            attempts: self.policy.max_attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_net::fault::LinkRef;
    use pm_net::topology::Topology;

    #[test]
    fn resilient_network_clean_plan_delivers_everything() {
        let mut rn =
            ResilientNetwork::new(Network::new(Topology::two_nodes()), FaultPlan::clean(1));
        let mut t = Time::ZERO;
        for i in 0..10u8 {
            let d = rn.send(0, 1, 0, t, &[i; 1024]).unwrap();
            assert_eq!(d.attempts, 1);
            assert_eq!(d.plane, 0);
            assert_eq!(d.bytes, 1024);
            assert_eq!(d.crc_failures, 0);
            assert!(!d.failed_over);
            t = d.finished;
        }
        let s = rn.stats();
        assert_eq!(s.messages, 10);
        assert_eq!(s.transmissions, 10);
        assert_eq!(s.crc_failures, 0);
        assert_eq!(s.delivered_bytes, 10 * 1024);
    }

    #[test]
    fn attempt_cap_is_a_typed_error() {
        let plan = FaultPlan::clean(12).with_transient_rate(0.99).unwrap();
        let mut rn = ResilientNetwork::new(Network::new(Topology::two_nodes()), plan).with_policy(
            RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
        );
        let mut exhausted = 0;
        let mut t = Time::ZERO;
        for _ in 0..30 {
            t += Duration::from_ms(1);
            match rn.send(0, 1, 0, t, &[1; 64]) {
                Ok(d) => assert_eq!(d.crc, Some(Message::new(vec![1; 64]).crc())),
                Err(DeliveryError::AttemptsExhausted { attempts }) => {
                    assert_eq!(attempts, 3);
                    exhausted += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(exhausted > 0, "99% corruption must exhaust 3 attempts");
        assert_eq!(rn.stats().retries_exhausted, exhausted);
    }

    #[test]
    fn transient_faults_are_caught_and_retransmitted() {
        let plan = FaultPlan::clean(42).with_transient_rate(0.4).unwrap();
        let mut rn = ResilientNetwork::new(Network::new(Topology::two_nodes()), plan);
        let mut t = Time::ZERO;
        for i in 0..30u8 {
            let d = rn.send(0, 1, 0, t, &[i; 512]).unwrap();
            assert_eq!(
                d.crc,
                Some(Message::new(vec![i; 512]).crc()),
                "payload intact"
            );
            assert_eq!(u64::from(d.attempts), 1 + u64::from(d.crc_failures));
            t = d.finished;
        }
        let s = rn.stats();
        assert!(s.crc_failures > 0, "rate 0.4 over 30 messages: {s:?}");
        assert_eq!(s.transmissions, s.messages + s.crc_failures);
        assert_eq!(s.delivered_bytes, 30 * 512);
    }

    #[test]
    fn link_death_mid_run_fails_over_to_plane_one() {
        let plan = FaultPlan::clean(3).kill_link(
            Time::from_ps(200_000_000), // 200 us in
            LinkRef::NodeLink { node: 0, plane: 0 },
        );
        let mut rn = ResilientNetwork::new(Network::new(Topology::two_nodes()), plan);
        let mut t = Time::ZERO;
        let mut planes = Vec::new();
        for i in 0..12u8 {
            let d = rn.send(0, 1, 0, t, &[i; 4096]).unwrap();
            planes.push(d.plane);
            t = d.finished;
        }
        let s = rn.stats();
        assert_eq!(s.link_downs, 1);
        assert!(s.failovers >= 1, "later sends must use plane 1: {s:?}");
        assert_eq!(s.delivered_bytes, 12 * 4096);
        assert!(planes.starts_with(&[0]), "plane 0 serves the early sends");
        assert_eq!(*planes.last().unwrap(), 1, "plane 1 serves the late ones");
        // Once a send fails over, every later one does too.
        let first_failover = planes.iter().position(|&p| p == 1).unwrap();
        assert!(planes[first_failover..].iter().all(|&p| p == 1));
    }

    #[test]
    fn death_during_flight_severs_and_retries() {
        // 60 KB at 60 MB/s ≈ 1 ms on the wire; kill the link mid-worm.
        let plan = FaultPlan::clean(5).kill_link(
            Time::from_ps(500_000_000), // 500 us
            LinkRef::NodeLink { node: 0, plane: 0 },
        );
        let mut rn = ResilientNetwork::new(Network::new(Topology::two_nodes()), plan);
        let d = rn.send(0, 1, 0, Time::ZERO, &[9; 60_000]).unwrap();
        let s = rn.stats();
        assert_eq!(s.severed, 1, "the worm was on the dying link: {s:?}");
        assert_eq!(d.attempts, 2);
        assert_eq!(d.severed, 1, "the outcome carries the per-message count");
        assert_eq!(d.plane, 1);
        assert!(d.failed_over, "the retry crossed to the surviving plane");
        assert_eq!(s.delivered_bytes, 60_000);
    }

    #[test]
    fn delivery_errors_question_mark_into_net_error() {
        fn doomed() -> Result<Time, NetError> {
            let plan = FaultPlan::clean(8)
                .kill_link(Time::ZERO, LinkRef::NodeLink { node: 1, plane: 0 })
                .kill_link(Time::ZERO, LinkRef::NodeLink { node: 1, plane: 1 });
            let mut rn = ResilientNetwork::new(Network::new(Topology::two_nodes()), plan);
            let o = rn.send(0, 1, 0, Time::from_ps(1), &[1; 64])?;
            Ok(o.finished)
        }
        assert_eq!(
            doomed().unwrap_err(),
            NetError::Unreachable { src: 0, dst: 1 }
        );
    }

    #[test]
    fn resilient_network_metrics_mirror_the_ledger() {
        let plan = FaultPlan::clean(42).with_transient_rate(0.4).unwrap();
        let mut rn = ResilientNetwork::new(Network::new(Topology::two_nodes()), plan);
        let mut t = Time::ZERO;
        for i in 0..10u8 {
            t = rn.send(0, 1, 0, t, &[i; 512]).unwrap().finished;
        }
        let mut reg = pm_sim::metrics::MetricRegistry::new();
        rn.publish_metrics(&mut reg, "comm");
        let s = rn.stats();
        assert_eq!(reg.counter_value("comm/faults/messages"), Some(s.messages));
        assert_eq!(
            reg.counter_value("comm/faults/transmissions"),
            Some(s.transmissions)
        );
        assert_eq!(
            reg.counter_value("comm/faults/delivered_bytes"),
            Some(s.delivered_bytes)
        );
        assert_eq!(
            reg.counter_value("comm/net/xbar0/routes"),
            Some(s.transmissions),
            "every wire transmission opened exactly one route"
        );
    }

    #[test]
    fn both_planes_dead_is_unreachable() {
        let plan = FaultPlan::clean(8)
            .kill_link(Time::ZERO, LinkRef::NodeLink { node: 1, plane: 0 })
            .kill_link(Time::ZERO, LinkRef::NodeLink { node: 1, plane: 1 });
        let mut rn = ResilientNetwork::new(Network::new(Topology::two_nodes()), plan);
        assert_eq!(
            rn.send(0, 1, 0, Time::from_ps(1), &[1; 64]).unwrap_err(),
            DeliveryError::Unreachable { src: 0, dst: 1 }
        );
        assert_eq!(rn.stats().link_downs, 2);
        assert_eq!(rn.stats().delivered_bytes, 0);
    }

    #[test]
    fn out_of_range_plane_is_unreachable_not_a_panic() {
        let mut rn =
            ResilientNetwork::new(Network::new(Topology::two_nodes()), FaultPlan::clean(1));
        for plane in [2, u32::MAX] {
            assert_eq!(
                rn.send(0, 1, plane, Time::ZERO, &[1; 64]).unwrap_err(),
                DeliveryError::Unreachable { src: 0, dst: 1 }
            );
        }
        assert_eq!(rn.stats().transmissions, 0);
        assert_eq!(rn.stats().delivered_bytes, 0);
    }

    #[test]
    fn resilient_network_is_deterministic() {
        let run = || {
            let plan = FaultPlan::clean(77)
                .with_transient_rate(0.3)
                .unwrap()
                .kill_link(
                    Time::from_ps(300_000_000),
                    LinkRef::NodeLink { node: 0, plane: 0 },
                );
            let mut rn = ResilientNetwork::new(Network::new(Topology::two_nodes()), plan);
            let mut t = Time::ZERO;
            let mut log = Vec::new();
            for i in 0..20u8 {
                let d = rn.send(0, 1, i as u32 % 2, t, &[i; 2048]).unwrap();
                log.push((d.finished, d.plane, d.attempts));
                t = d.finished;
            }
            (log, rn.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn multi_hop_route_recovers_too() {
        let plan = FaultPlan::clean(13).with_transient_rate(0.5).unwrap();
        let mut rn = ResilientNetwork::new(Network::new(Topology::system256()), plan);
        let mut t = Time::ZERO;
        for i in 0..10u8 {
            // Inter-cluster: three crossbars per route.
            let d = rn.send(8, 127, 0, t, &[i; 256]).unwrap();
            assert_eq!(d.crc, Some(Message::new(vec![i; 256]).crc()));
            t = d.finished;
        }
        assert!(rn.stats().crc_failures > 0);
        assert_eq!(rn.stats().delivered_bytes, 10 * 256);
    }
}
