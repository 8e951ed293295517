//! A small MPI-like layer over the PowerMANNA communication stack (§4).
//!
//! "Interprocess communication is supported by both the PVM and MPI
//! message-passing libraries. To obtain maximum benefits from the
//! low-latency communication system, an optimized implementation of MPI
//! offers user-level communication…"
//!
//! [`MpiWorld`] models an SPMD job: one rank per node, per-rank virtual
//! clocks, point-to-point timing from the measured [`crate::driver`]
//! latencies (hop-aware: intra-cluster pairs route through one crossbar,
//! inter-cluster pairs through three), and the classic logarithmic
//! collective algorithms on top.

use crate::config::CommConfig;
use crate::driver;
use pm_sim::time::{Duration, Time};

/// Where a pair of ranks sits relative to each other in the machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Same eight-node cluster: one crossbar between them.
    IntraCluster,
    /// Different clusters of the 256-processor system: three crossbars.
    InterCluster,
}

/// An SPMD world of `size` ranks over the PowerMANNA network.
///
/// The model keeps a virtual clock per rank; point-to-point operations
/// advance the participants, collectives run their communication rounds
/// and return when every rank has finished. Latencies are *measured*
/// (the same driver simulation behind Figures 9–11), memoised per
/// message size.
///
/// # Examples
///
/// ```
/// use pm_comm::config::CommConfig;
/// use pm_comm::mpi::MpiWorld;
///
/// let mut world = MpiWorld::new(8, CommConfig::powermanna());
/// let t = world.barrier();
/// assert!(t.as_us_f64() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct MpiWorld {
    config: CommConfig,
    clocks: Vec<Time>,
    /// Ranks per cluster (8 on PowerMANNA); pairs in different clusters
    /// pay the three-crossbar path.
    ranks_per_cluster: usize,
    latency_cache: std::collections::BTreeMap<(u32, bool), Duration>,
    messages: u64,
    bytes: u64,
}

impl MpiWorld {
    /// Creates a world of `size` ranks with the default eight ranks per
    /// cluster.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize, config: CommConfig) -> Self {
        assert!(size > 0, "world needs at least one rank");
        MpiWorld {
            config,
            clocks: vec![Time::ZERO; size],
            ranks_per_cluster: 8,
            latency_cache: std::collections::BTreeMap::new(),
            messages: 0,
            bytes: 0,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.clocks.len()
    }

    /// Virtual clock of one rank.
    pub fn clock(&self, rank: usize) -> Time {
        self.clocks[rank]
    }

    /// The latest clock across all ranks (job completion time).
    pub fn finish_time(&self) -> Time {
        self.clocks.iter().copied().fold(Time::ZERO, Time::max)
    }

    /// Point-to-point messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Payload bytes sent so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Placement of a rank pair.
    pub fn placement(&self, a: usize, b: usize) -> Placement {
        if a / self.ranks_per_cluster == b / self.ranks_per_cluster {
            Placement::IntraCluster
        } else {
            Placement::InterCluster
        }
    }

    /// One-way latency for `bytes` between `from` and `to`, measured by
    /// the driver simulation and memoised.
    pub fn p2p_latency(&mut self, from: usize, to: usize, bytes: u32) -> Duration {
        let far = self.placement(from, to) == Placement::InterCluster;
        if let Some(&d) = self.latency_cache.get(&(bytes, far)) {
            return d;
        }
        let cfg = if far {
            self.config.with_hops(3)
        } else {
            self.config
        };
        let d = driver::one_way_latency(&cfg, bytes);
        self.latency_cache.insert((bytes, far), d);
        d
    }

    /// Sends `bytes` from `from` to `to`: the receiver's clock advances
    /// to the delivery instant; the sender is busy for its software send
    /// overhead. Returns the delivery time.
    ///
    /// # Panics
    ///
    /// Panics if a rank is out of range or `from == to`.
    pub fn send(&mut self, from: usize, to: usize, bytes: u32) -> Time {
        assert!(from < self.size() && to < self.size(), "rank out of range");
        assert_ne!(from, to, "self-send");
        let lat = self.p2p_latency(from, to, bytes);
        let start = self.clocks[from];
        let deliver = start + lat;
        self.clocks[from] = start + self.config.sw_send;
        self.clocks[to] = self.clocks[to].max(deliver);
        self.messages += 1;
        self.bytes += u64::from(bytes);
        deliver
    }

    /// Dissemination barrier: ceil(log2 n) rounds, each rank exchanging
    /// an 8-byte token with the rank `2^k` ahead. Returns the elapsed
    /// time from the latest entry to the last exit.
    pub fn barrier(&mut self) -> Duration {
        let n = self.size();
        if n == 1 {
            return Duration::ZERO;
        }
        let entry = self.finish_time();
        // Synchronise the start (everyone must arrive).
        for c in &mut self.clocks {
            *c = entry;
        }
        let mut k = 1usize;
        while k < n {
            // Round: i sends to (i + k) % n; all exchanges overlap.
            let snapshot = self.clocks.clone();
            for (i, &entry_clock) in snapshot.iter().enumerate() {
                let peer = (i + k) % n;
                let lat = self.p2p_latency(i, peer, 8);
                let deliver = entry_clock + lat;
                self.clocks[peer] = self.clocks[peer].max(deliver);
                self.messages += 1;
                self.bytes += 8;
            }
            // A rank leaves the round when it has both sent and received.
            let round_end = self.clocks.iter().copied().fold(Time::ZERO, Time::max);
            let _ = round_end;
            k *= 2;
        }
        // Conservative: everyone leaves at the slowest rank's time (the
        // dissemination barrier guarantees this bound).
        let exit = self.finish_time();
        for c in &mut self.clocks {
            *c = exit;
        }
        exit.since(entry)
    }

    /// Binomial-tree broadcast of `bytes` from `root`. Returns elapsed
    /// time until the last rank holds the data.
    pub fn bcast(&mut self, root: usize, bytes: u32) -> Duration {
        assert!(root < self.size(), "rank out of range");
        let n = self.size();
        let start = self.finish_time();
        for c in &mut self.clocks {
            *c = start;
        }
        // Ranks are renumbered so the root is 0; in round k, ranks
        // < 2^k with the data send to rank + 2^k.
        let mut have = vec![false; n];
        have[root] = true;
        let mut k = 1usize;
        while k < n {
            for v in 0..k.min(n) {
                let src = (root + v) % n;
                let dst_v = v + k;
                if dst_v >= n || !have[src] {
                    continue;
                }
                let dst = (root + dst_v) % n;
                let lat = self.p2p_latency(src, dst, bytes);
                let deliver = self.clocks[src] + lat;
                self.clocks[src] += self.config.sw_send;
                self.clocks[dst] = self.clocks[dst].max(deliver);
                have[dst] = true;
                self.messages += 1;
                self.bytes += u64::from(bytes);
            }
            k *= 2;
        }
        self.finish_time().since(start)
    }

    /// Binomial-tree reduction of `bytes` to `root` (communication time
    /// only; the combine operation is assumed overlapped). Returns the
    /// elapsed time until the root holds the result.
    pub fn reduce(&mut self, root: usize, bytes: u32) -> Duration {
        assert!(root < self.size(), "rank out of range");
        let n = self.size();
        let start = self.finish_time();
        for c in &mut self.clocks {
            *c = start;
        }
        // Mirror of the broadcast tree: leaves send first.
        let mut k = 1usize;
        while k < n {
            k *= 2;
        }
        k /= 2;
        while k >= 1 {
            for v in 0..k {
                let src_v = v + k;
                if src_v >= n {
                    continue;
                }
                let src = (root + src_v) % n;
                let dst = (root + v) % n;
                let lat = self.p2p_latency(src, dst, bytes);
                let deliver = self.clocks[src] + lat;
                self.clocks[src] += self.config.sw_send;
                self.clocks[dst] = self.clocks[dst].max(deliver);
                self.messages += 1;
                self.bytes += u64::from(bytes);
            }
            if k == 1 {
                break;
            }
            k /= 2;
        }
        self.finish_time().since(start)
    }

    /// Allreduce = reduce to rank 0, then broadcast.
    pub fn allreduce(&mut self, bytes: u32) -> Duration {
        self.reduce(0, bytes) + self.bcast(0, bytes)
    }

    /// Nearest-neighbour halo exchange on a 1-D ring: every rank swaps
    /// `bytes` with both neighbours (the SPMD pattern the paper's §6
    /// T3E comparison is about). Returns the elapsed time.
    pub fn halo_exchange(&mut self, bytes: u32) -> Duration {
        let n = self.size();
        if n == 1 {
            return Duration::ZERO;
        }
        let start = self.finish_time();
        for c in &mut self.clocks {
            *c = start;
        }
        let snapshot = self.clocks.clone();
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let right = (i + 1) % n;
            let left = (i + n - 1) % n;
            // On a two-rank ring both neighbours are the same rank.
            let peers: &[usize] = if right == left {
                &[right]
            } else {
                &[right, left]
            };
            for &peer in peers {
                if peer == i {
                    continue;
                }
                let lat = self.p2p_latency(i, peer, bytes);
                let deliver = snapshot[i] + self.config.sw_send + lat;
                self.clocks[peer] = self.clocks[peer].max(deliver);
                self.messages += 1;
                self.bytes += u64::from(bytes);
            }
        }
        self.finish_time().since(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommConfig;

    fn world(n: usize) -> MpiWorld {
        MpiWorld::new(n, CommConfig::powermanna())
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let t2 = world(2).barrier();
        let t8 = world(8).barrier();
        let t64 = world(64).barrier();
        assert!(t2 < t8 && t8 < t64);
        // 64 ranks = 6 rounds vs 3 rounds for 8: about 2x, not 8x.
        let ratio = t64.as_secs_f64() / t8.as_secs_f64();
        assert!(
            (1.3..4.0).contains(&ratio),
            "barrier should scale ~log: ratio {ratio:.2}"
        );
    }

    #[test]
    fn barrier_on_one_rank_is_free() {
        assert_eq!(world(1).barrier(), Duration::ZERO);
    }

    #[test]
    fn bcast_reaches_everyone_in_log_rounds() {
        let mut w = world(16);
        let t = w.bcast(3, 1024);
        assert!(t > Duration::ZERO);
        // 15 transfers for 16 ranks.
        assert_eq!(w.messages(), 15);
        // Log depth: time well below 15 sequential sends.
        let seq = w.p2p_latency(0, 1, 1024) * 15;
        assert!(t < seq);
    }

    #[test]
    fn inter_cluster_costs_more() {
        let mut w = world(16); // ranks 0-7 cluster 0, 8-15 cluster 1
        let near = w.p2p_latency(0, 7, 256);
        let far = w.p2p_latency(0, 8, 256);
        assert!(far > near);
        assert_eq!(w.placement(0, 7), Placement::IntraCluster);
        assert_eq!(w.placement(0, 8), Placement::InterCluster);
    }

    #[test]
    fn send_advances_both_clocks() {
        let mut w = world(4);
        let deliver = w.send(0, 2, 128);
        assert_eq!(w.clock(2), deliver);
        assert!(w.clock(0) > Time::ZERO && w.clock(0) < deliver);
        assert_eq!(w.bytes(), 128);
    }

    #[test]
    fn allreduce_is_reduce_plus_bcast() {
        let mut w1 = world(32);
        let all = w1.allreduce(4096);
        let mut w2 = world(32);
        let sum = w2.reduce(0, 4096) + w2.bcast(0, 4096);
        assert_eq!(all, sum);
    }

    #[test]
    fn reduce_messages_count() {
        let mut w = world(8);
        w.reduce(0, 64);
        assert_eq!(w.messages(), 7);
    }

    #[test]
    fn collectives_deterministic() {
        let mut a = world(24);
        let mut b = world(24);
        assert_eq!(a.barrier(), b.barrier());
        assert_eq!(a.bcast(5, 512), b.bcast(5, 512));
    }

    #[test]
    fn halo_exchange_is_near_constant_in_ranks() {
        let t8 = world(8).halo_exchange(4096);
        let t64 = world(64).halo_exchange(4096);
        // Nearest-neighbour: independent of rank count up to the
        // intra/inter-cluster latency difference.
        let ratio = t64.as_secs_f64() / t8.as_secs_f64();
        assert!(ratio < 1.6, "halo should not scale with ranks: {ratio:.2}");
    }

    #[test]
    fn halo_on_two_ranks_swaps_once_each_way() {
        let mut w = world(2);
        w.halo_exchange(128);
        assert_eq!(w.messages(), 2);
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_rejected() {
        world(2).send(1, 1, 8);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn bad_rank_rejected() {
        world(2).send(0, 5, 8);
    }
}
