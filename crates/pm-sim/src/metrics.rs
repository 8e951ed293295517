//! A hierarchical, allocation-light metrics registry.
//!
//! The experiment harness needs one answer to "what did the whole
//! system do during this run?". Models already count everything —
//! cache hits, crossbar conflicts, stop-wire stalls, CRC retries — but
//! each keeps its numbers in its own struct. [`MetricRegistry`] is the
//! tree they all publish into: every metric lives at a `/`-separated
//! component path (`node0/mem/cpu0/l1/hits`, `net/xbar2/conflicts`,
//! `comm/x8/crc_failures`), and one registry renders the whole machine
//! as a tree or a diff-stable CSV.
//!
//! # Collection model and the zero-cost contract
//!
//! Collection is *pull-based*: models accumulate their own counters
//! exactly as before, and a `publish_metrics(&self, registry, prefix)`
//! pass copies them into the registry after (or between) runs. Hot
//! simulation loops never touch the registry, so a run without a
//! registry executes byte-for-byte the code it executed before this
//! module existed — the disabled path is not "cheap", it is *absent*
//! (pinned in `tests/parity.rs`, guarded by `tests/bench_guard.rs`).
//!
//! Handles ([`MetricId`]) make repeated publishing allocation-light:
//! the path string is interned once at registration and every later
//! update is an index into a dense `Vec`.
//!
//! # Examples
//!
//! ```
//! use pm_sim::metrics::MetricRegistry;
//! use pm_sim::time::Time;
//!
//! let mut reg = MetricRegistry::new();
//! let hits = reg.counter("node0/mem/l1/hits");
//! reg.add(hits, 3);
//! reg.add(hits, 2);
//! let occ = reg.gauge("node0/ni/tx_fifo_occupancy");
//! reg.gauge_set(occ, Time::ZERO, 64.0);
//! reg.gauge_set(occ, Time::from_ps(1000), 192.0);
//! assert_eq!(reg.counter_value("node0/mem/l1/hits"), Some(5));
//! let csv = reg.to_csv();
//! assert!(csv.contains("node0/mem/l1/hits,counter,5"));
//! ```

use crate::stats::{Counter, Histogram, Summary};
use crate::time::Time;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A handle to a registered metric: a dense index, cheap to copy and
/// cheap to update through. Handles are only valid for the registry
/// that issued them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MetricId(usize);

/// A gauge whose mean is weighted by how long each value was held —
/// the right average for occupancy-style signals sampled at
/// irregular simulated instants.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeWeightedGauge {
    last_value: f64,
    last_at: Option<Time>,
    first_at: Option<Time>,
    /// Integral of value over picoseconds.
    weighted_ps: f64,
    min: f64,
    max: f64,
}

impl TimeWeightedGauge {
    /// Sets the gauge to `value` at simulated instant `t`. Updates must
    /// arrive in non-decreasing time order; the interval since the last
    /// update is credited to the *previous* value.
    pub fn set(&mut self, t: Time, value: f64) {
        match self.last_at {
            None => {
                self.first_at = Some(t);
                self.min = value;
                self.max = value;
            }
            Some(last) => {
                debug_assert!(t >= last, "gauge updates must move forward in time");
                self.weighted_ps += self.last_value * t.since(last).as_ps() as f64;
                self.min = self.min.min(value);
                self.max = self.max.max(value);
            }
        }
        self.last_value = value;
        self.last_at = Some(t);
    }

    /// The most recent value (0.0 before the first set).
    pub fn last(&self) -> f64 {
        self.last_value
    }

    /// Smallest value ever set (0.0 before the first set).
    pub fn min(&self) -> f64 {
        if self.first_at.is_some() {
            self.min
        } else {
            0.0
        }
    }

    /// Largest value ever set (0.0 before the first set).
    pub fn max(&self) -> f64 {
        if self.first_at.is_some() {
            self.max
        } else {
            0.0
        }
    }

    /// Time-weighted mean over the observed span. With fewer than two
    /// updates there is no span, so the last value is returned.
    pub fn mean(&self) -> f64 {
        match (self.first_at, self.last_at) {
            (Some(first), Some(last)) if last > first => {
                self.weighted_ps / last.since(first).as_ps() as f64
            }
            _ => self.last_value,
        }
    }
}

/// The value side of one registered metric.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// A monotonically increasing event count.
    Counter(Counter),
    /// A time-weighted level (FIFO occupancy, in-flight transactions).
    Gauge(TimeWeightedGauge),
    /// A power-of-two-bucketed distribution of integer samples.
    Histogram(Histogram),
    /// Running mean/min/max/stddev of float samples.
    Summary(Summary),
}

impl Metric {
    /// The metric kind as it appears in the CSV `type` column.
    pub fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "hist",
            Metric::Summary(_) => "summary",
        }
    }

    /// The rendered value column: counters print exact integers, the
    /// float kinds print with fixed precision so output is diff-stable.
    fn render_value(&self) -> String {
        match self {
            Metric::Counter(c) => format!("{}", c.value()),
            Metric::Gauge(g) => format!(
                "last={:.3} mean={:.3} max={:.3}",
                g.last(),
                g.mean(),
                g.max()
            ),
            Metric::Histogram(h) => format!(
                "count={} total={} mean={:.3} p99={}",
                h.total(),
                h.sum(),
                h.mean(),
                h.quantile(0.99)
            ),
            Metric::Summary(s) => format!(
                "count={} mean={:.3} min={:.3} max={:.3}",
                s.count(),
                s.mean(),
                if s.count() == 0 { 0.0 } else { s.min() },
                if s.count() == 0 { 0.0 } else { s.max() }
            ),
        }
    }
}

/// The hierarchical registry: a dense metric store plus a path index.
#[derive(Clone, Debug)]
pub struct MetricRegistry {
    metrics: Vec<(String, Metric)>,
    index: BTreeMap<String, usize>,
}

impl Default for MetricRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricRegistry {
            metrics: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    fn register(&mut self, path: &str, make: impl FnOnce(&str) -> Metric) -> MetricId {
        debug_assert!(
            !path.is_empty() && !path.starts_with('/') && !path.ends_with('/'),
            "metric path must be a bare a/b/c component path, got {path:?}"
        );
        if let Some(&i) = self.index.get(path) {
            return MetricId(i);
        }
        let i = self.metrics.len();
        self.metrics.push((path.to_string(), make(path)));
        self.index.insert(path.to_string(), i);
        MetricId(i)
    }

    /// Registers (or finds) a counter at `path`.
    ///
    /// # Panics
    ///
    /// Panics if the path is already registered as a different kind.
    pub fn counter(&mut self, path: &str) -> MetricId {
        let id = self.register(path, |p| Metric::Counter(Counter::new(p)));
        assert!(
            matches!(self.metrics[id.0].1, Metric::Counter(_)),
            "{path} is registered as a {}",
            self.metrics[id.0].1.kind()
        );
        id
    }

    /// Registers (or finds) a time-weighted gauge at `path`.
    ///
    /// # Panics
    ///
    /// Panics if the path is already registered as a different kind.
    pub fn gauge(&mut self, path: &str) -> MetricId {
        let id = self.register(path, |_| Metric::Gauge(TimeWeightedGauge::default()));
        assert!(
            matches!(self.metrics[id.0].1, Metric::Gauge(_)),
            "{path} is registered as a {}",
            self.metrics[id.0].1.kind()
        );
        id
    }

    /// Registers (or finds) a histogram at `path`.
    ///
    /// # Panics
    ///
    /// Panics if the path is already registered as a different kind.
    pub fn histogram(&mut self, path: &str) -> MetricId {
        let id = self.register(path, |p| Metric::Histogram(Histogram::new(p)));
        assert!(
            matches!(self.metrics[id.0].1, Metric::Histogram(_)),
            "{path} is registered as a {}",
            self.metrics[id.0].1.kind()
        );
        id
    }

    /// Registers (or finds) a summary at `path`.
    ///
    /// # Panics
    ///
    /// Panics if the path is already registered as a different kind.
    pub fn summary(&mut self, path: &str) -> MetricId {
        let id = self.register(path, |_| Metric::Summary(Summary::new()));
        assert!(
            matches!(self.metrics[id.0].1, Metric::Summary(_)),
            "{path} is registered as a {}",
            self.metrics[id.0].1.kind()
        );
        id
    }

    /// Adds `n` to the counter behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a counter.
    pub fn add(&mut self, id: MetricId, n: u64) {
        match &mut self.metrics[id.0].1 {
            Metric::Counter(c) => c.add(n),
            m => panic!("add on a {}", m.kind()),
        }
    }

    /// Adds one to the counter behind `id`.
    pub fn incr(&mut self, id: MetricId) {
        self.add(id, 1);
    }

    /// Registers a counter at `path` and adds `n` in one call — the
    /// publish-pass convenience (one line per published stat).
    pub fn count(&mut self, path: &str, n: u64) {
        let id = self.counter(path);
        self.add(id, n);
    }

    /// Sets the gauge behind `id` to `value` at simulated instant `t`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a gauge.
    pub fn gauge_set(&mut self, id: MetricId, t: Time, value: f64) {
        match &mut self.metrics[id.0].1 {
            Metric::Gauge(g) => g.set(t, value),
            m => panic!("gauge_set on a {}", m.kind()),
        }
    }

    /// Records `v` into the histogram behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a histogram.
    pub fn record(&mut self, id: MetricId, v: u64) {
        match &mut self.metrics[id.0].1 {
            Metric::Histogram(h) => h.record(v),
            m => panic!("record on a {}", m.kind()),
        }
    }

    /// Records `v` into the summary behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a summary.
    pub fn observe(&mut self, id: MetricId, v: f64) {
        match &mut self.metrics[id.0].1 {
            Metric::Summary(s) => s.record(v),
            m => panic!("observe on a {}", m.kind()),
        }
    }

    /// The metric registered at `path`, if any.
    pub fn get(&self, path: &str) -> Option<&Metric> {
        self.index.get(path).map(|&i| &self.metrics[i].1)
    }

    /// The counter value at `path` (`None` if absent or not a counter).
    pub fn counter_value(&self, path: &str) -> Option<u64> {
        match self.get(path)? {
            Metric::Counter(c) => Some(c.value()),
            _ => None,
        }
    }

    /// The histogram at `path` (`None` if absent or not a histogram) —
    /// the read side tests use to reconcile recorded distributions
    /// against independently tallied totals.
    pub fn histogram_stats(&self, path: &str) -> Option<&Histogram> {
        match self.get(path)? {
            Metric::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Iterates `(path, metric)` in sorted path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.index
            .iter()
            .map(move |(p, &i)| (p.as_str(), &self.metrics[i].1))
    }

    /// Folds every metric of `other` into `self`: counters add,
    /// histograms and summaries would need sample replay so they are
    /// rejected — merging is for sharded counter collection
    /// (per-worker registries from a sweep).
    ///
    /// # Panics
    ///
    /// Panics on a kind mismatch at a shared path, or when `other`
    /// holds a non-counter metric (those cannot be merged losslessly).
    pub fn merge_counters(&mut self, other: &MetricRegistry) {
        for (path, metric) in other.iter() {
            match metric {
                Metric::Counter(c) => self.count(path, c.value()),
                m => panic!("cannot merge a {} ({path})", m.kind()),
            }
        }
    }

    /// Renders the registry as an indented tree grouped by path
    /// segment, for terminal display.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let mut open: Vec<&str> = Vec::new();
        for (path, metric) in self.iter() {
            let mut parts: Vec<&str> = path.split('/').collect();
            let leaf = parts.pop().unwrap_or(path);
            // Close back to the common prefix, then open new groups.
            let common = open
                .iter()
                .zip(&parts)
                .take_while(|(a, b)| *a == *b)
                .count();
            open.truncate(common);
            while open.len() < parts.len() {
                let seg = parts[open.len()];
                let _ = writeln!(out, "{:indent$}{seg}/", "", indent = open.len() * 2);
                open.push(seg);
            }
            let _ = writeln!(
                out,
                "{:indent$}{leaf}: {}",
                "",
                metric.render_value(),
                indent = open.len() * 2
            );
        }
        out
    }

    /// Renders `path,type,value` rows in sorted path order — the
    /// diff-stable form ci.sh pins as a golden.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("path,type,value\n");
        for (path, metric) in self.iter() {
            let _ = writeln!(out, "{path},{},{}", metric.kind(), metric.render_value());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let mut reg = MetricRegistry::new();
        let a = reg.counter("net/xbar0/conflicts");
        let b = reg.counter("net/xbar0/conflicts");
        assert_eq!(a, b, "same path, same handle");
        reg.add(a, 2);
        reg.incr(b);
        assert_eq!(reg.counter_value("net/xbar0/conflicts"), Some(3));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn count_is_register_plus_add() {
        let mut reg = MetricRegistry::new();
        reg.count("a/b", 4);
        reg.count("a/b", 6);
        assert_eq!(reg.counter_value("a/b"), Some(10));
    }

    #[test]
    fn gauge_mean_is_time_weighted() {
        let mut g = TimeWeightedGauge::default();
        // 100 for 1000 ps, then 0 for 3000 ps: mean 25, not 50.
        g.set(Time::ZERO, 100.0);
        g.set(Time::from_ps(1000), 0.0);
        g.set(Time::from_ps(4000), 0.0);
        assert_eq!(g.mean(), 25.0);
        assert_eq!(g.max(), 100.0);
        assert_eq!(g.min(), 0.0);
        assert_eq!(g.last(), 0.0);
    }

    #[test]
    fn gauge_with_one_sample_reports_it() {
        let mut g = TimeWeightedGauge::default();
        g.set(Time::from_ps(500), 7.0);
        assert_eq!(g.mean(), 7.0);
        assert_eq!(g.max(), 7.0);
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn kind_collision_panics() {
        let mut reg = MetricRegistry::new();
        reg.counter("x/y");
        reg.gauge("x/y");
    }

    #[test]
    #[should_panic(expected = "add on a gauge")]
    fn counter_ops_on_gauge_panic() {
        let mut reg = MetricRegistry::new();
        let g = reg.gauge("x");
        reg.add(g, 1);
    }

    #[test]
    fn csv_is_sorted_and_stable() {
        let mut reg = MetricRegistry::new();
        reg.count("b/second", 2);
        reg.count("a/first", 1);
        let h = reg.histogram("a/sizes");
        reg.record(h, 8);
        reg.record(h, 8);
        let csv = reg.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "path,type,value");
        assert_eq!(lines[1], "a/first,counter,1");
        assert!(lines[2].starts_with("a/sizes,hist,count=2 total=16"));
        assert_eq!(lines[3], "b/second,counter,2");
        // Rendering twice is identical (no hidden iteration order).
        assert_eq!(csv, reg.to_csv());
    }

    #[test]
    fn tree_groups_by_path_segments() {
        let mut reg = MetricRegistry::new();
        reg.count("node0/mem/l1/hits", 5);
        reg.count("node0/mem/l1/misses", 1);
        reg.count("node0/ni/bytes", 64);
        let tree = reg.render_tree();
        let expect =
            "node0/\n  mem/\n    l1/\n      hits: 5\n      misses: 1\n  ni/\n    bytes: 64\n";
        assert_eq!(tree, expect);
    }

    #[test]
    fn merge_counters_adds_shards() {
        let mut a = MetricRegistry::new();
        a.count("x/events", 3);
        let mut b = MetricRegistry::new();
        b.count("x/events", 4);
        b.count("y/other", 1);
        a.merge_counters(&b);
        assert_eq!(a.counter_value("x/events"), Some(7));
        assert_eq!(a.counter_value("y/other"), Some(1));
    }

    #[test]
    fn summary_and_histogram_render() {
        let mut reg = MetricRegistry::new();
        let s = reg.summary("lat/us");
        reg.observe(s, 1.0);
        reg.observe(s, 3.0);
        let m = reg.get("lat/us").unwrap();
        assert_eq!(m.kind(), "summary");
        assert!(m.render_value().contains("mean=2.000"));
    }
}
