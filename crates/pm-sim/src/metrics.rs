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
//!
//! let mut reg = MetricRegistry::new();
//! let hits = reg.counter("node0/mem/l1/hits");
//! reg.add(hits, 3);
//! reg.add(hits, 2);
//! let sizes = reg.histogram("node0/ni/message_bytes");
//! reg.record(sizes, 64);
//! assert_eq!(reg.counter_value("node0/mem/l1/hits"), Some(5));
//! let csv = reg.to_csv();
//! assert!(csv.contains("node0/mem/l1/hits,counter,5"));
//! ```

use crate::stats::{Counter, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A handle to a registered metric: a dense index, cheap to copy and
/// cheap to update through. Handles are only valid for the registry
/// that issued them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MetricId(usize);

/// The value side of one registered metric.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// A monotonically increasing event count.
    Counter(Counter),
    /// A power-of-two-bucketed distribution of integer samples.
    Histogram(Histogram),
}

impl Metric {
    /// The metric kind as it appears in the CSV `type` column.
    pub fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Histogram(_) => "hist",
        }
    }

    /// The rendered value column: counters print exact integers and
    /// histograms print their float mean with fixed precision, so output
    /// is diff-stable.
    fn render_value(&self) -> String {
        match self {
            Metric::Counter(c) => format!("{}", c.value()),
            Metric::Histogram(h) => format!(
                "count={} total={} mean={:.3} p99={}",
                h.total(),
                h.sum(),
                h.mean(),
                h.quantile(0.99)
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
    #[should_panic(expected = "registered as a counter")]
    fn kind_collision_panics() {
        let mut reg = MetricRegistry::new();
        reg.counter("x/y");
        reg.histogram("x/y");
    }

    #[test]
    #[should_panic(expected = "add on a hist")]
    fn counter_ops_on_histogram_panic() {
        let mut reg = MetricRegistry::new();
        let h = reg.histogram("x");
        reg.add(h, 1);
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
}
