//! Counters, histograms, data series and report rendering.
//!
//! The experiment harness in `pm-core` turns simulator output into the
//! paper's tables and figures. Everything here renders to plain text
//! (CSV, markdown tables, ASCII plots) so the repository stays free of
//! plotting dependencies.

use std::fmt::Write as _;

/// A named monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use pm_sim::stats::Counter;
///
/// let mut misses = Counter::new("l1d_miss");
/// misses.add(3);
/// misses.incr();
/// assert_eq!(misses.value(), 4);
/// assert_eq!(misses.name(), "l1d_miss");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter with a name used in reports.
    pub fn new(name: impl Into<String>) -> Self {
        Counter {
            name: name.into(),
            value: 0,
        }
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Adds one event.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Current count.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The report name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A power-of-two bucketed histogram for latency/size distributions.
///
/// Bucket `i` counts values `v` with `2^(i-1) < v <= 2^i` (bucket 0 counts
/// zero and one).
///
/// # Examples
///
/// ```
/// use pm_sim::stats::Histogram;
///
/// let mut h = Histogram::new("msg_bytes");
/// h.record(1);
/// h.record(8);
/// h.record(9);
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.bucket_count(0), 1); // value 1
/// assert_eq!(h.bucket_count(3), 1); // value 8
/// assert_eq!(h.bucket_count(4), 1); // value 9 rounds up to 16-bucket
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    name: String,
    buckets: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new(name: impl Into<String>) -> Self {
        Histogram {
            name: name.into(),
            buckets: vec![0; 65],
            total: 0,
            sum: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let idx = if v <= 1 {
            0
        } else {
            64 - (v - 1).leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.total += 1;
        self.sum += v as u128;
    }

    /// Total number of recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Count in bucket `i` (values in `(2^(i-1), 2^i]`).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// The report name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// An approximate `q`-quantile (`0.0..=1.0`) using bucket upper bounds.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        u64::MAX
    }
}

/// An `(x, y)` data series — one curve in a paper figure.
///
/// # Examples
///
/// ```
/// use pm_sim::stats::Series;
///
/// let mut s = Series::new("PowerMANNA");
/// s.push(8.0, 2.75);
/// s.push(64.0, 3.9);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.points()[0], (8.0, 2.75));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty, named series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if the series already has a point at `x`: a figure renders
    /// one row per x, so a second point there would never be written.
    pub fn push(&mut self, x: f64, y: f64) {
        assert!(
            self.points.iter().all(|&(px, _)| px != x),
            "series {:?} already has a point at x = {x}",
            self.name
        );
        self.points.push((x, y));
    }

    /// The points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The series name (figure legend entry).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Linear interpolation of `y` at `x` (requires points sorted by `x`).
    ///
    /// Values outside the domain clamp to the end points. Returns `None`
    /// for an empty series.
    pub fn interpolate(&self, x: f64) -> Option<f64> {
        let pts = &self.points;
        if pts.is_empty() {
            return None;
        }
        if x <= pts[0].0 {
            return Some(pts[0].1);
        }
        if x >= pts[pts.len() - 1].0 {
            return Some(pts[pts.len() - 1].1);
        }
        for w in pts.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            if (x0..=x1).contains(&x) {
                if x1 == x0 {
                    return Some(y0);
                }
                return Some(y0 + (y1 - y0) * (x - x0) / (x1 - x0));
            }
        }
        None
    }

    /// The maximum `y` value, if any.
    pub fn y_max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(None, |m, y| Some(m.map_or(y, |m: f64| m.max(y))))
    }
}

/// A collection of series sharing an x-axis — one paper figure.
///
/// # Examples
///
/// ```
/// use pm_sim::stats::{Figure, Series};
///
/// let mut fig = Figure::new("fig9", "message size [byte]", "latency [us]");
/// let mut s = Series::new("PowerMANNA");
/// s.push(8.0, 2.75);
/// fig.add_series(s);
/// let csv = fig.to_csv();
/// assert!(csv.starts_with("message size [byte],PowerMANNA"));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Figure {
    id: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure with axis labels.
    pub fn new(
        id: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds one curve.
    pub fn add_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// The figure identifier (e.g. `"fig9"`).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The x-axis label.
    pub fn x_label(&self) -> &str {
        &self.x_label
    }

    /// The y-axis label.
    pub fn y_label(&self) -> &str {
        &self.y_label
    }

    /// The curves in insertion order.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Renders the figure as CSV with one column per series, merging on x.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, _) in s.points() {
                if !xs.contains(&x) {
                    xs.push(x);
                }
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut out = String::new();
        out.push_str(&self.x_label);
        for s in &self.series {
            let _ = write!(out, ",{}", s.name());
        }
        out.push('\n');
        for &x in &xs {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.points().iter().find(|&&(px, _)| px == x) {
                    Some(&(_, y)) => {
                        let _ = write!(out, ",{y}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the figure as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "### {} — {} vs {}",
            self.id, self.y_label, self.x_label
        );
        let _ = write!(out, "| {} |", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {} |", s.name());
        }
        out.push('\n');
        let _ = write!(out, "|---|");
        for _ in &self.series {
            let _ = write!(out, "---|");
        }
        out.push('\n');
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, _) in s.points() {
                if !xs.contains(&x) {
                    xs.push(x);
                }
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &x in &xs {
            let _ = write!(out, "| {x:.4} |");
            for s in &self.series {
                match s.points().iter().find(|&&(px, _)| px == x) {
                    Some(&(_, y)) => {
                        let _ = write!(out, " {y:.4} |");
                    }
                    None => {
                        let _ = write!(out, " |");
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders a quick ASCII plot (log-insensitive, for terminal eyeballing).
    pub fn to_ascii(&self, width: usize, height: usize) -> String {
        let width = width.max(16);
        let height = height.max(8);
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &self.series {
            for &(x, y) in s.points() {
                xmin = xmin.min(x);
                xmax = xmax.max(x);
                ymin = ymin.min(y);
                ymax = ymax.max(y);
            }
        }
        if !xmin.is_finite() || xmax <= xmin {
            return format!("{} (empty)\n", self.id);
        }
        if ymax <= ymin {
            ymax = ymin + 1.0;
        }
        let mut grid = vec![vec![b' '; width]; height];
        let marks = [b'*', b'+', b'o', b'x', b'#', b'@'];
        for (si, s) in self.series.iter().enumerate() {
            let m = marks[si % marks.len()];
            for &(x, y) in s.points() {
                let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
                let cy = ((y - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
                grid[height - 1 - cy][cx.min(width - 1)] = m;
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} — {} vs {}", self.id, self.y_label, self.x_label);
        let _ = writeln!(out, "y: [{ymin:.3}, {ymax:.3}]  x: [{xmin:.3}, {xmax:.3}]");
        for row in grid {
            out.push('|');
            out.push_str(std::str::from_utf8(&row).expect("ascii grid"));
            out.push('\n');
        }
        for (si, s) in self.series.iter().enumerate() {
            let _ = writeln!(out, "  {} = {}", marks[si % marks.len()] as char, s.name());
        }
        out
    }
}

/// A two-dimensional table of strings — one paper table (e.g. Table 1).
///
/// # Examples
///
/// ```
/// use pm_sim::stats::Table;
///
/// let mut t = Table::new("table1", vec!["System".into(), "Clock".into()]);
/// t.add_row(vec!["PowerMANNA".into(), "180 MHz".into()]);
/// assert!(t.to_markdown().contains("PowerMANNA"));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    id: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with column headers.
    pub fn new(id: impl Into<String>, header: Vec<String>) -> Self {
        Table {
            id: id.into(),
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// The table identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The header cells.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The body rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.id);
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "series \"setup\" already has a point at x = 1")]
    fn second_point_at_an_existing_x_panics() {
        let mut s = Series::new("setup");
        s.push(1.0, 0.2);
        s.push(3.0, 0.6);
        s.push(1.0, 0.2);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new("x");
        c.add(5);
        c.incr();
        assert_eq!(c.value(), 6);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new("h");
        for v in [0, 1, 2, 3, 4, 5, 8, 9, 1024] {
            h.record(v);
        }
        assert_eq!(h.bucket_count(0), 2); // 0, 1
        assert_eq!(h.bucket_count(1), 1); // 2
        assert_eq!(h.bucket_count(2), 2); // 3, 4
        assert_eq!(h.bucket_count(3), 2); // 5, 8
        assert_eq!(h.bucket_count(4), 1); // 9
        assert_eq!(h.bucket_count(10), 1); // 1024
        assert_eq!(h.total(), 9);
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::new("q");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(q50 <= q99);
        assert!((256..=512).contains(&q50), "q50 {q50}");
    }

    #[test]
    fn series_interpolation() {
        let mut s = Series::new("s");
        s.push(0.0, 0.0);
        s.push(10.0, 100.0);
        assert_eq!(s.interpolate(5.0), Some(50.0));
        assert_eq!(s.interpolate(-1.0), Some(0.0));
        assert_eq!(s.interpolate(99.0), Some(100.0));
        assert_eq!(Series::new("e").interpolate(1.0), None);
    }

    #[test]
    fn figure_csv_merges_x_values() {
        let mut fig = Figure::new("f", "x", "y");
        let mut a = Series::new("a");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("b");
        b.push(2.0, 200.0);
        b.push(3.0, 300.0);
        fig.add_series(a);
        fig.add_series(b);
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "1,10,");
        assert_eq!(lines[2], "2,20,200");
        assert_eq!(lines[3], "3,,300");
    }

    #[test]
    fn figure_ascii_contains_legend() {
        let mut fig = Figure::new("f", "x", "y");
        let mut a = Series::new("curve");
        a.push(0.0, 0.0);
        a.push(1.0, 1.0);
        fig.add_series(a);
        let plot = fig.to_ascii(20, 10);
        assert!(plot.contains("curve"));
        assert!(plot.contains('*'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        t.add_row(vec!["only one".into()]);
    }

    #[test]
    fn table_renders_markdown_and_csv() {
        let mut t = Table::new("t", vec!["k".into(), "v".into()]);
        t.add_row(vec!["x".into(), "1".into()]);
        assert!(t.to_markdown().contains("| x | 1 |"));
        assert_eq!(t.to_csv(), "k,v\nx,1\n");
    }
}
