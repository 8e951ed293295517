//! `pmbench`: host-time benchmark of the PowerMANNA simulator.
//!
//! ```text
//! cargo run --release --manifest-path pmbench/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Without `--workload` every workload runs in a child process of its
//! own, one after another. Each run prints `<workload> <metric> <value>
//! <unit>` lines and, last, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). It exits
//! non-zero if any output check fails. See README.md.

mod check;
mod stats;
mod trace;
mod workloads;

use check::Fnv;
use std::collections::HashMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::{Layer, Tracer, NO_POINT};
use workloads::{Bench, Scale, Workload};

/// Set-ups per run (when the run has that many passes); `setup_s` is
/// their median.
const SETUP_REPS: usize = 5;

/// Per-point digests of the dev and holdout seeds, one
/// `<workload> <seed> <label> <hex>` line each.
const PINNED: &str = include_str!("../pinned.txt");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                out.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&out.seconds) {
                    return Err(format!("--seconds {value} outside 0..=600"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(out)
}

/// What one workload run measured.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    samples: usize,
    beyond_p90: usize,
    passes: usize,
    /// Pass-1 digest of each point, with its label, in canonical order.
    digests: Vec<(String, u64)>,
    spans_csv: Option<String>,
}

/// Checks every point's output against the pinned digest (dev and
/// holdout seeds) or else pass 1's, plus the output invariants.
struct Verifier {
    pinned: Vec<Option<u64>>,
    reference: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Verifier {
    fn new(w: Workload, seed: u64, labels: &[String]) -> Result<Self, String> {
        let prefix = format!("{} {seed} ", w.name());
        let table: HashMap<&str, &str> = PINNED
            .lines()
            .filter_map(|l| l.strip_prefix(&prefix))
            .filter_map(|l| l.split_once(' '))
            .collect();
        let pinned = if table.is_empty() {
            vec![None; labels.len()]
        } else {
            labels
                .iter()
                .map(|l| {
                    let hex = table
                        .get(l.as_str())
                        .ok_or(format!("pinned.txt lacks {l}"))?;
                    u64::from_str_radix(hex, 16)
                        .map(Some)
                        .map_err(|e| format!("pinned.txt: {l}: {e}"))
                })
                .collect::<Result<_, _>>()?
        };
        Ok(Verifier {
            pinned,
            reference: vec![None; labels.len()],
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        })
    }

    fn verify(&mut self, bench: &Bench, i: usize, out: &check::Output, what: &str) {
        self.attempted += 1;
        let digest = check::digest(out);
        let expected = self.pinned[i].or(self.reference[i]);
        self.reference[i].get_or_insert(digest);
        let err = match (bench.check(i, out), expected) {
            (Err(e), _) => Some(e),
            (Ok(()), Some(e)) if e != digest => {
                Some(format!("digest {digest:016x}, expected {e:016x}"))
            }
            _ => None,
        };
        if let Some(e) = err {
            self.failed += 1;
            self.errors.push(format!("{what} {}: {e}", bench.labels[i]));
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Sets up `w` from `seed`, then runs passes over all its points until
/// `seconds` have passed and enough passes ran for the percentiles. A
/// traced run follows each untraced pass with a traced one.
fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: &Scale,
) -> Result<Report, String> {
    pm_sim::par::set_parallel(false);
    let mut tr = Tracer::new();
    let mut setups = Vec::new();
    let mut timed_setup = |tr: &mut Tracer| {
        let t0 = Instant::now();
        let bench = Bench::setup(w, seed, scale, tr);
        setups.push(t0.elapsed().as_secs_f64());
        bench
    };
    let mut bench = timed_setup(&mut tr)?;
    let mut v = Verifier::new(w, seed, &bench.labels)?;

    let min_passes = if traced {
        1
    } else {
        stats::min_passes(bench.len())
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // Host seconds of every call of every point, and of every pass.
    let mut calls = vec![Vec::new(); bench.len()];
    let mut walls = Vec::new();
    let mut pass = 0;
    while pass < min_passes || start.elapsed() < budget {
        // The set-ups are spread over the run, one before each of the
        // first passes, so that their median does not hinge on one moment
        // of the host's load. Inputs are regenerated from the same seed.
        if pass > 0 && pass < SETUP_REPS {
            drop(bench);
            bench = timed_setup(&mut tr)?;
        }
        let mut wall = 0.0;
        for (i, point_calls) in calls.iter_mut().enumerate() {
            let t0 = Instant::now();
            let out = bench.call(i, None);
            let dt = t0.elapsed().as_secs_f64();
            point_calls.push(dt);
            wall += dt;
            v.verify(&bench, i, &out, "point");
        }
        walls.push(wall);
        if traced {
            tr.counts.traced_passes += 1;
            for i in 0..bench.len() {
                tr.point = i as u32;
                let id = tr.begin(Layer::Point);
                let out = bench.call(i, Some(&mut tr));
                tr.end(id);
                tr.point = NO_POINT;
                workloads::count_net(&out, &mut tr.counts);
                v.verify(&bench, i, &out, "traced point");
            }
        }
        pass += 1;
    }

    let (metrics, samples, beyond_p90, spans_csv) = if traced {
        tr.finish_replay();
        let metrics = tr.layer_metrics(stats::median(&walls));
        (metrics, 0, 0, Some(tr.csv()))
    } else {
        let best: f64 = calls.iter_mut().map(|c| stats::faster_half(c)[0]).sum();
        let kept: Vec<f64> = calls
            .iter_mut()
            .flat_map(|c| stats::faster_half(c).to_vec())
            .map(|s| s * 1e3)
            .collect();
        let (p90, beyond) = stats::p90(&kept)?;
        let metrics = vec![
            ("setup_s", stats::median(&setups), "s"),
            ("wall_s", best, "s"),
            ("point_ms_p50", stats::median(&kept), "ms"),
            ("point_ms_p90", p90, "ms"),
            ("peak_rss_mb", peak_rss_mb()?, "MiB"),
        ];
        (metrics, kept.len(), beyond, None)
    };
    let digests = bench
        .labels
        .iter()
        .zip(&v.reference)
        .map(|(l, d)| (l.clone(), d.expect("every point ran")))
        .collect();
    Ok(Report {
        metrics,
        attempted: v.attempted,
        failed: v.failed,
        errors: v.errors,
        samples,
        beyond_p90,
        passes: pass,
        digests,
        spans_csv,
    })
}

/// The result line the benchmark contract reads.
fn json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Writes the spans and per-point digests under `target/pmbench/`.
fn write_artifacts(w: Workload, seed: u64, r: &Report) -> std::io::Result<()> {
    let dir = std::path::Path::new("target/pmbench");
    std::fs::create_dir_all(dir)?;
    let digests: String = r
        .digests
        .iter()
        .map(|(label, d)| format!("{} {seed} {label} {d:016x}\n", w.name()))
        .collect();
    std::fs::write(
        dir.join(format!("{}-seed{seed}.digests", w.name())),
        digests,
    )?;
    if let Some(csv) = &r.spans_csv {
        std::fs::write(dir.join(format!("{}.spans.csv", w.name())), csv)?;
    }
    Ok(())
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let r = match run(w, args.seed, args.seconds, args.trace, &workloads::FULL) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pmbench: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    for e in r.errors.iter().take(20) {
        eprintln!("pmbench: {}: FAILED {e}", w.name());
    }
    if let Some((name, _, _)) = r.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("pmbench: {}: {name} is not finite", w.name());
        return ExitCode::FAILURE;
    }
    if let Err(e) = write_artifacts(w, args.seed, &r) {
        eprintln!("pmbench: writing target/pmbench: {e}");
        return ExitCode::FAILURE;
    }
    let name = w.name();
    for (metric, value, unit) in &r.metrics {
        println!("{name} {metric} {value} {unit}");
    }
    if !args.trace {
        println!("{name} samples point_ms {}", r.samples);
        println!("{name} beyond_p90 point_ms {}", r.beyond_p90);
    }
    println!("{name} passes {}", r.passes);
    let mut h = Fnv::new();
    r.digests.iter().for_each(|(_, d)| h.u64(*d));
    println!("{name} digest {:016x}", h.finish());
    println!("{}", json(&r));
    if r.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, one after another, so
/// that each reports its own peak RSS.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("pmbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pmbench: {e}");
            eprintln!(
                "usage: pmbench [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale {
        l2_sizes: &[8, 16],
        tlb_sizes: &[104],
        clean_loads: &[0.4, 3.2],
        clean_lanes: 2,
        clean_worms: 300,
        fault_loads: &[1.6],
        fault_lanes: 1,
        fault_worms: 200,
        deaths: 4,
    };

    #[test]
    fn every_workload_passes_its_checks_untraced_and_traced() {
        for w in Workload::ALL {
            for traced in [false, true] {
                let r = run(w, 7, 0.0, traced, &TINY).expect("tiny run");
                assert_eq!(r.failed, 0, "{} traced={traced}: {:?}", w.name(), r.errors);
                assert!(r.attempted > 0);
                assert!(r.metrics.iter().all(|m| m.1.is_finite()));
                if !traced {
                    assert!(r.samples >= stats::MIN_SAMPLES && r.beyond_p90 >= 10);
                }
            }
        }
    }

    #[test]
    fn inputs_are_deterministic_per_seed_and_distinct_across_seeds() {
        for w in [Workload::HierClean, Workload::HierFaults] {
            let a = run(w, 2, 0.0, false, &TINY).expect("tiny run");
            let b = run(w, 2, 0.0, false, &TINY).expect("tiny run");
            let c = run(w, 3, 0.0, false, &TINY).expect("tiny run");
            assert_eq!(a.digests, b.digests, "{}", w.name());
            // Not a permutation of the same batches: every point differs.
            for (label, d) in &c.digests {
                assert!(
                    a.digests.iter().all(|(_, other)| other != d),
                    "{}: {label} of seed 3 repeats an input of seed 2",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload hier1024_faults --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::HierFaults));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds",
            "--frob 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
