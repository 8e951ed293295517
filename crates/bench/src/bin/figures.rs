//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!   figures                 # run everything, write out/ bundle
//!   figures fig9 fig11      # run selected experiments, print to stdout
//!   figures --quick         # shrunken sweeps (CI)
//!   figures --serial        # disable the parallel sweep harness
//!   figures --list          # list experiment ids
//!   figures --checks        # run the headline shape checks
//!   figures --csv x5 x6     # print raw CSV (with `# id` headers) for
//!                           # the named experiments — ci.sh diffs this
//!                           # against committed goldens
//!   figures --time          # time every experiment in three serial passes
//!                           # (median, min, max), then the bundle once in
//!                           # parallel; write BENCH_figures.json
//!                           # (with --serial: skip the parallel pass)
//!   figures --metrics       # run the observability scenario, print the
//!                           # rendered registry tree, write out/metrics.csv
//!                           # (ci.sh golden-diffs the --quick CSV)

use pm_core::experiments::{all_experiments, find, headline_checks};
use pm_core::report::{render_terminal, run_all, write_bundle};
use pm_net::routesim::{RoutePolicy, RouteSim};
use pm_net::topology::Topology;
use pm_sim::metrics::MetricRegistry;
use pm_sim::par;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let serial = args.iter().any(|a| a == "--serial");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    if serial {
        par::set_parallel(false);
    }

    if args.iter().any(|a| a == "--list") {
        for e in all_experiments() {
            println!("{:14} {}", e.id, e.title);
        }
        return;
    }
    if args.iter().any(|a| a == "--checks") {
        let mut failed = 0;
        for (name, ok, detail) in headline_checks() {
            println!(
                "[{}] {name}\n       {detail}",
                if ok { "PASS" } else { "FAIL" }
            );
            if !ok {
                failed += 1;
            }
        }
        std::process::exit(if failed == 0 { 0 } else { 1 });
    }
    if args.iter().any(|a| a == "--time") {
        time_bundle(quick, serial);
        return;
    }
    if args.iter().any(|a| a == "--metrics") {
        let reg = pm_core::observability::collect_metrics(quick);
        print!("{}", reg.render_tree());
        let dir = Path::new("out");
        let path = dir.join("metrics.csv");
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, reg.to_csv()))
        {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
        return;
    }
    if args.iter().any(|a| a == "--csv") {
        // Raw, diff-stable CSV for golden comparisons: one `# id`
        // header per experiment, then its artifact verbatim.
        for id in &ids {
            match find(id) {
                Some(exp) => {
                    let artifact = (exp.run)(quick, &mut MetricRegistry::new());
                    println!("# {}", exp.id);
                    print!("{}", artifact.to_csv());
                }
                None => {
                    eprintln!("unknown experiment `{id}`; try --list");
                    std::process::exit(2);
                }
            }
        }
        return;
    }

    if ids.is_empty() {
        let dir = Path::new("out");
        println!(
            "running all experiments (quick={quick}); writing {}",
            dir.display()
        );
        match write_bundle(dir, quick) {
            Ok(written) => {
                for id in written {
                    println!("  wrote {id}.csv / {id}.md / {id}_metrics.csv");
                }
                println!("bundle complete: {}", dir.join("SUMMARY.md").display());
            }
            Err(e) => {
                eprintln!("failed to write bundle: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    for id in ids {
        match find(id) {
            Some(exp) => {
                eprintln!("== {} ==", exp.title);
                let artifact = (exp.run)(quick, &mut MetricRegistry::new());
                println!("{}", render_terminal(&artifact));
            }
            None => {
                eprintln!("unknown experiment `{id}`; try --list");
                std::process::exit(2);
            }
        }
    }
}

/// Serial passes `figures --time` makes over the bundle. A single pass
/// cannot resolve a per-experiment change under about 30 % on a shared
/// host; each recorded time is the median of these passes.
const SERIAL_PASSES: usize = 3;

/// The median, minimum and maximum of repeated timings, in ms.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(f64::total_cmp);
        Spread {
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"median\": {:.3}, \"min\": {:.3}, \"max\": {:.3}}}",
            self.median, self.min, self.max
        )
    }
}

/// Times the full experiment bundle and writes `BENCH_figures.json`.
///
/// The serial passes run every experiment one at a time with the worker
/// pool disabled, [`SERIAL_PASSES`] times over, recording each
/// experiment's median wall-clock with its min and max, and the median
/// pass total. The parallel pass (skipped under `--serial`) re-runs the
/// whole bundle once through [`run_all`]'s sweep fan-out and records the
/// total. The speedup is the median serial total over the parallel
/// total on this host.
fn time_bundle(quick: bool, serial_only: bool) {
    let workers = par::available_workers();
    println!(
        "timing bundle (quick={quick}, workers={workers}{})",
        if serial_only { ", serial only" } else { "" }
    );

    // Per-experiment timings, worker pool off: inner sweeps stay inline
    // so each number is that experiment's standalone serial cost. Whole
    // passes alternate, so a drift in host speed spreads over every
    // experiment instead of landing on one.
    par::set_parallel(false);
    let experiments = all_experiments();
    let mut samples = vec![Vec::with_capacity(SERIAL_PASSES); experiments.len()];
    let mut pass_totals = Vec::with_capacity(SERIAL_PASSES);
    for pass in 1..=SERIAL_PASSES {
        println!("serial pass {pass} of {SERIAL_PASSES}");
        let pass_start = Instant::now();
        for (exp, times) in experiments.iter().zip(&mut samples) {
            let t = Instant::now();
            black_box((exp.run)(quick, &mut MetricRegistry::new()));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            println!("  {:14} {:>9.1} ms", exp.id, ms);
            times.push(ms);
        }
        pass_totals.push(pass_start.elapsed().as_secs_f64() * 1e3);
    }
    let per_experiment: Vec<(&str, Spread)> = experiments
        .iter()
        .zip(samples)
        .map(|(exp, times)| (exp.id, Spread::of(times)))
        .collect();
    let serial = Spread::of(pass_totals);
    println!(
        "serial total   {:>9.1} ms (median of {SERIAL_PASSES}; {:.1} to {:.1})",
        serial.median, serial.min, serial.max
    );

    let parallel_ms = if serial_only {
        None
    } else {
        par::set_parallel(true);
        let t = Instant::now();
        black_box(run_all(quick));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        println!("parallel total {ms:>9.1} ms");
        Some(ms)
    };
    if let Some(p) = parallel_ms {
        println!("speedup        {:>9.2}x", serial.median / p);
    }

    let hot_paths = time_hot_paths(quick);
    for hp in &hot_paths {
        println!(
            "  {:24} {:>9.1} ms -> {:>9.1} ms  ({:.2}x)",
            hp.name,
            hp.baseline_ms,
            hp.optimized_ms,
            hp.baseline_ms / hp.optimized_ms
        );
    }

    let path = Path::new("BENCH_figures.json");
    match std::fs::write(
        path,
        render_json(
            quick,
            workers,
            &per_experiment,
            serial,
            parallel_ms,
            &hot_paths,
        ),
    ) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// One baseline-vs-optimised hot-path timing.
struct HotPath {
    name: &'static str,
    /// The naive path's label and wall-clock (e.g. fresh construction).
    baseline: &'static str,
    baseline_ms: f64,
    /// The production path's label and wall-clock (e.g. pooled reuse).
    optimized: &'static str,
    optimized_ms: f64,
}

/// Times the hot paths against their naive baselines:
///
/// * the 1024-worm hierarchy permutation, fresh simulator per batch vs
///   the pooled `RouteSim` reuse `tests/bench_guard.rs` budgets;
/// * the resilient loop under a small fault campaign, fresh vs pooled.
fn time_hot_paths(quick: bool) -> Vec<HotPath> {
    let reps = if quick { 20 } else { 50 };

    // The 1024-worm hierarchy permutation: every node of system1024
    // injects at once and the adaptive policy keeps all 1024 worms in
    // flight. The fresh path rebuilds the simulator (adjacency and
    // crossbar link tables, route arena, event heap) per batch; the
    // pooled path reuses one simulator so a batch touches only
    // vectors it already allocated.
    let hierarchy_worms = pm_core::hierarchy::x13_hot_path_worms();
    let topo = Topology::system1024();
    let t = Instant::now();
    for _ in 0..reps {
        let mut sim = RouteSim::new(&topo);
        black_box(sim.run(&hierarchy_worms, RoutePolicy::Adaptive).finished_at);
    }
    let hierarchy_fresh_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut sim = RouteSim::new(&topo);
    sim.run(&hierarchy_worms, RoutePolicy::Adaptive);
    let t = Instant::now();
    for _ in 0..reps {
        black_box(sim.run(&hierarchy_worms, RoutePolicy::Adaptive).finished_at);
    }
    let hierarchy_reused_ms = t.elapsed().as_secs_f64() * 1e3;

    // The resilient loop under a small fault campaign (transients, four
    // link deaths, repairs): same fresh-vs-pooled comparison, but the
    // run also exercises the health table, retransmission and watchdog
    // machinery the plain hierarchy batch never touches.
    let (res_worms, res_plan, res_cfg) = pm_core::resilience::x14_hot_path();
    let t = Instant::now();
    for _ in 0..reps {
        let mut sim = RouteSim::new(&topo);
        black_box(
            sim.run_resilient(&res_worms, &res_plan, &res_cfg)
                .expect("hot-path plan is valid for system1024")
                .finished_at,
        );
    }
    let resilience_fresh_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut sim = RouteSim::new(&topo);
    sim.run_resilient(&res_worms, &res_plan, &res_cfg).unwrap();
    let t = Instant::now();
    for _ in 0..reps {
        black_box(
            sim.run_resilient(&res_worms, &res_plan, &res_cfg)
                .expect("hot-path plan is valid for system1024")
                .finished_at,
        );
    }
    let resilience_reused_ms = t.elapsed().as_secs_f64() * 1e3;

    vec![
        HotPath {
            name: "hierarchy",
            baseline: "fresh",
            baseline_ms: hierarchy_fresh_ms,
            optimized: "reused",
            optimized_ms: hierarchy_reused_ms,
        },
        HotPath {
            name: "resilience",
            baseline: "fresh",
            baseline_ms: resilience_fresh_ms,
            optimized: "reused",
            optimized_ms: resilience_reused_ms,
        },
    ]
}

/// Hand-rolled JSON (the build policy forbids external crates): numbers
/// are plain `f64`s and every string is a known ASCII experiment id, so
/// no escaping is needed.
fn render_json(
    quick: bool,
    workers: usize,
    per_experiment: &[(&str, Spread)],
    serial: Spread,
    parallel_ms: Option<f64>,
    hot_paths: &[HotPath],
) -> String {
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"workers\": {workers},\n"));
    s.push_str(&format!("  \"available_parallelism\": {available},\n"));
    // A speedup measured with one worker is the pool degrading to inline
    // serial execution: it reflects host timing noise, not parallelism.
    s.push_str(&format!("  \"speedup_valid\": {},\n", workers > 1));
    if workers == 1 {
        s.push_str(
            "  \"note\": \"single-core host: the pool degrades to inline serial, \
             so speedup only reflects host timing noise\",\n",
        );
    }
    s.push_str("  \"hot_paths\": {\n");
    for (i, hp) in hot_paths.iter().enumerate() {
        let comma = if i + 1 < hot_paths.len() { "," } else { "" };
        s.push_str(&format!(
            "    \"{}\": {{\"{}_ms\": {:.3}, \"{}_ms\": {:.3}, \"speedup\": {:.3}}}{comma}\n",
            hp.name,
            hp.baseline,
            hp.baseline_ms,
            hp.optimized,
            hp.optimized_ms,
            hp.baseline_ms / hp.optimized_ms
        ));
    }
    s.push_str("  },\n");
    s.push_str(&format!("  \"serial_passes\": {SERIAL_PASSES},\n"));
    s.push_str("  \"experiments_ms\": {\n");
    for (i, (id, spread)) in per_experiment.iter().enumerate() {
        let comma = if i + 1 < per_experiment.len() {
            ","
        } else {
            ""
        };
        s.push_str(&format!("    \"{id}\": {}{comma}\n", spread.json()));
    }
    s.push_str("  },\n");
    s.push_str(&format!("  \"serial_total_ms\": {},\n", serial.json()));
    match parallel_ms {
        Some(p) => {
            s.push_str(&format!("  \"parallel_total_ms\": {p:.3},\n"));
            s.push_str(&format!("  \"speedup\": {:.3}\n", serial.median / p));
        }
        None => {
            s.push_str("  \"parallel_total_ms\": null,\n");
            s.push_str("  \"speedup\": null\n");
        }
    }
    s.push_str("}\n");
    s
}
