//! The repo benchmark: seven fleet-shaped workloads over the codecs, the
//! serving engine and the hardware model, with per-layer attribution in a
//! traced run. `README.md` beside this package is the manual.
//!
//! One process per workload (`--all` re-executes itself), so `peak_rss_mb`
//! belongs to the workload that reports it. The last line of standard
//! output is the machine-readable result.

mod calls;
mod cli;
mod cpu;
mod estimator;
mod giant;
mod harness;
mod inputs;
mod layers;
mod metrics;
mod model;
mod serve;
mod spans;

use crate::calls::Calls;
use crate::cli::Args;
use crate::estimator::{summarize, Series};
use crate::harness::{peak_rss_mb, run_window, Report, Workload, THREADS};
use crate::metrics::{Decl, END_TO_END, PER_LAYER, WORKLOADS};
use crate::spans::Recorder;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Spans kept per traced run (≈ 100 bytes each in the trace file).
const SPAN_CAP: usize = 200_000;
/// Set-up is repeated this often at least, and until this much time has
/// gone into it, before the window, and once more after it; `setup_s` is
/// the fastest, like every other timing.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.5;
/// Share of `--seconds` a traced run gives to the workload itself before
/// the layer pass.
const TRACED_WINDOW_SHARE: f64 = 0.3;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    cdpu_par::set_threads(THREADS);
    let outcome = match args.workload.as_deref() {
        None => return run_all(&args, &argv),
        Some("calls_small") => run::<Calls<calls::Small>>(&args),
        Some("calls_large_light") => run::<Calls<calls::LargeLight>>(&args),
        Some("calls_large_heavy") => run::<Calls<calls::LargeHeavy>>(&args),
        Some("calls_giant") => run::<Calls<giant::Giant>>(&args),
        Some("serve_saturation") => run::<serve::ServeSaturation>(&args),
        Some("serve_paced") => run::<serve::ServePaced>(&args),
        Some("model_dse") => run::<model::ModelDse>(&args),
        Some(other) => unreachable!("cli::parse accepted unknown workload {other}"),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(3)
        }
    }
}

/// `--all`: the same flags, one workload per process, so that each
/// `peak_rss_mb` belongs to one workload. A traced `--all` makes the layer
/// pass, which does not depend on the workload, once: with the last.
fn run_all(args: &Args, argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut failed = 0;
    for (i, name) in WORKLOADS.iter().enumerate() {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name])
            .args(argv.iter().filter(|a| *a != "--all"));
        if args.trace && i + 1 < WORKLOADS.len() {
            cmd.arg("--spans-only");
        }
        // Every workload runs even after one has failed.
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("benchmark: {name} ended with {status}");
                failed += 1;
            }
            Err(e) => {
                eprintln!("benchmark: cannot start {name}: {e}");
                failed += 1;
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One complete set-up: the inputs plus the first, cold round. Returns
/// the instance and the seconds it took.
fn build<W: Workload>(seed: u64) -> (W, f64) {
    let t = Instant::now();
    let mut w = W::setup(seed);
    w.round(None);
    (w, t.elapsed().as_secs_f64())
}

/// Sets up at least `MIN_SETUPS` times and until `SETUP_BUDGET_S` has gone
/// into it (once for a smoke or traced run, which report no `setup_s`);
/// returns the last instance and the seconds of each set-up.
fn set_up<W: Workload>(args: &Args) -> (W, Vec<f64>) {
    let started = Instant::now();
    let mut secs = Vec::new();
    loop {
        let (w, s) = build::<W>(args.seed);
        secs.push(s);
        let enough = secs.len() >= MIN_SETUPS
            && (secs.len() >= MAX_SETUPS || started.elapsed().as_secs_f64() >= SETUP_BUDGET_S);
        if args.smoke || args.trace || enough {
            return (w, secs);
        }
    }
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    let allowed = cpu::allowed();
    if allowed.len() < THREADS {
        // Fewer cores would measure something else under the same names.
        return Err(format!(
            "needs {THREADS} CPUs, this process may use {}",
            allowed.len()
        ));
    }
    let cpus = &allowed[allowed.len() - THREADS..];
    let awake = cpu::place(cpus, W::CPUS).map_err(|e| format!("cannot run on {cpus:?}: {e}"))?;
    println!(
        "workload {}  seed {}  threads {} on cpus {:?}  window {} s{}",
        W::NAME,
        args.seed,
        THREADS,
        &cpus[THREADS - W::CPUS..],
        args.seconds,
        if args.smoke {
            "  (smoke: one round)"
        } else {
            ""
        }
    );
    let (w, setup_secs) = set_up::<W>(args);
    println!("  call-list hash {:016x}", w.inputs_hash());
    // A smoke run keeps the one round set-up ran and one latency pass.
    let (passes, window) = match args.smoke {
        true => (W::LATENCY_PASSES.min(1), 0.0),
        false => (W::LATENCY_PASSES, args.seconds),
    };
    if args.trace {
        let window = window * TRACED_WINDOW_SHARE;
        run_traced(w, args, passes.min(1), window, (cpus, awake));
    } else {
        run_untraced(w, args, passes, window, setup_secs);
    }
    Ok(())
}

/// The end-to-end run: latency passes, the window, the metrics.
fn run_untraced<W: Workload>(
    mut w: W,
    args: &Args,
    passes: u64,
    window: f64,
    mut setup_secs: Vec<f64>,
) {
    // Latency passes and set-ups on both sides of the window: a slow phase
    // of the host lasts seconds, so neither sits inside one.
    let before = passes.div_ceil(2);
    (0..before).for_each(|_| w.latency_pass(None));
    run_window(&mut w, window);
    (before..passes).for_each(|_| w.latency_pass(None));
    let report = w.report();
    drop(w);
    if !args.smoke {
        setup_secs.push(build::<W>(args.seed).1);
    }
    let values = [
        report.e2e.compress_mb_s,
        report.e2e.decompress_mb_s,
        report.e2e.ratio,
        report.e2e.goodput_mb_s,
        report.e2e.call_p50_us,
        report.e2e.call_p95_us,
        summarize(&setup_secs).fastest,
        peak_rss_mb(),
    ];
    print_series(&report.series);
    println!(
        "  set-up: fastest of {} builds {:.3?} s",
        setup_secs.len(),
        setup_secs
    );
    finish(&report, &END_TO_END, &values);
}

/// The traced run: a short window in which rounds with and without spans
/// alternate (a slow phase of the host then hits both), then the per-layer
/// pass. End-to-end metrics never come from here.
fn run_traced<W: Workload>(
    mut w: W,
    args: &Args,
    passes: u64,
    window: f64,
    (cpus, awake): (&[usize], Option<cpu::KeepAwake>),
) {
    let mut rec = Recorder::new(SPAN_CAP);
    (0..passes).for_each(|_| w.latency_pass(Some(&mut rec)));
    let started = Instant::now();
    let (mut untraced, mut traced) = (f64::INFINITY, f64::INFINITY);
    loop {
        untraced = untraced.min(w.round(None));
        traced = traced.min(w.round(Some(&mut rec)));
        if started.elapsed().as_secs_f64() >= window {
            break;
        }
    }
    let report = w.report();
    drop(w);
    // The layer pass places itself, group by group.
    drop(awake);
    // `--spans-only` (a traced `--all`, every workload but the last) leaves
    // the layer pass, which is the same for every workload, to another run.
    let mut layer_values = match args.spans_only {
        true => Vec::new(),
        false => layers::run(&mut rec, args.seed, args.smoke, cpus),
    };
    layer_values.push(("trace.overhead_share", traced / untraced - 1.0));
    let decls: Vec<Decl> = PER_LAYER
        .iter()
        .filter(|(name, _, _)| !args.spans_only || *name == "trace.overhead_share")
        .copied()
        .collect();
    let values: Vec<f64> = decls
        .iter()
        .map(|(name, _, _)| {
            let found = layer_values.iter().find(|(n, _)| n == name);
            found
                .unwrap_or_else(|| panic!("layer pass did not measure {name}"))
                .1
        })
        .collect();
    assert_eq!(
        layer_values.len(),
        decls.len(),
        "layer pass measured an undeclared metric"
    );

    print_spans(&rec);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace.{}.json", W::NAME);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, rec.chrome_trace(W::NAME)));
    match written {
        Ok(()) => println!(
            "  trace: {} spans ({} dropped) -> {path}",
            rec.spans().len(),
            rec.dropped
        ),
        Err(e) => eprintln!("benchmark: cannot write {path}: {e}"),
    }
    finish(&report, &decls, &values);
}

/// Per-series round statistics: count, fastest, quartiles.
fn print_series(series: &[Series]) {
    println!(
        "  {:<18} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "series", "rounds", "fastest", "q1", "median", "q3", "MB/s"
    );
    for s in series {
        let sum = summarize(&s.secs);
        // Series of seconds print in ms; value series (`bytes` 0) as is.
        let (scale, rate) = if s.bytes > 0 {
            (1e3, format!("{:.2}", s.mb_s()))
        } else {
            (1.0, "-".into())
        };
        println!(
            "  {:<18} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>10}",
            s.name,
            sum.rounds,
            sum.fastest * scale,
            sum.q1 * scale,
            sum.median * scale,
            sum.q3 * scale,
            rate
        );
    }
    println!("  (times in ms per round; *_us series in µs)");
}

/// Where the traced time went: total and self time per span name.
fn print_spans(rec: &Recorder) {
    println!(
        "  {:<40} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total_ns, self_ns) in rec.by_name() {
        println!(
            "  {:<40} {:>8} {:>12.3} {:>12.3}",
            name,
            count,
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
}

/// Prints the metric table, the operation counts and, last, the result
/// line: `{"correct", "attempted", "failed", "metrics"}`.
fn finish(report: &Report, decls: &[Decl], values: &[f64]) {
    println!("  {:<40} {:>16}  unit", "metric", "value");
    let mut json = String::new();
    for ((name, unit, _), value) in decls.iter().zip(values) {
        assert!(value.is_finite(), "{name} is not a number: {value}");
        println!("  {name:<40} {value:>16.4}  {unit}");
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let (attempted, failed) = (report.attempted, report.failed);
    println!(
        "  operations attempted {attempted} / succeeded {} / failed {failed}  (failed_share {})",
        attempted - failed.min(attempted),
        failed as f64 / attempted as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0
    );
}
