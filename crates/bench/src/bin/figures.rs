//! `figures` — regenerates every evaluation table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! figures [FIGURE ...] [--files N] [--max-call BYTES] [--seed N]
//!         [--jobs N] [--tiny] [--serve] [--served] [--served-out PATH]
//!         [--shards N] [--batch-bytes N] [--batch-max N]
//!         [--obs] [--obs-dir DIR] [--telemetry]
//!
//! FIGURE: fig1 fig2a fig2b fig2c fig3 fig4 fig5 fig6 fig7
//!         fig11 fig12 fig13 fig14 fig15 summary
//!         serve-load serve-placement serve-fairness served obs entropy chunked | all (default)
//! ```
//!
//! Run with `--release`; the default scale completes the full set in
//! minutes. `--files`/`--max-call` push toward paper scale; `--tiny` drops
//! to the smoke-test scale. Independent figures render concurrently across
//! the `cdpu-par` pool (worker count from `--jobs`, else `CDPU_THREADS`,
//! else the host's parallelism); output order and content are identical to
//! a serial run. `--serve` selects the serving-tier figures (appending
//! them when other figures are also named). `--served` (or the `served`
//! figure name) runs the measured serving *engine* against the simulator
//! on the identical workload — closed-loop p99-wait deviation, two-tier
//! scheduler fairness and small-call batching — and writes the combined
//! report to `--served-out` (default `results/served.txt`); `served` is
//! not part of `all` because it executes real codec calls and writes a
//! file. `--shards`, `--batch-bytes` and `--batch-max` set the engine's
//! shard count and coalescing policy. `--obs` (or the `obs` figure
//! name) runs the serving-tier observability scenarios — windowed tenant
//! timelines, SLO burn rates, slow-call exemplars — printing the combined
//! report and writing `timelines.md`, `slo.md` and `exemplars.md` under
//! `--obs-dir` (default `results/obs/`); `obs` is not part of `all`
//! because it writes files. `entropy` renders the entropy-backend design
//! space (interleaved Huffman/FSE, rANS) priced by the hwsim pipeline
//! model; it is not part of `all` because it recompresses the suite under
//! the non-canonical additive formats. `chunked` renders the chunked-frame
//! figures — chunk-size vs ratio-tax vs modeled lane speedup, and the
//! serving-tier instances-vs-lanes sweep at fixed silicon; like `entropy`
//! it is additive framing, so it is not part of `all` either.
//! `--telemetry` enables the metrics/span instrumentation,
//! prints a snapshot after the figures, and writes `snapshot.md`,
//! `metrics.jsonl` and a Chrome `trace.json` (loadable in Perfetto /
//! chrome://tracing) under `results/telemetry/`.

use cdpu_bench::cli::ServedOpts;
use cdpu_bench::{
    chunked_figures, cli, dse_figures, entropy_figures, obs_figures, profile_figures,
    serve_figures, served_figures, Scale, Workbench,
};

const ALL_FIGURES: [&str; 20] = [
    "fig1", "fig2a", "fig2b", "fig2c", "fig2c-measured", "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig11", "fig12", "fig13", "fig14", "fig15", "summary", "ablations", "serve-load",
    "serve-placement", "serve-fairness",
];

/// The serving-tier figures `--serve` selects.
const SERVE_FIGURES: [&str; 3] = ["serve-load", "serve-placement", "serve-fairness"];

/// Figures that need suite/profile state (everything else is pure fleet
/// model and needs no workbench).
const WB_FIGURES: [&str; 9] = [
    "fig2c-measured", "fig7", "fig11", "fig12", "fig13", "fig14", "fig15", "summary", "ablations",
];

fn main() {
    let mut figures: Vec<String> = Vec::new();
    let mut scale = Scale::default();
    let mut telemetry = false;
    let mut serve = false;
    let mut served = false;
    let mut served_out = String::from("results/served.txt");
    let mut served_opts = ServedOpts::default();
    let mut jobs: Option<usize> = None;
    let mut obs = false;
    let mut obs_dir = String::from("results/obs");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--files" => {
                scale.files_per_suite = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--files needs a number"));
            }
            "--max-call" => {
                scale.max_call_bytes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--max-call needs a byte count"));
            }
            "--seed" => {
                scale.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--jobs" => {
                jobs = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--jobs needs a thread count")),
                );
            }
            "--tiny" => {
                let seed = scale.seed;
                scale = Scale::tiny();
                scale.seed = seed;
            }
            "--serve" => serve = true,
            "--served" => served = true,
            "--served-out" => {
                served_out = args
                    .next()
                    .unwrap_or_else(|| usage("--served-out needs a path"));
            }
            "--shards" => {
                served_opts.shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--shards needs a count"));
            }
            "--batch-bytes" => {
                served_opts.batch_bytes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--batch-bytes needs a byte count"));
            }
            "--batch-max" => {
                served_opts.batch_max = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--batch-max needs a count"));
            }
            "--obs" => obs = true,
            "--obs-dir" => {
                obs_dir = args.next().unwrap_or_else(|| usage("--obs-dir needs a path"));
            }
            "--telemetry" => telemetry = true,
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other => figures.push(other.to_string()),
        }
    }
    // One validation pass for the worker/shard/batch knobs, before any
    // expensive state is built.
    if let Err(e) = cli::validate(jobs, &served_opts) {
        usage(&e);
    }
    if let Some(n) = jobs {
        cdpu_par::set_threads(n);
    }
    if serve {
        for f in SERVE_FIGURES {
            if !figures.iter().any(|g| g == f) {
                figures.push(f.to_string());
            }
        }
    }
    if served && !figures.iter().any(|g| g == "served") {
        figures.push("served".to_string());
    }
    if obs && !figures.iter().any(|g| g == "obs") {
        figures.push("obs".to_string());
    }
    if figures.is_empty() {
        figures.push("all".to_string());
    }
    if telemetry {
        cdpu_telemetry::enable();
    }

    let selected: Vec<&str> = if figures.iter().any(|f| f == "all") {
        ALL_FIGURES.to_vec()
    } else {
        figures.iter().map(|s| s.as_str()).collect()
    };
    // Reject unknown names before any work starts (workers must not exit).
    // `obs`, `served`, `entropy` and `chunked` are valid but excluded from
    // `all` (they write report files, run heavyweight real-execution
    // sweeps, or recompress the payload under non-canonical framing).
    if let Some(bad) = selected.iter().find(|f| {
        !ALL_FIGURES.contains(f)
            && **f != "obs"
            && **f != "served"
            && **f != "entropy"
            && **f != "chunked"
    }) {
        usage(&format!("unknown figure {bad}"));
    }

    let wb = Workbench::new(scale);
    if selected.iter().any(|f| WB_FIGURES.contains(f)) {
        // Build the shared bank/suites/profiles once, across the pool, so
        // concurrent figures below only hit caches.
        wb.prepare_all();
    }

    // Figures are independent given a prepared workbench: render them
    // across the pool, then print in selection order.
    let rendered = cdpu_par::par_map(&selected, |&fig| {
        let _fig_span = cdpu_telemetry::span::SpanGuard::enter(
            ALL_FIGURES.iter().find(|&&n| n == fig).copied().unwrap_or("figure"),
        );
        render_figure(fig, &wb, &obs_dir, &served_out, &served_opts)
    });
    for r in rendered {
        println!("{r}");
        println!("{}", "=".repeat(72));
    }

    if telemetry {
        println!("{}", cdpu_telemetry::export::snapshot_markdown());
        match cdpu_telemetry::export::write_all("results/telemetry") {
            Ok(paths) => {
                for p in paths {
                    println!("telemetry: wrote {}", p.display());
                }
            }
            Err(e) => eprintln!("telemetry: export failed: {e}"),
        }
    }
}

fn render_figure(
    fig: &str,
    wb: &Workbench,
    obs_dir: &str,
    served_out: &str,
    served_opts: &ServedOpts,
) -> String {
    match fig {
        "fig1" => profile_figures::fig1(),
        "fig2a" => profile_figures::fig2a(),
        "fig2b" => profile_figures::fig2b(),
        "fig2c" => profile_figures::fig2c(),
        "fig2c-measured" => profile_figures::fig2c_measured(wb),
        "fig3" => profile_figures::fig3(),
        "fig4" => profile_figures::fig4(),
        "fig5" => profile_figures::fig5(),
        "fig6" => profile_figures::fig6(),
        "fig7" => profile_figures::fig7(wb),
        "fig11" => dse_figures::fig11(wb),
        "fig12" => dse_figures::fig12(wb),
        "fig13" => dse_figures::fig13(wb),
        "fig14" => dse_figures::fig14(wb),
        "fig15" => dse_figures::fig15(wb),
        "summary" => dse_figures::summary(wb),
        "ablations" => cdpu_bench::ablations::all(wb),
        "serve-load" => serve_figures::serve_load(wb.scale()),
        "serve-placement" => serve_figures::serve_placement(wb.scale()),
        "serve-fairness" => serve_figures::serve_fairness(wb.scale()),
        "served" => {
            served_figures::write_served(wb.scale(), served_opts, std::path::Path::new(served_out))
                .unwrap_or_else(|e| panic!("served figure: cannot write {served_out}: {e}"))
        }
        "obs" => obs_figures::write_obs(wb.scale(), std::path::Path::new(obs_dir))
            .unwrap_or_else(|e| panic!("obs figures: cannot write {obs_dir}: {e}")),
        "entropy" => entropy_figures::entropy(wb),
        "chunked" => chunked_figures::chunked(wb.scale()),
        other => unreachable!("figure {other} validated above"),
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: figures [fig1|fig2a|fig2b|fig2c|fig2c-measured|fig3|fig4|fig5|fig6|fig7|\n\
         \x20       fig11|fig12|fig13|fig14|fig15|summary|ablations|\n\
         \x20       serve-load|serve-placement|serve-fairness|served|obs|entropy|chunked|all]\n\
         \x20       [--files N] [--max-call BYTES] [--seed N] [--jobs N] [--tiny] [--serve]\n\
         \x20       [--served] [--served-out PATH] [--shards N] [--batch-bytes N] [--batch-max N]\n\
         \x20       [--obs] [--obs-dir DIR] [--telemetry]"
    );
    std::process::exit(2);
}
