//! The repository benchmark: end-to-end metrics for three workloads
//! (`batch-detect`, `serve-update`, `serve-ingest`) and, with
//! `--trace 1`, per-layer metrics from spans recorded around calls into
//! each crate's public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-detect|serve-update|serve-ingest|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: scratch files go under `.bench_run/`.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod batch;
mod check;
mod inputs;
mod replay;
mod serve;
mod stats;
mod trace;

use std::alloc::{GlobalAlloc, Layout};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};

/// `cad_obs::CountingAlloc` (so the program's own allocation counters
/// work) plus a live/peak pair the benchmark can re-arm when its timed
/// phase starts, which the process-lifetime peak cannot.
struct BenchAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note_alloc(size: usize) {
    let now = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `CountingAlloc` (itself a verbatim
// wrapper of the system allocator) with the caller's arguments; the
// extra accounting only touches two atomics and never the block.
unsafe impl GlobalAlloc for BenchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { cad_obs::CountingAlloc.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { cad_obs::CountingAlloc.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { cad_obs::CountingAlloc.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { cad_obs::CountingAlloc.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: BenchAlloc = BenchAlloc;

/// Live heap bytes right now.
pub fn heap_live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Re-arm the peak at the current live level; returns that level.
pub fn heap_rearm() -> i64 {
    let now = LIVE.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// Peak live heap since the last [`heap_rearm`], above `base`, in MB.
pub fn heap_peak_mb_above(base: i64) -> f64 {
    (PEAK.load(Ordering::Relaxed) - base).max(0) as f64 / 1e6
}

/// Metrics gated end to end, reported (tracing off) by every workload.
/// Tails are printed but not gated: on a shared two-vCPU host the
/// nominal-rate p99 follows the host's scheduling stalls (run-to-run
/// spread 0.35–0.5 of the median), and the sustainable rate, which a
/// tail regression lowers, is gated instead.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("heap_peak_mb", "MB"),
];

/// Per-layer metrics of the traced run. Every workload reports all of
/// them; a layer the workload does not exercise reads 0 and is named in
/// the run's `absent:` line.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("graph.read_s", "s"),
    ("commute.build_s", "s"),
    ("linalg.cg_solves", "count"),
    ("linalg.cg_iters_per_solve", "count"),
    ("linalg.spmv_per_build", "count"),
    ("linalg.ns_per_spmv_nnz", "ns"),
    ("core.score_s", "s"),
    ("core.threshold_s", "s"),
    ("core.par_efficiency", "ratio"),
    ("linalg.unconverged_solves", "count"),
    ("commute.oracle_mb", "MB"),
    ("json.decode_s", "s"),
    ("graph.from_edges_s", "s"),
    ("commute.diff_s", "s"),
    ("commute.clone_s", "s"),
    ("commute.update_s", "s"),
    ("commute.update_changes", "count"),
    ("serve.encode_s", "s"),
    ("serve.route_s", "s"),
    ("http.transport_s", "s"),
    ("mem.allocs_per_push", "count"),
    ("commute.rebuild_s", "s"),
    ("commute.fallback_share", "ratio"),
    ("serve.queue_wait_s", "s"),
    ("commute.clone_mb", "MB"),
    ("mem.bytes_per_push", "B"),
    ("store.delta_decode_s", "s"),
    ("journal.append_s", "s"),
    ("journal.bytes_per_push", "B"),
    ("journal.recover_s", "s"),
    ("obs.render_s", "s"),
    ("serve.status_route_s", "s"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("check.error_rate", "ratio"),
];

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this run (removed at exit).
    pub dir: PathBuf,
    /// Where the span file goes (kept).
    pub span_file: PathBuf,
    pub nproc: usize,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (detect repetitions, requests).
    pub attempted: u64,
    /// Operations that failed: non-2xx, timeouts, failed checks.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Gated metrics by name ([`END_TO_END`]).
    pub e2e: Vec<(&'static str, f64)>,
    /// The workload's own end-to-end metrics under their own names,
    /// with units, for the human-readable report.
    pub report: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics by name ([`PER_LAYER`]).
    pub layers: Vec<(&'static str, f64)>,
    /// Measurement conditions and remarks.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a correctness check; a failed one counts as a failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {name}");
        }
        self.checks.push((name, ok));
    }

    /// Record a metric of the human-readable report.
    pub fn report(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.report.push((name, value, unit));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.push((name, value));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <batch-detect|serve-update|serve-ingest|all> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

const WORKLOADS: [&str; 3] = ["batch-detect", "serve-update", "serve-ingest"];

fn run_workload(name: &str, cfg: &RunCfg) -> Outcome {
    match name {
        "batch-detect" => batch::run(cfg),
        "serve-update" => serve::run_update(cfg),
        "serve-ingest" => serve::run_ingest(cfg),
        _ => usage(),
    }
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Print the human-readable report of one workload run.
fn print_report(workload: &str, cfg: &RunCfg, out: &Outcome) {
    println!(
        "== {workload} (seed {}, {} s, trace {})",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &out.report {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    println!(
        "  {:<28} {:>14.6} ratio  ({} failed / {} attempted)",
        "error_rate",
        out.error_rate(),
        out.failed,
        out.attempted
    );
    for (name, ok) in &out.checks {
        println!("  check {:<44} {}", name, if *ok { "ok" } else { "FAILED" });
    }
    if cfg.trace {
        let mut absent = Vec::new();
        for (name, unit) in PER_LAYER {
            match out.layers.iter().find(|(n, _)| *n == name) {
                Some((_, v)) => println!("  layer {name:<28} {v:>14.6} {unit}"),
                None => absent.push(name),
            }
        }
        if !absent.is_empty() {
            println!(
                "  absent (not exercised by {workload}): {}",
                absent.join(", ")
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = out
                .e2e
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |m| m.1);
            println!("  e2e {name:<30} {v:>14.6} {unit}");
        }
    }
}

/// The JSON result object for one or more workload runs. With several,
/// metric names are prefixed with the workload.
fn result_json(runs: &[(&str, &Outcome)], trace: bool) -> String {
    let mut metrics = Vec::new();
    for (workload, out) in runs {
        let prefix = if runs.len() > 1 {
            format!("{workload}/")
        } else {
            String::new()
        };
        let list = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let source = if trace { &out.layers } else { &out.e2e };
        for (name, unit) in list {
            let v = source.iter().find(|(n, _)| n == name).map_or(0.0, |m| m.1);
            metrics.push(format!(
                "\"{prefix}{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(v)
            ));
        }
    }
    let correct = runs.iter().all(|(_, o)| o.correct());
    let attempted: u64 = runs.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = runs.iter().map(|(_, o)| o.failed).sum();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args();
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&args.workload.as_str()) {
        vec![args.workload.as_str()]
    } else {
        usage()
    };
    let root = Path::new(".bench_run");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut outcomes = Vec::new();
    for name in &names {
        let dir = root.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run directory under .bench_run");
        let cfg = RunCfg {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            span_file: root.join(format!("spans-{name}-seed{}.jsonl", args.seed)),
            dir: dir.clone(),
            nproc,
        };
        // The program's process-wide metric sinks must not carry one
        // workload's counts into the next.
        cad_obs::reset();
        let out = run_workload(name, &cfg);
        let _ = std::fs::remove_dir_all(&dir);
        print_report(name, &cfg, &out);
        outcomes.push((*name, out));
    }
    let runs: Vec<(&str, &Outcome)> = outcomes.iter().map(|(n, o)| (*n, o)).collect();
    println!("{}", result_json(&runs, args.trace));
}
