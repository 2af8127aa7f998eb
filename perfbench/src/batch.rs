//! `batch-detect`: the `cad detect` path in process, from the input file
//! to the anomaly sets, on a `PrecipSim` sequence of ~1000 locations.
//!
//! Almost all of the time goes to the per-instance embedding builds (CG
//! solves and SpMV in `cad-linalg`); HTTP, JSON and the journal are never
//! touched, so changes aimed at the serve path should not move it.

use crate::stats::median;
use crate::trace::{by_name, covered_by_stages, Recorder};
use crate::{heap_live, heap_peak_mb_above, heap_rearm, inputs, Outcome, RunCfg};
use cad_commute::{CommuteTimeEngine, EngineOptions, SharedOracle};
use cad_core::scores::transition_edge_scores;
use cad_core::threshold::apply_policy;
use cad_core::{
    CadDetector, CadOptions, DetectionResult, EdgeScore, ScoreKind, ThresholdPolicy,
    TransitionAnomalies,
};
use cad_datasets::PrecipSimOptions;
use cad_graph::GraphSequence;
use std::time::Instant;

/// Locations per climate region (ten regions ⇒ n = 1000).
const REGION_SIZE: usize = 100;
/// `cad detect`'s default policy: five anomalous nodes per transition.
const POLICY: ThresholdPolicy = ThresholdPolicy::TargetNodesPerTransition(5);
/// Reads of the input file behind `setup_s`, before the timed phase and
/// again before every timed detect. One read lasts about 40 ms, and on a
/// shared host the speed of a core shifts by a third for seconds at a
/// time, so the reads are spread over the run: their median then sees
/// the host as the whole run does.
const SETUP_READS: usize = 10;
/// Fewest detect repetitions per timed phase.
const MIN_REPS: usize = 3;

fn same_result(a: &DetectionResult, b: &DetectionResult) -> bool {
    let edge_eq = |x: &EdgeScore, y: &EdgeScore| {
        (x.u, x.v) == (y.u, y.v)
            && x.score.to_bits() == y.score.to_bits()
            && x.d_weight.to_bits() == y.d_weight.to_bits()
            && x.d_commute.to_bits() == y.d_commute.to_bits()
    };
    a.delta.map(f64::to_bits) == b.delta.map(f64::to_bits)
        && a.transitions.len() == b.transitions.len()
        && a.transitions.iter().zip(&b.transitions).all(|(s, t)| {
            s.t == t.t
                && s.nodes == t.nodes
                && s.edges.len() == t.edges.len()
                && s.edges.iter().zip(&t.edges).all(|(x, y)| edge_eq(x, y))
        })
}

/// Counter readings of the program's own linalg counters.
#[derive(Clone, Copy)]
struct Counters {
    cg_solves: u64,
    cg_iters: u64,
    spmv: u64,
}

fn counters() -> Counters {
    use cad_obs::counters::{CG_ITERATIONS, CG_SOLVES, SPMV};
    Counters {
        cg_solves: CG_SOLVES.get(),
        cg_iters: CG_ITERATIONS.get(),
        spmv: SPMV.get(),
    }
}

/// What one traced detect measured besides its spans.
struct TracedDetect {
    result: DetectionResult,
    unconverged: usize,
    oracle_bytes: i64,
}

/// `CadDetector::detect_with_policy` re-assembled from the same public
/// calls, with a span around each: the per-instance oracle builds, the
/// per-transition scoring and the threshold selection.
fn traced_detect(
    rec: &Recorder,
    rep: u64,
    seq: &GraphSequence,
    opts: &CadOptions,
) -> cad_core::Result<TracedDetect> {
    let root = rec.open("detect", rep, None);
    let parent = Some(root.span());
    let before = heap_live();
    let engines: Vec<SharedOracle> =
        cad_linalg::par::par_map_result(seq.graphs(), opts.threads, |t, g| {
            rec.time("commute.build", t as u64, parent, || {
                CommuteTimeEngine::compute(g, &opts.engine)
            })
        })?;
    let oracle_bytes = heap_live() - before;
    let unconverged = engines
        .iter()
        .filter_map(|e| e.build_stats())
        .flat_map(|s| &s.solves)
        .filter(|s| !s.converged)
        .count();
    let scored: Vec<Vec<EdgeScore>> =
        cad_linalg::par::par_tabulate_result(seq.n_transitions(), opts.threads, |t| {
            rec.time("core.score", t as u64, parent, || {
                transition_edge_scores(
                    seq,
                    t,
                    engines[t].as_ref(),
                    engines[t + 1].as_ref(),
                    ScoreKind::Cad,
                )
            })
        })?;
    let result = rec.time("core.threshold", rep, parent, || {
        let (delta, counts) = apply_policy(&scored, seq.n_nodes(), seq.n_transitions(), POLICY);
        let transitions = scored
            .into_iter()
            .zip(counts)
            .enumerate()
            .map(|(t, (scores, k))| {
                let edges: Vec<EdgeScore> = scores.into_iter().take(k).collect();
                let mut nodes: Vec<usize> = edges.iter().flat_map(|e| [e.u, e.v]).collect();
                nodes.sort_unstable();
                nodes.dedup();
                TransitionAnomalies { t, edges, nodes }
            })
            .collect();
        DetectionResult { delta, transitions }
    });
    Ok(TracedDetect {
        result,
        unconverged,
        oracle_bytes,
    })
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let sim = inputs::precip(
        PrecipSimOptions {
            region_size: REGION_SIZE,
            ..Default::default()
        },
        cfg.seed,
    );
    let event_t = sim.event_year - 1;
    let path = cfg.dir.join("precip.txt");
    {
        let file = std::fs::File::create(&path).expect("create the input file");
        let mut w = std::io::BufWriter::new(file);
        cad_graph::io::write_sequence(&mut w, &sim.seq).expect("write the input file");
        std::io::Write::flush(&mut w).expect("flush the input file");
    }
    let n = sim.seq.n_nodes();
    let n_tr = sim.seq.n_transitions();
    drop(sim);

    // Set-up: read and parse the input file, several times.
    let rec = Recorder::new();
    let mut setup = Vec::new();
    let mut read = |keep: bool| -> Option<GraphSequence> {
        let mut seq = None;
        for _ in 0..SETUP_READS {
            let t0 = Instant::now();
            let parsed = rec.time("graph.read", setup.len() as u64, None, || {
                let file = std::fs::File::open(&path).expect("open the input file");
                cad_graph::io::read_sequence(std::io::BufReader::new(file))
            });
            setup.push(t0.elapsed().as_secs_f64());
            let parsed = parsed.expect("the generated input parses");
            if keep {
                seq = Some(parsed);
            }
        }
        seq
    };
    let seq = read(true).expect("SETUP_READS ≥ 1");

    let opts = CadOptions {
        engine: EngineOptions::default(),
        threads: cfg.nproc,
        ..Default::default()
    };
    let det = CadDetector::new(opts);
    out.notes.push(format!(
        "conditions: nproc {}, seed {}, n {n}, instances {}, engine auto (embedding k=50), \
         threads {}, policy target 5 nodes/transition",
        cfg.nproc,
        cfg.seed,
        seq.len(),
        cfg.nproc
    ));

    // Before the timed phase (which it also warms up): one thread must
    // give the anomaly sets the timed detects give, bit for bit.
    let serial =
        CadDetector::new(CadOptions { threads: 1, ..opts }).detect_with_policy(&seq, POLICY);
    out.attempted += 1;

    // Timed phase: untraced detects back to back.
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    // The heap peak is re-armed before each detect (after that round's
    // reads), always above the level held when the phase starts.
    let base = heap_live();
    let mut heap_peak_mb = 0.0f64;
    let phase = Instant::now();
    let mut times = Vec::new();
    let mut first: Option<DetectionResult> = None;
    let mut identical = true;
    let mut converged = true;
    let mut event_rank = usize::MAX;
    while times.len() < MIN_REPS || phase.elapsed().as_secs_f64() < budget {
        out.attempted += 1;
        read(false);
        heap_rearm();
        let t0 = Instant::now();
        let res = det.detect_with_policy_metered(&seq, POLICY);
        let secs = t0.elapsed().as_secs_f64();
        heap_peak_mb = heap_peak_mb.max(heap_peak_mb_above(base));
        let (res, metrics) = match res {
            Ok(r) => r,
            Err(e) => {
                eprintln!("detect failed: {e}");
                out.failed += 1;
                continue;
            }
        };
        times.push(secs);
        converged &= metrics
            .instances
            .iter()
            .all(|i| i.build.solves.iter().all(|s| s.converged));
        // The planted year differs from both neighbours, so either
        // transition touching it may carry the most change. How well the
        // planted event stands out is a property of the data, not of the
        // program, so it is reported and not gated (see the README).
        let mass: Vec<f64> = metrics.transitions.iter().map(|t| t.scores.sum).collect();
        let rank = |t: usize| mass.iter().filter(|&&m| m > mass[t]).count();
        event_rank = event_rank.min(rank(event_t).min(rank(event_t + 1)));
        match &first {
            None => first = Some(res),
            Some(f) => identical &= same_result(f, &res),
        }
    }
    let setup_s = median(&setup);
    out.check("anomaly sets identical across repetitions", identical);
    out.check("every CG solve converged", converged);
    out.check(
        "one-thread detect bit-identical to the timed detects",
        matches!((&serial, &first), (Ok(s), Some(f)) if same_result(f, s)),
    );
    out.notes.push(format!(
        "planted event (informational): best ΣΔE rank of transitions {event_t}/{} is {} of {n_tr}",
        event_t + 1,
        event_rank + 1
    ));

    let detect_s = median(&times);
    let slowest_s = times.iter().copied().fold(0.0, f64::max);
    let throughput = n_tr as f64 / detect_s;
    out.report("setup_s", setup_s, "s");
    out.report("detect_s", detect_s, "s");
    out.report("detect_max_s", slowest_s, "s");
    out.report("transitions_per_s", throughput, "1/s");
    out.report("heap_peak_mb", heap_peak_mb, "MB");
    out.notes.push(format!(
        "samples: {} detects (too few for a tail; the slowest is reported), {} reads",
        times.len(),
        setup.len()
    ));
    out.e2e = vec![
        ("setup_s", setup_s),
        ("latency_p50_ms", detect_s * 1e3),
        ("throughput_per_s", throughput),
        ("heap_peak_mb", heap_peak_mb),
    ];
    if cfg.trace {
        traced_phase(cfg, &mut out, &rec, &seq, &opts, first.as_ref(), detect_s);
    }
    out
}

fn traced_phase(
    cfg: &RunCfg,
    out: &mut Outcome,
    rec: &Recorder,
    seq: &GraphSequence,
    opts: &CadOptions,
    reference: Option<&DetectionResult>,
    untraced_detect_s: f64,
) {
    let phase = Instant::now();
    let mut reps = 0u64;
    let mut unconverged = 0usize;
    let mut oracle_bytes = Vec::new();
    let c0 = counters();
    let mut matches = true;
    while reps < MIN_REPS as u64 || phase.elapsed().as_secs_f64() < cfg.seconds / 2.0 {
        out.attempted += 1;
        match traced_detect(rec, reps, seq, opts) {
            Ok(t) => {
                unconverged += t.unconverged;
                oracle_bytes.push(t.oracle_bytes as f64);
                matches &= reference.is_some_and(|r| same_result(r, &t.result));
            }
            Err(e) => {
                eprintln!("traced detect failed: {e}");
                out.failed += 1;
            }
        }
        reps += 1;
    }
    let c1 = counters();
    out.check(
        "traced detect matches detect_with_policy bit for bit",
        matches,
    );

    let spans = rec.spans();
    let stages = by_name(&spans);
    let get = |name: &str| stages.get(name).cloned().unwrap_or_default();
    let builds = get("commute.build");
    let instances = seq.len() as f64;
    let per_rep = |x: u64| x as f64 / reps as f64;
    let solves = per_rep(c1.cg_solves - c0.cg_solves);
    let spmv = c1.spmv - c0.spmv;
    let mean_nnz = seq
        .graphs()
        .iter()
        .map(|g| (g.adjacency().nnz() + g.n_nodes()) as f64)
        .sum::<f64>()
        / instances;
    // Parallel efficiency: Σ build time over the build phase's wall time
    // × threads, per detect.
    let mut build_wall = 0.0;
    for root in spans.iter().filter(|s| s.name == "detect") {
        let kids = spans
            .iter()
            .filter(|s| s.parent == Some(root.span) && s.name == "commute.build");
        let (lo, hi) = kids.fold((u64::MAX, 0), |(lo, hi), s| {
            (lo.min(s.start_ns), hi.max(s.end_ns))
        });
        if hi > lo {
            build_wall += (hi - lo) as f64 * 1e-9;
        }
    }
    let threads = cad_linalg::par::effective_threads(opts.threads).min(seq.len());
    let traced_detect_s = median(&get("detect").durations);
    let covered = median(&covered_by_stages(&spans, "detect"));

    out.layer("graph.read_s", median(&get("graph.read").durations));
    out.layer("commute.build_s", median(&builds.durations));
    out.layer("linalg.cg_solves", solves);
    out.layer(
        "linalg.cg_iters_per_solve",
        (c1.cg_iters - c0.cg_iters) as f64 / (c1.cg_solves - c0.cg_solves).max(1) as f64,
    );
    out.layer("linalg.spmv_per_build", per_rep(spmv) / instances);
    out.layer(
        "linalg.ns_per_spmv_nnz",
        builds.total_s * 1e9 / (spmv as f64 * mean_nnz).max(1.0),
    );
    out.layer("core.score_s", get("core.score").self_s / reps as f64);
    out.layer(
        "core.threshold_s",
        get("core.threshold").self_s / reps as f64,
    );
    out.layer(
        "core.par_efficiency",
        builds.total_s / (build_wall * threads as f64).max(f64::MIN_POSITIVE),
    );
    out.layer("linalg.unconverged_solves", unconverged as f64);
    out.layer("commute.oracle_mb", median(&oracle_bytes) / instances / 1e6);
    out.layer("trace.coverage", covered / untraced_detect_s);
    out.layer(
        "trace.overhead",
        (traced_detect_s - untraced_detect_s) / untraced_detect_s,
    );
    out.layer(
        "check.error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.notes.push(format!(
        "traced: {reps} detects, threads {threads}, {} spans written to {}",
        spans.len(),
        cfg.span_file.display()
    ));
    if let Err(e) = rec.write(&cfg.span_file) {
        eprintln!("cannot write the span file: {e}");
    }
}
