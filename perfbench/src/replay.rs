//! Traced in-process replays of the serve workloads' push streams.
//!
//! `serve-update` replays each session's stream through the same public
//! calls `push_snapshot` and `OnlineCad::push_metered` make (JSON decode,
//! graph build, edge diff, oracle clone and in-place update or rebuild,
//! scoring, δ selection, response encode), one span per stage, and then
//! again through `cad_serve::route` on a `RouterCtx`. `serve-ingest`
//! replays its binary deltas through `route` on twin contexts, one with a
//! journal and one without, so the difference is the journal's cost.
//! Each replay also runs once with spans off; the wall-time difference is
//! the tracing overhead.

use crate::serve::{copy_dir, journal_config, push_path, spec, Plan, Shape};
use crate::stats::median;
use crate::trace::{by_name, covered_by_stages, Recorder, StageStats};
use crate::{heap_live, Outcome, RunCfg};
use cad_commute::{CommuteTimeEngine, EdgeDelta, SharedOracle, UpdateOutcome};
use cad_core::{pair_edge_scores, select_prefix, ScoreKind, UpdateMode, REFRESH_THRESHOLD};
use cad_graph::WeightedGraph;
use cad_obs::http::Request;
use cad_obs::Json;
use cad_serve::{route, RouterCtx, SessionMap, Shutdown, DELTA_CONTENT_TYPE};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct Ctx<'a> {
    pub shape: &'a Shape,
    pub plan: &'a Plan,
    pub cfg: &'a RunCfg,
    pub warm_journal: &'a Path,
    /// Client-observed push p50 of the untraced run (s).
    pub untraced_push_p50_s: f64,
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let rec = Recorder::new();
    if ctx.shape.journal {
        ingest(ctx, &rec, out);
    } else {
        update(ctx, &rec, out);
    }
    out.notes.push(format!(
        "{} spans written to {}",
        rec.spans().len(),
        ctx.cfg.span_file.display()
    ));
    if let Err(e) = rec.write(&ctx.cfg.span_file) {
        eprintln!("cannot write the span file: {e}");
    }
}

fn request(method: &str, path: String, content_type: &str, body: Vec<u8>) -> Request {
    Request {
        method: method.to_string(),
        path,
        headers: vec![("content-type".to_string(), content_type.to_string())],
        body,
        keep_alive: true,
    }
}

fn router(journal: Option<&Path>) -> RouterCtx {
    let mut sessions = SessionMap::new(1024);
    if let Some(dir) = journal {
        sessions = sessions.with_journal(dir.to_path_buf(), journal_config());
    }
    RouterCtx {
        sessions,
        provider: None,
        shutdown: Arc::new(Shutdown::new()),
    }
}

/// Create every session on `rctx` and push its first snapshot; returns
/// the session ids.
fn open_sessions(ctx: &Ctx, rctx: &RouterCtx, out: &mut Outcome) -> Vec<u64> {
    let mut ids = Vec::new();
    for s in 0..ctx.plan.streams.len() {
        let body = spec(ctx.shape, ctx.plan, s).into_bytes();
        let resp = route(
            &request("POST", "/v1/sequences".into(), "application/json", body),
            rctx,
        );
        let id = std::str::from_utf8(&resp.body)
            .ok()
            .and_then(|t| cad_obs::parse_json(t).ok())
            .and_then(|v| v.get("id").and_then(Json::as_u64));
        let first = ctx.plan.first[s].clone();
        let pushed = id.map(|id| {
            route(
                &request("POST", push_path(id), "application/json", first),
                rctx,
            )
        });
        out.attempted += 2;
        out.failed +=
            u64::from(resp.status != 201) + u64::from(pushed.is_none_or(|r| r.status != 200));
        ids.push(id.unwrap_or(0));
    }
    ids
}

/// Decode a JSON edge-list body the way the snapshot endpoint does.
fn decode_json_edges(body: &[u8]) -> Vec<(usize, usize, f64)> {
    let v = cad_obs::parse_json(std::str::from_utf8(body).expect("utf-8")).expect("json");
    v.get("edges")
        .and_then(Json::as_arr)
        .expect("edges")
        .iter()
        .map(|e| {
            let t = e.as_arr().expect("triple");
            let u = t[0].as_u64().expect("u") as usize;
            let w = t[1].as_u64().expect("v") as usize;
            (u, w, t[2].as_f64().expect("w"))
        })
        .collect()
}

/// The push response body, built as the snapshot endpoint builds it.
fn encode(
    id: usize,
    pos: usize,
    mode: &str,
    delta: f64,
    scored: usize,
    edges: &[cad_core::EdgeScore],
    nodes: &[usize],
) -> String {
    let num = |n: usize| Json::Num(n as f64);
    let edges = edges
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("u", num(e.u)),
                ("v", num(e.v)),
                ("score", Json::Num(e.score)),
                ("d_weight", Json::Num(e.d_weight)),
                ("d_commute", Json::Num(e.d_commute)),
            ])
        })
        .collect();
    let mut body = Json::obj(vec![
        ("id", num(id)),
        ("instance", num(pos)),
        ("update_mode", Json::Str(mode.to_string())),
        (
            "transition",
            Json::obj(vec![
                ("t", num(pos - 1)),
                ("delta", Json::Num(delta)),
                ("n_scored", num(scored)),
                ("edges", Json::Arr(edges)),
                ("nodes", Json::Arr(nodes.iter().map(|&n| num(n)).collect())),
            ]),
        ),
    ])
    .compact();
    body.push('\n');
    body
}

/// What one push returned: its oracle path, flagged edges (with the
/// score's bits) and flagged nodes.
#[derive(Debug, PartialEq)]
struct Step {
    mode: String,
    edges: Vec<(usize, usize, u64)>,
    nodes: Vec<usize>,
}

impl Step {
    /// The step a push response body reports.
    fn from_response(body: &[u8]) -> Option<Step> {
        let v = cad_obs::parse_json(std::str::from_utf8(body).ok()?).ok()?;
        let tr = v.get("transition")?;
        let edges = tr
            .get("edges")?
            .as_arr()?
            .iter()
            .map(|e| {
                let u = e.get("u")?.as_u64()? as usize;
                let w = e.get("v")?.as_u64()? as usize;
                Some((u, w, e.get("score")?.as_f64()?.to_bits()))
            })
            .collect::<Option<_>>()?;
        let nodes = tr
            .get("nodes")?
            .as_arr()?
            .iter()
            .map(|n| n.as_u64().map(|n| n as usize))
            .collect::<Option<_>>()?;
        Some(Step {
            mode: v.get("update_mode")?.as_str()?.to_string(),
            edges,
            nodes,
        })
    }
}

/// Per-push bookkeeping of the stage replay.
#[derive(Default)]
struct StageCounts {
    attempts: usize,
    fallbacks: usize,
    changes: Vec<f64>,
    clone_bytes: Vec<f64>,
    /// Each session's steps, for stream positions 1, 2, … in order.
    steps: Vec<Vec<Step>>,
}

/// One pass of `serve-update`'s stream through the stages of a push.
fn stage_replay(ctx: &Ctx, rec: &Recorder) -> StageCounts {
    let plan = ctx.plan;
    let engine = ctx.shape.engine();
    let mode = ctx.shape.update_mode;
    let mut c = StageCounts::default();
    for (s, st) in plan.streams.iter().enumerate() {
        let period = st.period();
        let delta = plan.deltas[s];
        let mut prev: Option<(WeightedGraph, SharedOracle)> = None;
        let mut since_build = 0usize;
        let mut steps = Vec::with_capacity(period);
        for pos in 0..=period {
            let id = (s * 1_000_000 + pos) as u64;
            let root = rec.open("push", id, None);
            let p = Some(root.span());
            let body = if pos == 0 {
                &plan.first[s]
            } else {
                &plan.bodies[s][pos % period]
            };
            let edges = rec.time("json.decode", id, p, || decode_json_edges(body));
            let g = rec
                .time("graph.from_edges", id, p, || {
                    WeightedGraph::from_edges(plan.n, &edges)
                })
                .expect("valid snapshot");
            let rebuild = |g: &WeightedGraph| {
                rec.time("commute.rebuild", id, p, || {
                    CommuteTimeEngine::compute(g, &engine)
                })
                .expect("oracle build")
            };
            let (oracle, path) = match &prev {
                None => (rebuild(&g), "rebuild"),
                Some(_) if mode == UpdateMode::Rebuild => (rebuild(&g), "rebuild"),
                Some((pg, po)) => {
                    c.attempts += 1;
                    let updated = if mode == UpdateMode::Auto && since_build >= REFRESH_THRESHOLD {
                        None
                    } else {
                        let d = rec.time("commute.diff", id, p, || EdgeDelta::between(pg, &g));
                        let before = heap_live();
                        let mut cand = rec.time("commute.clone", id, p, || po.clone_box());
                        c.clone_bytes.push((heap_live() - before) as f64);
                        let outcome = rec.time("commute.update", id, p, || {
                            cand.as_updatable().map(|u| u.apply_delta(&d))
                        });
                        match outcome {
                            Some(Ok(UpdateOutcome::Applied { changes })) => {
                                c.changes.push(changes as f64);
                                Some(cand)
                            }
                            _ => None,
                        }
                    };
                    match updated {
                        Some(o) => {
                            since_build += 1;
                            (o, "incremental")
                        }
                        None => {
                            c.fallbacks += 1;
                            since_build = 0;
                            (rebuild(&g), "rebuild")
                        }
                    }
                }
            };
            if let Some((pg, po)) = &prev {
                let scores = rec
                    .time("core.score", id, p, || {
                        pair_edge_scores(pg, &g, po.as_ref(), oracle.as_ref(), ScoreKind::Cad)
                    })
                    .expect("scores");
                let (edges, nodes) = rec.time("core.threshold", id, p, || {
                    let k = select_prefix(&scores, delta);
                    let edges = scores[..k].to_vec();
                    let mut nodes: Vec<usize> = edges.iter().flat_map(|e| [e.u, e.v]).collect();
                    nodes.sort_unstable();
                    nodes.dedup();
                    (edges, nodes)
                });
                let body = rec.time("serve.encode", id, p, || {
                    encode(s, pos, path, delta, scores.len(), &edges, &nodes)
                });
                black_box(body);
                steps.push(Step {
                    mode: path.to_string(),
                    edges: edges
                        .iter()
                        .map(|e| (e.u, e.v, e.score.to_bits()))
                        .collect(),
                    nodes,
                });
            }
            prev = Some((g, oracle));
        }
        c.steps.push(steps);
    }
    c
}

/// One pass of `serve-update`'s stream through `route`; returns the
/// allocations and bytes the routed pushes made and their count. Each
/// response must report the step the stage replay took at the same
/// position, so the stage figures describe the program's push path.
fn route_replay(
    ctx: &Ctx,
    rec: &Recorder,
    expected: &[Vec<Step>],
    out: &mut Outcome,
) -> (u64, u64, usize) {
    let rctx = router(None);
    let ids = open_sessions(ctx, &rctx, out);
    let (mut allocs, mut bytes, mut pushes) = (0u64, 0u64, 0usize);
    let mut differ = 0u64;
    for (s, st) in ctx.plan.streams.iter().enumerate() {
        for pos in 1..=st.period() {
            let body = ctx.plan.bodies[s][pos % st.period()].clone();
            let req = request("POST", push_path(ids[s]), "application/json", body);
            let m0 = cad_obs::alloc::stats();
            let resp = rec.time("serve.route", (s * 1_000_000 + pos) as u64, None, || {
                route(&req, &rctx)
            });
            let m1 = cad_obs::alloc::stats();
            allocs += m1.allocs - m0.allocs;
            bytes += m1.bytes_allocated - m0.bytes_allocated;
            pushes += 1;
            out.attempted += 1;
            if resp.status != 200 {
                out.failed += 1;
            }
            let got = Step::from_response(&resp.body);
            let want = &expected[s][pos - 1];
            if got.as_ref() != Some(want) {
                differ += 1;
                let brief = |st: &Step| {
                    format!(
                        "{} with {} edges, nodes {:?}",
                        st.mode,
                        st.edges.len(),
                        st.nodes
                    )
                };
                eprintln!(
                    "session {s} position {pos}: routed push reports {}, the stage replay {}",
                    got.as_ref().map_or("no transition".to_string(), brief),
                    brief(want)
                );
            }
        }
    }
    out.check(
        format!("{pushes} routed pushes report the stage replay's oracle path and anomalies"),
        differ == 0,
    );
    out.failed += differ.saturating_sub(1);
    (allocs, bytes, pushes)
}

fn med(stages: &std::collections::BTreeMap<&'static str, StageStats>, name: &str) -> f64 {
    stages.get(name).map_or(0.0, |s| median(&s.durations))
}

fn update(ctx: &Ctx, rec: &Recorder, out: &mut Outcome) {
    let t = Instant::now();
    stage_replay(ctx, &Recorder::disabled());
    let untraced = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let c = stage_replay(ctx, rec);
    let traced = t.elapsed().as_secs_f64();
    let (allocs, bytes, pushes) = route_replay(ctx, rec, &c.steps, out);

    let spans = rec.spans();
    let stages = by_name(&spans);
    let route_s = med(&stages, "serve.route");
    for (layer, stage) in [
        ("json.decode_s", "json.decode"),
        ("graph.from_edges_s", "graph.from_edges"),
        ("commute.diff_s", "commute.diff"),
        ("commute.clone_s", "commute.clone"),
        ("commute.update_s", "commute.update"),
        ("core.score_s", "core.score"),
        ("core.threshold_s", "core.threshold"),
        ("serve.encode_s", "serve.encode"),
        ("commute.rebuild_s", "commute.rebuild"),
    ] {
        out.layer(layer, med(&stages, stage));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.layer("commute.update_changes", mean(&c.changes));
    out.layer("serve.route_s", route_s);
    out.layer("http.transport_s", ctx.untraced_push_p50_s - route_s);
    out.layer("mem.allocs_per_push", allocs as f64 / pushes.max(1) as f64);
    out.layer("mem.bytes_per_push", bytes as f64 / pushes.max(1) as f64);
    out.layer(
        "commute.fallback_share",
        c.fallbacks as f64 / c.attempts.max(1) as f64,
    );
    out.layer("commute.clone_mb", median(&c.clone_bytes) / 1e6);
    out.layer(
        "trace.coverage",
        median(&covered_by_stages(&spans, "push")) / ctx.untraced_push_p50_s,
    );
    out.layer("trace.overhead", (traced - untraced) / untraced);
    out.notes.push(format!(
        "traced: {} stage-replayed pushes ({} update attempts, {} fallbacks), {pushes} routed pushes; \
         coverage = in-process stage time / client push p50",
        c.attempts + ctx.plan.streams.len(),
        c.attempts,
        c.fallbacks
    ));
}

/// Pushes per session in `serve-ingest`'s replay.
fn ingest_positions(ctx: &Ctx) -> usize {
    ctx.plan.streams[0].period() / 2
}

/// One pass of `serve-ingest`'s stream: each push decoded by the store
/// layer, then routed on the plain and the journaled context; every
/// fourth push also reads a session status and renders the metrics.
/// Returns the journal bytes written by the routed pushes and the count.
fn ingest_replay(ctx: &Ctx, rec: &Recorder, dir: &Path, out: &mut Outcome) -> (u64, usize) {
    let plain = router(None);
    let journaled = router(Some(dir));
    let ids_plain = open_sessions(ctx, &plain, out);
    let ids_journaled = open_sessions(ctx, &journaled, out);
    let mut cur: Vec<WeightedGraph> = ctx.plan.streams.iter().map(|st| st.at(0).clone()).collect();
    let (mut bytes, mut pushes) = (0u64, 0usize);
    for pos in 1..=ingest_positions(ctx) {
        for (s, st) in ctx.plan.streams.iter().enumerate() {
            let id = (s * 1_000_000 + pos) as u64;
            let body = &ctx.plan.bodies[s][pos % st.period()];
            cur[s] = rec
                .time("store.delta_decode", id, None, || {
                    let d = cad_store::decode_edge_delta(body)?;
                    cad_store::apply_edge_delta(&cur[s], &d)
                })
                .expect("valid delta");
            let req = request(
                "POST",
                push_path(ids_plain[s]),
                DELTA_CONTENT_TYPE,
                body.clone(),
            );
            let a = rec.time("serve.route", id, None, || route(&req, &plain));
            let req = request(
                "POST",
                push_path(ids_journaled[s]),
                DELTA_CONTENT_TYPE,
                body.clone(),
            );
            let b0 = cad_obs::counters::JOURNAL_BYTES_WRITTEN.get();
            let b = rec.time("serve.route_journaled", id, None, || {
                route(&req, &journaled)
            });
            bytes += cad_obs::counters::JOURNAL_BYTES_WRITTEN.get() - b0;
            pushes += 1;
            out.attempted += 2;
            out.failed += u64::from(a.status != 200) + u64::from(b.status != 200);
            if pushes % 4 == 0 {
                let req = request(
                    "GET",
                    format!("/v1/sequences/{}", ids_plain[s]),
                    "text/plain",
                    Vec::new(),
                );
                let r = rec.time("serve.status_route", id, None, || route(&req, &plain));
                let m = rec.time("obs.render", id, None, cad_obs::render_prometheus);
                black_box(m);
                out.attempted += 1;
                out.failed += u64::from(r.status != 200);
            }
        }
    }
    (bytes, pushes)
}

fn ingest(ctx: &Ctx, rec: &Recorder, out: &mut Outcome) {
    let dir = ctx.cfg.dir.join("replay");
    // Recovery of the same journals the untraced set-up recovers.
    let recover_dir = dir.join("recover");
    copy_dir(ctx.warm_journal, &recover_dir).expect("copy the warm-up journals");
    let sessions = SessionMap::new(1024).with_journal(recover_dir.clone(), journal_config());
    let recovered = rec.time("journal.recover", 0, None, || {
        cad_serve::recover_all(&recover_dir, &journal_config(), &sessions, None)
    });
    out.check(
        "journal recovery restores every session",
        recovered
            .as_ref()
            .is_ok_and(|&n| n == ctx.plan.streams.len()),
    );

    let t = Instant::now();
    ingest_replay(ctx, &Recorder::disabled(), &dir.join("untraced"), out);
    let untraced = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (bytes, pushes) = ingest_replay(ctx, rec, &dir.join("traced"), out);
    let traced = t.elapsed().as_secs_f64();

    let spans = rec.spans();
    let stages = by_name(&spans);
    let route_s = med(&stages, "serve.route");
    let journaled_s = med(&stages, "serve.route_journaled");
    out.layer("store.delta_decode_s", med(&stages, "store.delta_decode"));
    out.layer("journal.append_s", journaled_s - route_s);
    out.layer("serve.route_s", route_s);
    out.layer("http.transport_s", ctx.untraced_push_p50_s - journaled_s);
    out.layer(
        "journal.bytes_per_push",
        bytes as f64 / pushes.max(1) as f64,
    );
    out.layer("journal.recover_s", med(&stages, "journal.recover"));
    out.layer("obs.render_s", med(&stages, "obs.render"));
    out.layer("serve.status_route_s", med(&stages, "serve.status_route"));
    out.layer("trace.coverage", journaled_s / ctx.untraced_push_p50_s);
    out.layer("trace.overhead", (traced - untraced) / untraced);
    out.notes.push(format!(
        "traced: {pushes} pushes routed on twin contexts (journaled and plain); \
         coverage = journaled route / client push p50"
    ));
}
