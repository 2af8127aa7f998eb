//! `serve-update` and `serve-ingest`: an in-process `cad_serve::Server`
//! driven over loopback HTTP by an open-loop generator.
//!
//! Each push is timed from when it was *due*, so a stall also charges
//! the pushes queued behind it. Pushes are spread round-robin over a
//! few keep-alive connections, one generator thread each; a session's
//! pushes always use the same connection, so they arrive in order.

use crate::check::Reference;
use crate::inputs::{self, Rng, Stream};
use crate::stats::{find_sustainable, median, quantile, sustainable_rate, tail, Probe};
use crate::{heap_peak_mb_above, heap_rearm, replay, Outcome, RunCfg};
use cad_commute::{CommuteTimeEngine, EngineOptions, SharedOracle};
use cad_core::UpdateMode;
use cad_datasets::PrecipSimOptions;
use cad_graph::WeightedGraph;
use cad_journal::{FsyncPolicy, JournalConfig};
use cad_serve::{ServeConfig, Server, DELTA_CONTENT_TYPE};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads.
const WORKERS: usize = 2;
/// Keep-alive client connections (one generator thread each).
const CONNS: usize = 2;
/// Share of the run spent at the nominal rate; the rest searches for
/// the sustainable rate.
const NOMINAL_SHARE: f64 = 0.5;

/// Seconds of requests that may be due but unsent when a nominal-rate
/// window ends before the run counts the backlog as growing.
const NOMINAL_MAX_BACKLOG_S: f64 = 1.0;
/// Probes of the sustainable-rate search.
const PROBES: usize = 5;
/// Every this many stream positions (mod the period) a push response is
/// checked, as are the session's year changes in its first two years.
const SAMPLE_EVERY: usize = 40;

/// One workload's fixed shape.
pub struct Shape {
    pub name: &'static str,
    pub sessions: usize,
    /// Years each session cycles through.
    pub years: usize,
    /// Pushes per simulated year (one in this many changes the year).
    pub per_year: usize,
    /// Share of edge weights a jitter push changes.
    pub jitter: f64,
    /// Locations per region (ten regions).
    pub region_size: usize,
    /// Binary `.cadpack` edge-delta bodies instead of JSON edge lists.
    pub binary: bool,
    /// Share of requests that are reads.
    pub read_share: f64,
    /// Nominal push rate (1/s): low enough that the server keeps
    /// headroom when the host lends it less than its two vCPUs.
    pub nominal_rps: f64,
    /// First offered rate of the sustainable-rate search (1/s).
    pub search_start_rps: f64,
    /// Back-to-back windows of the nominal-rate phase.
    pub windows: usize,
    /// p99 limit of the sustainable-rate search (ms).
    pub limit_ms: f64,
    /// Pushes per session before the timed phase (journaled workloads
    /// replay them at start-up).
    pub warmup: usize,
    pub journal: bool,
    /// Exact engine requested in the spec (else the default `auto`).
    pub exact: bool,
    /// The sessions' update mode; all but `rebuild` are checked within
    /// the update tolerance instead of bit for bit.
    pub update_mode: UpdateMode,
    /// Throw-away start-ups behind `setup_s` before each timed phase.
    pub setups_per_phase: usize,
}

impl Shape {
    /// The engine the sessions' spec resolves to.
    pub fn engine(&self) -> EngineOptions {
        if self.exact {
            EngineOptions::Exact
        } else {
            EngineOptions::default()
        }
    }

    /// Whether pushes are compared with the reference within the update
    /// tolerance rather than bit for bit.
    pub fn tolerant(&self) -> bool {
        self.update_mode != UpdateMode::Rebuild
    }
}

pub const UPDATE: Shape = Shape {
    name: "serve-update",
    sessions: 8,
    years: 6,
    per_year: 20,
    jitter: 0.02,
    region_size: 30,
    binary: false,
    read_share: 0.0,
    nominal_rps: 50.0,
    search_start_rps: 250.0,
    windows: 3,
    limit_ms: 200.0,
    warmup: 1,
    journal: false,
    exact: true,
    update_mode: UpdateMode::Auto,
    setups_per_phase: 1,
};

pub const INGEST: Shape = Shape {
    name: "serve-ingest",
    sessions: 32,
    years: 4,
    per_year: 20,
    jitter: 0.03,
    region_size: 5,
    binary: true,
    read_share: 0.2,
    nominal_rps: 2000.0,
    search_start_rps: 4500.0,
    windows: 5,
    limit_ms: 50.0,
    warmup: 10,
    journal: true,
    exact: false,
    update_mode: UpdateMode::Rebuild,
    setups_per_phase: 3,
};

/// Everything the generator threads read.
pub struct Plan {
    pub n: usize,
    pub streams: Vec<Stream>,
    pub deltas: Vec<f64>,
    /// Request bodies by session and stream position (mod the period).
    pub bodies: Vec<Vec<Vec<u8>>>,
    /// The first snapshot of each session, as a JSON edge list.
    pub first: Vec<Vec<u8>>,
    pub binary: bool,
    pub per_year: usize,
}

impl Plan {
    fn new(shape: &Shape, seed: u64) -> Plan {
        // Sessions cycle through years whose kNN graph is connected, from
        // a noisier simulation in which almost all are: every oracle
        // build then takes the same path whatever the seed, instead of
        // some seeds' tails being set by disconnected years.
        let sim = inputs::precip(
            PrecipSimOptions {
                region_size: shape.region_size,
                local_std: 0.6,
                interannual_std: 0.3,
                ..Default::default()
            },
            seed,
        );
        let graphs: Vec<&WeightedGraph> = sim
            .seq
            .graphs()
            .iter()
            .filter(|g| g.is_connected())
            .collect();
        assert!(!graphs.is_empty(), "no connected year");
        let mut rng = Rng::new(seed ^ 0x5E55_1015);
        let mut streams = Vec::new();
        for s in 0..shape.sessions {
            let years: Vec<&WeightedGraph> = (0..shape.years)
                .map(|y| graphs[(3 * s + y) % graphs.len()])
                .collect();
            // Sessions change years at staggered times, as independent
            // tenants would.
            let offset = s * shape.per_year / shape.sessions;
            streams.push(Stream::new(
                &years,
                shape.per_year,
                offset,
                shape.jitter,
                &mut rng,
            ));
        }
        let deltas = streams
            .iter()
            .map(|st| inputs::calibrate_delta(st, 4, 3))
            .collect();
        let bodies = streams
            .iter()
            .map(|st| {
                (0..st.period())
                    .map(|p| {
                        if shape.binary {
                            cad_store::encode_edge_delta(st.before(p), st.at(p))
                        } else {
                            inputs::json_body(st.at(p))
                        }
                    })
                    .collect()
            })
            .collect();
        let first = streams
            .iter()
            .map(|st| inputs::json_body(st.at(0)))
            .collect();
        Plan {
            n: graphs[0].n_nodes(),
            streams,
            deltas,
            bodies,
            first,
            binary: shape.binary,
            per_year: shape.per_year,
        }
    }
}

/// A keep-alive HTTP/1.1 client connection.
pub struct Conn {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            addr,
            writer,
            reader,
        })
    }

    /// One round trip: `(status, body)`.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated head"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad length"))?;
                }
            }
        }
        let mut out = vec![0u8; len];
        self.reader.read_exact(&mut out)?;
        Ok((status, out))
    }

    fn reconnect(&mut self) {
        if let Ok(c) = Conn::connect(self.addr) {
            *self = c;
        }
    }
}

/// What a scheduled request does.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Push { s: usize, pos: usize },
    Status { s: usize, expect: usize },
    Metrics,
}

#[derive(Debug, Clone, Copy)]
struct Planned {
    due: f64,
    kind: Kind,
}

/// One completed (or failed) request; times in s from the phase start.
#[derive(Debug, Clone)]
struct Done {
    kind: Kind,
    due: f64,
    sent: f64,
    done: f64,
    /// Wake-up lateness when the connection was idle at the due time.
    late: Option<f64>,
    /// 0 when the request failed below HTTP.
    status: u16,
    /// Kept for sampled pushes and status reads.
    body: Option<Vec<u8>>,
}

/// The live server, its sessions and the clients' stream positions.
struct Live {
    server: Server,
    conns: Vec<Conn>,
    ids: Vec<u64>,
    /// Next stream position of each session.
    pos: Vec<usize>,
}

fn is_sampled(plan: &Plan, s: usize, pos: usize) -> bool {
    let st = &plan.streams[s];
    let p = pos % st.period();
    p % SAMPLE_EVERY == 1 || (st.changes_year(pos) && p < 2 * plan.per_year)
}

/// The journal settings of the journaled workload: no fsync per append,
/// and segments large enough that no run rotates or compacts (both sync).
/// The journal must live inside the benchmark's checkout, on a disk
/// shared with other tenants, where a sync takes 0.07 ms or 4 ms
/// depending on the disk rather than on the program; without syncs the
/// append path (framing, CRC, write) is measured as it would be on tmpfs.
pub(crate) fn journal_config() -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::Never,
        max_segment_bytes: 16 << 20,
        ..JournalConfig::default()
    }
}

fn config(journal: Option<&Path>) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        journal_dir: journal.map(Path::to_path_buf),
        journal: journal_config(),
        ..Default::default()
    }
}

/// The create body of session `s`, built from the shape's engine and
/// update mode so that the server, the reference and the replay agree.
pub(crate) fn spec(shape: &Shape, plan: &Plan, s: usize) -> String {
    format!(
        r#"{{"nodes": {}, "delta": {}, "label": "{}-{s}", {}"update_mode": "{}"}}"#,
        plan.n,
        plan.deltas[s],
        shape.name,
        if shape.exact {
            r#""engine": "exact", "#
        } else {
            ""
        },
        shape.update_mode.name()
    )
}

pub(crate) fn push_path(id: u64) -> String {
    format!("/v1/sequences/{id}/snapshots")
}

/// Create every session and push its first `count` snapshots.
fn create_sessions(shape: &Shape, plan: &Plan, conns: &mut [Conn], count: usize) -> Vec<u64> {
    let mut ids = Vec::new();
    for s in 0..plan.streams.len() {
        let conn = &mut conns[s % CONNS];
        let (status, body) = conn
            .call(
                "POST",
                "/v1/sequences",
                "application/json",
                spec(shape, plan, s).as_bytes(),
            )
            .expect("create a session");
        assert_eq!(status, 201, "create: {}", String::from_utf8_lossy(&body));
        let v = cad_obs::parse_json(std::str::from_utf8(&body).expect("utf-8")).expect("json");
        let id = v
            .get("id")
            .and_then(cad_obs::Json::as_u64)
            .expect("session id");
        ids.push(id);
        for pos in 0..count {
            let (ct, body) = if pos == 0 || !plan.binary {
                (
                    "application/json",
                    if pos == 0 {
                        &plan.first[s]
                    } else {
                        &plan.bodies[s][pos % plan.bodies[s].len()]
                    },
                )
            } else {
                (
                    DELTA_CONTENT_TYPE,
                    &plan.bodies[s][pos % plan.bodies[s].len()],
                )
            };
            let (status, resp) = conn.call("POST", &push_path(id), ct, body).expect("push");
            assert_eq!(status, 200, "push: {}", String::from_utf8_lossy(&resp));
        }
    }
    ids
}

/// Build the schedule of one phase: requests due every `1/total_rate`
/// seconds, round-robin over connections; on each connection pushes go
/// round-robin over its sessions, and every fifth request is a read
/// when the shape has reads.
fn schedule(shape: &Shape, live: &mut Live, rate: f64, secs: f64) -> Vec<Vec<Planned>> {
    let total_rate = rate / (1.0 - shape.read_share);
    let n = (total_rate * secs).round().max(1.0) as usize;
    let mut plans = vec![Vec::new(); CONNS];
    let mut turn = [0usize; CONNS];
    let mut reads = 0usize;
    for k in 0..n {
        let c = k % CONNS;
        let mine: Vec<usize> = (0..live.ids.len()).filter(|s| s % CONNS == c).collect();
        let kind = if shape.read_share > 0.0 && k % 5 == 4 {
            reads += 1;
            if reads.is_multiple_of(4) {
                Kind::Metrics
            } else {
                let s = mine[(reads / 4 + turn[c]) % mine.len()];
                Kind::Status {
                    s,
                    expect: live.pos[s],
                }
            }
        } else {
            let s = mine[turn[c] % mine.len()];
            turn[c] += 1;
            let pos = live.pos[s];
            live.pos[s] += 1;
            Kind::Push { s, pos }
        };
        plans[c].push(Planned {
            due: k as f64 / total_rate,
            kind,
        });
    }
    plans
}

/// Response bodies one connection keeps for the correctness checks in
/// one phase: buffers allocated before the heap peak is re-armed, so
/// keeping a body allocates nothing and the phase's peak stays the
/// server's, whatever the offered rate. Bodies sampled after a pool runs
/// out are not kept.
struct Keep {
    pushes: Vec<Vec<u8>>,
    reads: Vec<Vec<u8>>,
}

/// Sampled push responses and status reads one connection keeps per
/// phase, and the buffer each gets (a larger body grows its buffer, and
/// the peak counts the growth).
const KEEP_PUSHES: usize = 32;
const KEEP_READS: usize = 64;
const KEEP_BYTES: usize = 16 << 10;

impl Keep {
    fn new() -> Keep {
        let pool = |k: usize| (0..k).map(|_| Vec::with_capacity(KEEP_BYTES)).collect();
        Keep {
            pushes: pool(KEEP_PUSHES),
            reads: pool(KEEP_READS),
        }
    }

    /// A copy of `body` in a pooled buffer, if the pool of `kind` has one.
    fn keep(&mut self, kind: Kind, body: &[u8]) -> Option<Vec<u8>> {
        let pool = match kind {
            Kind::Push { .. } => &mut self.pushes,
            Kind::Status { .. } => &mut self.reads,
            Kind::Metrics => return None,
        };
        let mut buf = pool.pop()?;
        buf.extend_from_slice(body);
        Some(buf)
    }
}

/// Drive one connection through its schedule. Stops sending once the
/// phase overruns `deadline` s (the rest count as backlog).
#[allow(clippy::too_many_arguments)]
fn drive(
    conn: &mut Conn,
    plan: &Plan,
    ids: &[u64],
    sched: &[Planned],
    t0: Instant,
    deadline: f64,
    keep: &mut Keep,
    out: &mut Vec<Done>,
) {
    for p in sched {
        let ready = t0.elapsed().as_secs_f64();
        if ready > deadline {
            break;
        }
        if ready < p.due {
            std::thread::sleep(Duration::from_secs_f64(p.due - ready));
        }
        let sent = t0.elapsed().as_secs_f64();
        let late = (ready < p.due).then_some(sent - p.due);
        let res = match p.kind {
            Kind::Push { s, pos } => {
                let body = &plan.bodies[s][pos % plan.bodies[s].len()];
                let ct = if plan.binary {
                    DELTA_CONTENT_TYPE
                } else {
                    "application/json"
                };
                conn.call("POST", &push_path(ids[s]), ct, body)
            }
            Kind::Status { s, .. } => conn.call(
                "GET",
                &format!("/v1/sequences/{}", ids[s]),
                "text/plain",
                b"",
            ),
            Kind::Metrics => conn.call("GET", "/metrics", "text/plain", b""),
        };
        let done = t0.elapsed().as_secs_f64();
        let (status, body) = match res {
            Ok((status, body)) => (status, Some(body)),
            Err(e) => {
                eprintln!("request failed: {e}");
                (0, None)
            }
        };
        if status != 200 {
            conn.reconnect();
        }
        let sampled = match p.kind {
            Kind::Push { s, pos } => is_sampled(plan, s, pos),
            Kind::Status { .. } => true,
            Kind::Metrics => false,
        };
        out.push(Done {
            kind: p.kind,
            due: p.due,
            sent,
            done,
            late,
            status,
            body: body.filter(|_| sampled).and_then(|b| keep.keep(p.kind, &b)),
        });
    }
}

/// What one open-loop phase measured.
struct Phase {
    push_ms: Vec<f64>,
    /// Due time (s into the phase) of each entry of `push_ms`.
    push_due: Vec<f64>,
    /// Length of the schedule (s).
    sched_secs: f64,
    /// Heap peak of the phase above its start (MB).
    heap_mb: f64,
    read_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Windows the schedule is cut into for the p99 and the backlog.
    windows: usize,
    /// Requests due but not yet sent at the end of each window (the last
    /// is the schedule's end), counting those never sent because the
    /// phase overran its deadline.
    backlogs: Vec<usize>,
    attempted: u64,
    errors: u64,
    pushes_done: usize,
    secs: f64,
    /// Sampled push responses: (session, position, body).
    samples: Vec<(usize, usize, Vec<u8>)>,
    /// Status reads: (session, expected instances, body).
    statuses: Vec<(usize, usize, Vec<u8>)>,
}

/// A probe's p99 and backlog are the medians over up to this many windows
/// of its schedule, each holding at least [`MIN_WINDOW_PUSHES`] pushes, so
/// a single stall of the shared host does not decide the rate; with fewer
/// pushes they are those of the whole schedule.
const PROBE_WINDOWS: usize = 8;
const MIN_WINDOW_PUSHES: usize = 500;

impl Phase {
    fn p99_ms(&self) -> f64 {
        if self.push_ms.is_empty() {
            return f64::INFINITY;
        }
        let k = self.windows;
        let mut windows = vec![Vec::new(); k];
        for (&ms, &due) in self.push_ms.iter().zip(&self.push_due) {
            let w = ((due / self.sched_secs * k as f64) as usize).min(k - 1);
            windows[w].push(ms);
        }
        median(
            &windows
                .iter()
                .map(|w| quantile(w, 0.99))
                .collect::<Vec<_>>(),
        )
    }

    fn probe(&self, rate: f64, total_rate: f64, limit_ms: f64) -> Probe {
        Probe {
            offered: rate,
            achieved: self.pushes_done as f64 / self.secs,
            p99_ms: self.p99_ms(),
            backlog_growing: median(&self.backlogs.iter().map(|&b| b as f64).collect::<Vec<_>>())
                > total_rate * limit_ms / 1e3,
            errors: self.errors,
        }
    }
}

fn run_phase(shape: &Shape, plan: &Arc<Plan>, live: &mut Live, rate: f64, secs: f64) -> Phase {
    let start_pos = live.pos.clone();
    let plans = schedule(shape, live, rate, secs);
    let deadline = secs * 1.1 + 0.2;
    let ids = live.ids.clone();
    // The generator's own records and kept bodies are allocated before
    // the heap peak is re-armed, so the phase's peak is the server's (and
    // the responses in flight), not the benchmark's bookkeeping.
    let mut outs: Vec<Vec<Done>> = plans.iter().map(|p| Vec::with_capacity(p.len())).collect();
    let mut keeps: Vec<Keep> = plans.iter().map(|_| Keep::new()).collect();
    let heap_base = heap_rearm();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (((conn, sched), out), keep) in live
            .conns
            .iter_mut()
            .zip(&plans)
            .zip(outs.iter_mut())
            .zip(keeps.iter_mut())
        {
            let (ids, plan) = (&ids, &**plan);
            scope.spawn(move || drive(conn, plan, ids, sched, t0, deadline, keep, out));
        }
    });
    let heap_mb = heap_peak_mb_above(heap_base);
    let pushes = plans
        .iter()
        .flatten()
        .filter(|p| matches!(p.kind, Kind::Push { .. }))
        .count();
    let windows = (pushes / MIN_WINDOW_PUSHES).clamp(1, PROBE_WINDOWS);
    let backlog_at = |t: f64| -> usize {
        plans
            .iter()
            .zip(&outs)
            .map(|(sched, out)| {
                let sent_late = out.iter().filter(|d| d.due <= t && d.sent > t).count();
                let unsent = sched[out.len()..].iter().filter(|p| p.due <= t).count();
                sent_late + unsent
            })
            .sum()
    };
    let backlogs = (1..=windows)
        .map(|w| backlog_at(secs * w as f64 / windows as f64))
        .collect();
    let done: Vec<Done> = outs.into_iter().flatten().collect();
    // Pushes left unsent past the deadline are pushed again next phase:
    // each session resumes after its last accepted push.
    live.pos = start_pos;
    for d in &done {
        if let (Kind::Push { s, pos }, 200) = (d.kind, d.status) {
            live.pos[s] = live.pos[s].max(pos + 1);
        }
    }
    let end = done.iter().map(|d| d.done).fold(secs, f64::max);
    let mut ph = Phase {
        push_ms: Vec::new(),
        push_due: Vec::new(),
        sched_secs: secs,
        heap_mb,
        read_ms: Vec::new(),
        late_ms: Vec::new(),
        windows,
        backlogs,
        attempted: done.len() as u64,
        errors: 0,
        pushes_done: 0,
        secs: end,
        samples: Vec::new(),
        statuses: Vec::new(),
    };
    for d in done {
        if d.status != 200 {
            ph.errors += 1;
        }
        if let Some(l) = d.late {
            ph.late_ms.push(l * 1e3);
        }
        let ms = (d.done - d.due) * 1e3;
        match d.kind {
            Kind::Push { s, pos } => {
                ph.push_ms.push(ms);
                ph.push_due.push(d.due);
                ph.pushes_done += usize::from(d.status == 200);
                if let Some(b) = d.body {
                    ph.samples.push((s, pos, b));
                }
            }
            Kind::Status { s, expect } => {
                ph.read_ms.push(ms);
                if let Some(b) = d.body {
                    ph.statuses.push((s, expect, b));
                }
            }
            Kind::Metrics => ph.read_ms.push(ms),
        }
    }
    ph
}

/// Start the server and bring every session to its first timed push.
/// Returns the live state and the set-up time.
fn set_up(shape: &Shape, plan: &Plan, journal: Option<&Path>) -> (Live, f64) {
    let t0 = Instant::now();
    let server = Server::start(config(journal)).expect("start the server");
    let mut conns: Vec<Conn> = (0..CONNS)
        .map(|_| Conn::connect(server.addr()).expect("connect"))
        .collect();
    let ids = if shape.journal {
        // Sessions come back from the journals written in the warm-up.
        assert_eq!(
            server.recovered_sessions(),
            shape.sessions,
            "recovered sessions"
        );
        (1..=shape.sessions as u64).collect()
    } else {
        create_sessions(shape, plan, &mut conns, shape.warmup)
    };
    let secs = t0.elapsed().as_secs_f64();
    let live = Live {
        server,
        conns,
        ids,
        pos: vec![shape.warmup; shape.sessions],
    };
    (live, secs)
}

impl Live {
    fn stop(self) {
        drop(self.conns);
        self.server.drain();
    }
}

/// Set-up samples behind `setup_s`. One start-up is not enough: it lasts
/// 0.05–0.3 s, and on a shared host the speed of a core shifts by a
/// third for seconds at a time. So besides the start-up that serves the
/// run, [`Setups::sample`] starts (and stops) a throw-away server before
/// every timed phase and after the last one; the median of all of them
/// sees the host as the whole run does. The live server is idle while a
/// sample runs.
struct Setups<'a> {
    shape: &'a Shape,
    plan: &'a Plan,
    /// The samples' own journal directory and the warm-up journals each
    /// start-up recovers (journaled workloads).
    journal: Option<(PathBuf, &'a Path)>,
    secs: Vec<f64>,
}

impl Setups<'_> {
    fn sample(&mut self) {
        for _ in 0..self.shape.setups_per_phase {
            if let Some((dir, warm)) = &self.journal {
                if dir.exists() {
                    std::fs::remove_dir_all(dir).expect("reset the set-up journals");
                }
                copy_dir(warm, dir).expect("copy the warm-up journals");
            }
            let dir = self.journal.as_ref().map(|(d, _)| d.as_path());
            let (live, secs) = set_up(self.shape, self.plan, dir);
            live.stop();
            self.secs.push(secs);
        }
    }
}

/// Untimed warm-up of a journaled workload: create every session and
/// push its first snapshots, leaving their journals behind.
fn warm_up(shape: &Shape, plan: &Plan, journal: &Path) {
    let server = Server::start(config(Some(journal))).expect("start the warm-up server");
    let mut conns: Vec<Conn> = (0..CONNS)
        .map(|_| Conn::connect(server.addr()).expect("connect"))
        .collect();
    let ids = create_sessions(shape, plan, &mut conns, shape.warmup);
    assert_eq!(ids, (1..=shape.sessions as u64).collect::<Vec<_>>());
    drop(conns);
    server.drain();
}

pub(crate) fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dst = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dst)?;
        } else {
            std::fs::copy(entry.path(), dst)?;
        }
    }
    Ok(())
}

/// Check sampled push responses and status reads.
fn check_responses(shape: &Shape, plan: &Plan, phases: &[&Phase], out: &mut Outcome) {
    let engine = shape.engine();
    let mut oracles: BTreeMap<(usize, usize), SharedOracle> = BTreeMap::new();
    let mut oracle = |s: usize, p: usize| -> SharedOracle {
        let st = &plan.streams[s];
        let p = p % st.period();
        oracles
            .entry((s, p))
            .or_insert_with(|| CommuteTimeEngine::compute(st.at(p), &engine).expect("oracle"))
            .clone_box()
    };
    let mut refs: BTreeMap<(usize, usize), Reference> = BTreeMap::new();
    let (mut checked, mut bad) = (0usize, 0usize);
    for ph in phases {
        for (s, pos, body) in &ph.samples {
            let (s, pos) = (*s, *pos);
            let st = &plan.streams[s];
            let key = (s, pos % st.period());
            let r = refs.entry(key).or_insert_with(|| {
                let (o_prev, o_cur) = (oracle(s, pos + st.period() - 1), oracle(s, pos));
                Reference::new(
                    (st.before(pos), &o_prev),
                    (st.at(pos), &o_cur),
                    plan.deltas[s],
                    engine,
                    shape.tolerant(),
                )
            });
            checked += 1;
            if let Err(e) = r.compare(body) {
                bad += 1;
                eprintln!("session {s} position {pos}: {e}");
            }
        }
    }
    let what = if shape.tolerant() {
        "within UPDATE_REL_TOL of"
    } else {
        "bit-identical to"
    };
    out.check(
        format!(
            "{checked} sampled pushes {what} the batch reference ({} distinct)",
            refs.len()
        ),
        bad == 0 && checked > 0,
    );
    out.failed += bad.saturating_sub(1) as u64;
    if shape.read_share > 0.0 {
        let (mut n, mut wrong) = (0usize, 0usize);
        for ph in phases {
            for (s, expect, body) in &ph.statuses {
                n += 1;
                let got = std::str::from_utf8(body)
                    .ok()
                    .and_then(|t| cad_obs::parse_json(t).ok())
                    .and_then(|v| v.get("instances").and_then(cad_obs::Json::as_u64));
                if got != Some(*expect as u64) {
                    wrong += 1;
                    eprintln!("session {s}: status reports {got:?} instances, expected {expect}");
                }
            }
        }
        out.check(
            format!("{n} status reads report every accepted push"),
            wrong == 0,
        );
        out.failed += wrong.saturating_sub(1) as u64;
    }
}

/// Run one serve workload.
fn run(shape: &Shape, cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let clock = Instant::now();
    let plan = Arc::new(Plan::new(shape, cfg.seed));
    let generated = clock.elapsed().as_secs_f64();
    let journal: Option<PathBuf> = shape.journal.then(|| cfg.dir.join("journal"));
    let warm_copy = cfg.dir.join("journal-warm");
    if let Some(j) = &journal {
        warm_up(shape, &plan, j);
        copy_dir(j, &warm_copy).expect("copy the warm-up journals");
    }

    let (mut live, first_setup) = set_up(shape, &plan, journal.as_deref());
    let mut setups = Setups {
        shape,
        plan: &plan,
        journal: journal
            .as_ref()
            .map(|_| (cfg.dir.join("journal-setup"), warm_copy.as_path())),
        secs: vec![first_setup],
    };

    // The nominal-rate phase runs as a few back-to-back windows; each
    // metric is the median over windows, so one stall on a shared
    // machine moves at most one window.
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let nominal_secs = if cfg.trace {
        budget
    } else {
        budget * NOMINAL_SHARE
    };
    let total_rate = shape.nominal_rps / (1.0 - shape.read_share);
    let mut windows = Vec::new();
    for _ in 0..shape.windows {
        setups.sample();
        windows.push(run_phase(
            shape,
            &plan,
            &mut live,
            shape.nominal_rps,
            nominal_secs / shape.windows as f64,
        ));
    }
    let per_window = |f: &dyn Fn(&Phase) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let p50 = per_window(&|w| median(&w.push_ms));
    let p99 = per_window(&|w| tail(&w.push_ms).map_or(f64::NAN, |t| t.0));
    let read_p99 = per_window(&|w| tail(&w.read_ms).map_or(f64::NAN, |t| t.0));
    let pct = tail(&windows[0].push_ms).map_or(0.0, |t| t.1);
    let late: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.late_ms.iter().copied())
        .collect();
    let late_p99 = quantile(&late, 0.99);
    let backlog = windows
        .iter()
        .filter_map(|w| w.backlogs.last().copied())
        .max()
        .unwrap_or(0);
    for w in &windows {
        out.attempted += w.attempted;
        out.failed += w.errors;
    }
    // The nominal rate must be far from saturation: a window may end
    // with a stall's worth of requests queued, but not with a second of
    // them, and the generator must keep its schedule.
    let max_backlog = (total_rate * NOMINAL_MAX_BACKLOG_S).ceil() as usize;
    out.check(
        format!(
            "no growing backlog at the nominal rate ({backlog} ≤ {max_backlog} due requests \
             unsent at a window's end)"
        ),
        backlog <= max_backlog,
    );
    out.check(
        format!(
            "generator lateness p99 {late_p99:.3} ms ≤ {:.1} ms",
            shape.limit_ms
        ),
        late_p99 <= shape.limit_ms,
    );

    let mut probes = Vec::new();
    let mut phases = vec![];
    let sustainable = if cfg.trace {
        None
    } else {
        let probe_secs = budget * (1.0 - NOMINAL_SHARE) / PROBES as f64;
        let (_, all) = find_sustainable(
            |rate| {
                setups.sample();
                let ph = run_phase(shape, &plan, &mut live, rate, probe_secs);
                let p = ph.probe(rate, rate / (1.0 - shape.read_share), shape.limit_ms);
                probes.push(p);
                phases.push(ph);
                p
            },
            shape.search_start_rps,
            shape.limit_ms,
            PROBES,
        );
        Some(sustainable_rate(&all, shape.limit_ms).unwrap_or(0.0))
    };
    // The largest phase peak, probes included: their load makes
    // concurrent oracle work, and so the peak, a certainty rather than a
    // coincidence of the nominal rate.
    let heap_peak_mb = windows
        .iter()
        .chain(&phases)
        .map(|p| p.heap_mb)
        .fold(0.0, f64::max);
    let queue_wait = cad_obs::histograms::SERVE_QUEUE_WAIT_SECS.snapshot();
    live.stop();
    setups.sample();
    let setup_s = median(&setups.secs);

    // Correctness is checked outside the timed phases.
    let measured = clock.elapsed().as_secs_f64();
    let all: Vec<&Phase> = windows.iter().chain(phases.iter()).collect();
    check_responses(shape, &plan, &all, &mut out);
    out.notes.push(format!(
        "wall: inputs {generated:.1} s, set-up and timed phases {:.1} s, checks {:.1} s",
        measured - generated,
        clock.elapsed().as_secs_f64() - measured
    ));

    out.notes.push(format!(
        "conditions: nproc {}, seed {}, n {}, sessions {}, workers {WORKERS}, connections {CONNS}, \
         generator threads {CONNS}, open loop at {} push/s{}{}",
        cfg.nproc,
        cfg.seed,
        plan.n,
        shape.sessions,
        shape.nominal_rps,
        if shape.read_share > 0.0 { format!(" + {:.0}% reads", shape.read_share * 100.0) } else { String::new() },
        if shape.journal { ", journal fsync never" } else { "" },
    ));
    out.notes.push(format!(
        "samples: {} window(s) of {} pushes at the nominal rate (tail = p{pct:.2}) and {} reads, \
         medians over windows; {} set-ups; generator lateness p50 {:.3} ms, p99 {late_p99:.3} ms",
        shape.windows,
        windows[0].push_ms.len(),
        windows[0].read_ms.len(),
        setups.secs.len(),
        median(&late)
    ));
    for p in &probes {
        out.notes.push(format!(
            "probe: offered {:.1}/s achieved {:.1}/s p99 {:.2} ms backlog growing {} errors {} -> {}",
            p.offered,
            p.achieved,
            p.p99_ms,
            p.backlog_growing,
            p.errors,
            if p.sustains(shape.limit_ms) { "sustained" } else { "not sustained" }
        ));
    }
    out.report("setup_s", setup_s, "s");
    out.report("push_p50_ms", p50, "ms");
    out.report("push_p99_ms", p99, "ms");
    if shape.read_share > 0.0 {
        out.report("read_p99_ms", read_p99, "ms");
    }
    if let Some(r) = sustainable {
        out.report("sustainable_rps", r, "push/s");
    }
    out.report("heap_peak_mb", heap_peak_mb, "MB");
    out.e2e = vec![
        ("setup_s", setup_s),
        ("latency_p50_ms", p50),
        ("throughput_per_s", sustainable.unwrap_or(0.0)),
        ("heap_peak_mb", heap_peak_mb),
    ];
    if cfg.trace {
        let queue_wait_s = if queue_wait.count > 0 {
            queue_wait.sum / queue_wait.count as f64
        } else {
            0.0
        };
        out.layer("serve.queue_wait_s", queue_wait_s);
        out.notes.push(format!(
            "serve.queue_wait_s: mean of {} samples (the server charges a connection's queue \
             wait to its first request; later keep-alive requests record 0)",
            queue_wait.count
        ));
        out.layer("loadgen.late_p99_ms", late_p99);
        let r = replay::Ctx {
            shape,
            plan: &plan,
            cfg,
            warm_journal: &warm_copy,
            untraced_push_p50_s: p50 / 1e3,
        };
        replay::run(&r, &mut out);
        out.layer(
            "check.error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
    }
    out
}

pub fn run_update(cfg: &RunCfg) -> Outcome {
    run(&UPDATE, cfg)
}

pub fn run_ingest(cfg: &RunCfg) -> Outcome {
    run(&INGEST, cfg)
}
