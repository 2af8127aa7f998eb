//! Seeded input generation. The program under test only ever sees what
//! these functions produce; the same seed gives the same inputs.

use cad_commute::EngineOptions;
use cad_core::{CadDetector, CadOptions, ThresholdPolicy};
use cad_datasets::{PrecipSim, PrecipSimOptions};
use cad_graph::{GraphSequence, WeightedGraph};

/// SplitMix64: a small, fixed generator so inputs do not depend on any
/// library's RNG stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_CAD0_BE4C_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A `PrecipSim` run under `opts` (ten regions of `opts.region_size`
/// locations, 21 yearly kNN instances, the planted teleconnection in its
/// default year), its RNG seeded from `seed`.
pub fn precip(opts: PrecipSimOptions, seed: u64) -> PrecipSim {
    PrecipSim::generate(&PrecipSimOptions {
        seed: Rng::new(seed).next_u64(),
        ..opts
    })
    .expect("PrecipSim options are valid")
}

/// Multiply the weights of `share` of `g`'s edges (at least one) by a
/// factor in `[0.9, 1.1)`. The edge set is unchanged.
pub fn jitter(g: &WeightedGraph, share: f64, rng: &mut Rng) -> WeightedGraph {
    let mut edges: Vec<(usize, usize, f64)> = g.edges().collect();
    let m = ((share * edges.len() as f64).round() as usize).max(1);
    for _ in 0..m {
        let i = rng.below(edges.len());
        edges[i].2 *= 0.9 + 0.2 * rng.unit();
    }
    WeightedGraph::from_edges(g.n_nodes(), &edges).expect("jittered weights stay positive")
}

/// One session's snapshot stream, periodic with period `graphs.len()`.
///
/// Position `p` of the stream pushes `graphs[p % len]`; `graphs[0]` is
/// also the session's first snapshot. Each simulated year contributes
/// its kNN instance followed by `per_year − 1` cumulative jitters of it,
/// so one push in `per_year` replaces the snapshot with the next year.
/// The stream starts `offset` pushes into its first year, so sessions
/// with different offsets change years at different times.
pub struct Stream {
    graphs: Vec<WeightedGraph>,
    per_year: usize,
    offset: usize,
}

impl Stream {
    pub fn new(
        years: &[&WeightedGraph],
        per_year: usize,
        offset: usize,
        jitter_share: f64,
        rng: &mut Rng,
    ) -> Stream {
        let mut graphs = Vec::with_capacity(years.len() * per_year);
        for base in years {
            graphs.push((*base).clone());
            for _ in 1..per_year {
                let next = jitter(graphs.last().expect("pushed above"), jitter_share, rng);
                graphs.push(next);
            }
        }
        let offset = offset % per_year;
        graphs.rotate_left(offset);
        Stream {
            graphs,
            per_year,
            offset,
        }
    }

    /// Whether the push at `pos` replaces the snapshot with a new year.
    pub fn changes_year(&self, pos: usize) -> bool {
        (pos + self.offset).is_multiple_of(self.per_year)
    }

    pub fn period(&self) -> usize {
        self.graphs.len()
    }

    /// The snapshot at stream position `pos`.
    pub fn at(&self, pos: usize) -> &WeightedGraph {
        &self.graphs[pos % self.graphs.len()]
    }

    /// The snapshot before position `pos` (`pos ≥ 1`).
    pub fn before(&self, pos: usize) -> &WeightedGraph {
        self.at(pos + self.graphs.len() - 1)
    }
}

/// A JSON edge-list snapshot body. Weights use Rust's shortest
/// round-trip formatting, so the server parses back the exact `f64`s.
pub fn json_body(g: &WeightedGraph) -> Vec<u8> {
    use std::fmt::Write;
    let mut s = String::with_capacity(24 * g.n_edges() + 32);
    let _ = write!(s, "{{\"nodes\":{},\"edges\":[", g.n_nodes());
    for (i, (u, v, w)) in g.edges().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{u},{v},{w}]");
    }
    s.push_str("]}");
    s.into_bytes()
}

/// A fixed δ for a session: the threshold batch detection picks to flag
/// `l` nodes per transition on average over the `2·half + 1` snapshots
/// around the stream's first year change (the engine is exact, as in
/// the sessions), raised by 0.1% so it does not sit exactly on a
/// selection cut of those transitions.
pub fn calibrate_delta(stream: &Stream, half: usize, l: usize) -> f64 {
    let change = (1..=stream.period())
        .find(|&p| stream.changes_year(p))
        .expect("a stream changes years");
    let mid = change + stream.period();
    let graphs: Vec<WeightedGraph> = (mid - half..=mid + half)
        .map(|p| stream.at(p).clone())
        .collect();
    let seq = GraphSequence::new(graphs).expect("stream snapshots share a node set");
    let det = CadDetector::new(CadOptions {
        engine: EngineOptions::Exact,
        ..Default::default()
    });
    det.detect_with_policy(&seq, ThresholdPolicy::TargetNodesPerTransition(l))
        .expect("calibration detect")
        .delta
        .expect("a target-nodes policy always picks a δ")
        * 1.001
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_periodic_and_seeded() {
        let sim = precip(
            PrecipSimOptions {
                region_size: 5,
                ..Default::default()
            },
            3,
        );
        let years: Vec<&WeightedGraph> = sim.seq.graphs().iter().take(3).collect();
        let a = Stream::new(&years, 4, 0, 0.05, &mut Rng::new(9));
        let b = Stream::new(&years, 4, 0, 0.05, &mut Rng::new(9));
        assert_eq!(a.period(), 12);
        for p in 0..12 {
            assert_eq!(json_body(a.at(p)), json_body(b.at(p)));
        }
        assert_eq!(json_body(a.at(13)), json_body(a.at(1)));
        assert_eq!(json_body(a.before(12)), json_body(a.at(11)));
        // A jitter push keeps the edge set and changes a few weights.
        let (g0, g1) = (a.at(0), a.at(1));
        assert_eq!(g0.n_edges(), g1.n_edges());
        let changed = g0.edges().zip(g1.edges()).filter(|(x, y)| x != y).count();
        assert!(changed >= 1 && changed <= g0.n_edges() / 10, "{changed}");
        assert!(a.changes_year(4) && !a.changes_year(5));
        // An offset stream is the same cycle, started later.
        let c = Stream::new(&years, 4, 1, 0.05, &mut Rng::new(9));
        assert_eq!(json_body(c.at(0)), json_body(a.at(1)));
        assert!(c.changes_year(3) && !c.changes_year(4));
    }
}
