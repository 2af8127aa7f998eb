//! Push responses checked against a batch `CadDetector` reference.
//!
//! A push that turns `prev` into `cur` under a fixed δ must report the
//! anomalies batch detection finds on the two-instance sequence
//! `[prev, cur]` with the same δ: bit for bit for `rebuild` sessions,
//! and within the incremental update's tolerance for `auto` ones.

use cad_commute::{EngineOptions, OracleProvider, SharedOracle, UPDATE_REL_TOL};
use cad_core::{pair_edge_scores, CadDetector, CadOptions, ScoreKind, TransitionAnomalies};
use cad_graph::{GraphSequence, WeightedGraph};
use cad_obs::Json;
use std::sync::Arc;

/// Hands the reference detector the two fresh oracles already built for
/// `[prev, cur]`, so shared snapshots are built once. Fresh builds meet
/// the provider contract (bit-identical to `CommuteTimeEngine::compute`).
struct Pair([SharedOracle; 2]);

impl OracleProvider for Pair {
    fn oracle(
        &self,
        t: usize,
        _g: &WeightedGraph,
        _o: &EngineOptions,
    ) -> cad_commute::Result<SharedOracle> {
        Ok(self.0[t].clone_box())
    }
}

/// The reference for one transition.
pub struct Reference {
    tr: TransitionAnomalies,
    /// Oracles of both instances (tolerant comparisons only).
    oracles: Option<(SharedOracle, SharedOracle)>,
    prev: WeightedGraph,
    cur: WeightedGraph,
    delta: f64,
}

impl Reference {
    /// Batch-detect `[prev, cur]` at `delta` with `engine`, given fresh
    /// oracles of both; `tolerant` keeps them for the tolerance bound.
    pub fn new(
        (prev, o_prev): (&WeightedGraph, &SharedOracle),
        (cur, o_cur): (&WeightedGraph, &SharedOracle),
        delta: f64,
        engine: EngineOptions,
        tolerant: bool,
    ) -> Reference {
        let seq = GraphSequence::new(vec![prev.clone(), cur.clone()])
            .expect("consecutive snapshots share a node set");
        let det = CadDetector::new(CadOptions {
            engine,
            ..Default::default()
        })
        .with_provider(Arc::new(Pair([o_prev.clone_box(), o_cur.clone_box()])));
        let mut res = det.detect(&seq, delta).expect("reference detect");
        let tr = res.transitions.pop().expect("one transition");
        let oracles = tolerant.then(|| (o_prev.clone_box(), o_cur.clone_box()));
        Reference {
            tr,
            oracles,
            prev: prev.clone(),
            cur: cur.clone(),
            delta,
        }
    }

    /// Largest score error the update tolerance allows on edge `(u, v)`:
    /// each commute distance may be off by `UPDATE_REL_TOL · (1 + d)`,
    /// and the score is `|Δw| · |Δd|`.
    fn allowed(&self, u: usize, v: usize, o: &(SharedOracle, SharedOracle)) -> f64 {
        let dw = (self.cur.weight(u, v) - self.prev.weight(u, v)).abs();
        let (d0, d1) = (o.0.distance(u, v), o.1.distance(u, v));
        dw * UPDATE_REL_TOL * (2.0 + d0.abs() + d1.abs())
    }

    /// Compare a push response body with the reference.
    pub fn compare(&self, body: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
        let v = cad_obs::parse_json(text).map_err(|e| format!("response is not JSON: {e}"))?;
        let tr = v.get("transition").ok_or("response has no transition")?;
        let mut edges = Vec::new();
        for e in tr
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or("no edges array")?
        {
            let num = |k: &str| {
                e.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("edge lacks {k}"))
            };
            edges.push((
                num("u")? as usize,
                num("v")? as usize,
                num("score")?,
                num("d_weight")?,
                num("d_commute")?,
            ));
        }
        let nodes: Vec<usize> = tr
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or("no nodes array")?
            .iter()
            .map(|n| n.as_u64().map(|n| n as usize).ok_or("bad node"))
            .collect::<Result<_, _>>()?;
        match &self.oracles {
            None => self.exact(&edges, &nodes),
            Some(o) => self.tolerant(&edges, o),
        }
    }

    fn exact(
        &self,
        edges: &[(usize, usize, f64, f64, f64)],
        nodes: &[usize],
    ) -> Result<(), String> {
        if edges.len() != self.tr.edges.len() {
            return Err(format!(
                "{} flagged edges, reference {}",
                edges.len(),
                self.tr.edges.len()
            ));
        }
        for (got, want) in edges.iter().zip(&self.tr.edges) {
            let same = (got.0, got.1) == (want.u, want.v)
                && got.2.to_bits() == want.score.to_bits()
                && got.3.to_bits() == want.d_weight.to_bits()
                && got.4.to_bits() == want.d_commute.to_bits();
            if !same {
                return Err(format!("edge {got:?} differs from reference {want:?}"));
            }
        }
        if nodes != self.tr.nodes.as_slice() {
            return Err("flagged nodes differ from the reference".to_string());
        }
        Ok(())
    }

    /// Within the update tolerance: common flagged edges agree within
    /// each score's bound, and the flagged sets may differ only where the
    /// selection cut is ambiguous — the unselected mass at every cut
    /// between the two prefix lengths lies within the summed bound of δ
    /// (`select_prefix` cuts where that mass first drops below δ).
    fn tolerant(
        &self,
        edges: &[(usize, usize, f64, f64, f64)],
        o: &(SharedOracle, SharedOracle),
    ) -> Result<(), String> {
        let full = pair_edge_scores(
            &self.prev,
            &self.cur,
            o.0.as_ref(),
            o.1.as_ref(),
            ScoreKind::Cad,
        )
        .map_err(|e| format!("reference scores: {e}"))?;
        let total: f64 = full.iter().map(|e| e.score).sum();
        let budget = full.iter().map(|e| self.allowed(e.u, e.v, o)).sum::<f64>() + 1e-12 * total;
        for got in edges {
            if let Some(want) = self.tr.edges.iter().find(|w| (w.u, w.v) == (got.0, got.1)) {
                let allowed = self.allowed(want.u, want.v, o) + 1e-12 * want.score.abs();
                if (got.2 - want.score).abs() > allowed {
                    return Err(format!(
                        "edge ({},{}) score {} vs reference {} (allowed {allowed:e})",
                        got.0, got.1, got.2, want.score
                    ));
                }
            }
        }
        let in_ref = |u: usize, v: usize| self.tr.edges.iter().any(|w| (w.u, w.v) == (u, v));
        let in_got = |u: usize, v: usize| edges.iter().any(|g| (g.0, g.1) == (u, v));
        let differing: Vec<(usize, usize)> = edges
            .iter()
            .map(|g| (g.0, g.1))
            .filter(|&(u, v)| !in_ref(u, v))
            .chain(
                self.tr
                    .edges
                    .iter()
                    .map(|w| (w.u, w.v))
                    .filter(|&(u, v)| !in_got(u, v)),
            )
            .collect();
        if differing.is_empty() {
            return Ok(());
        }
        let (lo, hi) = {
            let (a, b) = (edges.len(), self.tr.edges.len());
            (a.min(b), a.max(b))
        };
        let mut rem = total - full[..lo].iter().map(|e| e.score).sum::<f64>();
        for e in &full[lo..hi] {
            if (rem - self.delta).abs() > budget {
                return Err(format!(
                    "flagged {} edges vs reference {}, but the cut is not ambiguous \
                     (unselected mass {rem} vs δ {}, bound {budget:e})",
                    edges.len(),
                    self.tr.edges.len(),
                    self.delta
                ));
            }
            rem -= e.score;
        }
        // Differing edges must sit at the cut, up to near-equal scores
        // that may swap order.
        let at_cut = |u: usize, v: usize| {
            let Some(i) = full.iter().position(|e| (e.u, e.v) == (u, v)) else {
                return false;
            };
            (lo..hi).contains(&i)
                || [lo.wrapping_sub(1), lo, hi.wrapping_sub(1), hi]
                    .iter()
                    .filter_map(|&j| full.get(j))
                    .any(|b| (b.score - full[i].score).abs() <= 2.0 * budget)
        };
        match differing.iter().find(|&&(u, v)| !at_cut(u, v)) {
            Some((u, v)) => Err(format!(
                "edge ({u},{v}) differs from the reference away from the cut"
            )),
            None => Ok(()),
        }
    }
}
