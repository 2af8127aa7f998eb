//! Order statistics and the sustainable-rate search.

/// Median of `values` (mean of the middle pair for an even count);
/// `0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail statistic: the 99th percentile, or, when fewer than ten
/// samples lie beyond it, the highest percentile that still has ten
/// beyond it (the sample of rank `n − 11`, 0-based, of the sorted
/// values). Returns the value and its percentile; `None` with fewer than
/// 11 samples, where no such percentile exists.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Ten beyond rank i means i = n − 11; p99 is nearest rank ⌈0.99·n⌉.
    let p99_rank = (99 * n).div_ceil(100) - 1;
    let i = p99_rank.min(n - 11);
    Some((v[i], 100.0 * (i + 1) as f64 / n as f64))
}

/// Plain nearest-rank quantile (`0 ≤ q ≤ 1`); `0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// What one open-loop probe at a fixed offered rate measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Offered push rate (1/s).
    pub offered: f64,
    /// Completed pushes per second of schedule.
    pub achieved: f64,
    /// 99th-percentile push latency (ms), timed from each push's due time.
    pub p99_ms: f64,
    /// Whether the backlog of due-but-unsent requests grew.
    pub backlog_growing: bool,
    /// Failed requests (non-2xx, timeouts).
    pub errors: u64,
}

impl Probe {
    /// Whether the probe meets the latency limit with no growing backlog
    /// and no failures.
    pub fn sustains(&self, limit_ms: f64) -> bool {
        self.errors == 0 && !self.backlog_growing && self.p99_ms <= limit_ms
    }
}

/// Rate step of the expanding phase of [`find_sustainable`].
const GROW: f64 = 1.5;

/// Highest offered rate whose probe sustains `limit_ms`: grow
/// geometrically from `start` until a probe fails (or shrink until one
/// passes), then bisect geometrically between the last pass and the
/// first failure. `run` executes one probe; at most `max_probes` run.
/// Returns the best passing probe and every probe made, in order.
pub fn find_sustainable(
    mut run: impl FnMut(f64) -> Probe,
    start: f64,
    limit_ms: f64,
    max_probes: usize,
) -> (Option<Probe>, Vec<Probe>) {
    let mut probes = Vec::new();
    let mut best: Option<Probe> = None;
    let mut fail_rate: Option<f64> = None;
    let mut rate = start;
    let record = |p: Probe, best: &mut Option<Probe>, fail: &mut Option<f64>| {
        if p.sustains(limit_ms) {
            if best.is_none_or(|b| p.offered > b.offered) {
                *best = Some(p);
            }
        } else if fail.is_none_or(|f| p.offered < f) {
            *fail = Some(p.offered);
        }
    };
    // Bracket: grow while passing, shrink while failing.
    while probes.len() < max_probes {
        let p = run(rate);
        probes.push(p);
        record(p, &mut best, &mut fail_rate);
        match (best, fail_rate) {
            (Some(_), Some(_)) => break,
            (Some(_), None) => rate *= GROW,
            (None, _) => rate /= GROW,
        }
    }
    // Refine inside the bracket.
    while probes.len() < max_probes {
        let (Some(lo), Some(hi)) = (best, fail_rate) else {
            break;
        };
        let p = run((lo.offered * hi).sqrt());
        probes.push(p);
        record(p, &mut best, &mut fail_rate);
    }
    (best, probes)
}

/// The sustainable rate from a search's probes: the rate the highest
/// passing probe achieved, moved toward the lowest failing offered rate
/// above it by linear interpolation of p99 to where it meets `limit_ms`
/// (when that probe failed on latency alone). `None` when no probe
/// passed.
pub fn sustainable_rate(probes: &[Probe], limit_ms: f64) -> Option<f64> {
    let best = probes
        .iter()
        .filter(|p| p.sustains(limit_ms))
        .max_by(|a, b| a.offered.total_cmp(&b.offered))?;
    let fail = probes
        .iter()
        .filter(|p| !p.sustains(limit_ms) && p.offered > best.offered)
        .min_by(|a, b| a.offered.total_cmp(&b.offered));
    Some(match fail {
        Some(f) if f.errors == 0 && !f.backlog_growing && f.p99_ms > best.p99_ms => {
            let frac = (limit_ms - best.p99_ms) / (f.p99_ms - best.p99_ms);
            best.achieved + frac * (f.offered - best.offered)
        }
        _ => best.achieved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        assert_eq!(value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 99.0).abs() < 1e-12);
        // More samples: still p99, with more than ten beyond.
        let v: Vec<f64> = (1..=8000).map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        assert_eq!(value, 7920.0);
        assert!((pct - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 200 samples: p95 is the highest percentile with ten beyond.
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        assert_eq!(value, 190.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 95.0).abs() < 1e-12);
        assert!(tail(&[1.0; 10]).is_none());
        let (value, pct) = tail(&(0..11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(value, 0.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    /// A synthetic server of capacity `cap` pushes/s: latency follows an
    /// M/M/1-like curve, and beyond capacity the backlog grows.
    fn synthetic(cap: f64, service_ms: f64) -> impl FnMut(f64) -> Probe {
        move |rate| {
            let rho = rate / cap;
            let backlog_growing = rho >= 1.0;
            let p99_ms = if backlog_growing {
                f64::INFINITY
            } else {
                service_ms * 4.6 / (1.0 - rho)
            };
            Probe {
                offered: rate,
                achieved: rate.min(cap),
                p99_ms,
                backlog_growing,
                errors: 0,
            }
        }
    }

    /// The rate where the synthetic curve meets the limit exactly.
    fn knee(cap: f64, service_ms: f64, limit_ms: f64) -> f64 {
        cap * (1.0 - service_ms * 4.6 / limit_ms)
    }

    #[test]
    fn search_converges_on_latency_knee_from_below() {
        let (cap, svc, limit) = (400.0, 3.0, 200.0);
        let (best, probes) = find_sustainable(synthetic(cap, svc), 100.0, limit, 12);
        let best = best.unwrap();
        let k = knee(cap, svc, limit);
        assert!(best.offered <= k, "{} > knee {k}", best.offered);
        assert!(
            best.offered > 0.97 * k,
            "{} far below knee {k}",
            best.offered
        );
        assert_eq!(probes.len(), 12);
        // Interpolation lands between the last pass and the knee.
        let est = sustainable_rate(&probes, limit).unwrap();
        assert!(est >= best.offered && est <= k * 1.001, "{est} vs knee {k}");
        let (_, few) = find_sustainable(synthetic(cap, svc), 100.0, limit, 8);
        let est = sustainable_rate(&few, limit).unwrap();
        assert!((est - k).abs() < 0.03 * k, "{est} vs knee {k}");
        assert!(probes.iter().all(|p| p.offered > 0.0));
    }

    #[test]
    fn search_shrinks_when_start_rate_fails() {
        let (cap, svc, limit) = (50.0, 1.0, 10.0);
        let (best, _) = find_sustainable(synthetic(cap, svc), 400.0, limit, 12);
        let best = best.unwrap();
        let k = knee(cap, svc, limit);
        assert!(
            best.offered <= k && best.offered > 0.9 * k,
            "{best:?} vs {k}"
        );
    }

    #[test]
    fn search_rejects_probes_with_errors_or_growing_backlog() {
        // Latency is always fine, but errors start at 300/s.
        let run = |rate: f64| Probe {
            offered: rate,
            achieved: rate,
            p99_ms: 1.0,
            backlog_growing: false,
            errors: u64::from(rate >= 300.0),
        };
        let (best, _) = find_sustainable(run, 100.0, 10.0, 10);
        let best = best.unwrap();
        assert!(best.offered < 300.0 && best.offered > 280.0, "{best:?}");
        let none = find_sustainable(
            |rate| Probe {
                offered: rate,
                achieved: 0.0,
                p99_ms: 1.0,
                backlog_growing: true,
                errors: 0,
            },
            100.0,
            10.0,
            4,
        );
        assert!(none.0.is_none());
        assert_eq!(none.1.len(), 4);
        assert!(sustainable_rate(&none.1, 10.0).is_none());
        // A failure by errors or backlog is not interpolated across.
        let (_, probes) = find_sustainable(run, 100.0, 10.0, 10);
        assert_eq!(sustainable_rate(&probes, 10.0), Some(best.offered));
    }
}
