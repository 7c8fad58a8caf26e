//! Sample statistics and simulated-run fingerprints shared by every
//! workload.

use hotpotato_sim::{RouteStats, Time};

/// Median of a sample: the middle value, or the mean of the two middle
/// values for an even count. `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quantile `q` (0..=1) of a sample: the element at rank
/// `round((n − 1)·q)` of the sorted sample. `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// A tail percentile with the number of samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The whole percentile, 50..=99.
    pub pct: u32,
    /// The sample at that nearest-rank percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest whole percentile (from p50 up to p99) that leaves at least
/// `min_beyond` samples beyond its nearest rank, or `None` when even the
/// median leaves fewer. Nearest rank: percentile `p` of `n` samples is
/// the `ceil(p·n/100)`-th smallest.
pub fn tail(xs: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (50..=99u32).rev().find_map(|pct| {
        let rank = (pct as usize * n).div_ceil(100).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= min_beyond).then(|| Tail {
            pct,
            value: v[rank - 1],
            beyond,
        })
    })
}

/// Nearest-rank percentile of a sorted slice, with the rounding
/// `hotpotato_trace::FleetSample` uses (0 when empty).
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// In-flight latency (`delivered_at − injected_at`) of every delivered
/// packet, in packet order.
pub fn latencies(stats: &RouteStats) -> Vec<u64> {
    stats
        .injected_at
        .iter()
        .zip(&stats.delivered_at)
        .filter_map(|(i, d)| Some((*d)? - (*i)?))
        .collect()
}

/// Packet-moves of a run, derived from outside: under the hot-potato
/// rule every in-flight packet crosses one edge per step, so a packet
/// injected at step `i` and delivered at `d` moved exactly `d − i`
/// times. Packets never injected or never delivered contribute nothing.
pub fn derived_moves(injected_at: &[Option<Time>], delivered_at: &[Option<Time>]) -> u64 {
    injected_at
        .iter()
        .zip(delivered_at)
        .filter_map(|(i, d)| (*d)?.checked_sub((*i)?))
        .sum()
}

/// 64-bit FNV-1a over a sequence of words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// What must repeat exactly between two routes of the same instance and
/// seed: makespan, moves, deflections and the per-packet latency vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimPrint {
    /// Simulated steps.
    pub steps: u64,
    /// Packet-moves.
    pub moves: u64,
    /// Total deflections.
    pub deflections: u64,
    /// FNV-1a of each packet's in-flight latency (`u64::MAX` when the
    /// packet was never delivered).
    pub latency_hash: u64,
}

impl SimPrint {
    /// The fingerprint of `stats` with an externally supplied move count.
    pub fn of(stats: &RouteStats, moves: u64) -> SimPrint {
        SimPrint {
            steps: stats.steps_run,
            moves,
            deflections: stats.total_deflections(),
            latency_hash: fnv1a(
                stats
                    .injected_at
                    .iter()
                    .zip(&stats.delivered_at)
                    .map(|(i, d)| match (i, d) {
                        (Some(i), Some(d)) => d - i,
                        _ => u64::MAX,
                    }),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_picks_the_rounded_rank() {
        let xs: Vec<f64> = (0..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.1), 2.0);
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 1.0), 20.0);
        // 3 samples: p10 rounds to the smallest.
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.1), 1.0);
        assert!(quantile(&[], 0.1).is_nan());
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // 100 samples: p90 has rank 90, so exactly 10 lie beyond it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 10).expect("100 samples support a tail");
        assert_eq!((t.pct, t.value, t.beyond), (90, 90.0, 10));
        // 55 samples: p81 ranks 45 (10 beyond); p82 ranks 46 (9 beyond).
        let xs: Vec<f64> = (1..=55).map(f64::from).collect();
        let t = tail(&xs, 10).expect("55 samples support a tail");
        assert_eq!((t.pct, t.beyond), (81, 10));
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(tail(&rev, 10), Some(t));
    }

    #[test]
    fn tail_needs_ten_beyond_the_median() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs, 10).expect("20 samples reach p50");
        assert_eq!((t.pct, t.beyond), (50, 10));
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn derived_moves_sum_in_flight_times() {
        let injected = [Some(0), Some(3), None, Some(5), Some(9)];
        // Packet 2 was dropped, packet 4 is still in flight, packet 3 was
        // delivered trivially at its injection step.
        let delivered = [Some(4), Some(10), None, Some(5), None];
        assert_eq!(derived_moves(&injected, &delivered), 4 + 7);
        assert_eq!(derived_moves(&[], &[]), 0);
    }

    #[test]
    fn percentile_matches_nearest_rank_rounding() {
        let v: Vec<u64> = (0..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&[], 0.99), 0);
    }

    #[test]
    fn sim_print_sees_latency_permutations() {
        let mut a = RouteStats::new(2);
        a.injected_at = vec![Some(0), Some(1)];
        a.delivered_at = vec![Some(3), Some(5)];
        a.steps_run = 5;
        let mut b = a.clone();
        b.delivered_at = vec![Some(5), Some(3)];
        b.injected_at = vec![Some(1), Some(0)];
        assert_eq!(latencies(&a), vec![3, 4]);
        assert_ne!(SimPrint::of(&a, 7), SimPrint::of(&b, 7));
        assert_eq!(SimPrint::of(&a, 7), SimPrint::of(&a.clone(), 7));
    }
}
