//! Stratified query streams, generated from `--seed` alone.
//!
//! A stream is a sequence of *rounds*. A round holds one query per
//! stratum (one stratum per targeted SubNet) in an order shuffled by the
//! seed, so every whole number of rounds is perfectly balanced: the
//! nearest-rank median and p90 of op time then fall inside one SubNet's
//! latency cluster (given an odd number of strata) instead of on the flat
//! between two, and the served-accuracy mean does not depend on where a
//! timed run happened to stop.
//!
//! A query's accuracy constraint is its stratum's accuracy. Its latency
//! constraint is uniform over the engine's constraint band, drawn per
//! stratum from a van der Corput sequence under a seed-dependent rotation:
//! still uniform, but any prefix covers the band evenly, which keeps the
//! simulated SLO-violation rate steady across seeds and run lengths.

use crate::stats::{van_der_corput, SplitMix64};
use crate::sut::{LatencyBand, Query, Row};

/// Query ids of timed ops start here; set-up and checks use lower ids.
pub const FIRST_OP_ID: u64 = 1_000;

#[derive(Debug, Clone)]
pub struct StratifiedStream {
    strata: Vec<Row>,
    band: LatencyBand,
    rng: SplitMix64,
    /// Per-stratum rotation of the low-discrepancy sequence.
    rotation: Vec<f64>,
    round: u64,
    next_id: u64,
}

impl StratifiedStream {
    pub fn new(strata: Vec<Row>, band: LatencyBand, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let rotation = strata.iter().map(|_| rng.next_f64()).collect();
        Self { strata, band, rng, rotation, round: 0, next_id: FIRST_OP_ID }
    }

    /// The query of stratum `s` in the current round.
    fn query(&mut self, s: usize) -> Query {
        let u = (van_der_corput(self.round) + self.rotation[s]).fract();
        let latency = self.band.lo_ms + (self.band.hi_ms - self.band.lo_ms) * u;
        let id = self.next_id;
        self.next_id += 1;
        Query::new(id, self.strata[s].accuracy, latency)
    }

    /// The next round in seed-shuffled order: `(stratum index, query)`.
    pub fn next_round(&mut self) -> Vec<(usize, Query)> {
        let mut order: Vec<usize> = (0..self.strata.len()).collect();
        self.rng.shuffle(&mut order);
        let round = order.into_iter().map(|s| (s, self.query(s))).collect();
        self.round += 1;
        round
    }

    /// The next round in stratum order (`resnet50_switch` visits B..F in
    /// order on every pass).
    pub fn next_round_in_order(&mut self) -> Vec<(usize, Query)> {
        let round = (0..self.strata.len()).map(|s| (s, self.query(s))).collect();
        self.round += 1;
        round
    }
}

/// Whether nearest-rank percentile `p` of a balanced sample sits at least
/// `margin` ranks inside one stratum, when `strata` equally sized strata
/// of `per_stratum` samples each are sorted into disjoint clusters.
pub fn rank_inside_stratum(strata: usize, per_stratum: usize, p: f64, margin: usize) -> bool {
    let rank = crate::stats::nearest_rank(strata * per_stratum, p);
    let within = (rank - 1) % per_stratum;
    within >= margin && per_stratum - 1 - within >= margin
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|row| Row { row, name: format!("S{row}"), accuracy: 0.7 + row as f64 / 100.0 })
            .collect()
    }

    const BAND: LatencyBand = LatencyBand { lo_ms: 4.0, hi_ms: 18.0 };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let take = |seed| {
            let mut s = StratifiedStream::new(rows(7), BAND, seed);
            (0..5).flat_map(|_| s.next_round()).collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
    }

    #[test]
    fn every_round_holds_each_stratum_once_with_fresh_ids() {
        let mut s = StratifiedStream::new(rows(5), BAND, 11);
        let mut seen_ids = std::collections::BTreeSet::new();
        for _ in 0..20 {
            let round = s.next_round();
            let mut strata: Vec<usize> = round.iter().map(|(i, _)| *i).collect();
            strata.sort_unstable();
            assert_eq!(strata, vec![0, 1, 2, 3, 4]);
            for (i, q) in round {
                assert_eq!(q.accuracy_constraint, rows(5)[i].accuracy);
                assert!((BAND.lo_ms..BAND.hi_ms).contains(&q.latency_constraint_ms));
                assert!(q.id >= FIRST_OP_ID && seen_ids.insert(q.id));
            }
        }
    }

    #[test]
    fn latency_constraints_cover_the_band_evenly_per_stratum() {
        let mut s = StratifiedStream::new(rows(3), BAND, 5);
        let mut below_mid = [0usize; 3];
        for _ in 0..16 {
            for (i, q) in s.next_round() {
                below_mid[i] += usize::from(q.latency_constraint_ms < 11.0);
            }
        }
        // 16 low-discrepancy draws split a band in half exactly.
        assert_eq!(below_mid, [8, 8, 8]);
    }

    #[test]
    fn in_order_rounds_keep_stratum_order() {
        let mut s = StratifiedStream::new(rows(5), BAND, 2);
        let order: Vec<usize> = s.next_round_in_order().into_iter().map(|(i, _)| i).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn odd_strata_put_both_ranks_inside_a_stratum() {
        // 7 strata x 26: p50 is rank 91 = 13th of the 4th stratum, p90 is
        // rank 164 = 8th of the 7th.
        assert!(rank_inside_stratum(7, 26, 0.5, 5));
        assert!(rank_inside_stratum(7, 26, 0.9, 5));
        assert!(rank_inside_stratum(5, 60, 0.5, 5));
        assert!(rank_inside_stratum(5, 60, 0.9, 5));
        // An even count puts the median on the boundary between two.
        assert!(!rank_inside_stratum(6, 10, 0.5, 1));
    }
}
