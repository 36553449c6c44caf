//! SushiAbs: the latency-table abstraction (§2.4, §3.2).
//!
//! The table exposes "the latency of activating a SubNet `i` as a function
//! of a currently cached SubGraph `j`" — a black box that keeps
//! `SushiSched` accelerator-agnostic while retaining implicit state
//! awareness. Space (R1) is managed by restricting columns to a small
//! candidate set `S` (|S| ≪ 10¹⁹); time (R2) by O(rows) feasibility scans
//! and O(1) cell lookups.
//!
//! Column 0 is always the empty SubGraph (cold accelerator), so the table
//! also answers "what if nothing is cached".

use sushi_wsnet::{NetVector, SubGraph, SubNet};

use crate::query::Policy;

/// One row: a servable SubNet with its fixed accuracy, vector encoding and
/// per-column latency estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// SubNet name.
    pub name: String,
    /// Fixed top-1 accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// `[K₁, C₁, …]` encoding of the SubNet (Fig. 6).
    pub vector: NetVector,
    /// `latency_ms[j]` = serving latency with column `j` cached.
    pub latency_ms: Vec<f64>,
}

/// One column: a cacheable SubGraph with its vector encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct TableColumn {
    /// The cacheable SubGraph.
    pub graph: SubGraph,
    /// Its `[K₁, C₁, …]` encoding.
    pub vector: NetVector,
}

/// The SubNet × SubGraph latency lookup table.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyTable {
    rows: Vec<TableRow>,
    columns: Vec<TableColumn>,
}

/// Index of the empty (cold) column.
pub const EMPTY_COLUMN: usize = 0;

impl LatencyTable {
    /// Builds a table by probing `latency_of(subnet, cached)` once for
    /// every cell, row by row and column by column within a row.
    /// `candidates` become columns `1..`; column 0 is the empty SubGraph.
    ///
    /// The probe is the *only* place the accelerator appears — it is
    /// typically backed by `sushi_accel` in production and by a synthetic
    /// function in tests, which is exactly the decoupling SushiAbs claims.
    ///
    /// # Panics
    /// Panics if `subnets` is empty.
    pub fn build(
        subnets: &[SubNet],
        candidates: Vec<SubGraph>,
        mut latency_of: impl FnMut(&SubNet, Option<&SubGraph>) -> f64,
    ) -> Self {
        assert!(!subnets.is_empty(), "table needs at least one SubNet row");
        let num_layers = subnets[0].graph.num_layers();
        let mut columns = Vec::with_capacity(candidates.len() + 1);
        columns.push(TableColumn {
            graph: SubGraph::empty(num_layers),
            vector: NetVector::encode(&SubGraph::empty(num_layers)),
        });
        for g in candidates {
            let vector = NetVector::encode(&g);
            columns.push(TableColumn { graph: g, vector });
        }
        let rows = subnets
            .iter()
            .map(|sn| TableRow {
                name: sn.name.clone(),
                accuracy: sn.accuracy,
                vector: NetVector::encode(&sn.graph),
                latency_ms: columns
                    .iter()
                    .enumerate()
                    .map(|(j, col)| latency_of(sn, (j != EMPTY_COLUMN).then_some(&col.graph)))
                    .collect(),
            })
            .collect();
        Self { rows, columns }
    }

    /// Number of SubNet rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns including the empty column.
    #[must_use]
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Row accessor.
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> &TableRow {
        &self.rows[i]
    }

    /// Column accessor.
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn column(&self, j: usize) -> &TableColumn {
        &self.columns[j]
    }

    /// All rows.
    #[must_use]
    pub fn rows(&self) -> &[TableRow] {
        &self.rows
    }

    /// The latency estimate `L[i][j]`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn latency_ms(&self, row: usize, col: usize) -> f64 {
        self.rows[row].latency_ms[col]
    }

    /// Per-query SubNet selection (Algorithm 1).
    ///
    /// Under [`Policy::StrictAccuracy`], returns the min-latency row with
    /// `accuracy ≥ a_t`; if none qualifies, falls back to the
    /// maximum-accuracy row (best effort). Under [`Policy::StrictLatency`],
    /// returns the max-accuracy row with `latency ≤ l_t` under column
    /// `cached`; if none qualifies, falls back to the minimum-latency row.
    #[must_use]
    pub fn select(&self, policy: Policy, a_t: f64, l_t: f64, cached: usize) -> usize {
        match policy {
            Policy::StrictAccuracy => self
                .rows
                .iter()
                .enumerate()
                .filter(|(_, r)| r.accuracy >= a_t)
                .min_by(|a, b| cmp_f64(a.1.latency_ms[cached], b.1.latency_ms[cached]))
                .map(|(i, _)| i)
                .unwrap_or_else(|| self.max_accuracy_row()),
            Policy::StrictLatency => self
                .rows
                .iter()
                .enumerate()
                .filter(|(_, r)| r.latency_ms[cached] <= l_t)
                .max_by(|a, b| cmp_f64(a.1.accuracy, b.1.accuracy))
                .map(|(i, _)| i)
                .unwrap_or_else(|| self.min_latency_row(cached)),
        }
    }

    /// Across-query SubGraph selection: the candidate column (excluding the
    /// empty column) whose vector minimizes L2 distance to `avg`.
    ///
    /// Returns [`EMPTY_COLUMN`] when the table has no candidates.
    #[must_use]
    pub fn closest_column(&self, avg: &NetVector) -> usize {
        self.closest_column_by(avg, |a, b| a.dist_l2(b))
    }

    /// Like [`Self::closest_column`] with a custom distance measure (e.g.
    /// [`NetVector::dist_cosine`] for the distance-measure ablation).
    #[must_use]
    pub fn closest_column_by(
        &self,
        avg: &NetVector,
        dist: impl Fn(&NetVector, &NetVector) -> f64,
    ) -> usize {
        self.columns
            .iter()
            .enumerate()
            .skip(1)
            .min_by(|a, b| cmp_f64(dist(&a.1.vector, avg), dist(&b.1.vector, avg)))
            .map_or(EMPTY_COLUMN, |(j, _)| j)
    }

    /// Restricts the table to its first `n` candidate columns (plus the
    /// empty column) — the Table 5/6 size ablation.
    #[must_use]
    pub fn with_columns(&self, n: usize) -> Self {
        let keep = (n + 1).min(self.columns.len());
        Self {
            columns: self.columns[..keep].to_vec(),
            rows: self
                .rows
                .iter()
                .map(|r| TableRow {
                    name: r.name.clone(),
                    accuracy: r.accuracy,
                    vector: r.vector.clone(),
                    latency_ms: r.latency_ms[..keep].to_vec(),
                })
                .collect(),
        }
    }

    fn max_accuracy_row(&self) -> usize {
        self.rows
            .iter()
            .enumerate()
            .max_by(|a, b| cmp_f64(a.1.accuracy, b.1.accuracy))
            .map(|(i, _)| i)
            .expect("table is non-empty")
    }

    fn min_latency_row(&self, cached: usize) -> usize {
        self.rows
            .iter()
            .enumerate()
            .min_by(|a, b| cmp_f64(a.1.latency_ms[cached], b.1.latency_ms[cached]))
            .map(|(i, _)| i)
            .expect("table is non-empty")
    }
}

fn cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

#[cfg(test)]
pub(crate) mod test_support {
    use sushi_wsnet::layer::LayerSlice;
    use sushi_wsnet::subnet::SubNetConfig;
    use sushi_wsnet::{SubGraph, SubNet};

    /// A synthetic SubNet with a 2-layer graph scaled by `size`.
    pub fn subnet(name: &str, size: usize, accuracy: f64) -> SubNet {
        let graph = SubGraph::new(vec![
            LayerSlice::new(8 * size, 4 * size, 3),
            LayerSlice::new(16 * size, 8 * size, 3),
        ]);
        SubNet {
            name: name.into(),
            config: SubNetConfig::new(vec![1], vec![1.0]),
            graph,
            accuracy,
            flops: (size as u64) * 1_000_000,
            weight_bytes: (size as u64) * 10_000,
        }
    }

    /// A synthetic latency function: latency grows with SubNet size and
    /// shrinks with cached overlap.
    pub fn synthetic_latency(sn: &SubNet, cached: Option<&SubGraph>) -> f64 {
        let base = sn.weight_bytes as f64 / 10_000.0;
        let saving =
            cached.map_or(0.0, |g| sushi_wsnet::encoding::overlap_ratio(&sn.graph, g) * 0.3 * base);
        base - saving
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{subnet, synthetic_latency};
    use super::*;

    fn table() -> LatencyTable {
        let subnets = vec![subnet("A", 1, 0.75), subnet("B", 2, 0.77), subnet("C", 3, 0.79)];
        let candidates = vec![subnet("gA", 1, 0.0).graph, subnet("gC", 3, 0.0).graph];
        LatencyTable::build(&subnets, candidates, synthetic_latency)
    }

    #[test]
    fn column_zero_is_empty_subgraph() {
        let t = table();
        assert!(t.column(EMPTY_COLUMN).graph.is_empty());
        assert_eq!(t.num_columns(), 3);
    }

    #[test]
    fn cached_columns_never_increase_latency() {
        let t = table();
        for i in 0..t.num_rows() {
            for j in 1..t.num_columns() {
                assert!(t.latency_ms(i, j) <= t.latency_ms(i, EMPTY_COLUMN));
            }
        }
    }

    #[test]
    fn strict_accuracy_picks_min_latency_feasible() {
        let t = table();
        // Constraint 0.76 excludes A; among B and C, B is faster.
        assert_eq!(t.select(Policy::StrictAccuracy, 0.76, f64::MAX, EMPTY_COLUMN), 1);
    }

    #[test]
    fn strict_accuracy_falls_back_to_best_accuracy() {
        let t = table();
        // Nothing satisfies 0.99 -> serve the most accurate row (C).
        assert_eq!(t.select(Policy::StrictAccuracy, 0.99, f64::MAX, EMPTY_COLUMN), 2);
    }

    #[test]
    fn strict_latency_picks_max_accuracy_feasible() {
        let t = table();
        // Cold latencies are 1, 2, 3. Constraint 2.5 admits A and B -> B.
        assert_eq!(t.select(Policy::StrictLatency, 0.0, 2.5, EMPTY_COLUMN), 1);
    }

    #[test]
    fn strict_latency_falls_back_to_fastest() {
        let t = table();
        assert_eq!(t.select(Policy::StrictLatency, 0.0, 0.1, EMPTY_COLUMN), 0);
    }

    #[test]
    fn selection_is_cache_state_aware() {
        // With gC cached, C's latency drops (3 -> 2.1), making it feasible
        // at L_t = 2.5 where it wasn't under the empty column.
        let t = table();
        let cold = t.select(Policy::StrictLatency, 0.0, 2.5, EMPTY_COLUMN);
        let warm = t.select(Policy::StrictLatency, 0.0, 2.5, 2);
        assert_eq!(cold, 1);
        assert_eq!(warm, 2, "cache state must change the feasible set");
    }

    #[test]
    fn closest_column_finds_matching_shape() {
        let t = table();
        // Average equal to subnet C's vector -> column gC (index 2).
        let avg = t.row(2).vector.clone();
        assert_eq!(t.closest_column(&avg), 2);
        let avg_a = t.row(0).vector.clone();
        assert_eq!(t.closest_column(&avg_a), 1);
    }

    #[test]
    fn with_columns_truncates_but_keeps_empty() {
        let t = table().with_columns(1);
        assert_eq!(t.num_columns(), 2);
        assert!(t.column(EMPTY_COLUMN).graph.is_empty());
        assert_eq!(t.row(0).latency_ms.len(), 2);
    }

    #[test]
    fn with_columns_larger_than_table_is_identity() {
        let t = table();
        assert_eq!(t.with_columns(100), t);
    }

    #[test]
    #[should_panic(expected = "at least one SubNet")]
    fn build_rejects_empty_rows() {
        let _ = LatencyTable::build(&[], vec![], |_, _| 0.0);
    }
}
