//! Queries and scheduling policies.

/// One inference query annotated with its `(Accuracy, Latency)` constraint
/// pair `(Aₜ, Lₜ)` (§3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Monotone query index `t`.
    pub id: u64,
    /// Minimum acceptable top-1 accuracy, in `[0, 1]`.
    pub accuracy_constraint: f64,
    /// Maximum acceptable serving latency in milliseconds.
    pub latency_constraint_ms: f64,
}

impl Query {
    /// Creates a query.
    #[must_use]
    pub fn new(id: u64, accuracy_constraint: f64, latency_constraint_ms: f64) -> Self {
        Self { id, accuracy_constraint, latency_constraint_ms }
    }
}

/// Which constraint the scheduler treats as hard (Algorithm 1).
///
/// * [`Policy::StrictAccuracy`] — serve the minimum-latency SubNet among
///   those with accuracy ≥ `Aₜ`; the latency constraint may be missed.
/// * [`Policy::StrictLatency`] — serve the maximum-accuracy SubNet among
///   those with latency ≤ `Lₜ` under the current cache state; the accuracy
///   constraint may be missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Accuracy is a hard constraint.
    StrictAccuracy,
    /// Latency is a hard constraint.
    StrictLatency,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_carries_constraints() {
        let q = Query::new(3, 0.78, 12.5);
        assert_eq!(q.id, 3);
        assert_eq!(q.accuracy_constraint, 0.78);
        assert_eq!(q.latency_constraint_ms, 12.5);
    }

    #[test]
    fn policies_are_distinct() {
        assert_ne!(Policy::StrictAccuracy, Policy::StrictLatency);
    }
}
