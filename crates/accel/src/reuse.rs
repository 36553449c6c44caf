//! Data-reuse capability matrix (Table 4).
//!
//! Prior accelerators achieve intra-model, cross-layer reuse; SUSHI adds
//! *cross-query* SubGraph reuse — spatially (the PB) and temporally
//! (across the query stream).

/// Reuse capabilities of one accelerator design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseProfile {
    /// Design name.
    pub name: String,
    /// Input-activation reuse (sliding window / multi-kernel, Fig. 8a-b).
    pub iact_reuse: bool,
    /// Output-activation (partial-sum) reuse (Fig. 8c).
    pub oact_reuse: bool,
    /// Temporal weight reuse via iAct tiling within one query.
    pub weight_reuse_temporal: bool,
    /// Cross-query SubGraph reuse, spatial (dedicated buffer).
    pub subgraph_reuse_spatial: bool,
    /// Cross-query SubGraph reuse, temporal (persists across queries).
    pub subgraph_reuse_temporal: bool,
}

/// The Table-4 comparison rows.
#[must_use]
pub fn table4() -> Vec<ReuseProfile> {
    vec![
        ReuseProfile {
            name: "MAERI".into(),
            iact_reuse: true,
            oact_reuse: false,
            weight_reuse_temporal: true,
            subgraph_reuse_spatial: false,
            subgraph_reuse_temporal: false,
        },
        ReuseProfile {
            name: "NVDLA".into(),
            iact_reuse: false,
            oact_reuse: true,
            weight_reuse_temporal: true,
            subgraph_reuse_spatial: false,
            subgraph_reuse_temporal: false,
        },
        ReuseProfile {
            name: "Eyeriss".into(),
            iact_reuse: true,
            oact_reuse: false,
            weight_reuse_temporal: true,
            subgraph_reuse_spatial: false,
            subgraph_reuse_temporal: false,
        },
        ReuseProfile {
            name: "Xilinx DPU".into(),
            iact_reuse: true,
            oact_reuse: true,
            weight_reuse_temporal: true,
            subgraph_reuse_spatial: false,
            subgraph_reuse_temporal: false,
        },
        ReuseProfile {
            name: "SUSHI".into(),
            iact_reuse: true,
            oact_reuse: true,
            weight_reuse_temporal: true,
            subgraph_reuse_spatial: true,
            subgraph_reuse_temporal: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_sushi_has_subgraph_reuse() {
        for p in table4() {
            let is_sushi = p.name == "SUSHI";
            assert_eq!(p.subgraph_reuse_spatial, is_sushi, "{}", p.name);
            assert_eq!(p.subgraph_reuse_temporal, is_sushi, "{}", p.name);
        }
    }

    #[test]
    fn all_designs_reuse_weights_temporally() {
        assert!(table4().iter().all(|p| p.weight_reuse_temporal));
    }

    #[test]
    fn table_has_five_rows() {
        assert_eq!(table4().len(), 5);
    }
}
