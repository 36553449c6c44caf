//! Experiment registry: one regenerator per paper table and figure.
//!
//! Every entry returns an [`crate::report::ExpReport`] whose rows mirror
//! the series the paper plots; `docs/ARCHITECTURE.md` maps each paper
//! section and figure to the code behind it.

mod ablations;
pub mod common;
mod fig02_03;
mod fig10_11_12;
mod fig13_14;
mod fig15_16;
mod fig17_18;
mod kernels;
mod serve;
mod tab5_6_hit;
mod tables;

pub use ablations::{abl_candidates, abl_distance, abl_pb_split};
pub use common::ExpOptions;
pub use fig02_03::{fig2, fig3};
pub use fig10_11_12::{fig10, fig11, fig12};
pub use fig13_14::{fig13a, fig13b, fig14};
pub use fig15_16::{fig15, fig16};
pub use fig17_18::{fig17, fig18};
pub use kernels::kernels;
pub use serve::serve;
pub use tab5_6_hit::{hit_ratio, tab5, tab6};
pub use tables::{tab1, tab2, tab3, tab4};

use crate::report::ExpReport;

/// One experiment: its id and its regenerator.
pub type Experiment = (&'static str, fn(&ExpOptions) -> ExpReport);

/// Every experiment, in paper order: the one list of ids `repro all` and
/// the tests walk.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13a", fig13a),
    ("fig13b", fig13b),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig18", fig18),
    ("tab1", tab1),
    ("tab2", tab2),
    ("tab3", tab3),
    ("tab4", tab4),
    ("tab5", tab5),
    ("tab6", tab6),
    ("hit_ratio", hit_ratio),
    ("kernels", kernels),
    ("serve", serve),
    ("abl_distance", abl_distance),
    ("abl_pb_split", abl_pb_split),
    ("abl_candidates", abl_candidates),
];

/// Runs one experiment by id. Returns `None` for an unknown id.
#[must_use]
pub fn run(id: &str, opts: &ExpOptions) -> Option<ExpReport> {
    EXPERIMENTS.iter().find(|&&(name, _)| name == id).map(|(_, regenerate)| regenerate(opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_returns_none() {
        assert!(run("fig99", &ExpOptions::quick()).is_none());
    }

    #[test]
    fn registry_ids_match_dispatch() {
        // Cheap experiments can actually run; expensive serving experiments
        // are covered by their own module tests — here only verify the
        // static tables dispatch.
        for id in ["tab1", "tab2", "tab3", "tab4"] {
            let r = run(id, &ExpOptions::quick()).unwrap();
            assert_eq!(r.id, id);
        }
        assert_eq!(EXPERIMENTS.len(), 24);
        for (i, (id, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|(other, _)| other != id), "{id} listed twice");
        }
    }
}
