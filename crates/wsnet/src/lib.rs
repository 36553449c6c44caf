//! # sushi-wsnet
//!
//! Weight-shared DNN (WS-DNN) substrate for the SUSHI (MLSys'23)
//! reproduction: SuperNets, SubNets, SubGraphs and the algebra connecting
//! them (§2.1 of the paper).
//!
//! * [`arch::SuperNet`] — an OFA-style elastic architecture whose SubNets
//!   share weights by construction: "the smallest SubNet's weights are
//!   shared by all other SubNets and the weights of the largest SubNet
//!   contain all other SubNets within it".
//! * [`subnet::SubNet`] — a forward-pass-capable weight subset with a fixed
//!   accuracy and elastic configuration.
//! * [`subgraph::SubGraph`] — *any* weight subset, closed under
//!   intersection/union; the unit of Persistent-Buffer caching.
//! * [`encoding`] — the scheduler's `[K₁, C₁, …]` vectorization, running
//!   average and distance measures (Fig. 6).
//! * [`zoo`] — OFA-ResNet50 and OFA-MobileNetV3 with the paper's 6 + 7
//!   Pareto SubNet picks, plus toy nets for functional validation.
//! * [`weights::WeightStore`] — deterministic int8 weights for the whole
//!   SuperNet, sliceable per SubGraph.
//!
//! # Example
//!
//! ```
//! use sushi_wsnet::zoo;
//!
//! let net = zoo::resnet50_supernet();
//! let picks = zoo::paper_subnets(&net);
//! assert_eq!(picks.len(), 6);
//!
//! // Queries activating different SubNets share weights: the intersection
//! // of any two SubNets is a cacheable SubGraph.
//! let shared = picks[2].graph.intersect(&picks[4].graph);
//! assert!(shared.is_subset_of(&picks[2].graph));
//! assert!(net.subgraph_weight_bytes(&shared) > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accuracy;
pub mod arch;
pub mod encoding;
pub mod ir_build;
pub mod layer;
pub mod sampler;
pub mod subgraph;
pub mod subnet;
pub mod weights;
pub mod zoo;

pub use arch::{Family, SuperNet};
pub use encoding::{NetVector, RunningAvg};
pub use layer::{ConvLayerDesc, LayerSlice};
pub use subgraph::SubGraph;
pub use subnet::{SubNet, SubNetConfig};
pub use weights::WeightStore;
