//! # connectit
//!
//! A Rust implementation of **ConnectIt** (Dhulipala, Hong, Shun — VLDB
//! 2020): a framework for static and incremental parallel graph
//! connectivity composed from interchangeable *sampling* methods (k-out,
//! BFS, LDD) and *finish* methods (six union-find families, Shiloach–
//! Vishkin, all sixteen Liu–Tarjan variants, Stergiou, label propagation),
//! with spanning forest and batch-incremental streaming support.
//!
//! ```
//! use cc_graph::generators::rmat_default;
//! use cc_graph::build_undirected;
//! use connectit::{connectivity, FinishMethod, SamplingMethod};
//!
//! let el = rmat_default(10, 4_000, 1);
//! let g = build_undirected(el.num_vertices, &el.edges);
//! let labels = connectivity(&g, &SamplingMethod::kout_default(), &FinishMethod::fastest());
//! assert_eq!(labels.len(), g.num_vertices());
//! ```

#![warn(missing_docs)]

pub mod compressed;
pub mod connectivity;
pub mod dynamic;
mod edge_table;
pub mod forest;
pub mod label_prop;
pub mod liu_tarjan;
pub mod liveness;
pub mod minkey;
pub mod options;
pub mod sampling;
pub mod shiloach_vishkin;
pub mod spanning_forest;
pub mod streaming;

pub use compressed::connectivity_compressed;
pub use connectivity::{
    connectivity, connectivity_seeded, connectivity_timed, finish_components, num_components,
    RunStats,
};
pub use dynamic::{DynUpdate, DynamicConnectivity};
pub use liu_tarjan::{LtConnect, LtScheme};
pub use liveness::{apply_batch, canon_edge, uncanon_edge, BatchHooks, DeleteClass, DeleteCounts};
pub use liveness::{InsertClass, LivenessTracker, Rebuilt};
pub use options::{FinishMethod, KOutVariant, SamplingMethod};
pub use sampling::{identify_frequent, inter_component_edges, run_sampling, SampleOutcome};
pub use spanning_forest::{is_valid_spanning_forest, spanning_forest, supports_spanning_forest};
pub use streaming::{StreamAlgorithm, StreamType, StreamingConnectivity, UfStreaming, Update};
