//! # cc-unionfind
//!
//! Concurrent union-find variants for the ConnectIt framework: the
//! Union-Async / Union-Hooks / Union-Early / Union-Rem-CAS / Union-Rem-Lock
//! / Union-JTB families of Section 3.3.1, composed with the find strategies
//! of Algorithm 8 and the splice strategies of Algorithm 9, plus a
//! sequential oracle and path-length instrumentation.
//!
//! Hot paths select a variant at configuration time through
//! [`UfSpec::dispatch`], which monomorphizes the caller's
//! [`KernelVisitor`] for one of the 36 valid kernels (the paper's
//! template-specialization story); the object-safe [`Unite`] adapter
//! remains for variant enumeration and tests.
//!
//! ```
//! use cc_unionfind::{parents::make_parents, spec::UfSpec};
//! let p = make_parents(4);
//! let uf = UfSpec::fastest().instantiate(4, 0);
//! let mut hops = 0;
//! uf.unite(&p, 0, 1, &mut hops);
//! uf.unite(&p, 2, 3, &mut hops);
//! assert_eq!(uf.find(&p, 1, &mut hops), uf.find(&p, 0, &mut hops));
//! assert_ne!(uf.find(&p, 0, &mut hops), uf.find(&p, 3, &mut hops));
//! ```

#![warn(missing_docs)]

pub mod find;
pub mod oracle;
pub mod parents;
pub mod sized;
pub mod spec;
pub mod splice;
pub mod stats;
pub mod telemetry;
pub mod unite;

pub use find::{Find, FindCompress, FindHalve, FindNaive, FindSplit};
pub use oracle::{oracle_labels, SeqUnionFind};
pub use parents::{
    count_roots, make_parents, parents_from_labels, snapshot_labels, snapshot_labels_readonly,
    Parents,
};
pub use sized::{MergeOutcome, SizedUnionFind};
pub use spec::{FastestKernel, FindKind, KernelVisitor, SpliceKind, UfSpec, UniteKind};
pub use splice::{HalveAtomicOne, Splice, SpliceAtomic, SplitAtomicOne};
pub use stats::{PathLengths, PathStats};
pub use telemetry::{CountHops, NoCount, Telemetry};
pub use unite::{
    JtbFindStrategy, JtbSimple, JtbTwoTry, UnionAsync, UnionEarly, UnionHooks, UnionJtb,
    UnionRemCas, UnionRemLock, Unite, UniteKernel,
};
