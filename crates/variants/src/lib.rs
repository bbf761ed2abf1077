//! # streamlink-variants
//!
//! Research sketches built on the public API of [`streamlink_core`]:
//! the ablations and extensions that back experiments E11 and E16–E18.
//! None of them is on the serving path; the serving crate
//! (`streamlink-cli`) does not depend on this one.
//!
//! ## Modules
//!
//! * [`bottomk`] — the bottom-k single-hash variant (ablation, E11).
//! * [`biased`] — the vertex-biased (weighted) AA sketch (ablation,
//!   E11): it weights the sampling itself by `1/ln d` via exponential
//!   ranks.
//! * [`windowed`] — epoch-based sliding-window store (recent structure
//!   only, E18).
//! * [`hll`] / [`robust`] — HyperLogLog distinct-degree estimation and
//!   the duplicate-robust store built on it (E17).
//! * [`compressed`] — frozen b-bit replicas (Li–König b-bit minwise
//!   hashing, E16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod biased;
pub mod bottomk;
pub mod compressed;
pub mod hll;
pub mod robust;
pub mod windowed;

pub use biased::BiasedStore;
pub use bottomk::BottomKStore;
pub use compressed::CompressedStore;
pub use hll::HyperLogLog;
pub use robust::RobustStore;
pub use windowed::WindowedStore;
