//! # hashkit
//!
//! Hashing primitives for streaming sketches, built from scratch so the
//! whole stack is auditable and deterministic across platforms.
//!
//! The sketching layer above needs three things from a hash function:
//!
//! 1. **Seeded families** — `k` independent hash functions `h_1 … h_k`
//!    over vertex identifiers, cheap enough to evaluate all `k` on every
//!    stream edge ([`HashFamily`], [`SeededHash`]). Every member is a
//!    bijection with a closed-form inverse ([`SeededHash::invert`]), so a
//!    sketch slot that keeps only its minimum hash still names the
//!    neighbor that achieved it. This is the crate's one hash family.
//! 2. **Strong single-word mixing** — vertex ids are small integers with
//!    almost no entropy spread; a finalizer-quality mixer turns them into
//!    uniform 64-bit words ([`mix`]).
//! 3. **Uniform and exponential draws** — weighted (vertex-biased) MinHash
//!    needs `Exp(λ)` ranks derived deterministically from `(seed, key)`
//!    pairs ([`uniform`]).
//!
//! [`crc32()`] is a different animal: not a sketch hash but an error
//! -detecting code, used by the storage layer to frame WAL records and
//! snapshot payloads so recovery can prove what it reads.
//!
//! ## Determinism
//!
//! Every function here is a pure function of `(seed, key)`. Nothing reads
//! process-global state, so sketches built on two machines from the same
//! stream are bit-identical — a requirement for the mergeable-sketch path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub mod family;
pub mod mix;
pub mod uniform;

pub use crc32::crc32;
pub use family::{HashFamily, SeededHash};
pub use mix::{mix64, mix64_v3, unmix64};
pub use uniform::{exp_rank, unit_exponential, unit_uniform};
