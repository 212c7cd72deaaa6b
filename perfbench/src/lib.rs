//! End-to-end and per-layer benchmark of the real-rate allocator.
//!
//! The benchmark drives the public `rrs-api` [`Host`](rrs_api::Host) from
//! a single caller thread in a closed loop, one 10 ms controller period
//! at a time, over three workloads (see `README.md` beside this crate).
//! `main.rs` is the command line; the library is what it and the smoke
//! tests share.

pub mod bench;
pub mod episode;
pub mod replay;
pub mod stats;
pub mod workload;
