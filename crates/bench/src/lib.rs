//! # mmdb-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§5). The `repro` binary drives the functions in
//! [`experiments`]: the paper's figures and tables, the ablations, and the
//! single-threaded `perf-*` microbenchmarks (per-operation ns of the read,
//! range, write and commit paths and of the tagged-word, visibility and
//! clock primitives underneath them) on the warmed engines of [`fixture`].
//!
//! All experiments compare the three concurrency-control schemes the paper
//! evaluates: single-version locking (**1V**), pessimistic multiversioning
//! (**MV/L**) and optimistic multiversioning (**MV/O**).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod commitpath;
pub mod experiments;
pub mod fixture;
pub mod json;
pub mod scheme;

pub use experiments::ExpConfig;
pub use scheme::Scheme;
