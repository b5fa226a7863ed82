//! The repository benchmark: closed-loop workloads against the admission
//! daemon and the estimator campaign, end-to-end metrics from untraced
//! runs, and a per-layer ledger from a separate traced run.

#![forbid(unsafe_code)]

pub mod bench;
pub mod campaign;
pub mod client;
pub mod gen;
pub mod replay;
pub mod service;
pub mod stats;
