//! `lumen-service` — the persistent simulation service.
//!
//! Everything upstream of this crate answers one scenario per
//! invocation. This crate makes simulation a *service*: a daemon
//! (`lumend`) that accepts scenario requests over the cluster wire
//! format and answers from a content-addressed result cache, tracing
//! photons only for work it has never seen.
//!
//! The pieces:
//!
//! * [`hash`] — the canonical scenario key: sha256 over the normalized
//!   wire encoding, with the photon budget and task decomposition
//!   factored out so "the same physics, more photons" shares an entry.
//! * [`cache`] — LRU + byte-budget storage of `(tally, chunk ledger)`
//!   per key, upgradable in place.
//! * [`service`] — [`SimulationService`]: chunk-quantized tracing with
//!   bit-exact incremental top-up (see its module docs for the
//!   prefix-extendable-fold argument), per-key in-flight dedup, and a
//!   bounded worker pool over any `lumen_cluster::backend` spec.
//! * [`proto`] / [`server`] / [`client`] — the QUERY/RESULT/ERROR frames
//!   and the TCP daemon/client speaking them, HELLO-gated exactly like
//!   the distributed runtime.
//!
//! Binary: `lumend` (the daemon). Its cold/warm/top-up latencies are
//! measured by `lumen-benchmark`'s `service_mix` workload.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod hash;
pub mod proto;
pub mod server;
pub mod service;

pub use cache::{CacheEntry, ResultCache};
pub use client::ServiceClient;
pub use hash::{key_hex, scenario_key, ScenarioKey};
pub use server::ServiceServer;
pub use service::{
    QueryReply, Served, ServiceError, ServiceOptions, ServiceStats, SimulationService,
};
