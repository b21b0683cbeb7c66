//! # ldbc-snb
//!
//! Facade crate for the LDBC Social Network Benchmark (Interactive workload)
//! reproduction. Re-exports the workspace crates under stable module names:
//!
//! - [`core`]: schema, ids, simulation time, RNG, dictionaries
//! - [`datagen`]: the correlated social-network generator (DATAGEN)
//! - [`store`]: the transactional in-memory property-graph store
//! - [`queries`]: complex reads Q1–Q14, short reads S1–S7, updates U1–U8
//! - [`params`]: parameter curation
//! - [`driver`]: the dependency-aware workload driver
//! - [`obs`]: latency histograms, counters, and query operator profiles
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use snb_core as core;
pub use snb_datagen as datagen;
pub use snb_driver as driver;
pub use snb_net as net;
pub use snb_obs as obs;
pub use snb_params as params;
pub use snb_queries as queries;
pub use snb_store as store;
