//! # snb-core
//!
//! Shared foundation for the LDBC Social Network Benchmark (Interactive)
//! reproduction: entity schema, typed identifiers, simulation time,
//! deterministic random-number generation and the statistical distributions
//! the paper's data generator relies on (geometric window sampling, skewed
//! dictionary sampling, the Facebook-derived degree-percentile curve), plus
//! the embedded dictionaries that stand in for DBpedia.
//!
//! Everything downstream (`snb-datagen`, `snb-store`, `snb-queries`,
//! `snb-driver`, `snb-params`) builds on these types.

pub mod degree;
pub mod dict;
pub mod error;
pub mod id;
pub mod rng;
pub mod schema;
pub mod shard;
pub mod time;
pub mod update;
pub mod wire;

pub use error::{SnbError, SnbResult};
pub use id::*;
pub use time::SimTime;
