//! # snb-driver
//!
//! The SNB-Interactive workload driver (§4.2): due-time-scheduled operation
//! streams with dependency tracking (Local/Global Dependency Services,
//! Fig. 7) enforced by the Fig. 8 dependent-execution loop, per-forum
//! sequential partitioning, the Table 4 query mix with logarithmic
//! frequency scaling, the short-read random walk, per-kind nanosecond
//! latency and throughput metrics, and the LDBC specification's on-time
//! rule for paced runs — "the difficult task of generating a highly
//! parallel workload [...] on a dataset that by its complex connected
//! component structure is impossible to partition".

pub mod affinity;
pub mod connector;
pub mod dependency;
pub mod metrics;
pub mod mix;
pub mod report;
pub mod scheduler;
mod wake;

pub use connector::{Connector, OpKind, Operation, SleepConnector, StoreConnector};
pub use metrics::{percentile_sorted, KindRecorder, KindStats, Metrics};
pub use mix::{build_mix, updates_only, WorkItem, TABLE4_FREQUENCIES};
pub use report::{composition, full_disclosure, full_disclosure_json, Composition};
pub use scheduler::{run, DriverConfig, PartitionStats, RunReport, LATE_AFTER, ON_TIME_SHARE};
