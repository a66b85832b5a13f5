//! `omega-cluster` — sharded scatter-gather scan serving.
//!
//! A coordinator daemon (`omegaplus coordinate -workers a,b,c`) that
//! presents the exact single-node `omega-serve` scan API while fanning
//! the work over a pool of workers:
//!
//! * **Range sharding with seam accounting** — the grid is cut into
//!   weight-balanced slices; each slice ships the union of its
//!   positions' `±max_win` windows, and the merge corrects aggregate
//!   `r2_pairs` by the reuse the cuts broke, so the merged report is
//!   *byte-identical* to a single-node scan ([`omega_accel::shard`]).
//! * **Cache-affinity routing** ([`ring`]) — consistent hashing on the
//!   payload's FNV content digest and the grid slice pins repeated
//!   shards to the same worker's content-addressed result cache.
//! * **Failover** ([`dispatch`]) — `/healthz` probing plus in-band
//!   failure detection; a dead worker's shards re-dispatch to the ring
//!   successor mid-scan without changing a byte of the merged report.
//! * **Admission propagation** — when every worker sheds a shard with
//!   429, the coordinator answers 429 with the smallest `Retry-After`
//!   it observed.

pub mod coordinator;
pub mod dispatch;
pub mod ring;

pub use coordinator::{register_instruments, start, ClusterConfig, ClusterHandle};
pub use dispatch::{outcome_from_job_json, ShardError, ShardSuccess, Worker, WorkerPool};
pub use omega_serve::client::{ClientResponse, WorkerClient};
pub use ring::{affinity_key, HashRing};
