//! omega-serve: an async sweep-scan service over the batched ω-scan
//! engine.
//!
//! The daemon turns the library's [`omega_accel::BatchDetector`] into a
//! long-lived network service with three load-shaping layers:
//!
//! 1. **Admission control** ([`queue`]): bounded per-backend lanes.
//!    A full lane rejects at the door (HTTP 429 + `Retry-After`);
//!    accepted work always runs or expires on its own deadline, and
//!    shutdown drains gracefully (finish queued, reject new).
//! 2. **Batching** ([`scheduler`]): each lane worker drains its queue
//!    and coalesces same-configuration jobs into one detector run —
//!    replicates from many requests ride one transfer-overlap pipeline,
//!    and per-replicate results stay bit-identical to solo runs.
//! 3. **Result caching** ([`cache`]): a content-addressed LRU keyed by
//!    (input digest, params, backend, overlap mode). A repeat request
//!    returns the exact bytes of the first run without touching a
//!    detector.
//! 4. **Durability** ([`wal`] + [`store`], opt-in via `-data-dir`): a
//!    write-ahead job log fsync'd on admission and terminal state, plus
//!    an on-disk content-addressed result store the cache writes
//!    through to. A killed daemon restarted on the same data dir
//!    re-enqueues queued jobs, keeps finished results byte-identical,
//!    and boots with a warm cache.
//!
//! Networking is a deliberately small hand-rolled HTTP/1.1 layer
//! ([`http`]) over `std::net` — the workspace's offline vendor policy
//! means no async runtime and no HTTP dependency, and the daemon's
//! request shapes don't need one. Its counterpart [`client`] is the one
//! client that reads those responses back: the coordinator, `loadgen`
//! and the tests all use it. Everything observable flows through
//! `omega-obs` instruments (all registered in
//! `omega_obs::names::INSTRUMENTS`) and is exported by `GET /stats`.
//!
//! Boot it from the CLI (`omegaplus serve`) or embed it:
//!
//! ```no_run
//! let handle = omega_serve::start(omega_serve::ServeConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..Default::default()
//! }).unwrap();
//! println!("listening on {}", handle.addr());
//! handle.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod digest;
pub mod http;
pub mod job;
pub mod queue;
pub mod scheduler;
pub mod server;
pub mod store;
pub mod wal;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use digest::fnv64;
pub use job::{parse_scan_request, JobId, JobLookup, JobState, RequestError};
pub use queue::{Lanes, SubmitError};
pub use server::{start, ServeConfig, ServeHandle};
pub use store::ResultStore;
pub use wal::{RecoveredState, Replay, Wal};
