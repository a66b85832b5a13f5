//! Scatter-side worker pool: health tracking, affinity routing with
//! failover, and the per-shard dispatch state machine.
//!
//! Routing walks the consistent-hash ring from the shard's affinity
//! key: the first *healthy* worker is the cache-affinity choice; if it
//! fails (connect error, 5xx, failed/expired job, poll timeout) the
//! shard re-dispatches to the next worker in ring order and the failed
//! worker is marked unhealthy until the health prober hears from it
//! again. Admission pressure is not a failure: a 429 moves the shard to
//! the next worker without marking anyone dead, and if *every* healthy
//! worker is shedding load the 429 (with the smallest observed
//! `Retry-After`) propagates upward to the coordinator's caller.
//!
//! A worker's answer is untrusted: a result that does not hold exactly
//! the shard's global grid positions (stale cache, version skew, a
//! bug) is a failed attempt like any other, counted as
//! `cluster.invalid_shard_results`, and the shard re-dispatches.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use omega_accel::{DetectionOutcome, ShardSpec};
use omega_core::{grid_position_bp, ScanStats};
use omega_obs::JsonValue;

use crate::ring::HashRing;
use crate::WorkerClient;

/// One worker endpoint and its tracked state.
#[derive(Debug)]
pub struct Worker {
    /// `host:port` of the `omega-serve` daemon.
    pub addr: String,
    /// Latest health verdict (dispatch failures clear it; a successful
    /// probe or request restores it).
    pub healthy: AtomicBool,
    /// Worker identity from `/healthz` (`-worker-id`), once probed.
    pub id: Mutex<String>,
    /// Pooled keep-alive client.
    pub client: WorkerClient,
}

/// Why a shard could not be completed anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Every reachable worker answered 429; the coordinator should
    /// reject upward with this `Retry-After` hint.
    AllBusy {
        /// Smallest `Retry-After` any worker suggested, in seconds.
        retry_after: u64,
    },
    /// No worker could run the shard (connect failures, job failures,
    /// timeouts). Carries the last failure for the error body.
    NoWorkers(String),
}

/// A completed shard: the reconstructed functional outcome plus where
/// it ran.
#[derive(Debug)]
pub struct ShardSuccess {
    /// Functional outcome, bit-identical to a local `detect_with_plan`.
    pub outcome: DetectionOutcome,
    /// Index of the worker that served it.
    pub worker: usize,
    /// Whether the worker answered from its result cache.
    pub cached: bool,
}

/// The pool: workers plus the affinity ring.
#[derive(Debug)]
pub struct WorkerPool {
    workers: Vec<Worker>,
    ring: HashRing,
    /// Per-shard completion deadline once dispatched.
    pub shard_timeout: Duration,
}

impl WorkerPool {
    /// A pool over `addrs`, all initially presumed healthy (the first
    /// probe or dispatch corrects optimism).
    pub fn new(addrs: Vec<String>, io_timeout: Duration, shard_timeout: Duration) -> Self {
        let workers = addrs
            .into_iter()
            .map(|addr| Worker {
                client: WorkerClient::new(addr.clone(), io_timeout),
                addr,
                healthy: AtomicBool::new(true),
                id: Mutex::new(String::new()),
            })
            .collect::<Vec<_>>();
        let ring = HashRing::new(workers.len());
        WorkerPool { workers, ring, shard_timeout }
    }

    /// The workers, in configuration order.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Probes every worker's `/healthz`, updating health flags and
    /// recorded identities. Returns the healthy count.
    pub fn probe_all(&self) -> usize {
        let mut healthy = 0usize;
        for worker in &self.workers {
            match worker.client.get("/healthz") {
                Ok(r) if r.status == 200 => {
                    worker.healthy.store(true, Ordering::SeqCst);
                    healthy += 1;
                    if let Ok(v) = omega_obs::parse_json(&r.body) {
                        if let Some(id) = v.get("worker_id").and_then(JsonValue::as_str) {
                            *worker.id.lock().unwrap_or_else(|p| p.into_inner()) = id.to_string();
                        }
                    }
                }
                _ => worker.healthy.store(false, Ordering::SeqCst),
            }
        }
        omega_obs::gauge!("cluster.workers_healthy").set(healthy as i64);
        healthy
    }

    /// Dispatch order for a shard: healthy workers in ring order from
    /// the affinity key, then unhealthy ones (a last resort that doubles
    /// as passive recovery when the prober lags a worker's restart).
    pub fn dispatch_order(&self, affinity: u64) -> Vec<usize> {
        let ring_order = self.ring.order(affinity);
        let mut order: Vec<usize> = ring_order
            .iter()
            .copied()
            .filter(|&w| self.workers[w].healthy.load(Ordering::SeqCst))
            .collect();
        order.extend(
            ring_order.iter().copied().filter(|&w| !self.workers[w].healthy.load(Ordering::SeqCst)),
        );
        order
    }

    /// Runs one shard to completion somewhere in the pool. `body` is the
    /// ready-to-send sub-request JSON for the grid slice `spec`.
    pub fn run_shard(
        &self,
        spec: &ShardSpec,
        affinity: u64,
        body: &str,
    ) -> Result<ShardSuccess, ShardError> {
        let order = self.dispatch_order(affinity);
        let mut min_retry: Option<u64> = None;
        let mut last_failure = String::from("no workers configured");
        for (attempt, worker_index) in order.iter().copied().enumerate() {
            let worker = &self.workers[worker_index];
            omega_obs::counter!("cluster.shards_dispatched").inc();
            let started = Instant::now();
            match try_worker(worker, spec, body, self.shard_timeout) {
                Ok((outcome, cached)) => {
                    omega_obs::histogram!("cluster.shard_ns")
                        .record(started.elapsed().as_nanos() as u64);
                    worker.healthy.store(true, Ordering::SeqCst);
                    if attempt > 0 {
                        omega_obs::counter!("cluster.failovers").inc();
                    }
                    return Ok(ShardSuccess { outcome, worker: worker_index, cached });
                }
                Err(Attempt::Busy { retry_after }) => {
                    // Load shedding, not sickness: leave health alone and
                    // try the next worker in ring order.
                    omega_obs::counter!("cluster.retries").inc();
                    min_retry = Some(min_retry.map_or(retry_after, |m: u64| m.min(retry_after)));
                }
                Err(Attempt::Failed(why)) => {
                    omega_obs::counter!("cluster.worker_failures").inc();
                    worker.healthy.store(false, Ordering::SeqCst);
                    last_failure = format!("worker {}: {why}", worker.addr);
                }
            }
        }
        match min_retry {
            Some(retry_after) => Err(ShardError::AllBusy { retry_after }),
            None => Err(ShardError::NoWorkers(last_failure)),
        }
    }
}

/// One worker attempt's failure modes.
enum Attempt {
    /// 429 + `Retry-After`.
    Busy { retry_after: u64 },
    /// Anything that means "this worker cannot finish this shard now".
    Failed(String),
}

fn try_worker(
    worker: &Worker,
    spec: &ShardSpec,
    body: &str,
    timeout: Duration,
) -> Result<(DetectionOutcome, bool), Attempt> {
    let response = worker.client.post("/scan", body).map_err(Attempt::Failed)?;
    let (outcome, cached) = match response.status {
        // Completed inline (result-cache hit on the worker).
        200 => outcome_from_job_json(&response.body)
            .ok_or_else(|| Attempt::Failed("unparseable 200 job body".into()))?,
        202 => {
            let v = omega_obs::parse_json(&response.body)
                .map_err(|e| Attempt::Failed(format!("unparseable 202 body: {e}")))?;
            let job = v
                .get("job")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| Attempt::Failed("202 body without a job id".into()))?;
            let body =
                worker.client.wait_job(job, Instant::now() + timeout).map_err(Attempt::Failed)?;
            outcome_from_job_json(&body).ok_or_else(|| Attempt::Failed(job_failure(&body)))?
        }
        429 => return Err(Attempt::Busy { retry_after: response.retry_after.unwrap_or(1) }),
        other => return Err(Attempt::Failed(format!("status {other}: {:.200}", response.body))),
    };
    if !holds_shard_positions(&outcome, spec) {
        omega_obs::counter!("cluster.invalid_shard_results").inc();
        return Err(Attempt::Failed(format!(
            "result does not hold grid positions {}..{} of the shard",
            spec.lo, spec.hi
        )));
    }
    Ok((outcome, cached))
}

/// `true` when `outcome` holds exactly one result per grid index of
/// `spec`, in order, each at the global position that index places.
fn holds_shard_positions(outcome: &DetectionOutcome, spec: &ShardSpec) -> bool {
    outcome.results.len() == spec.hi - spec.lo
        && outcome
            .results
            .iter()
            .zip(spec.lo..spec.hi)
            .all(|(r, i)| r.pos_bp == grid_position_bp(spec.first_bp, spec.last_bp, spec.grid, i))
}

/// Why a terminal job body holds no usable result: the `error` of a
/// failed/expired job, or a done job whose result does not parse.
fn job_failure(body: &str) -> String {
    let v = omega_obs::parse_json(body).ok();
    match v.as_ref().and_then(|v| v.get("error")).and_then(JsonValue::as_str) {
        Some(why) => why.to_string(),
        None => "job finished without a parseable result".to_string(),
    }
}

/// Rebuilds a [`DetectionOutcome`] from a worker's job JSON. Functional
/// fields come back exactly (`omega` via its `f32` bits); timing comes
/// from the job's `timing` member when present (absent for cached
/// results, which cost the worker no detector time). Returns the
/// outcome and whether it was served from the worker's cache.
pub fn outcome_from_job_json(body: &str) -> Option<(DetectionOutcome, bool)> {
    let v = omega_obs::parse_json(body).ok()?;
    let cached = matches!(v.get("cached"), Some(JsonValue::Bool(true)));
    let result = v.get("result")?;
    let backend = result.get("backend")?.as_str()?.to_string();
    let replicates = result.get("replicates")?.as_array()?;
    // Shard jobs carry exactly one replicate by protocol.
    if replicates.len() != 1 {
        return None;
    }
    let rep = &replicates[0];
    let mut results = Vec::new();
    for p in rep.get("positions")?.as_array()? {
        results.push(omega_core::PositionResult {
            pos_bp: p.get("pos_bp")?.as_u64()?,
            omega: f32::from_bits(p.get("omega_bits")?.as_u64()? as u32),
            left_bp: p.get("left_bp")?.as_u64()?,
            right_bp: p.get("right_bp")?.as_u64()?,
            n_combinations: p.get("n_combinations")?.as_u64()?,
        });
    }
    let s = rep.get("stats")?;
    let stats = ScanStats {
        positions: results.len(),
        scorable_positions: s.get("scorable_positions")?.as_u64()? as usize,
        omega_evaluations: s.get("omega_evaluations")?.as_u64()?,
        r2_pairs: s.get("r2_pairs")?.as_u64()?,
        ..ScanStats::default()
    };
    let timing = v.get("timing");
    let t = |name: &str| -> f64 {
        timing.and_then(|t| t.get(name)).and_then(JsonValue::as_f64).unwrap_or(0.0)
    };
    Some((
        DetectionOutcome {
            backend,
            results,
            ld_seconds: t("ld_seconds"),
            omega_seconds: t("omega_seconds"),
            other_seconds: t("other_seconds"),
            overlap_hidden_seconds: t("overlap_hidden_seconds"),
            transfer_seconds: t("transfer_seconds"),
            stats,
        },
        cached,
    ))
}
