//! The coordinator daemon: scatter-gather scan serving over a pool of
//! `omega-serve` workers.
//!
//! `POST /scan` takes exactly the single-node scan request shape. The
//! coordinator parses and validates it once, then, per replicate:
//!
//! 1. **Partition** ([`omega_accel::partition`]): the global grid is
//!    range-cut into shards balanced by per-position ω-combination
//!    weight. Each shard ships the *union of its positions' windows*
//!    (`[pos−max_win, pos+max_win]` site spans), so every position's
//!    result is computable from the shipped sites alone — matrix reuse
//!    across positions is a cache, not a correctness dependency.
//! 2. **Scatter**: each shard becomes a `format:"sites"` sub-request
//!    (exact u64 coordinates — no fractional rescaling on the wire)
//!    carrying a `shard` member with the global grid geometry. Workers
//!    recompute the *same* grid positions from that geometry and
//!    evaluate them against the shipped slice. Routing is
//!    cache-affine ([`crate::ring`]); failures fail over in ring order
//!    ([`crate::dispatch`]).
//! 3. **Merge** ([`omega_accel::merge_outcomes`]): per-position results
//!    concatenate in grid order; aggregate `r2_pairs` is corrected by
//!    the partition's seam-loss accounting (`broken_reuse`), making the
//!    merged report *byte-identical* to a single-node scan's
//!    `result_json` — same bytes a lone `omega-serve` daemon would have
//!    answered.
//!
//! Admission pressure propagates: if every worker sheds a shard with
//! 429, the coordinator answers 429 with the smallest `Retry-After` it
//! saw. If a worker dies mid-scan, its shards re-dispatch to the ring
//! successor and the response is still byte-identical (the shard spec,
//! not the worker, defines the work).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use omega_accel::{
    merge_outcomes, partition, shard_grid_plan, slice_alignment, BatchOutcome, DetectionOutcome,
    SweepDetector,
};
use omega_genome::sites::write_sites;
use omega_genome::Alignment;
use omega_obs::JsonObject;
use omega_serve::http::{
    write_chunked_response, write_response, HttpConn, HttpError, Request, CHUNKED_THRESHOLD_BYTES,
};
use omega_serve::job::{make_backend, result_json, timing_json, ScanRequest};
use omega_serve::parse_scan_request;

use crate::dispatch::{ShardError, WorkerPool};
use crate::ring::affinity_key;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker `host:port` addresses (`-workers a,b,c`).
    pub workers: Vec<String>,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Per-IO-operation timeout on worker connections, milliseconds.
    pub io_timeout_ms: u64,
    /// Per-shard completion deadline once dispatched, milliseconds.
    /// Expiry triggers failover to the next worker in ring order.
    pub shard_timeout_ms: u64,
    /// Worker `/healthz` probe cadence, milliseconds (0 disables the
    /// prober; dispatch failures still mark workers unhealthy).
    pub health_interval_ms: u64,
    /// Shards per replicate (0 = one per worker).
    pub shards_per_scan: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            addr: "127.0.0.1:7474".to_string(),
            workers: Vec::new(),
            max_body_bytes: 8 << 20,
            io_timeout_ms: 10_000,
            shard_timeout_ms: 10_000,
            health_interval_ms: 500,
            shards_per_scan: 0,
        }
    }
}

/// Touches every cluster instrument once so `/stats` always lists the
/// full inventory.
pub fn register_instruments() {
    omega_obs::counter!("cluster.conn_retries").add(0);
    omega_obs::counter!("cluster.failovers").add(0);
    omega_obs::counter!("cluster.invalid_shard_results").add(0);
    omega_obs::counter!("cluster.local_shards").add(0);
    omega_obs::counter!("cluster.rejected").add(0);
    omega_obs::counter!("cluster.requests").add(0);
    omega_obs::counter!("cluster.requests_failed").add(0);
    omega_obs::counter!("cluster.retries").add(0);
    omega_obs::counter!("cluster.shards_dispatched").add(0);
    omega_obs::counter!("cluster.worker_failures").add(0);
    omega_obs::gauge!("cluster.workers_healthy").set(0);
    let _ = omega_obs::histogram!("cluster.merge_ns");
    let _ = omega_obs::histogram!("cluster.partition_ns");
    let _ = omega_obs::histogram!("cluster.request_ns");
    let _ = omega_obs::histogram!("cluster.shard_ns");
}

struct Shared {
    pool: WorkerPool,
    config: ClusterConfig,
    shutting_down: AtomicBool,
    started: Instant,
    /// Coordinator-local response-id ticket (`c<n>`), purely
    /// informational — the value is the entire message.
    next: AtomicU64,
}

struct Response {
    status: u16,
    reason: &'static str,
    headers: Vec<(&'static str, String)>,
    body: String,
}

impl Response {
    fn json(status: u16, reason: &'static str, body: String) -> Response {
        Response { status, reason, headers: Vec::new(), body }
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Response {
        Response::json(status, reason, JsonObject::new().string("error", message).finish())
    }
}

/// One shard's worth of scatter work for one replicate.
struct ShardJob {
    /// The grid slice the worker must return.
    spec: omega_accel::ShardSpec,
    /// Sub-request JSON, ready to send.
    body: String,
    /// Affinity key over (payload digest, grid slice).
    affinity: u64,
}

/// Builds a shard sub-request body. Exact-coordinate `sites` payload +
/// the global shard geometry; backend/device/overlap mirror the parent
/// request (auto routing was already resolved at parse time, so the
/// merged backend label is byte-identical to a single-node run).
fn shard_body(
    request: &ScanRequest,
    slice: &Alignment,
    spec: &omega_accel::ShardSpec,
) -> Result<String, String> {
    let mut payload = Vec::new();
    write_sites(&mut payload, std::slice::from_ref(slice)).map_err(|e| e.to_string())?;
    let payload = String::from_utf8(payload).map_err(|e| e.to_string())?;
    let params = JsonObject::new()
        .u64("grid", request.params.grid as u64)
        .u64("min_win", request.params.min_win)
        .u64("max_win", request.params.max_win)
        .u64("min_snps", request.params.min_snps_per_side as u64)
        .finish();
    let shard = JsonObject::new()
        .u64("first_bp", spec.first_bp)
        .u64("last_bp", spec.last_bp)
        .u64("grid", spec.grid as u64)
        .u64("lo", spec.lo as u64)
        .u64("hi", spec.hi as u64)
        .finish();
    Ok(JsonObject::new()
        .string("format", "sites")
        .string("payload", &payload)
        .raw("params", &params)
        .string("backend", request.kind.as_str())
        .string("device", &request.device)
        .string(
            "overlap",
            match request.overlap {
                omega_accel::OverlapMode::DoubleBuffered => "on",
                omega_accel::OverlapMode::Serialized => "off",
            },
        )
        .string("cache", if request.cache_bypass { "bypass" } else { "use" })
        .raw("shard", &shard)
        .finish())
}

/// Scatter-gathers one parsed request across the pool and merges the
/// report. Returns the routed response.
fn handle_scan(shared: &Shared, http_request: &Request) -> Response {
    let request_started = Instant::now();
    omega_obs::counter!("cluster.requests").inc();
    let text = match std::str::from_utf8(&http_request.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "Bad Request", "body is not UTF-8"),
    };
    let request = match parse_scan_request(text) {
        Ok(r) => r,
        Err(e) => return Response::error(400, "Bad Request", &e.to_string()),
    };
    if request.shard.is_some() {
        return Response::error(
            400,
            "Bad Request",
            "the coordinator shards requests itself; \"shard\" is a worker-facing field",
        );
    }

    let n_shards = if shared.config.shards_per_scan > 0 {
        shared.config.shards_per_scan
    } else {
        shared.pool.workers().len().max(1)
    };

    // Partition every replicate up front; remote jobs scatter together
    // so shards of different replicates overlap on the pool.
    let partition_started = Instant::now();
    let mut plans = Vec::with_capacity(request.alignments.len());
    let mut remote: Vec<ShardJob> = Vec::new();
    // (replicate, shard) -> either an index into the remote results or
    // a locally computed outcome.
    enum Slot {
        Remote(usize),
        Local(DetectionOutcome),
    }
    let mut detector: Option<SweepDetector> = None;
    let obtain_detector = |slot: &mut Option<SweepDetector>| -> Result<(), String> {
        if slot.is_none() {
            let backend = make_backend(request.kind, &request.device).map_err(|e| e.to_string())?;
            let det = SweepDetector::new(request.params, backend)
                .map(|d| d.with_overlap(request.overlap))
                .map_err(|e| e.to_string())?;
            *slot = Some(det);
        }
        Ok(())
    };
    let mut local_shards = 0u64;
    for alignment in &request.alignments {
        match partition(alignment, &request.params, n_shards) {
            Some(part) => {
                let mut slots = Vec::with_capacity(part.shards.len());
                for (i, shard) in part.shards.iter().enumerate() {
                    let spec = part.spec(i);
                    let slice = slice_alignment(alignment, shard.site_lo, shard.site_hi);
                    if slice.n_sites() == 0 {
                        // A siteless slice cannot ship (workers reject
                        // empty payloads); its positions are all
                        // unscorable, so score them locally — the same
                        // plan a worker would have computed.
                        if let Err(e) = obtain_detector(&mut detector) {
                            return Response::error(500, "Internal Server Error", &e);
                        }
                        let Some(det) = detector.as_ref() else {
                            return Response::error(500, "Internal Server Error", "no detector");
                        };
                        let Some(plan) = shard_grid_plan(&slice, &spec, &request.params) else {
                            return Response::error(
                                500,
                                "Internal Server Error",
                                "internal: partition produced an invalid shard spec",
                            );
                        };
                        local_shards += 1;
                        slots.push(Slot::Local(det.detect_with_plan(&slice, &plan)));
                        continue;
                    }
                    let body = match shard_body(&request, &slice, &spec) {
                        Ok(b) => b,
                        Err(e) => return Response::error(500, "Internal Server Error", &e),
                    };
                    let affinity = affinity_key(request.payload_digest, spec.lo, spec.hi);
                    slots.push(Slot::Remote(remote.len()));
                    remote.push(ShardJob { spec, body, affinity });
                }
                plans.push((Some(part), slots));
            }
            None => {
                // Degenerate replicate (no sites / empty grid): run it
                // whole, locally — exactly the single-node path.
                if let Err(e) = obtain_detector(&mut detector) {
                    return Response::error(500, "Internal Server Error", &e);
                }
                let Some(det) = detector.as_ref() else {
                    return Response::error(500, "Internal Server Error", "no detector");
                };
                local_shards += 1;
                plans.push((None, vec![Slot::Local(det.detect(alignment))]));
            }
        }
    }
    if local_shards > 0 {
        omega_obs::counter!("cluster.local_shards").add(local_shards);
    }
    omega_obs::histogram!("cluster.partition_ns")
        .record(partition_started.elapsed().as_nanos() as u64);

    // Scatter: every remote shard dispatches concurrently; each thread
    // owns its shard through retries and failover.
    let pool = &shared.pool;
    let results: Vec<Result<crate::dispatch::ShardSuccess, ShardError>> = std::thread::scope(|s| {
        let handles: Vec<_> = remote
            .iter()
            .map(|job| s.spawn(move || pool.run_shard(&job.spec, job.affinity, &job.body)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(ShardError::NoWorkers("shard dispatch thread panicked".into()))
                })
            })
            .collect()
    });

    // Gather failures: a dead-end shard fails the request (503); pure
    // back-pressure propagates as 429 with the smallest Retry-After.
    let mut all_busy: Option<u64> = None;
    for result in &results {
        match result {
            Err(ShardError::NoWorkers(why)) => {
                omega_obs::counter!("cluster.requests_failed").inc();
                return Response::error(
                    503,
                    "Service Unavailable",
                    &format!("shard could not run on any worker: {why}"),
                );
            }
            Err(ShardError::AllBusy { retry_after }) => {
                all_busy = Some(all_busy.map_or(*retry_after, |m: u64| m.min(*retry_after)));
            }
            Ok(_) => {}
        }
    }
    if let Some(retry_after) = all_busy {
        omega_obs::counter!("cluster.rejected").inc();
        let retry = retry_after.max(1);
        let body = JsonObject::new()
            .string("error", "all workers are at capacity")
            .u64("retry_after_secs", retry)
            .finish();
        return Response {
            status: 429,
            reason: "Too Many Requests",
            headers: vec![("Retry-After", retry.to_string())],
            body,
        };
    }
    let mut successes: Vec<Option<crate::dispatch::ShardSuccess>> =
        results.into_iter().map(|r| r.ok()).collect();

    // Merge, replicate by replicate, in shard order.
    let merge_started = Instant::now();
    let mut merged_replicates = Vec::with_capacity(plans.len());
    let mut makespan_seconds = 0.0f64;
    let mut sum_seconds = 0.0f64;
    let mut shard_count = 0u64;
    let mut cached_shards = 0u64;
    for (part, slots) in plans {
        let mut outcomes = Vec::with_capacity(slots.len());
        for slot in slots {
            let outcome = match slot {
                Slot::Local(outcome) => outcome,
                Slot::Remote(index) => match successes[index].take() {
                    Some(success) => {
                        if success.cached {
                            cached_shards += 1;
                        }
                        success.outcome
                    }
                    None => {
                        return Response::error(
                            500,
                            "Internal Server Error",
                            "internal: shard result missing after gather",
                        )
                    }
                },
            };
            shard_count += 1;
            let seconds = outcome.total_seconds();
            // Cluster makespan: shards run on distinct workers, so the
            // request's modelled wall time is the slowest shard, not
            // the sum. The ratio sum/makespan is the scatter speedup.
            makespan_seconds = makespan_seconds.max(seconds);
            sum_seconds += seconds;
            outcomes.push(outcome);
        }
        let broken = part.as_ref().map_or(0, |p| p.broken_reuse);
        match merge_outcomes(outcomes, broken) {
            Some(merged) => merged_replicates.push(merged),
            None => {
                return Response::error(
                    500,
                    "Internal Server Error",
                    "internal: replicate merged to nothing",
                )
            }
        }
    }
    let batch = BatchOutcome::from_replicates(request.backend_label.clone(), merged_replicates);
    let result = result_json(&batch);
    let timing = timing_json(&batch);
    omega_obs::histogram!("cluster.merge_ns").record(merge_started.elapsed().as_nanos() as u64);

    let id = shared.next.fetch_add(1, Ordering::Relaxed) + 1;
    let cluster = JsonObject::new()
        .u64("workers", shared.pool.workers().len() as u64)
        .u64("shards", shard_count)
        .u64("local_shards", local_shards)
        .u64("cached_shards", cached_shards)
        .f64("makespan_seconds", makespan_seconds)
        .f64("sum_seconds", sum_seconds)
        .finish();
    let body = JsonObject::new()
        .string("job", &format!("c{id}"))
        .string("state", "done")
        .string("backend", request.kind.as_str())
        .raw("result", &result)
        .raw("timing", &timing)
        .raw("cluster", &cluster)
        .finish();
    omega_obs::histogram!("cluster.request_ns").record(request_started.elapsed().as_nanos() as u64);
    Response::json(200, "OK", body)
}

/// Renders `/healthz`: coordinator liveness plus the per-worker view.
fn healthz_json(shared: &Shared) -> String {
    let mut workers = String::from("[");
    for (i, worker) in shared.pool.workers().iter().enumerate() {
        if i > 0 {
            workers.push(',');
        }
        let id = worker.id.lock().unwrap_or_else(|p| p.into_inner()).clone();
        let entry = JsonObject::new()
            .string("addr", &worker.addr)
            .string("worker_id", &id)
            .raw("healthy", if worker.healthy.load(Ordering::SeqCst) { "true" } else { "false" })
            .finish();
        workers.push_str(&entry);
    }
    workers.push(']');
    JsonObject::new()
        .string("status", "ok")
        .string("role", "coordinator")
        .u64("uptime_secs", shared.started.elapsed().as_secs())
        .raw("workers", &workers)
        .finish()
}

/// Renders `/stats`: the cluster slice of the metrics registry.
fn stats_json() -> String {
    let snap = omega_obs::snapshot();
    let mut counters = JsonObject::new();
    for (name, v) in snap.counters.iter().filter(|(n, _)| n.starts_with("cluster.")) {
        counters = counters.u64(name, *v);
    }
    let mut gauges = JsonObject::new();
    for (name, v) in snap.gauges.iter().filter(|(n, _)| n.starts_with("cluster.")) {
        gauges = gauges.raw(name, &v.to_string());
    }
    let mut histograms = JsonObject::new();
    for (name, h) in snap.histograms.iter().filter(|(n, _)| n.starts_with("cluster.")) {
        let entry = JsonObject::new()
            .u64("count", h.count())
            .u64("sum", h.sum)
            .f64("mean", h.mean())
            .u64("p50", h.percentile(50.0))
            .u64("p99", h.percentile(99.0))
            .finish();
        histograms = histograms.raw(name, &entry);
    }
    JsonObject::new()
        .raw("counters", &counters.finish())
        .raw("gauges", &gauges.finish())
        .raw("histograms", &histograms.finish())
        .finish()
}

fn route(shared: &Shared, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "OK", healthz_json(shared)),
        ("GET", "/stats") => Response::json(200, "OK", stats_json()),
        ("POST", "/scan") => handle_scan(shared, request),
        ("POST" | "GET", _) => Response::error(404, "Not Found", "unknown path"),
        _ => Response::error(405, "Method Not Allowed", "only GET and POST are supported"),
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    let mut conn = HttpConn::new(stream);
    loop {
        match conn.read_request(shared.config.max_body_bytes) {
            Ok(Some(request)) => {
                let keep_alive = request.keep_alive && !shared.shutting_down.load(Ordering::SeqCst);
                let response = route(shared, &request);
                let use_chunked = request.http11 && response.body.len() >= CHUNKED_THRESHOLD_BYTES;
                let written = if use_chunked {
                    write_chunked_response(
                        conn.stream_mut(),
                        response.status,
                        response.reason,
                        "application/json",
                        &response.headers,
                        &response.body,
                        keep_alive,
                    )
                } else {
                    write_response(
                        conn.stream_mut(),
                        response.status,
                        response.reason,
                        "application/json",
                        &response.headers,
                        &response.body,
                        keep_alive,
                    )
                };
                if written.is_err() || !keep_alive {
                    return;
                }
            }
            Ok(None) => return,
            Err(e @ HttpError::Io(_)) => {
                let _ = e;
                return;
            }
            Err(e) => {
                let (status, reason) = e.status();
                let _ = write_response(
                    conn.stream_mut(),
                    status,
                    reason,
                    "application/json",
                    &[],
                    &JsonObject::new().string("error", &e.detail()).finish(),
                    false,
                );
                return;
            }
        }
    }
}

/// A running coordinator.
pub struct ClusterHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl ClusterHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, joins the prober and acceptor.
    pub fn shutdown(mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Blocks on the accept loop (daemon mode).
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Boots the coordinator: binds, probes the workers once (so the first
/// request routes on real health), spawns the prober and acceptor.
pub fn start(config: ClusterConfig) -> io::Result<ClusterHandle> {
    if config.workers.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "no workers configured"));
    }
    register_instruments();
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let pool = WorkerPool::new(
        config.workers.clone(),
        Duration::from_millis(config.io_timeout_ms.max(1)),
        Duration::from_millis(config.shard_timeout_ms.max(1)),
    );
    pool.probe_all();
    let shared = Arc::new(Shared {
        pool,
        config: config.clone(),
        shutting_down: AtomicBool::new(false),
        started: Instant::now(),
        next: AtomicU64::new(0),
    });

    let prober = if config.health_interval_ms > 0 {
        let shared = Arc::clone(&shared);
        Some(std::thread::Builder::new().name("cluster-health".to_string()).spawn(move || {
            let interval = Duration::from_millis(shared.config.health_interval_ms);
            while !shared.shutting_down.load(Ordering::SeqCst) {
                std::thread::sleep(interval);
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                shared.pool.probe_all();
            }
        })?)
    } else {
        None
    };

    let acceptor_shared = Arc::clone(&shared);
    let acceptor =
        std::thread::Builder::new().name("cluster-accept".to_string()).spawn(move || {
            for stream in listener.incoming() {
                if acceptor_shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        let shared = Arc::clone(&acceptor_shared);
                        let spawned = std::thread::Builder::new()
                            .name("cluster-conn".to_string())
                            .spawn(move || handle_connection(&shared, stream));
                        if spawned.is_err() {
                            continue;
                        }
                    }
                    Err(_) => continue,
                }
            }
        })?;

    Ok(ClusterHandle { addr, shared, acceptor: Some(acceptor), prober })
}
