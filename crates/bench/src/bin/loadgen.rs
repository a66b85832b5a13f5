//! `loadgen` — closed-loop load generator for the omega-serve daemon,
//! writing latency percentiles and throughput to `BENCH_serve.json`
//! (schema documented in DESIGN.md).
//!
//! Boots an in-process daemon on an ephemeral port (so the run is
//! hermetic and the metrics registry belongs to this process alone) and
//! drives it in two phases:
//!
//! 1. **Fill**: `DISTINCT` clients concurrently submit distinct ms
//!    payloads and poll each job to completion — every submission is a
//!    cache miss and the concurrent arrivals exercise the batching
//!    scheduler.
//! 2. **Replay**: `CLIENTS` threads each issue `REQUESTS_PER_CLIENT`
//!    requests round-robining over the phase-1 payloads — every request
//!    is a cache hit served inline.
//!
//! With `--trace-audit` the run additionally exercises the telemetry
//! plane: the fill phase is traced (`X-Omega-Trace` headers), the
//! replay runs `AUDIT_ROUNDS` *mixed* rounds in which every client
//! alternates untraced and traced requests, every recorded span tree is
//! pulled back through `GET /traces` + `GET /traces/<id>` and verified
//! well-formed client-side, `GET /metrics` must parse as Prometheus
//! text exposition, and tracing overhead must stay within
//! `MAX_TRACING_OVERHEAD`. The overhead gate is *paired*: because both
//! populations interleave request-by-request inside the same wall-clock
//! window, host noise (scheduler jitter, frequency drift) hits them
//! equally, and the ratio of their median latencies isolates the cost
//! of the traced path itself. Throughput at fixed concurrency is
//! inverse latency, so each side's rps is derived as
//! `clients / median_latency` and the gate keeps traced rps within 5%
//! of untraced.
//!
//! Exit status enforces the *deterministic* fields only — zero
//! transport or HTTP errors and exact cache hit/miss counts — plus, in
//! audit mode, the span-tree/exposition checks and the overhead gate.
//! Plain latency and throughput are reported but never gated.
//!
//! With `--persist-audit` the run instead measures the durability
//! layer's hot-path cost: two daemons (one with a `-data-dir`, one
//! in-memory) serve alternating replay rounds from the same clients,
//! and persistence-on throughput must stay within
//! `MAX_PERSIST_OVERHEAD` of persistence-off. The persist daemon is
//! then restarted on its data dir and must answer every payload as an
//! inline warm-cache hit.
//!
//! With `--cluster` the run instead exercises the scatter-gather layer:
//! three in-process `omega-serve` workers boot behind an
//! `omega-cluster` coordinator, the fill phase warms the workers'
//! affinity-routed caches, and the replay phase drives cache-bypassing
//! requests (so every shard recomputes) through the coordinator and a
//! one-worker baseline coordinator. Each response's `cluster` record
//! carries the scatter's modelled wall time — `makespan_seconds`, the
//! slowest shard's compute — and the gate requires the three-worker
//! modelled replay time to beat the one-worker baseline by
//! `MIN_CLUSTER_SPEEDUP`. A warm non-bypass round then re-requests every
//! fill payload and reports how many shards came back from worker
//! caches (the affinity evidence).
//!
//! Every mode honors worker back-pressure: a 429 response's
//! `Retry-After` is slept (bounded) and the request retried exactly
//! once instead of counting as an error; the `retries` record in the
//! output says how often that path fired and recovered.
//!
//! Each client thread talks through its own `omega_serve::client`
//! `WorkerClient`, which holds one keep-alive connection; every output
//! includes a `connection_reuse` record (requests, connections opened,
//! reuse fraction).
//!
//! Usage: `loadgen [OUT.json] [-clients N] [--trace-audit | --persist-audit | --cluster]`

use std::cell::RefCell;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use omega_serve::client::{ClientResponse, WorkerClient};
use omega_serve::{ServeConfig, ServeHandle};

const DISTINCT: usize = 6;
const DEFAULT_CLIENTS: usize = 16;
const REQUESTS_PER_CLIENT: usize = 8;
/// Mixed replay rounds in audit mode; each pools more paired samples
/// into the latency medians.
const AUDIT_ROUNDS: usize = 3;
/// Requests per client per audit-mode replay round (alternating
/// untraced/traced, so each side gets half). Larger than the plain
/// replay so the medians have enough samples to be stable.
const AUDIT_REQUESTS_PER_CLIENT: usize = 32;
/// Audit-mode floor on traced/untraced replay throughput, where each
/// side's throughput is derived from its median paired latency.
const MAX_TRACING_OVERHEAD: f64 = 0.05;
/// Audit-mode minimum number of verified span trees.
const MIN_AUDITED_TRACES: usize = 100;
/// Paired rounds in `--persist-audit` mode.
const PERSIST_ROUNDS: usize = 3;
/// Replay requests per client per persist-audit round (per daemon).
const PERSIST_REQUESTS_PER_CLIENT: usize = 32;
/// Ceiling on the WAL/store hot-path cost: replay throughput with
/// persistence on must stay within this fraction of `-no-persist`.
const MAX_PERSIST_OVERHEAD: f64 = 0.05;
/// Workers behind the coordinator in `--cluster` mode.
const CLUSTER_WORKERS: usize = 3;
/// Replay requests per client per coordinator in `--cluster` mode.
const CLUSTER_REQUESTS_PER_CLIENT: usize = 6;
/// `--cluster` floor on modelled replay speedup over one worker
/// (near-linear for three workers).
const MIN_CLUSTER_SPEEDUP: f64 = 2.2;
/// Ceiling on one honored `Retry-After` backoff sleep.
const MAX_RETRY_BACKOFF_MS: u64 = 500;

/// Deterministic ms-format payload `i`: a small LCG fills a replicate
/// with `i`-dependent sites so every payload digests differently.
fn payload_shaped(i: usize, n_samples: usize, n_sites: usize) -> String {
    let mut state = 0x9e37_79b9_u64.wrapping_add(i as u64);
    let mut next = || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut positions = String::new();
    for s in 0..n_sites {
        if s > 0 {
            positions.push(' ');
        }
        let frac = (s as f64 + 0.5) / n_sites as f64;
        positions.push_str(&format!("{frac:.6}"));
    }
    let mut out =
        format!("ms {n_samples} 1\n{i}\n\n//\nsegsites: {n_sites}\npositions: {positions}\n");
    for _ in 0..n_samples {
        for _ in 0..n_sites {
            out.push(if next() % 2 == 0 { '0' } else { '1' });
        }
        out.push('\n');
    }
    out
}

fn payload(i: usize) -> String {
    payload_shaped(i, 8, 12 + i)
}

fn scan_body(i: usize) -> String {
    format!("{{\"format\":\"ms\",\"payload\":{:?},\"params\":{{\"grid\":4}}}}", payload(i))
}

/// `--cluster` payload `i`: enough sites and grid positions that the
/// weight-balanced partitioner can cut three near-equal shards.
fn cluster_payload(i: usize) -> String {
    payload_shaped(i, 16, 64 + 4 * i)
}

/// Cluster bodies pin the GPU lane: its per-shard cost is the simulator's
/// *modelled* device time (deterministic in the workload shape), so the
/// speedup gate measures the partition balance rather than host
/// scheduling noise on a loaded runner.
fn cluster_scan_body(i: usize, bypass: bool) -> String {
    format!(
        "{{\"format\":\"ms\",\"payload\":{:?},\"params\":{{\"grid\":32}},\"backend\":\"gpu\",\"cache\":{:?}}}",
        cluster_payload(i),
        if bypass { "bypass" } else { "use" }
    )
}

/// A fresh client-side `X-Omega-Trace` header value (unique trace id,
/// no parent span).
fn client_trace_header() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    static BASE: OnceLock<u64> = OnceLock::new();
    let base = *BASE.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            | 1
    });
    let id = base.wrapping_add(SEQ.fetch_add(1, Ordering::Relaxed) << 1).max(1);
    format!("{id:016x}-{:016x}", 0u64)
}

/// Connections opened / requests completed, across all client threads:
/// the connection-reuse figures for `BENCH_serve.json`. A
/// connection-per-request client keeps these equal; the keep-alive
/// client amortises one connect over a whole thread's request stream.
static CONNECTS_OPENED: AtomicU64 = AtomicU64::new(0);
static REQUESTS_DONE: AtomicU64 = AtomicU64::new(0);

/// Per-IO timeout of every client, and the longest a fill job may take.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

thread_local! {
    /// Each client thread holds one keep-alive client (per address),
    /// mirroring how a real closed-loop client would drive the daemon.
    static CLIENT: RefCell<Option<WorkerClient>> = const { RefCell::new(None) };
}

/// Runs `op` on this thread's client for `addr` and adds the requests
/// and connects it made to the reuse record.
fn with_client<T>(addr: SocketAddr, op: impl FnOnce(&WorkerClient) -> T) -> T {
    CLIENT.with(|slot| {
        let mut slot = slot.borrow_mut();
        let addr = addr.to_string();
        if slot.as_ref().is_some_and(|c| c.addr() != addr) {
            *slot = None;
        }
        let client = slot.get_or_insert_with(|| WorkerClient::new(addr, IO_TIMEOUT));
        let (requests, connects) = (client.requests(), client.connections());
        let out = op(client);
        REQUESTS_DONE.fetch_add(client.requests() - requests, Ordering::Relaxed);
        CONNECTS_OPENED.fetch_add(client.connections() - connects, Ordering::Relaxed);
        out
    })
}

/// Honored 429s (slept + retried) and how many of those retries then
/// succeeded — the `retries` record in BENCH_serve.json.
static RETRIES_HONORED: AtomicU64 = AtomicU64::new(0);
static RETRIES_RECOVERED: AtomicU64 = AtomicU64::new(0);

fn post_scan_once(addr: SocketAddr, body: &str, traced: bool) -> Result<ClientResponse, String> {
    let trace = traced.then(client_trace_header);
    let headers: Vec<(&str, &str)> = trace.iter().map(|t| ("X-Omega-Trace", t.as_str())).collect();
    with_client(addr, |c| c.request("POST", "/scan", &headers, body))
}

/// POSTs a scan, honoring back-pressure: one 429 sleeps the daemon's
/// `Retry-After` (bounded by [`MAX_RETRY_BACKOFF_MS`]) and retries
/// exactly once; the retry's status is final either way.
fn post_scan(addr: SocketAddr, body: &str, traced: bool) -> Result<(u16, String), String> {
    let first = post_scan_once(addr, body, traced)?;
    if first.status != 429 {
        return Ok((first.status, first.body));
    }
    RETRIES_HONORED.fetch_add(1, Ordering::Relaxed);
    let backoff_ms = first.retry_after.unwrap_or(1).saturating_mul(1000).min(MAX_RETRY_BACKOFF_MS);
    std::thread::sleep(Duration::from_millis(backoff_ms));
    let retry = post_scan_once(addr, body, traced)?;
    if retry.status < 400 {
        RETRIES_RECOVERED.fetch_add(1, Ordering::Relaxed);
    }
    Ok((retry.status, retry.body))
}

fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    with_client(addr, |c| c.get(path)).map(|r| (r.status, r.body))
}

/// Submits payload `i` and waits for the job to finish. Returns
/// submit-to-done latency.
fn fill_one(addr: SocketAddr, i: usize, traced: bool) -> Result<Duration, String> {
    let t0 = Instant::now();
    let (status, body) = post_scan(addr, &scan_body(i), traced)?;
    if status != 202 {
        return Err(format!("fill expected 202, got {status}: {body}"));
    }
    let parsed = omega_obs::parse_json(&body).map_err(|e| e.to_string())?;
    let id =
        parsed.get("job").and_then(|v| v.as_str()).ok_or_else(|| format!("no job id in {body}"))?;
    let done = with_client(addr, |c| c.wait_job(id, t0 + IO_TIMEOUT))?;
    let parsed = omega_obs::parse_json(&done).map_err(|e| e.to_string())?;
    match parsed.get("state").and_then(|v| v.as_str()) {
        Some("done") => Ok(t0.elapsed()),
        other => Err(format!("job {id} reached {other:?}: {done}")),
    }
}

/// One replay request; must be an inline cache hit (200, state done).
fn replay_one(addr: std::net::SocketAddr, i: usize, traced: bool) -> Result<Duration, String> {
    let t0 = Instant::now();
    let (status, body) = post_scan(addr, &scan_body(i), traced)?;
    if status != 200 {
        return Err(format!("replay expected 200 (cache hit), got {status}: {body}"));
    }
    Ok(t0.elapsed())
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)]
}

struct PhaseResult {
    latencies_ns: Vec<u64>,
    errors: Vec<String>,
    wall: Duration,
}

impl PhaseResult {
    fn rps(&self, requests: usize) -> f64 {
        requests as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn run_phase<F>(n_threads: usize, per_thread: usize, work: F) -> PhaseResult
where
    F: Fn(usize, usize) -> Result<Duration, String> + Send + Sync + 'static,
{
    let work = Arc::new(work);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..n_threads)
        .map(|t| {
            let work = Arc::clone(&work);
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                let mut errs = Vec::new();
                for r in 0..per_thread {
                    match work(t, r) {
                        Ok(d) => lat.push(d.as_nanos() as u64),
                        Err(e) => errs.push(e),
                    }
                }
                (lat, errs)
            })
        })
        .collect();
    let mut latencies_ns = Vec::new();
    let mut errors = Vec::new();
    for h in handles {
        match h.join() {
            Ok((lat, errs)) => {
                latencies_ns.extend(lat);
                errors.extend(errs);
            }
            Err(_) => errors.push("client thread panicked".to_string()),
        }
    }
    latencies_ns.sort_unstable();
    PhaseResult { latencies_ns, errors, wall: t0.elapsed() }
}

/// One mixed audit round: per-request latencies split by whether the
/// request carried an `X-Omega-Trace` header.
struct AuditRound {
    untraced_ns: Vec<u64>,
    traced_ns: Vec<u64>,
    errors: Vec<String>,
    wall: Duration,
}

/// Runs one paired round: every client alternates untraced and traced
/// requests, so both populations share the same wall-clock window and
/// host conditions.
fn run_audit_round(addr: std::net::SocketAddr, clients: usize, per_client: usize) -> AuditRound {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|t| {
            std::thread::spawn(move || {
                let mut untraced = Vec::new();
                let mut traced = Vec::new();
                let mut errs = Vec::new();
                for r in 0..per_client {
                    let is_traced = r % 2 == 1;
                    match replay_one(addr, (t * per_client + r) % DISTINCT, is_traced) {
                        Ok(d) => {
                            let ns = d.as_nanos() as u64;
                            if is_traced {
                                traced.push(ns);
                            } else {
                                untraced.push(ns);
                            }
                        }
                        Err(e) => errs.push(e),
                    }
                }
                (untraced, traced, errs)
            })
        })
        .collect();
    let mut round = AuditRound {
        untraced_ns: Vec::new(),
        traced_ns: Vec::new(),
        errors: Vec::new(),
        wall: t0.elapsed(),
    };
    for h in handles {
        match h.join() {
            Ok((u, t, errs)) => {
                round.untraced_ns.extend(u);
                round.traced_ns.extend(t);
                round.errors.extend(errs);
            }
            Err(_) => round.errors.push("audit client thread panicked".to_string()),
        }
    }
    round.wall = t0.elapsed();
    round
}

fn median(sorted_ns: &[u64]) -> u64 {
    percentile(sorted_ns, 50.0)
}

fn phase_json(name: &str, requests: usize, r: &PhaseResult) -> String {
    let secs = r.wall.as_secs_f64();
    omega_obs::JsonObject::new()
        .string("phase", name)
        .u64("requests", requests as u64)
        .u64("errors", r.errors.len() as u64)
        .u64("p50_ns", percentile(&r.latencies_ns, 50.0))
        .u64("p95_ns", percentile(&r.latencies_ns, 95.0))
        .u64("p99_ns", percentile(&r.latencies_ns, 99.0))
        .f64("wall_seconds", secs)
        .f64("throughput_rps", if secs > 0.0 { requests as f64 / secs } else { 0.0 })
        .finish()
}

fn stat_counter(stats: &omega_obs::JsonValue, name: &str) -> u64 {
    stats.get("counters").and_then(|c| c.get(name)).and_then(|v| v.as_u64()).unwrap_or(0)
}

/// Client-side structural audit of one `GET /traces/<id>` body: unique
/// span ids, every parent chain reaches the root, and wall-kind
/// children sum to at most their parent's duration.
fn verify_trace_tree(v: &omega_obs::JsonValue) -> Result<(), String> {
    let root = v.get("root").ok_or("trace has no root span")?;
    let root_id = root.get("id").and_then(|x| x.as_u64()).ok_or("root span has no id")?;
    let root_dur = root.get("dur_ns").and_then(|x| x.as_u64()).ok_or("root span has no dur_ns")?;
    let spans = v.get("spans").and_then(|s| s.as_array()).ok_or("trace has no spans array")?;

    struct Span {
        id: u64,
        parent: u64,
        dur_ns: u64,
        wall: bool,
    }
    let mut parsed: Vec<Span> = Vec::with_capacity(spans.len());
    for s in spans {
        parsed.push(Span {
            id: s.get("id").and_then(|x| x.as_u64()).ok_or("span has no id")?,
            parent: s.get("parent").and_then(|x| x.as_u64()).ok_or("span has no parent")?,
            dur_ns: s.get("dur_ns").and_then(|x| x.as_u64()).ok_or("span has no dur_ns")?,
            wall: s.get("kind").and_then(|x| x.as_str()) == Some("wall"),
        });
    }

    let mut ids = vec![root_id];
    for s in &parsed {
        if ids.contains(&s.id) {
            return Err(format!("duplicate span id {}", s.id));
        }
        ids.push(s.id);
    }
    for s in &parsed {
        let mut at = s.id;
        let mut hops = 0;
        while at != root_id {
            at = match parsed.iter().find(|x| x.id == at) {
                Some(x) => x.parent,
                None => return Err(format!("span {} is orphaned", s.id)),
            };
            hops += 1;
            if hops > parsed.len() + 1 {
                return Err(format!("span {} parent chain cycles", s.id));
            }
        }
    }
    for &parent_id in &ids {
        let parent_dur = if parent_id == root_id {
            root_dur
        } else {
            match parsed.iter().find(|x| x.id == parent_id) {
                Some(x) if x.wall => x.dur_ns,
                _ => continue,
            }
        };
        let child_sum: u64 =
            parsed.iter().filter(|s| s.parent == parent_id && s.wall).map(|s| s.dur_ns).sum();
        if child_sum > parent_dur {
            return Err(format!(
                "wall children of span {parent_id} sum to {child_sum} ns > {parent_dur} ns"
            ));
        }
    }
    Ok(())
}

/// The `--trace-audit` verification pass: pulls every recorded trace,
/// verifies the trees, and parses the Prometheus exposition. Returns
/// (verified trace count, exposition sample count).
fn audit_telemetry(addr: std::net::SocketAddr) -> Result<(usize, usize), String> {
    let (status, index_body) = get(addr, "/traces")?;
    if status != 200 {
        return Err(format!("/traces returned {status}"));
    }
    let index = omega_obs::parse_json(&index_body).map_err(|e| format!("/traces: {e}"))?;
    let traces =
        index.get("traces").and_then(|t| t.as_array()).ok_or("/traces body has no traces array")?;

    let mut verified = 0usize;
    for summary in traces {
        let hex =
            summary.get("trace").and_then(|t| t.as_str()).ok_or("trace summary has no trace id")?;
        let (status, body) = get(addr, &format!("/traces/{hex}"))?;
        if status != 200 {
            return Err(format!("/traces/{hex} returned {status}"));
        }
        let tree = omega_obs::parse_json(&body).map_err(|e| format!("/traces/{hex}: {e}"))?;
        verify_trace_tree(&tree).map_err(|e| format!("trace {hex} malformed: {e}"))?;
        verified += 1;
    }

    let (status, metrics_body) = get(addr, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics returned {status}"));
    }
    let samples = omega_obs::parse_prometheus(&metrics_body)
        .map_err(|e| format!("/metrics does not parse: {e}"))?;
    if samples == 0 {
        return Err("/metrics exposition is empty".into());
    }
    Ok((verified, samples))
}

/// The `retries` record: how often a 429's `Retry-After` was honored
/// with a bounded backoff retry, and how often that retry succeeded.
fn retries_json() -> String {
    omega_obs::JsonObject::new()
        .u64("honored_429", RETRIES_HONORED.load(Ordering::Relaxed))
        .u64("recovered", RETRIES_RECOVERED.load(Ordering::Relaxed))
        .u64("max_backoff_ms", MAX_RETRY_BACKOFF_MS)
        .finish()
}

/// The `connection_reuse` record: how well the keep-alive client
/// amortised TCP connects over requests.
fn reuse_json() -> String {
    let requests = REQUESTS_DONE.load(Ordering::Relaxed);
    let connects = CONNECTS_OPENED.load(Ordering::Relaxed);
    let reuse = if requests > 0 { 1.0 - (connects as f64 / requests as f64).min(1.0) } else { 0.0 };
    omega_obs::JsonObject::new()
        .u64("requests", requests)
        .u64("connections", connects)
        .f64("reuse_fraction", reuse)
        .finish()
}

/// `--persist-audit`: measures the WAL/store hot-path cost with a
/// paired comparison. Two daemons boot in-process — one on a fresh
/// `-data-dir`, one fully in-memory — and the same clients replay
/// cache-hit traffic against both in alternating rounds, so host noise
/// hits both populations equally. The gate keeps persistence-on replay
/// throughput (derived from median latency at fixed concurrency)
/// within [`MAX_PERSIST_OVERHEAD`] of persistence-off. The persist
/// daemon is then restarted on the same data dir and must serve every
/// payload as an inline hit — the rehydration proof.
fn run_persist_audit(out_path: &str, clients: usize) -> Result<(), String> {
    let data_dir =
        std::env::temp_dir().join(format!("omega-loadgen-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let boot = |dir: Option<std::path::PathBuf>| -> Result<ServeHandle, String> {
        omega_serve::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: DISTINCT.max(clients) * 2,
            data_dir: dir,
            ..Default::default()
        })
        .map_err(|e| format!("cannot boot daemon: {e}"))
    };
    let persist = boot(Some(data_dir.clone()))?;
    let plain = boot(None)?;
    let (persist_addr, plain_addr) = (persist.addr(), plain.addr());

    println!("loadgen: persist audit — fill {DISTINCT} payloads on both daemons");
    let fill_a = run_phase(DISTINCT, 1, move |t, _| fill_one(persist_addr, t, false));
    let fill_b = run_phase(DISTINCT, 1, move |t, _| fill_one(plain_addr, t, false));
    let mut errors: Vec<String> = Vec::new();
    errors.extend(fill_a.errors.iter().cloned());
    errors.extend(fill_b.errors.iter().cloned());

    let per_client = PERSIST_REQUESTS_PER_CLIENT;
    let mut persist_ns: Vec<u64> = Vec::new();
    let mut plain_ns: Vec<u64> = Vec::new();
    for round in 0..PERSIST_ROUNDS {
        // Alternate which daemon goes first so drift cancels.
        let order: [(std::net::SocketAddr, bool); 2] = if round % 2 == 0 {
            [(persist_addr, true), (plain_addr, false)]
        } else {
            [(plain_addr, false), (persist_addr, true)]
        };
        for (addr, is_persist) in order {
            let r = run_phase(clients, per_client, move |t, r| {
                replay_one(addr, (t * per_client + r) % DISTINCT, false)
            });
            errors.extend(r.errors);
            if is_persist {
                persist_ns.extend(r.latencies_ns);
            } else {
                plain_ns.extend(r.latencies_ns);
            }
        }
    }
    persist_ns.sort_unstable();
    plain_ns.sort_unstable();
    let persist_med = median(&persist_ns);
    let plain_med = median(&plain_ns);
    let persist_rps = clients as f64 / (persist_med as f64 / 1e9).max(1e-9);
    let plain_rps = clients as f64 / (plain_med as f64 / 1e9).max(1e-9);
    println!(
        "loadgen: replay p50 — persist {:.3} ms ({persist_rps:.0} rps), \
         no-persist {:.3} ms ({plain_rps:.0} rps)",
        persist_med as f64 / 1e6,
        plain_med as f64 / 1e6
    );

    // Restart the persist daemon on the same data dir: every payload
    // must come back as an inline hit without a detector run.
    persist.shutdown();
    let reborn = boot(Some(data_dir.clone()))?;
    let reborn_addr = reborn.addr();
    let rehydrated = run_phase(1, DISTINCT, move |_, r| replay_one(reborn_addr, r, false));
    errors.extend(rehydrated.errors.iter().cloned());
    let warm_hits = rehydrated.latencies_ns.len();
    reborn.shutdown();
    plain.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);

    for e in errors.iter().take(5) {
        eprintln!("loadgen: error: {e}");
    }
    let overhead = if plain_rps > 0.0 { 1.0 - (persist_rps / plain_rps).min(1.0) } else { 0.0 };
    let json = omega_obs::JsonObject::new()
        .string("bench", "serve_loadgen_persist_audit")
        .u64("clients", clients as u64)
        .u64("distinct_payloads", DISTINCT as u64)
        .u64("rounds", PERSIST_ROUNDS as u64)
        .u64("requests_per_client", per_client as u64)
        .u64("persist_p50_ns", persist_med)
        .u64("no_persist_p50_ns", plain_med)
        .f64("persist_rps", persist_rps)
        .f64("no_persist_rps", plain_rps)
        .f64("overhead_fraction", overhead)
        .f64("max_overhead_fraction", MAX_PERSIST_OVERHEAD)
        .u64("warm_restart_hits", warm_hits as u64)
        .raw("connection_reuse", &reuse_json())
        .raw("retries", &retries_json())
        .u64("errors", errors.len() as u64)
        .finish();
    std::fs::write(out_path, format!("{json}\n"))
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {out_path}");

    if !errors.is_empty() {
        return Err(format!("{} request errors", errors.len()));
    }
    if warm_hits != DISTINCT {
        return Err(format!("warm restart served {warm_hits}/{DISTINCT} payloads as inline hits"));
    }
    if persist_rps < (1.0 - MAX_PERSIST_OVERHEAD) * plain_rps {
        return Err(format!(
            "persistence hot-path too slow: {persist_rps:.0} rps vs {plain_rps:.0} rps \
             no-persist (floor {:.0}%)",
            (1.0 - MAX_PERSIST_OVERHEAD) * 100.0
        ));
    }
    println!(
        "loadgen: persist audit ok — overhead {:.1}% (cap {:.0}%), {warm_hits} warm hits",
        overhead * 100.0,
        MAX_PERSIST_OVERHEAD * 100.0
    );
    Ok(())
}

/// Accumulated modelled scatter time across a phase's responses, in
/// integer nanoseconds so concurrent clients can add atomically.
#[derive(Default)]
struct ModelClock {
    makespan_ns: AtomicU64,
    sum_ns: AtomicU64,
}

impl ModelClock {
    fn add(&self, makespan_seconds: f64, sum_seconds: f64) {
        self.makespan_ns.fetch_add((makespan_seconds * 1e9) as u64, Ordering::Relaxed);
        self.sum_ns.fetch_add((sum_seconds * 1e9) as u64, Ordering::Relaxed);
    }

    fn makespan_seconds(&self) -> f64 {
        self.makespan_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn sum_seconds(&self) -> f64 {
        self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// One coordinator round-trip: must come back 200/done with a `cluster`
/// record, whose modelled times feed `clock` and whose shard cache
/// provenance feeds the counters.
fn cluster_scan_one(
    addr: std::net::SocketAddr,
    i: usize,
    bypass: bool,
    clock: &ModelClock,
    cached_shards: &AtomicU64,
    total_shards: &AtomicU64,
) -> Result<Duration, String> {
    let t0 = Instant::now();
    let (status, body) = post_scan(addr, &cluster_scan_body(i, bypass), false)?;
    if status != 200 {
        return Err(format!("cluster scan expected 200, got {status}: {body}"));
    }
    let parsed = omega_obs::parse_json(&body).map_err(|e| e.to_string())?;
    if parsed.get("state").and_then(|v| v.as_str()) != Some("done") {
        return Err(format!("cluster scan not done: {body}"));
    }
    let cluster = parsed.get("cluster").ok_or("response has no cluster record")?;
    let makespan = cluster.get("makespan_seconds").and_then(|v| v.as_f64()).unwrap_or(0.0);
    let sum = cluster.get("sum_seconds").and_then(|v| v.as_f64()).unwrap_or(0.0);
    clock.add(makespan, sum);
    cached_shards.fetch_add(
        cluster.get("cached_shards").and_then(|v| v.as_u64()).unwrap_or(0),
        Ordering::Relaxed,
    );
    total_shards
        .fetch_add(cluster.get("shards").and_then(|v| v.as_u64()).unwrap_or(0), Ordering::Relaxed);
    Ok(t0.elapsed())
}

/// `--cluster`: boots [`CLUSTER_WORKERS`] workers behind a coordinator
/// plus a one-worker baseline coordinator, replays cache-bypassing
/// traffic through both, and gates the modelled scatter speedup
/// (one-worker makespan over three-worker makespan, summed across the
/// replay) at [`MIN_CLUSTER_SPEEDUP`]. A warm non-bypass round reports
/// cache-affinity evidence: shards answered from worker caches.
fn run_cluster(out_path: &str, clients: usize) -> Result<(), String> {
    let boot_worker = |id: String| -> Result<ServeHandle, String> {
        omega_serve::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: (clients * CLUSTER_WORKERS * 4).max(64),
            worker_id: id,
            ..Default::default()
        })
        .map_err(|e| format!("cannot boot worker: {e}"))
    };
    let boot_coordinator = |workers: Vec<String>| -> Result<omega_cluster::ClusterHandle, String> {
        omega_cluster::start(omega_cluster::ClusterConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            ..Default::default()
        })
        .map_err(|e| format!("cannot boot coordinator: {e}"))
    };

    let workers: Vec<ServeHandle> =
        (0..CLUSTER_WORKERS).map(|i| boot_worker(format!("w{i}"))).collect::<Result<_, _>>()?;
    let coord = boot_coordinator(workers.iter().map(|w| w.addr().to_string()).collect())?;
    let coord_addr = coord.addr();

    let (status, health_body) = get(coord_addr, "/healthz")?;
    if status != 200 {
        return Err(format!("coordinator healthz returned {status}"));
    }
    let health = omega_obs::parse_json(&health_body).map_err(|e| format!("healthz: {e}"))?;
    let healthy = health
        .get("workers")
        .and_then(|w| w.as_array())
        .map(|ws| {
            ws.iter()
                .filter(|w| matches!(w.get("healthy"), Some(omega_obs::JsonValue::Bool(true))))
                .count()
        })
        .unwrap_or(0);
    if healthy != CLUSTER_WORKERS {
        return Err(format!(
            "coordinator sees {healthy}/{CLUSTER_WORKERS} healthy workers: {health_body}"
        ));
    }

    println!(
        "loadgen: coordinator on {coord_addr} over {CLUSTER_WORKERS} workers, \
         fill {DISTINCT} payloads"
    );
    let fill_clock = Arc::new(ModelClock::default());
    let fill = {
        let clock = Arc::clone(&fill_clock);
        let sink = Arc::new(AtomicU64::new(0));
        run_phase(DISTINCT, 1, move |t, _| {
            cluster_scan_one(coord_addr, t, false, &clock, &sink, &sink)
        })
    };

    let per_client = CLUSTER_REQUESTS_PER_CLIENT;
    let replays = clients * per_client;
    println!("loadgen: cluster replay {replays} cache-bypass requests across {clients} clients");
    let cluster_clock = Arc::new(ModelClock::default());
    let replay = {
        let clock = Arc::clone(&cluster_clock);
        let sink = Arc::new(AtomicU64::new(0));
        run_phase(clients, per_client, move |t, r| {
            cluster_scan_one(
                coord_addr,
                (t * per_client + r) % DISTINCT,
                true,
                &clock,
                &sink,
                &sink,
            )
        })
    };

    // Affinity evidence: repeat every fill payload without bypass — the
    // ring routes each shard back to the worker whose cache holds it.
    let cached_shards = Arc::new(AtomicU64::new(0));
    let total_shards = Arc::new(AtomicU64::new(0));
    let warm = {
        let clock = Arc::new(ModelClock::default());
        let (cached, total) = (Arc::clone(&cached_shards), Arc::clone(&total_shards));
        run_phase(1, DISTINCT, move |_, r| {
            cluster_scan_one(coord_addr, r, false, &clock, &cached, &total)
        })
    };

    // One-worker baseline: a fresh worker behind its own coordinator
    // runs the same bypass replay; its makespan is the modelled
    // single-node time for the identical request stream.
    let solo_worker = boot_worker("solo".to_string())?;
    let solo_coord = boot_coordinator(vec![solo_worker.addr().to_string()])?;
    let solo_addr = solo_coord.addr();
    println!("loadgen: one-worker baseline replay {replays} requests");
    let solo_clock = Arc::new(ModelClock::default());
    let solo = {
        let clock = Arc::clone(&solo_clock);
        let sink = Arc::new(AtomicU64::new(0));
        run_phase(clients, per_client, move |t, r| {
            cluster_scan_one(solo_addr, (t * per_client + r) % DISTINCT, true, &clock, &sink, &sink)
        })
    };

    coord.shutdown();
    solo_coord.shutdown();
    for w in workers {
        w.shutdown();
    }
    solo_worker.shutdown();

    let mut errors: Vec<String> = Vec::new();
    for phase in [&fill, &replay, &warm, &solo] {
        errors.extend(phase.errors.iter().cloned());
    }
    for e in errors.iter().take(5) {
        eprintln!("loadgen: error: {e}");
    }

    let cluster_makespan = cluster_clock.makespan_seconds();
    let cluster_sum = cluster_clock.sum_seconds();
    let solo_makespan = solo_clock.makespan_seconds();
    let speedup = if cluster_makespan > 0.0 { solo_makespan / cluster_makespan } else { 0.0 };
    let cached = cached_shards.load(Ordering::Relaxed);
    let total = total_shards.load(Ordering::Relaxed);
    println!(
        "loadgen: modelled replay time {cluster_makespan:.6}s over {CLUSTER_WORKERS} workers vs \
         {solo_makespan:.6}s over one ({speedup:.2}x); warm affinity {cached}/{total} shards cached"
    );

    let json = omega_obs::JsonObject::new()
        .string("bench", "serve_loadgen_cluster")
        .u64("workers", CLUSTER_WORKERS as u64)
        .u64("clients", clients as u64)
        .u64("distinct_payloads", DISTINCT as u64)
        .u64("requests_per_client", per_client as u64)
        .raw("fill", &phase_json("fill", DISTINCT, &fill))
        .raw("replay", &phase_json("replay", replays, &replay))
        .raw("solo_replay", &phase_json("solo_replay", replays, &solo))
        .raw(
            "cluster",
            &omega_obs::JsonObject::new()
                .f64("makespan_seconds", cluster_makespan)
                .f64("sum_seconds", cluster_sum)
                .f64(
                    "parallel_efficiency",
                    if cluster_makespan > 0.0 {
                        cluster_sum / (cluster_makespan * CLUSTER_WORKERS as f64)
                    } else {
                        0.0
                    },
                )
                .finish(),
        )
        .raw("solo", &omega_obs::JsonObject::new().f64("makespan_seconds", solo_makespan).finish())
        .f64("speedup_vs_one_worker", speedup)
        .f64("min_speedup", MIN_CLUSTER_SPEEDUP)
        .raw(
            "affinity",
            &omega_obs::JsonObject::new()
                .u64("warm_requests", DISTINCT as u64)
                .u64("cached_shards", cached)
                .u64("total_shards", total)
                .finish(),
        )
        .raw("connection_reuse", &reuse_json())
        .raw("retries", &retries_json())
        .u64("errors", errors.len() as u64)
        .finish();
    std::fs::write(out_path, format!("{json}\n"))
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {out_path}");

    if !errors.is_empty() {
        return Err(format!("{} request errors", errors.len()));
    }
    if speedup < MIN_CLUSTER_SPEEDUP {
        return Err(format!(
            "cluster speedup {speedup:.2}x below the {MIN_CLUSTER_SPEEDUP:.1}x floor \
             ({CLUSTER_WORKERS} workers)"
        ));
    }
    println!(
        "loadgen: cluster ok — {speedup:.2}x modelled speedup over one worker \
         (floor {MIN_CLUSTER_SPEEDUP:.1}x)"
    );
    Ok(())
}

fn run(out_path: &str, clients: usize, trace_audit: bool) -> Result<(), String> {
    let handle: ServeHandle = omega_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_capacity: DISTINCT.max(clients) * 2,
        trace_capacity: 4096,
        ..Default::default()
    })
    .map_err(|e| format!("cannot boot daemon: {e}"))?;
    let addr = handle.addr();

    let (status, health_body) = get(addr, "/healthz")?;
    if status != 200 {
        return Err(format!("healthz returned {status}"));
    }
    let health = omega_obs::parse_json(&health_body).map_err(|e| format!("healthz: {e}"))?;
    if health.get("uptime_secs").and_then(|v| v.as_u64()).is_none() {
        return Err(format!("healthz has no uptime_secs: {health_body}"));
    }

    println!("loadgen: daemon on {addr}, fill {DISTINCT} distinct payloads");
    let fill = run_phase(DISTINCT, 1, move |t, _| fill_one(addr, t, trace_audit));

    let per_client = if trace_audit { AUDIT_REQUESTS_PER_CLIENT } else { REQUESTS_PER_CLIENT };
    let replays = clients * per_client;

    println!("loadgen: replay {replays} requests across {clients} clients");
    let replay: PhaseResult;
    let rounds_total: usize;
    // Pooled paired latencies across all audit rounds (empty otherwise).
    let mut untraced_ns: Vec<u64> = Vec::new();
    let mut traced_ns: Vec<u64> = Vec::new();
    if trace_audit {
        println!("loadgen: {AUDIT_ROUNDS} mixed rounds, clients alternate untraced/traced");
        let mut all_ns: Vec<u64> = Vec::new();
        let mut errors: Vec<String> = Vec::new();
        let mut wall = Duration::ZERO;
        for round in 0..AUDIT_ROUNDS {
            let mut r = run_audit_round(addr, clients, per_client);
            r.untraced_ns.sort_unstable();
            r.traced_ns.sort_unstable();
            println!(
                "loadgen: round {round}: untraced p50 {:.3} ms, traced p50 {:.3} ms",
                median(&r.untraced_ns) as f64 / 1e6,
                median(&r.traced_ns) as f64 / 1e6
            );
            wall += r.wall;
            all_ns.extend(r.untraced_ns.iter().chain(r.traced_ns.iter()));
            untraced_ns.extend(r.untraced_ns);
            traced_ns.extend(r.traced_ns);
            errors.extend(r.errors);
        }
        all_ns.sort_unstable();
        untraced_ns.sort_unstable();
        traced_ns.sort_unstable();
        replay = PhaseResult { latencies_ns: all_ns, errors, wall };
        rounds_total = AUDIT_ROUNDS;
    } else {
        replay = run_phase(clients, per_client, move |t, r| {
            replay_one(addr, (t * per_client + r) % DISTINCT, false)
        });
        rounds_total = 1;
    }

    let (status, stats_body) = get(addr, "/stats")?;
    if status != 200 {
        return Err(format!("stats returned {status}"));
    }
    let stats = omega_obs::parse_json(&stats_body).map_err(|e| e.to_string())?;
    let hits = stat_counter(&stats, "serve.cache_hits");
    let misses = stat_counter(&stats, "serve.cache_misses");
    let rejected = stat_counter(&stats, "serve.rejected");

    let audit = if trace_audit { Some(audit_telemetry(addr)?) } else { None };

    handle.shutdown();

    let total_errors = fill.errors.len() + replay.errors.len();
    for e in fill.errors.iter().chain(&replay.errors).take(5) {
        eprintln!("loadgen: error: {e}");
    }

    // Paired throughput: at fixed concurrency, rps = clients / latency.
    // Derived from the median of each interleaved population so the
    // comparison is immune to shared host noise.
    let untraced_med = median(&untraced_ns);
    let traced_med = median(&traced_ns);
    let untraced_rps = if trace_audit {
        clients as f64 / (untraced_med as f64 / 1e9).max(1e-9)
    } else {
        replay.rps(rounds_total * replays)
    };
    let traced_rps = if traced_med > 0 { clients as f64 / (traced_med as f64 / 1e9) } else { 0.0 };

    let mut json = omega_obs::JsonObject::new()
        .string("bench", "serve_loadgen")
        .u64("clients", clients as u64)
        .u64("distinct_payloads", DISTINCT as u64)
        .u64("requests_per_client", per_client as u64)
        .raw("fill", &phase_json("fill", DISTINCT, &fill))
        .raw("replay", &phase_json("replay", rounds_total * replays, &replay))
        .raw(
            "cache",
            &omega_obs::JsonObject::new()
                .u64("hits", hits)
                .u64("misses", misses)
                .u64("expected_hits", (rounds_total * replays) as u64)
                .u64("expected_misses", DISTINCT as u64)
                .finish(),
        )
        .u64("rejected", rejected)
        .raw("connection_reuse", &reuse_json())
        .raw("retries", &retries_json())
        .u64("errors", total_errors as u64);
    if let Some((verified, samples)) = audit {
        let overhead =
            if untraced_rps > 0.0 { 1.0 - (traced_rps / untraced_rps).min(1.0) } else { 0.0 };
        json = json.raw(
            "trace_audit",
            &omega_obs::JsonObject::new()
                .u64("verified_traces", verified as u64)
                .u64("metrics_samples", samples as u64)
                .u64("mixed_rounds", AUDIT_ROUNDS as u64)
                .u64("untraced_p50_ns", untraced_med)
                .u64("traced_p50_ns", traced_med)
                .f64("untraced_rps", untraced_rps)
                .f64("traced_rps", traced_rps)
                .f64("overhead_fraction", overhead)
                .f64("max_overhead_fraction", MAX_TRACING_OVERHEAD)
                .finish(),
        );
    }
    let json = json.finish();
    std::fs::write(out_path, format!("{json}\n"))
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!(
        "loadgen: fill p50 {:.3} ms, replay p50 {:.3} ms / p99 {:.3} ms, {:.0} rps",
        percentile(&fill.latencies_ns, 50.0) as f64 / 1e6,
        percentile(&replay.latencies_ns, 50.0) as f64 / 1e6,
        percentile(&replay.latencies_ns, 99.0) as f64 / 1e6,
        untraced_rps
    );
    println!("wrote {out_path}");

    // Gates: only the fields that are deterministic by construction
    // (plus, in audit mode, the telemetry-plane checks).
    if total_errors > 0 {
        return Err(format!("{total_errors} request errors"));
    }
    let expected_hits = (rounds_total * replays) as u64;
    if misses != DISTINCT as u64 || hits != expected_hits {
        return Err(format!(
            "cache counts off: {misses} misses (want {DISTINCT}), {hits} hits \
             (want {expected_hits})"
        ));
    }
    if rejected != 0 {
        return Err(format!("{rejected} rejections with an uncontended queue"));
    }
    if let Some((verified, _)) = audit {
        if verified < MIN_AUDITED_TRACES {
            return Err(format!("only {verified} traces verified (want >= {MIN_AUDITED_TRACES})"));
        }
        if traced_rps < (1.0 - MAX_TRACING_OVERHEAD) * untraced_rps {
            return Err(format!(
                "tracing overhead too high: traced {traced_rps:.0} rps vs untraced \
                 {untraced_rps:.0} rps (floor {:.0}%)",
                (1.0 - MAX_TRACING_OVERHEAD) * 100.0
            ));
        }
        println!(
            "loadgen: trace audit ok — {verified} trees verified, traced {traced_rps:.0} rps \
             vs untraced {untraced_rps:.0} rps"
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_serve.json".to_string();
    let mut clients = DEFAULT_CLIENTS;
    let mut trace_audit = false;
    let mut persist_audit = false;
    let mut cluster = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-clients" => {
                i += 1;
                clients = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("loadgen: -clients expects a count >= 1");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--trace-audit" => trace_audit = true,
            "--persist-audit" => persist_audit = true,
            "--cluster" => cluster = true,
            other => out_path = other.to_string(),
        }
        i += 1;
    }
    let result = if cluster {
        run_cluster(&out_path, clients)
    } else if persist_audit {
        run_persist_audit(&out_path, clients)
    } else {
        run(&out_path, clients, trace_audit)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
