//! End-to-end coordinator tests over real `omega-serve` workers on
//! loopback: byte-identity of the merged report against a single-node
//! daemon, failover when a worker dies mid-scan, cache-affinity
//! routing, and upward 429/`Retry-After` propagation.

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use omega_cluster::{affinity_key, ClusterConfig, HashRing, WorkerClient};
use omega_serve::http::{write_response, HttpConn};
use omega_serve::{ServeConfig, ServeHandle};

/// Deterministic ms payload: `n_reps` replicates of `n_sites` LCG-fair
/// sites over `n_samples` samples, all seeded from `seed`.
fn ms_payload(seed: u64, n_samples: usize, n_sites: usize, n_reps: usize) -> String {
    let mut state = 0x9e37_79b9_u64.wrapping_add(seed);
    let mut next = move || {
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
    let mut out = format!("ms {n_samples} {n_reps}\n{seed}\n");
    for _ in 0..n_reps {
        out.push_str(&format!("\n//\nsegsites: {n_sites}\npositions: {positions}\n"));
        for _ in 0..n_samples {
            for _ in 0..n_sites {
                out.push(if next() % 2 == 0 { '0' } else { '1' });
            }
            out.push('\n');
        }
    }
    out
}

fn scan_body(seed: u64, n_reps: usize) -> String {
    format!(
        "{{\"format\":\"ms\",\"payload\":{:?},\"params\":{{\"grid\":12}}}}",
        ms_payload(seed, 10, 24, n_reps)
    )
}

fn boot_worker(id: &str, queue: usize, paused: bool) -> ServeHandle {
    omega_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_capacity: queue,
        worker_id: id.to_string(),
        start_paused: paused,
        ..Default::default()
    })
    .expect("worker boots")
}

fn boot_coordinator(workers: Vec<String>, shard_timeout_ms: u64) -> omega_cluster::ClusterHandle {
    omega_cluster::start(ClusterConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        shard_timeout_ms,
        health_interval_ms: 0,
        ..Default::default()
    })
    .expect("coordinator boots")
}

fn client(addr: std::net::SocketAddr) -> WorkerClient {
    WorkerClient::new(addr.to_string(), Duration::from_secs(10))
}

/// Extracts the raw bytes of a top-level object member (`"key":{...}`),
/// string-aware brace matching — no parse/re-serialize round trip, so
/// comparisons are genuinely byte-level.
fn extract_member(body: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle).unwrap_or_else(|| panic!("no {key:?} member in {body}"));
    let rest = &body[at + needle.len()..];
    assert!(rest.starts_with('{'), "{key:?} member is not an object: {rest}");
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return rest[..=i].to_string();
                }
            }
            _ => {}
        }
    }
    panic!("unterminated {key:?} member in {body}");
}

/// Runs `body` on a fresh single-node daemon and returns the raw
/// `"result"` member of the finished job report.
fn single_node_result(body: &str) -> String {
    let worker = boot_worker("single", 16, false);
    let c = client(worker.addr());
    let resp = c.post("/scan", body).expect("post");
    let report = match resp.status {
        200 => resp.body,
        202 => {
            let parsed = omega_obs::parse_json(&resp.body).expect("job json");
            let id = parsed.get("job").and_then(|v| v.as_str()).expect("job id");
            let done = c.wait_job(id, Instant::now() + Duration::from_secs(30)).expect("job ends");
            assert!(done.contains("\"state\":\"done\""), "job did not finish: {done}");
            done
        }
        other => panic!("single-node scan returned {other}: {}", resp.body),
    };
    let result = extract_member(&report, "result");
    worker.shutdown();
    result
}

#[test]
fn three_worker_scan_is_byte_identical_to_single_node() {
    let body = scan_body(7, 2);
    let expected = single_node_result(&body);

    let workers: Vec<ServeHandle> =
        (0..3).map(|i| boot_worker(&format!("w{i}"), 16, false)).collect();
    let coord = boot_coordinator(workers.iter().map(|w| w.addr().to_string()).collect(), 10_000);
    let c = client(coord.addr());

    // The coordinator's health view names every worker.
    let health = c.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    for id in ["w0", "w1", "w2"] {
        assert!(health.body.contains(&format!("\"worker_id\":\"{id}\"")), "{}", health.body);
    }

    let resp = c.post("/scan", &body).expect("scan");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let merged = extract_member(&resp.body, "result");
    assert_eq!(merged, expected, "merged report differs from the single-node report");

    // Two replicates over three workers: every shard was remote.
    let cluster = extract_member(&resp.body, "cluster");
    let parsed = omega_obs::parse_json(&cluster).expect("cluster json");
    assert_eq!(parsed.get("shards").and_then(|v| v.as_u64()), Some(6), "{cluster}");
    assert_eq!(parsed.get("local_shards").and_then(|v| v.as_u64()), Some(0), "{cluster}");

    coord.shutdown();
    for w in workers {
        w.shutdown();
    }
}

/// Picks a payload seed whose shards put the first-listed worker first
/// in ring order for at least one shard — so killing that worker is
/// guaranteed to interrupt a dispatched shard, not a bystander.
fn seed_routing_to_worker_zero(n_workers: usize) -> (u64, String) {
    let ring = HashRing::new(n_workers);
    for seed in 0..64u64 {
        let body = scan_body(seed, 1);
        let request = omega_serve::parse_scan_request(&body).expect("parseable body");
        let part = omega_accel::partition(&request.alignments[0], &request.params, n_workers)
            .expect("partitions");
        for i in 0..part.shards.len() {
            let spec = part.spec(i);
            let key = affinity_key(request.payload_digest, spec.lo, spec.hi);
            if ring.order(key)[0] == 0 {
                return (seed, body);
            }
        }
    }
    panic!("no seed routed a shard to worker 0");
}

#[test]
fn worker_killed_mid_scan_fails_over_byte_identically() {
    let (_seed, body) = seed_routing_to_worker_zero(2);
    let expected = single_node_result(&body);

    // Worker 0 is paused: it admits shards but never runs them — a
    // hang, resolved mid-scan by an outright crash.
    let doomed = boot_worker("doomed", 16, true);
    let survivor = boot_worker("survivor", 16, false);
    let coord =
        boot_coordinator(vec![doomed.addr().to_string(), survivor.addr().to_string()], 5_000);
    let coord_addr = coord.addr();

    let scan = std::thread::spawn(move || {
        let c = client(coord_addr);
        c.post("/scan", &body).expect("scan")
    });
    // Let the shard land on the paused worker, then kill it mid-scan.
    std::thread::sleep(Duration::from_millis(200));
    doomed.abort();

    let resp = scan.join().expect("scan thread");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let merged = extract_member(&resp.body, "result");
    assert_eq!(merged, expected, "failover changed the merged report");

    coord.shutdown();
    survivor.shutdown();
}

/// Removes the first element of the job body's `"positions"` array.
fn drop_first_position(job: &str) -> String {
    let at = job.find("\"positions\":[").expect("positions array") + "\"positions\":[".len();
    let end = at + job[at..].find('}').expect("position object") + 1;
    let end = if job[end..].starts_with(',') { end + 1 } else { end };
    format!("{}{}", &job[..at], &job[end..])
}

/// A misbehaving worker: proxies every request to the real daemon at
/// `backing`, but answers each `POST /scan` with the finished job body
/// missing its first position.
fn boot_dropping_worker(backing: SocketAddr) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            std::thread::spawn(move || {
                let upstream = client(backing);
                let mut conn = HttpConn::new(stream);
                while let Ok(Some(request)) = conn.read_request(64 << 20) {
                    let body = String::from_utf8_lossy(&request.body).into_owned();
                    let (status, text) = if request.method == "POST" {
                        let resp = upstream.post(&request.path, &body).expect("proxy post");
                        match resp.status {
                            200 => (200, drop_first_position(&resp.body)),
                            202 => {
                                let parsed = omega_obs::parse_json(&resp.body).expect("job json");
                                let id = parsed.get("job").and_then(|v| v.as_str()).expect("id");
                                let deadline = Instant::now() + Duration::from_secs(30);
                                let done = upstream.wait_job(id, deadline).expect("job ends");
                                (200, drop_first_position(&done))
                            }
                            other => (other, resp.body),
                        }
                    } else {
                        let resp = upstream.get(&request.path).expect("proxy get");
                        (resp.status, resp.body)
                    };
                    let written = write_response(
                        conn.stream_mut(),
                        status,
                        "Proxied",
                        "application/json",
                        &[],
                        &text,
                        request.keep_alive,
                    );
                    if written.is_err() || !request.keep_alive {
                        break;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn short_shard_result_is_rejected_and_redispatched() {
    let (_seed, body) = seed_routing_to_worker_zero(2);
    let expected = single_node_result(&body);

    let backing = boot_worker("backing", 16, false);
    let liar = boot_dropping_worker(backing.addr());
    let honest = boot_worker("honest", 16, false);
    let coord = boot_coordinator(vec![liar.to_string(), honest.addr().to_string()], 10_000);
    let c = client(coord.addr());

    let resp = c.post("/scan", &body).expect("scan");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        extract_member(&resp.body, "result"),
        expected,
        "a short shard result leaked into the merged report"
    );
    let stats = omega_obs::parse_json(&c.get("/stats").expect("stats").body).expect("stats json");
    let invalid = stats
        .get("counters")
        .and_then(|v| v.get("cluster.invalid_shard_results"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    assert!(invalid >= 1, "the short result was not counted as invalid");

    coord.shutdown();
    honest.shutdown();
    backing.shutdown();
}

#[test]
fn repeated_request_hits_affinity_routed_caches() {
    let workers: Vec<ServeHandle> =
        (0..3).map(|i| boot_worker(&format!("a{i}"), 16, false)).collect();
    let coord = boot_coordinator(workers.iter().map(|w| w.addr().to_string()).collect(), 10_000);
    let c = client(coord.addr());
    let body = scan_body(21, 1);

    let cold = c.post("/scan", &body).expect("cold scan");
    assert_eq!(cold.status, 200, "{}", cold.body);
    let cold_cluster = omega_obs::parse_json(&extract_member(&cold.body, "cluster")).unwrap();
    assert_eq!(cold_cluster.get("cached_shards").and_then(|v| v.as_u64()), Some(0));

    // Same digest, same grid slices, same ring order: every shard must
    // come back from the worker cache it was routed to the first time.
    let warm = c.post("/scan", &body).expect("warm scan");
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert_eq!(
        extract_member(&warm.body, "result"),
        extract_member(&cold.body, "result"),
        "cached merge differs from computed merge"
    );
    let warm_cluster = omega_obs::parse_json(&extract_member(&warm.body, "cluster")).unwrap();
    let shards = warm_cluster.get("shards").and_then(|v| v.as_u64()).unwrap();
    assert!(shards > 0);
    assert_eq!(
        warm_cluster.get("cached_shards").and_then(|v| v.as_u64()),
        Some(shards),
        "warm repeat was not fully served from affinity-routed caches"
    );

    coord.shutdown();
    for w in workers {
        w.shutdown();
    }
}

#[test]
fn saturated_workers_propagate_429_with_retry_after() {
    // A paused single worker with a one-slot queue: the first scan
    // parks in the queue until the shard deadline; the second is shed
    // with 429, which the coordinator must pass upward.
    let worker = boot_worker("busy", 1, true);
    let coord = boot_coordinator(vec![worker.addr().to_string()], 600);
    let coord_addr = coord.addr();

    let first_body = scan_body(31, 1);
    let first = std::thread::spawn(move || {
        let c = client(coord_addr);
        c.post("/scan", &first_body).expect("first scan")
    });
    std::thread::sleep(Duration::from_millis(150));

    let c = client(coord_addr);
    let second = c.post("/scan", &scan_body(32, 1)).expect("second scan");
    assert_eq!(second.status, 429, "{}", second.body);
    assert!(second.retry_after.is_some(), "429 without Retry-After");

    // The parked scan can never run anywhere: the deadline expires and
    // the coordinator reports the dead end.
    let first = first.join().expect("first scan thread");
    assert_eq!(first.status, 503, "{}", first.body);

    coord.shutdown();
    worker.abort();
}
