//! Telemetry-plane integration tests: tracing must never change scan
//! results, traced requests echo their context and land well-formed
//! span trees in the flight recorder, `/metrics` exposes parseable
//! Prometheus text, unknown trace ids 404, and `/healthz` reports the
//! upgraded liveness payload.

mod common;

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use omega_serve::{start, ServeConfig, ServeHandle};

fn boot() -> ServeHandle {
    start(ServeConfig { addr: "127.0.0.1:0".to_string(), ..Default::default() })
        .expect("daemon boots")
}

/// POST /scan with an explicit `X-Omega-Trace` header.
fn post_traced(addr: SocketAddr, body: &str, trace: &str) -> (u16, String, String) {
    let r = common::client(addr)
        .request("POST", "/scan", &[("X-Omega-Trace", trace)], body)
        .expect("traced POST /scan");
    (r.status, r.head, r.body)
}

/// Fetches `/traces/<hex>` with a short retry window: the span tree is
/// published moments after the job table flips to done, so a poller
/// can observe the gap.
fn get_trace(addr: SocketAddr, hex: &str) -> (u16, String) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, _, body) = common::get(addr, &format!("/traces/{hex}"));
        if status == 200 || Instant::now() >= deadline {
            return (status, body);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Tracing must be observational only: the same payload scanned on a
/// traced daemon and an untraced daemon produces bit-identical result
/// JSON.
#[test]
fn traced_scan_result_is_bit_identical_to_untraced() {
    let plain = boot();
    let (status, _, body) = common::post_scan(plain.addr(), &common::scan_body(31, 4));
    assert_eq!(status, 202, "{body}");
    let plain_done = common::poll_done(plain.addr(), &common::job_id(&body));
    plain.shutdown();

    let traced = boot();
    let (status, _, body) =
        post_traced(traced.addr(), &common::scan_body(31, 4), "00000000beef0001-0000000000000000");
    assert_eq!(status, 202, "{body}");
    let traced_done = common::poll_done(traced.addr(), &common::job_id(&body));
    traced.shutdown();

    let plain_json = omega_obs::parse_json(&plain_done).unwrap();
    let traced_json = omega_obs::parse_json(&traced_done).unwrap();
    assert_eq!(plain_json.get("state").unwrap().as_str(), Some("done"), "{plain_done}");
    assert_eq!(traced_json.get("state").unwrap().as_str(), Some("done"), "{traced_done}");
    assert_eq!(
        plain_json.get("result"),
        traced_json.get("result"),
        "tracing changed the scan result\nplain: {plain_done}\ntraced: {traced_done}"
    );
}

/// A traced request echoes its trace context in the response headers
/// and publishes a well-formed span tree retrievable by id; a traced
/// cache hit records the lookup stage.
#[test]
fn traced_request_echoes_context_and_records_span_tree() {
    let handle = boot();
    let addr = handle.addr();
    let body = common::scan_body(37, 4);

    // Miss path: queued job, trace completes when the lane finishes.
    let (status, head, resp) = post_traced(addr, &body, "00000000dead0001-0000000000000000");
    assert_eq!(status, 202, "{resp}");
    assert!(
        head.to_ascii_lowercase().contains("x-omega-trace: 00000000dead0001-"),
        "response must echo the trace context: {head}"
    );
    common::poll_done(addr, &common::job_id(&resp));

    let (status, tree_body) = get_trace(addr, "00000000dead0001");
    assert_eq!(status, 200, "trace not recorded: {tree_body}");
    let tree = omega_obs::parse_json(&tree_body).unwrap();
    let root = tree.get("root").expect("trace has a root span");
    assert_eq!(root.get("name").unwrap().as_str(), Some("serve.request"));
    let spans = tree.get("spans").and_then(|s| s.as_array()).expect("spans array");
    let names: Vec<&str> = spans.iter().filter_map(|s| s.get("name")?.as_str()).collect();
    assert!(names.contains(&"serve.queue_wait"), "missing queue_wait span: {names:?}");
    assert!(names.contains(&"serve.kernel"), "missing kernel span: {names:?}");

    // Hit path: inline completion, trace published before the response.
    let (status, _, resp) = post_traced(addr, &body, "00000000dead0002-0000000000000000");
    assert_eq!(status, 200, "expected inline cache hit: {resp}");
    let (status, tree_body) = get_trace(addr, "00000000dead0002");
    assert_eq!(status, 200, "cache-hit trace not recorded: {tree_body}");
    let tree = omega_obs::parse_json(&tree_body).unwrap();
    let spans = tree.get("spans").and_then(|s| s.as_array()).expect("spans array");
    let names: Vec<&str> = spans.iter().filter_map(|s| s.get("name")?.as_str()).collect();
    assert!(names.contains(&"serve.cache_lookup"), "missing cache_lookup span: {names:?}");

    handle.shutdown();
}

/// Unknown or malformed trace ids produce 404, never a panic.
#[test]
fn unknown_trace_id_is_404() {
    let handle = boot();
    let addr = handle.addr();
    let (status, _, _) = common::get(addr, "/traces/ffffffffffffff99");
    assert_eq!(status, 404);
    let (status, _, _) = common::get(addr, "/traces/not-hex-at-all");
    assert_eq!(status, 404);
    handle.shutdown();
}

/// `/metrics` serves non-empty, parseable Prometheus text exposition
/// with the serve instruments present.
#[test]
fn metrics_endpoint_parses_as_prometheus() {
    let handle = boot();
    let addr = handle.addr();

    // Drive one request so request counters are non-zero.
    let (status, _, body) = common::post_scan(addr, &common::scan_body(41, 4));
    assert_eq!(status, 202, "{body}");
    common::poll_done(addr, &common::job_id(&body));

    let (status, head, text) = common::get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase().contains("content-type: text/plain"),
        "exposition must be text/plain: {head}"
    );
    let samples = omega_obs::parse_prometheus(&text).expect("exposition parses");
    assert!(samples > 0, "exposition is empty");
    assert!(text.contains("omega_serve_cache_misses_total"), "missing serve counters:\n{text}");
    assert!(text.contains("omega_serve_kernel_ns"), "missing serve stage histograms:\n{text}");
    handle.shutdown();
}

/// `/healthz` reports liveness plus uptime, build identity, and
/// per-lane queue depths.
#[test]
fn healthz_reports_uptime_build_and_queue_depths() {
    let handle = boot();
    let (status, _, body) = common::get(handle.addr(), "/healthz");
    assert_eq!(status, 200);
    let v = omega_obs::parse_json(&body).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"), "{body}");
    assert!(v.get("uptime_secs").and_then(|x| x.as_u64()).is_some(), "{body}");
    let build = v.get("build").expect("build info");
    assert!(build.get("name").and_then(|x| x.as_str()).is_some(), "{body}");
    assert!(build.get("version").and_then(|x| x.as_str()).is_some(), "{body}");
    let depths = v.get("queue_depths").expect("queue depths");
    for lane in ["cpu", "gpu", "fpga"] {
        assert!(depths.get(lane).and_then(|x| x.as_u64()).is_some(), "no {lane} depth: {body}");
    }
    assert_eq!(v.get("draining"), Some(&omega_obs::JsonValue::Bool(false)), "{body}");
    handle.shutdown();
}
