//! End-to-end loopback tests: results served over HTTP are bit-identical
//! to direct `BatchDetector` runs, repeat requests are served from the
//! cache with identical bytes, hostile HTTP input yields 4xx (never a
//! panic), and shutdown drains queued work.
//!
//! These tests make no assertions on global metric counters — the
//! registry is process-wide and `tests/stats.rs` / `tests/admission.rs`
//! own those (each integration test file is its own process).

mod common;

use std::convert::Infallible;

use omega_accel::{Backend, BatchDetector};
use omega_core::ScanParams;
use omega_genome::ms::{read_ms, MsReadOptions};
use omega_serve::{start, ServeConfig};

fn boot(config: ServeConfig) -> omega_serve::ServeHandle {
    start(config).expect("daemon boots")
}

fn local() -> ServeConfig {
    ServeConfig { addr: "127.0.0.1:0".to_string(), ..Default::default() }
}

/// The serve-side result must match a direct BatchDetector run byte for
/// byte: same parse path, same params, same deterministic JSON.
#[test]
fn served_scan_is_bit_identical_to_direct_batch_detector() {
    let handle = boot(local());
    let addr = handle.addr();

    let (status, _, body) = common::post_scan(addr, &common::scan_body(7, 4));
    assert_eq!(status, 202, "{body}");
    let id = common::job_id(&body);
    let final_body = common::poll_done(addr, &id);
    let parsed = omega_obs::parse_json(&final_body).unwrap();
    assert_eq!(parsed.get("state").unwrap().as_str(), Some("done"), "{final_body}");

    // The direct run, mirroring the request's parse path exactly.
    let alignments = read_ms(
        common::ms_payload(7).as_bytes(),
        MsReadOptions { region_len: omega_serve::job::DEFAULT_MS_LENGTH },
    )
    .unwrap();
    let params = ScanParams { threads: 1, grid: 4, ..ScanParams::default() };
    let detector = BatchDetector::new(params, Backend::Cpu).unwrap();
    let outcome = detector.run(alignments.into_iter().map(Ok::<_, Infallible>)).unwrap();
    let expected = omega_serve::job::result_json(&outcome);

    // The job body embeds the result JSON verbatim, so a substring
    // check is a byte-identity check.
    assert!(
        final_body.contains(&expected),
        "served result differs from direct run\nserved: {final_body}\nexpected fragment: {expected}"
    );
    handle.shutdown();
}

/// A repeat request completes inline (200, cached) with exactly the
/// same result bytes the first run produced.
#[test]
fn cache_hit_returns_identical_bytes() {
    let handle = boot(local());
    let addr = handle.addr();
    let body = common::scan_body(11, 4);

    let (status, _, first) = common::post_scan(addr, &body);
    assert_eq!(status, 202, "{first}");
    let first_done = common::poll_done(addr, &common::job_id(&first));

    let (status, _, second) = common::post_scan(addr, &body);
    assert_eq!(status, 200, "cache hit should complete inline: {second}");
    let parsed = omega_obs::parse_json(&second).unwrap();
    assert_eq!(parsed.get("cached"), Some(&omega_obs::JsonValue::Bool(true)));
    assert_eq!(parsed.get("state").unwrap().as_str(), Some("done"));

    // Both bodies carry the identical raw result member.
    let result_of = |body: &str| {
        let at = body.find("\"result\":{").expect("result member present");
        body[at..].to_string()
    };
    // Strip trailing non-result members: timing only exists on the
    // first body, so compare up to the result's closing position by
    // extracting through the parsed tree instead.
    let first_result = omega_obs::parse_json(&first_done).unwrap();
    let second_result = parsed;
    assert_eq!(
        first_result.get("result"),
        second_result.get("result"),
        "cached result must be identical\nfirst: {}\nsecond: {}",
        result_of(&first_done),
        result_of(&second)
    );
    handle.shutdown();
}

/// Malformed HTTP and hostile bodies produce 4xx responses and leave
/// the daemon healthy — never a panic, never a wedged acceptor.
#[test]
fn malformed_input_yields_4xx_not_panic() {
    let handle = boot(local());
    let addr = handle.addr();

    let (status, _, _) = common::raw(addr, b"TOTAL GARBAGE\r\n\r\n");
    assert_eq!(status, 400);

    let (status, _, _) = common::raw(addr, b"GET noslash HTTP/1.1\r\n\r\n");
    assert_eq!(status, 400);

    // Declared body larger than the limit: rejected before buffering.
    let oversized =
        format!("POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", (8usize << 20) + 1);
    let (status, _, _) = common::raw(addr, oversized.as_bytes());
    assert_eq!(status, 413);

    // Oversized header block.
    let mut huge_head = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
    huge_head.extend(std::iter::repeat_n(b'a', 20 * 1024));
    huge_head.extend_from_slice(b"\r\n\r\n");
    let (status, _, _) = common::raw(addr, &huge_head);
    assert_eq!(status, 431);

    // Chunked transfer encoding is unimplemented, not mis-parsed.
    let (status, _, _) =
        common::raw(addr, b"POST /scan HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    assert_eq!(status, 501);

    // Valid HTTP, hostile payloads: each a clean 400 with a reason.
    for bad in [
        "not json at all",
        "{\"payload\":\"x\"}",                         // missing format
        "{\"format\":\"ms\",\"payload\":\"garbage\"}", // unparseable ms
        "{\"format\":\"tsv\",\"payload\":\"x\"}",      // unknown format
        "{\"format\":\"ms\",\"payload\":\"\",\"params\":{\"grid\":0}}", // invalid params
    ] {
        let (status, _, body) = common::post_scan(addr, bad);
        assert_eq!(status, 400, "payload {bad:?} => {body}");
        assert!(omega_obs::parse_json(&body).unwrap().get("error").is_some());
    }

    // Unknown routes and methods.
    let (status, _, _) = common::get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, _, _) = common::raw(addr, b"DELETE /scan HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405);
    let (status, _, _) = common::get(addr, "/jobs/j999999");
    assert_eq!(status, 404);

    // After all of that, the daemon still serves.
    let (status, _, body) = common::get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(omega_obs::parse_json(&body).unwrap().get("status").unwrap().as_str(), Some("ok"));
    handle.shutdown();
}

/// A grid beyond `MAX_GRID` is a 400 at parse time: the daemon never
/// tries to allocate the plan, and keeps serving afterwards.
#[test]
fn oversized_grid_is_rejected_and_daemon_survives() {
    let handle = boot(local());
    let addr = handle.addr();
    let (status, _, body) = common::post_scan(addr, &common::scan_body(1, 1_000_000_000_000_000));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("grid"), "{body}");
    let (status, _, _) = common::get(addr, "/healthz");
    assert_eq!(status, 200);
    handle.shutdown();
}

/// Shutdown with work still queued finishes every admitted job before
/// returning (graceful drain), and the drain report proves it.
#[test]
fn shutdown_drains_queued_jobs_to_completion() {
    let handle = boot(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        start_paused: true,
        ..Default::default()
    });
    let addr = handle.addr();

    let mut ids = Vec::new();
    for tag in 20..23 {
        let (status, _, body) = common::post_scan(addr, &common::scan_body(tag, 4));
        assert_eq!(status, 202, "{body}");
        ids.push(common::job_id(&body));
    }
    assert_eq!(handle.queue_depth(), 3, "paused lanes hold the jobs");

    let report = handle.shutdown();
    for id in &ids {
        let parsed = omega_serve::JobId::parse(id).expect("wire id parses");
        let state = report.iter().find(|(rid, _)| *rid == parsed).map(|(_, s)| *s);
        assert_eq!(
            state,
            Some(omega_serve::JobState::Done),
            "job {id} not completed by drain: {report:?}"
        );
    }
}
