//! Keep-alive, response streaming, and request-framing hardening, over
//! real loopback connections. Raw sockets write the requests so the
//! framing under test is exactly what goes on the wire; the one client
//! parser reads the responses back.

mod common;

use std::io::Write;
use std::net::TcpStream;

use omega_serve::{start, ServeConfig};

fn boot() -> omega_serve::ServeHandle {
    start(ServeConfig { addr: "127.0.0.1:0".to_string(), ..Default::default() })
        .expect("daemon boots")
}

/// HTTP/1.1 defaults to keep-alive: one connection serves a whole
/// request sequence, and the daemon counts the reuses.
#[test]
fn one_connection_serves_many_requests() {
    let handle = boot();
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    for _ in 0..4 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("write");
        let (status, head, body) = common::read_framed(&mut stream);
        assert_eq!(status, 200, "{body}");
        assert!(
            head.to_ascii_lowercase().contains("connection: keep-alive"),
            "keep-alive advertised: {head}"
        );
    }

    let (status, _, stats) = common::get(addr, "/stats");
    assert_eq!(status, 200);
    let v = omega_obs::parse_json(&stats).expect("stats parse");
    let reuses = v
        .get("counters")
        .and_then(|c| c.get("serve.http_conn_reuses"))
        .and_then(|x| x.as_u64())
        .unwrap_or(0);
    assert!(reuses >= 3, "4 requests on one connection are 3 reuses, counted {reuses}");
    handle.shutdown();
}

/// `Connection: close` is honoured: the server answers and drops the
/// connection instead of waiting for more requests.
#[test]
fn connection_close_is_honoured() {
    let handle = boot();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write");
    let (status, head, _) = common::read_framed(&mut stream);
    assert_eq!(status, 200);
    assert!(head.to_ascii_lowercase().contains("connection: close"), "close echoed: {head}");
    // EOF must arrive promptly, not after the 10 s idle timeout.
    let mut rest = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut rest).expect("read to eof");
    assert!(rest.is_empty(), "no bytes after a closed response");
    handle.shutdown();
}

/// Conflicting duplicate `Content-Length` headers are the classic
/// request-smuggling vector: the daemon must refuse to guess.
#[test]
fn conflicting_content_lengths_get_400_and_a_closed_connection() {
    let handle = boot();
    let (status, head, body) = common::raw(
        handle.addr(),
        b"POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhi",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("Content-Length"), "names the offending header: {body}");
    assert!(
        head.to_ascii_lowercase().contains("connection: close"),
        "a framing error poisons the connection: {head}"
    );
    handle.shutdown();
}

/// Repeating the *same* `Content-Length` is legal per RFC 9112 §6.3 and
/// must parse as one header.
#[test]
fn identical_duplicate_content_lengths_are_tolerated() {
    let handle = boot();
    let body = common::scan_body(1, 4);
    let request = format!(
        "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {len}\r\nContent-Length: {len}\r\n\r\n{body}",
        len = body.len()
    );
    let (status, _, response) = common::raw(handle.addr(), request.as_bytes());
    assert_eq!(status, 202, "{response}");
    handle.shutdown();
}

/// A result body at or above the streaming threshold goes out with
/// `Transfer-Encoding: chunked` and reassembles bit-identically.
#[test]
fn large_results_stream_chunked_and_roundtrip() {
    let handle = boot();
    let addr = handle.addr();

    // A big grid makes the per-position report large enough to cross
    // the chunked threshold (32 KiB).
    let body = common::scan_body(3, 3000);
    let (status, _, submit) = common::post_scan(addr, &body);
    assert_eq!(status, 202, "{submit}");
    let id = common::job_id(&submit);
    let done = common::poll_done(addr, &id);
    let first = omega_obs::parse_json(&done).expect("done body parses");
    assert_eq!(first.get("state").and_then(|v| v.as_str()), Some("done"), "{done}");

    let (status, head, replay) = common::post_scan(addr, &body);
    assert_eq!(status, 200, "cache hit expected: {replay}");
    assert!(
        head.to_ascii_lowercase().contains("transfer-encoding: chunked"),
        "a {}-byte body must stream: {head}",
        replay.len()
    );
    assert!(replay.len() >= 32 * 1024, "test premise: body crosses the threshold");
    // The replayed result carries the exact result bytes of the first
    // run: same digest-bearing JSON, byte for byte.
    assert_eq!(result_object(&done), result_object(&replay), "cached replay is bit-identical");
    handle.shutdown();
}

/// The balanced-brace `"result"` object of a job body, byte for byte.
/// (Surrounding fields such as timings differ between the poll and the
/// replay envelope; the result payload must not.)
fn result_object(body: &str) -> &str {
    let start = body.find("\"result\":").expect("result field present") + "\"result\":".len();
    let bytes = body.as_bytes();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes[start..].iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_string => escaped = true,
            b'"' => in_string = !in_string,
            b'{' if !in_string => depth += 1,
            b'}' if !in_string => {
                depth -= 1;
                if depth == 0 {
                    return &body[start..start + i + 1];
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced result object in {body:.120}");
}
