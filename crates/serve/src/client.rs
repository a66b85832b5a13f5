//! Keep-alive HTTP/1.1 client: the one reader of this daemon's
//! responses.
//!
//! The mirror image of [`crate::http`]: `Content-Length` request bodies
//! out, `Content-Length` *or* chunked responses in, and a small
//! idle-connection pool per address so request streams and job polls
//! ride persistent connections instead of paying a TCP handshake per
//! round-trip. A request that fails on a pooled (possibly server-closed)
//! connection is retried once on a fresh one; a request that fails on a
//! fresh connection surfaces as an error.
//!
//! The coordinator's dispatch, `loadgen` and the test suites all talk
//! to daemons through [`WorkerClient`]; [`WorkerClient::wait_job`] is
//! the one place that polls `GET /jobs/<id>` to a terminal state.
//! Responses come from untrusted peers, so every malformed frame is an
//! `Err`, never a panic.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use omega_obs::JsonValue;

/// Hard cap on a response's status line + headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Hard cap on a response body (shard reports are bounded by grid size;
/// anything past this is a protocol error, not data).
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// Cadence of [`WorkerClient::wait_job`]'s `GET /jobs/<id>` polls.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// One parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` header in seconds, when the server sent one (429).
    pub retry_after: Option<u64>,
    /// The status line and header lines, without the blank line that
    /// ends them.
    pub head: String,
    /// Response body (the daemons answer JSON or Prometheus text).
    pub body: String,
}

/// A pooled keep-alive client for one address.
#[derive(Debug)]
pub struct WorkerClient {
    addr: String,
    timeout: Duration,
    idle: Mutex<Vec<BufReader<TcpStream>>>,
    requests: AtomicU64,
    connections: AtomicU64,
}

impl WorkerClient {
    /// A client for `addr` with a per-IO-operation timeout.
    pub fn new(addr: String, timeout: Duration) -> Self {
        WorkerClient {
            addr,
            timeout,
            idle: Mutex::new(Vec::new()),
            requests: AtomicU64::new(0),
            connections: AtomicU64::new(0),
        }
    }

    /// The address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Responses this client has read so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::SeqCst)
    }

    /// TCP connections this client has opened so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::SeqCst)
    }

    /// `GET path`.
    pub fn get(&self, path: &str) -> Result<ClientResponse, String> {
        self.request("GET", path, &[], "")
    }

    /// `POST path` with a JSON body.
    pub fn post(&self, path: &str, body: &str) -> Result<ClientResponse, String> {
        self.request("POST", path, &[], body)
    }

    /// One round-trip with extra request `headers` (name, value).
    pub fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> Result<ClientResponse, String> {
        // First attempt may ride a pooled connection the server closed
        // while it idled; that failure mode gets one fresh-connection
        // retry. A fresh connection failing is terminal.
        if let Some(conn) = self.checkout() {
            if let Ok(out) = self.round_trip(conn, method, path, headers, body) {
                return Ok(out);
            }
            omega_obs::counter!("cluster.conn_retries").inc();
        }
        let conn = self.connect()?;
        self.round_trip(conn, method, path, headers, body)
    }

    /// Polls `GET /jobs/<id>` until the job leaves `queued`/`running`
    /// and returns the terminal job body (`done`, `failed` or
    /// `expired`). A transport error, a non-200 answer, a body without a
    /// state, or a job still unfinished at `deadline` is an `Err`.
    pub fn wait_job(&self, id: &str, deadline: Instant) -> Result<String, String> {
        let path = format!("/jobs/{id}");
        loop {
            let response = self.get(&path)?;
            if response.status != 200 {
                return Err(format!("poll status {}: {:.200}", response.status, response.body));
            }
            let job = omega_obs::parse_json(&response.body)
                .map_err(|e| format!("unparseable job body: {e}"))?;
            match job.get("state").and_then(JsonValue::as_str) {
                Some("queued" | "running") => {}
                Some(_) => return Ok(response.body),
                None => return Err(format!("job body without a state: {:.200}", response.body)),
            }
            if Instant::now() >= deadline {
                return Err(format!("job {id} still unfinished at its deadline"));
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    fn checkout(&self) -> Option<BufReader<TcpStream>> {
        self.idle.lock().unwrap_or_else(|p| p.into_inner()).pop()
    }

    fn checkin(&self, conn: BufReader<TcpStream>) {
        let mut idle = self.idle.lock().unwrap_or_else(|p| p.into_inner());
        // A handful of idle connections covers the scatter fan-out; the
        // bound keeps a burst from pinning sockets forever.
        if idle.len() < 8 {
            idle.push(conn);
        }
    }

    fn connect(&self) -> Result<BufReader<TcpStream>, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        self.connections.fetch_add(1, Ordering::SeqCst);
        let _ = stream.set_read_timeout(Some(self.timeout));
        let _ = stream.set_write_timeout(Some(self.timeout));
        let _ = stream.set_nodelay(true);
        Ok(BufReader::new(stream))
    }

    fn round_trip(
        &self,
        mut conn: BufReader<TcpStream>,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> Result<ClientResponse, String> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n",
            self.addr,
            body.len()
        );
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let stream = conn.get_mut();
        stream.write_all(head.as_bytes()).map_err(|e| format!("write: {e}"))?;
        stream.write_all(body.as_bytes()).map_err(|e| format!("write: {e}"))?;
        stream.flush().map_err(|e| format!("flush: {e}"))?;
        let (response, keep_alive) = read_response(&mut conn)?;
        self.requests.fetch_add(1, Ordering::SeqCst);
        if keep_alive {
            self.checkin(conn);
        }
        Ok(response)
    }
}

/// Reads one bounded line (through `\r\n`), used by the chunked decoder.
fn read_line<R: Read>(reader: &mut R) -> Result<String, String> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => return Err("connection closed mid-line".into()),
            Ok(_) => line.push(byte[0]),
            Err(e) => return Err(format!("read: {e}")),
        }
        if line.ends_with(b"\r\n") {
            line.truncate(line.len() - 2);
            break;
        }
        if line.len() > MAX_HEAD_BYTES {
            return Err("line exceeds head limit".into());
        }
    }
    String::from_utf8(line).map_err(|_| "non-UTF-8 line".to_string())
}

/// Parses one response off `reader`, consuming exactly its bytes, so a
/// keep-alive stream stays positioned at the next response. Returns the
/// response and whether the connection may serve another request.
pub fn read_response<R: Read>(reader: &mut R) -> Result<(ClientResponse, bool), String> {
    // Head: byte-wise to the blank line, bounded.
    let mut head = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => return Err("connection closed mid-headers".into()),
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(format!("read: {e}")),
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err("response headers too large".into());
        }
        if head.ends_with(b"\r\n\r\n") {
            head.truncate(head.len() - 4);
            break;
        }
    }
    let head = String::from_utf8(head).map_err(|_| "non-UTF-8 headers".to_string())?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    let mut retry_after = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                let parsed: usize =
                    value.parse().map_err(|_| format!("bad Content-Length {value:?}"))?;
                // The rule `http` applies to requests: identical repeats
                // collapse, conflicting ones are the smuggling shape.
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Err("conflicting Content-Length headers".into());
                }
                content_length = Some(parsed);
            }
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "retry-after" => retry_after = value.parse().ok(),
            "connection" => {
                close = value.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"))
            }
            _ => {}
        }
    }

    let body = if chunked {
        let mut out = Vec::new();
        loop {
            let size_line = read_line(reader)?;
            let len = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| format!("bad chunk size {size_line:?}"))?;
            // `out` never exceeds the cap, so this bound cannot wrap the
            // way `out.len() + len` would for a hostile size.
            if len > MAX_RESPONSE_BYTES.saturating_sub(out.len()) {
                return Err("chunked response exceeds size limit".into());
            }
            let start = out.len();
            out.resize(start + len, 0);
            reader.read_exact(&mut out[start..]).map_err(|e| format!("read chunk: {e}"))?;
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf).map_err(|e| format!("read chunk: {e}"))?;
            if len == 0 {
                break;
            }
        }
        out
    } else {
        let len = content_length.unwrap_or(0);
        if len > MAX_RESPONSE_BYTES {
            return Err("response exceeds size limit".into());
        }
        let mut out = vec![0u8; len];
        reader.read_exact(&mut out).map_err(|e| format!("read body: {e}"))?;
        out
    };
    let body = String::from_utf8(body).map_err(|_| "non-UTF-8 body".to_string())?;
    Ok((ClientResponse { status, retry_after, head, body }, !close))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn serve_raw(raw: &'static [u8]) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut sink = [0u8; 1024];
            let _ = stream.read(&mut sink);
            stream.write_all(raw).unwrap();
        });
        addr.to_string()
    }

    #[test]
    fn parses_content_length_response() {
        let addr = serve_raw(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
              Connection: keep-alive\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        );
        let client = WorkerClient::new(addr, Duration::from_secs(2));
        let r = client.get("/healthz").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{\"a\":1}");
        assert!(r.retry_after.is_none());
        assert!(r.head.starts_with("HTTP/1.1 200 OK\r\n"), "{}", r.head);
        assert!(r.head.ends_with("Content-Length: 7"), "{}", r.head);
        assert_eq!((client.requests(), client.connections()), (1, 1));
    }

    #[test]
    fn parses_chunked_response_and_retry_after() {
        let addr = serve_raw(
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\n\
              Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
              4\r\nbusy\r\n3\r\nnow\r\n0\r\n\r\n",
        );
        let client = WorkerClient::new(addr, Duration::from_secs(2));
        let r = client.get("/x").unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.retry_after, Some(3));
        assert_eq!(r.body, "busynow");
    }

    #[test]
    fn overflowing_chunk_size_is_an_error_not_a_panic() {
        let addr = serve_raw(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
              1\r\na\r\nffffffffffffffff\r\n",
        );
        let client = WorkerClient::new(addr, Duration::from_secs(2));
        let err = client.get("/x").unwrap_err();
        assert!(err.contains("size limit"), "{err}");
    }

    #[test]
    fn conflicting_content_lengths_are_an_error() {
        let addr =
            serve_raw(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello");
        let client = WorkerClient::new(addr, Duration::from_secs(2));
        let err = client.get("/x").unwrap_err();
        assert!(err.contains("conflicting Content-Length"), "{err}");
    }

    #[test]
    fn connect_failure_is_an_error_not_a_panic() {
        // Reserved port with no listener.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let client = WorkerClient::new(addr, Duration::from_millis(200));
        assert!(client.get("/healthz").is_err());
    }
}
