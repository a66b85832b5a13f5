//! Loopback HTTP helpers shared by the serve integration tests.

#![allow(dead_code)]

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use omega_serve::client::{read_response, ClientResponse, WorkerClient};

const TIMEOUT: Duration = Duration::from_secs(30);

/// A fresh keep-alive client (one new connection) for `addr`.
pub fn client(addr: SocketAddr) -> WorkerClient {
    WorkerClient::new(addr.to_string(), TIMEOUT)
}

fn parts(r: ClientResponse) -> (u16, String, String) {
    (r.status, r.head, r.body)
}

/// One raw request on a fresh connection: returns (status, header
/// block, body). For requests the client would never write (malformed
/// or hostile framing).
pub fn raw(addr: SocketAddr, request: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(request).expect("write");
    read_framed(&mut stream)
}

/// Reads one framed response off `stream`; the connection stays usable
/// afterwards if the server kept it alive.
pub fn read_framed(stream: &mut TcpStream) -> (u16, String, String) {
    parts(read_response(stream).expect("framed response").0)
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    parts(client(addr).get(path).expect("GET"))
}

pub fn post_scan(addr: SocketAddr, body: &str) -> (u16, String, String) {
    parts(client(addr).post("/scan", body).expect("POST /scan"))
}

/// A small deterministic ms payload; `tag` varies the content.
pub fn ms_payload(tag: u64) -> String {
    let rows = ["10110100", "01011010", "11010001", "00101101", "10011010", "01100101"];
    let mut out = format!(
        "ms 6 1\n{tag}\n\n//\nsegsites: 8\npositions: 0.05 0.15 0.30 0.45 0.55 0.70 0.85 0.95\n"
    );
    for (i, row) in rows.iter().enumerate() {
        // Rotate row bits by `tag + i` so distinct tags yield distinct
        // matrices (and therefore distinct payload digests).
        let shift = ((tag as usize) + i) % row.len();
        out.push_str(&row[shift..]);
        out.push_str(&row[..shift]);
        out.push('\n');
    }
    out
}

pub fn scan_body(tag: u64, grid: usize) -> String {
    format!(
        "{{\"format\":\"ms\",\"payload\":{:?},\"params\":{{\"grid\":{grid}}}}}",
        ms_payload(tag)
    )
}

/// Extracts the job id from a `POST /scan` / `GET /jobs/<id>` body.
pub fn job_id(body: &str) -> String {
    let v = omega_obs::parse_json(body).expect("job body parses");
    v.get("job").and_then(|x| x.as_str()).expect("job id present").to_string()
}

/// Waits for job `id` to leave queued/running; returns the terminal job
/// body.
pub fn poll_done(addr: SocketAddr, id: &str) -> String {
    client(addr).wait_job(id, Instant::now() + TIMEOUT).expect("job reaches a terminal state")
}
