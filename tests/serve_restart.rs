//! The root crash-recovery proof: a real `omegaplus serve` subprocess
//! is loaded, killed with SIGKILL, and rebooted on the same data dir —
//! finished results must come back byte-identical from the store, and
//! repeats must be warm-cache hits.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use omega_serve::client::WorkerClient;

const TIMEOUT: Duration = Duration::from_secs(30);

struct Daemon {
    child: Child,
    client: WorkerClient,
}

fn spawn_daemon(data_dir: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_omegaplus"))
        .args([
            "serve",
            "-addr",
            "127.0.0.1:0",
            "-data-dir",
            data_dir.to_str().expect("utf-8 temp path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines.next().expect("daemon announces its address").expect("stderr reads");
        if let Some(at) = line.find("listening on http://") {
            break line[at + "listening on http://".len()..].trim().to_string();
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    Daemon { child, client: WorkerClient::new(addr, TIMEOUT) }
}

fn scan_body() -> String {
    let payload =
        "ms 6 1\n42\n\n//\nsegsites: 8\npositions: 0.05 0.15 0.30 0.45 0.55 0.70 0.85 0.95\n\
                   10110100\n01011010\n11010001\n00101101\n10011010\n01100101\n";
    format!("{{\"format\":\"ms\",\"payload\":{payload:?},\"params\":{{\"grid\":4}}}}")
}

/// The balanced-brace `"result"` object of a job body, byte for byte.
fn result_object(body: &str) -> &str {
    let start = body.find("\"result\":").expect("result field present") + "\"result\":".len();
    let bytes = body.as_bytes();
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
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
    panic!("unbalanced result object");
}

fn state(job_body: &str) -> Option<String> {
    let v = omega_obs::parse_json(job_body).expect("job body parses");
    v.get("state").and_then(|v| v.as_str()).map(str::to_string)
}

fn counter(client: &WorkerClient, name: &str) -> u64 {
    let stats = client.get("/stats").expect("GET /stats");
    assert_eq!(stats.status, 200);
    omega_obs::parse_json(&stats.body)
        .expect("stats parse")
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
}

#[test]
fn sigkilled_daemon_recovers_results_byte_identical() {
    let data_dir = std::env::temp_dir().join(format!("omega-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    let mut daemon = spawn_daemon(&data_dir);

    // Load the daemon: one scan run to completion.
    let body = scan_body();
    let submit = daemon.client.post("/scan", &body).expect("POST /scan");
    assert_eq!(submit.status, 202, "{}", submit.body);
    let id = omega_obs::parse_json(&submit.body)
        .expect("submit parses")
        .get("job")
        .and_then(|v| v.as_str())
        .expect("job id")
        .to_string();
    let done_before = daemon.client.wait_job(&id, Instant::now() + TIMEOUT).expect("job finishes");
    assert_eq!(state(&done_before).as_deref(), Some("done"), "{done_before}");

    // SIGKILL: no drain, no shutdown hooks — the WAL and store are all
    // that survives.
    daemon.child.kill().expect("SIGKILL lands");
    let _ = daemon.child.wait();

    let mut reborn = spawn_daemon(&data_dir);

    // The finished job answers under its original id with the exact
    // pre-crash result bytes.
    let recovered = reborn.client.get(&format!("/jobs/{id}")).expect("GET /jobs/<id>");
    let done_after = recovered.body;
    assert_eq!(recovered.status, 200, "{done_after}");
    assert_eq!(state(&done_after).as_deref(), Some("done"), "{done_after}");
    assert_eq!(
        result_object(&done_before),
        result_object(&done_after),
        "recovered result is bit-identical"
    );

    // A repeat submission is a warm-cache hit: inline 200, zero misses
    // in the reborn process.
    let replay = reborn.client.post("/scan", &body).expect("POST /scan");
    assert_eq!(replay.status, 200, "warm hit expected: {}", replay.body);
    assert_eq!(result_object(&done_before), result_object(&replay.body), "bit-identical");
    assert_eq!(counter(&reborn.client, "serve.cache_misses"), 0, "no cold misses after reboot");
    assert!(counter(&reborn.client, "serve.store_rehydrated") >= 1, "store primed the cache");

    reborn.child.kill().expect("cleanup kill");
    let _ = reborn.child.wait();
    let _ = std::fs::remove_dir_all(&data_dir);
}
