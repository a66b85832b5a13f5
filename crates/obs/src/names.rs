//! The central registry of instrument names.
//!
//! Every span, counter, gauge, and histogram name used anywhere in the
//! workspace must be listed in [`INSTRUMENTS`] (names beginning with
//! `test.` are exempt, as is `#[cfg(test)]` code). The `omega-lint`
//! `counter-registry` rule enforces this by parsing this file and
//! cross-checking every `span!`/`counter!`/`gauge!`/`histogram!` call
//! site, so a typo'd or undocumented instrument name fails the lint
//! instead of silently fragmenting a metric across two spellings.
//!
//! Keep the list sorted; `registry_is_sorted_and_unique` pins that so
//! diffs stay reviewable and lookups can binary-search.

/// Every instrument name the workspace emits, sorted, with the emitting
/// subsystem's prefix as the first dotted segment.
pub const INSTRUMENTS: &[&str] = &[
    "accel.batch",
    "accel.detect",
    "accel.detect.positions",
    "accel.detect.runs",
    "accel.grid_positions",
    "accel.position",
    "bench.noop",
    "bench.noop.ops",
    "cluster.conn_retries",
    "cluster.failovers",
    "cluster.invalid_shard_results",
    "cluster.local_shards",
    "cluster.merge_ns",
    "cluster.partition_ns",
    "cluster.rejected",
    "cluster.request_ns",
    "cluster.requests",
    "cluster.requests_failed",
    "cluster.retries",
    "cluster.shard_ns",
    "cluster.shards_dispatched",
    "cluster.worker_failures",
    "cluster.workers_healthy",
    "fpga.estimate",
    "fpga.hw_scores",
    "fpga.pipeline.cycles",
    "fpga.pipeline.inputs",
    "fpga.pipeline.stall_cycles",
    "fpga.stage.omega_ns",
    "fpga.sw_scores",
    "fpga.task",
    "gpu.estimate",
    "gpu.kernel1.launches",
    "gpu.kernel2.launches",
    "gpu.ld.block",
    "gpu.ld.pairs",
    "gpu.stage.kernel_ns",
    "gpu.stage.transfer_ns",
    "gpu.task",
    "gpu.task.scores",
    "gpu.transfer.bytes",
    "kernel.simd_fallback_runs",
    "kernel.simd_runs",
    "kernel.simd_scores",
    "matrix.advance",
    "matrix.cells_reused",
    "matrix.r2_pairs",
    "obs.trace.completed",
    "obs.trace.dropped",
    "omega.evaluations",
    "omega.kernel",
    "omega.kernel_lanes",
    "omega_max",
    "scan.batch_replicates",
    "scan.parallel",
    "scan.parallel_ns",
    "scan.position",
    "scan.positions",
    "scan.replicates",
    "scan.reuse_lost_at_seams",
    "scan.scorable_positions",
    "scan.sequential",
    "scan.sequential_ns",
    "scan.steals",
    "serve.auto_error_pct",
    "serve.auto_predict_ns",
    "serve.auto_routed",
    "serve.auto_routed.cpu",
    "serve.auto_routed.fpga",
    "serve.auto_routed.gpu",
    "serve.batch_size",
    "serve.cache_evictions",
    "serve.cache_hits",
    "serve.cache_lookup",
    "serve.cache_lookup_ns",
    "serve.cache_misses",
    "serve.coalesce",
    "serve.coalesce_ns",
    "serve.http_conn_reuses",
    "serve.jobs",
    "serve.jobs_evicted",
    "serve.jobs_recovered",
    "serve.kernel",
    "serve.kernel_ns",
    "serve.kernel_ns.cpu",
    "serve.kernel_ns.fpga",
    "serve.kernel_ns.gpu",
    "serve.lane.cpu",
    "serve.lane.fpga",
    "serve.lane.gpu",
    "serve.latency.cpu",
    "serve.latency.fpga",
    "serve.latency.gpu",
    "serve.queue_depth",
    "serve.queue_wait",
    "serve.queue_wait_ns",
    "serve.rejected",
    "serve.request",
    "serve.store_bytes",
    "serve.store_errors",
    "serve.store_hits",
    "serve.store_misses",
    "serve.store_rehydrated",
    "serve.store_writes",
    "serve.transfer",
    "serve.transfer_ns",
    "serve.wal_appends",
    "serve.wal_bytes",
    "serve.wal_compactions",
    "serve.wal_corrupt_skipped",
    "serve.wal_errors",
    "serve.wal_fsync_ns",
    "serve.wal_replayed",
    "transfer.overlapped_bytes",
];

/// Whether `name` is a registered instrument (or `test.`-prefixed,
/// which the registry deliberately does not track).
pub fn is_registered(name: &str) -> bool {
    name.starts_with("test.") || INSTRUMENTS.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for w in INSTRUMENTS.windows(2) {
            assert!(w[0] < w[1], "out of order or duplicate: {:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn lookup_hits_and_misses() {
        assert!(is_registered("scan.steals"));
        assert!(is_registered("omega_max"));
        assert!(is_registered("test.anything.at.all"));
        assert!(!is_registered("scan.stales"));
        assert!(!is_registered(""));
    }

    #[test]
    fn names_are_dotted_lowercase() {
        for name in INSTRUMENTS {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)),
                "instrument {name:?} breaks the naming convention"
            );
        }
    }
}
