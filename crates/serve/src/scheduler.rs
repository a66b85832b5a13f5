//! The batching scheduler: one worker per backend lane.
//!
//! A worker blocks on its lane, drains whatever is queued, groups the
//! drained jobs by (device, overlap, params), and runs each group as a
//! *single* [`omega_accel::BatchDetector`] batch — replicates from many
//! requests flow through one detector, reusing the transfer-overlap
//! machinery exactly as a multi-replicate CLI run would. Per-replicate
//! results are bit-identical to independent runs (the `BatchDetector`
//! contract), so coalescing is invisible to clients.
//!
//! The worker keeps its last detector alive across groups: when only the
//! parameters change it retargets it through [`BatchDetector::reset`]
//! (no backend re-validation); an incompatible retarget fails just that
//! group with the typed [`omega_accel::ReconfigureError`], never the
//! lane.

use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

use omega_accel::{shard::shard_grid_plan, BatchDetector, BatchOutcome, ShardSpec};
use omega_core::{ScanParams, ScanStats};
use omega_gpu_sim::OverlapMode;

use crate::cache::{CacheKey, ResultCache};
use crate::job::{job_latency_histogram, kernel_stage_histogram, make_backend};
use crate::job::{result_json, timing_json, BackendKind, JobState, JobTable};
use crate::queue::{Lanes, Submission};
use crate::store::key_digest;
use crate::wal::Wal;

/// Jobs that batch into one detector run share this configuration.
/// Shard jobs group only with jobs of the *same* shard geometry — a
/// shard evaluates a custom grid slice, so it can never coalesce with a
/// whole-scan batch.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GroupKey {
    device: String,
    overlap_on: bool,
    params: ScanParams,
    shard: Option<ShardSpec>,
}

/// Partitions a drained batch into runnable groups, preserving
/// first-seen order (fairness: earlier submissions run first).
fn group_submissions(batch: Vec<Submission>) -> Vec<(GroupKey, Vec<Submission>)> {
    let mut groups: Vec<(GroupKey, Vec<Submission>)> = Vec::new();
    for sub in batch {
        let key = GroupKey {
            device: sub.request.device.clone(),
            overlap_on: sub.request.overlap == OverlapMode::DoubleBuffered,
            params: sub.request.params,
            shard: sub.request.shard,
        };
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(sub),
            None => groups.push((key, vec![sub])),
        }
    }
    groups
}

/// A lane's reusable detector: rebuilt only when device/overlap change,
/// retargeted in place when just the parameters do.
struct LaneDetector {
    device: String,
    overlap: OverlapMode,
    detector: BatchDetector,
}

fn obtain_detector(
    kind: BackendKind,
    key: &GroupKey,
    current: &mut Option<LaneDetector>,
    overlap: OverlapMode,
) -> Result<(), String> {
    if let Some(lane) = current.as_mut() {
        if lane.device == key.device && lane.overlap == overlap {
            if *lane.detector.detector().params() != key.params {
                // The typed mid-batch error: backend stays validated.
                lane.detector.reset(key.params).map_err(|e| e.to_string())?;
            }
            return Ok(());
        }
    }
    let backend = make_backend(kind, &key.device).map_err(|e| e.to_string())?;
    let detector =
        BatchDetector::new(key.params, backend).map_err(|e| e.to_string())?.with_overlap(overlap);
    *current = Some(LaneDetector { device: key.device.clone(), overlap, detector });
    Ok(())
}

/// Per-job slice of a coalesced batch outcome. `BatchOutcome` exposes
/// its fields, so a job's view is rebuilt from its replicate range with
/// re-aggregated timing/stats — the replicate outcomes themselves are
/// exactly what a solo run would produce.
fn job_outcome(whole: &BatchOutcome, start: usize, len: usize) -> BatchOutcome {
    let replicates = whole.replicates[start..start + len].to_vec();
    let mut stats = ScanStats::default();
    let mut ld = 0.0f64;
    let mut omega = 0.0f64;
    let mut other = 0.0f64;
    let mut hidden = 0.0f64;
    let mut transfer = 0.0f64;
    for rep in &replicates {
        ld += rep.ld_seconds;
        omega += rep.omega_seconds;
        other += rep.other_seconds;
        hidden += rep.overlap_hidden_seconds;
        transfer += rep.transfer_seconds;
        stats.accumulate(&rep.stats);
    }
    BatchOutcome {
        backend: whole.backend.clone(),
        replicates,
        ld_seconds: ld,
        omega_seconds: omega,
        other_seconds: other,
        overlap_hidden_seconds: hidden,
        transfer_seconds: transfer,
        stats,
    }
}

/// Closes a traced job's request trace with a terminal state annotation.
fn finish_trace(sub: &Submission, kind: BackendKind, state: JobState) {
    if let Some(trace) = &sub.trace {
        trace.annotate("job", &sub.id.to_string());
        trace.annotate("backend", kind.as_str());
        trace.annotate("state", state.as_str());
        trace.finish();
    }
}

/// The shared state a lane worker touches on every group: the job
/// table, the result cache, and (when persistence is on) the WAL.
struct LaneCtx<'a> {
    table: &'a JobTable,
    cache: &'a ResultCache,
    wal: Option<&'a Wal>,
}

fn fail_group(ctx: &LaneCtx<'_>, kind: BackendKind, members: &[Submission], message: &str) {
    for sub in members {
        ctx.table.update(sub.id, |r| {
            r.state = JobState::Failed;
            r.error = Some(message.to_string());
        });
        if let Some(wal) = ctx.wal {
            wal.append_terminal(sub.id.0, JobState::Failed, None);
        }
        finish_trace(sub, kind, JobState::Failed);
    }
}

fn run_group(
    kind: BackendKind,
    key: &GroupKey,
    members: Vec<Submission>,
    current: &mut Option<LaneDetector>,
    ctx: &LaneCtx<'_>,
    pickup: Instant,
) {
    let LaneCtx { table, cache, wal } = *ctx;
    // Deadline check happens at pickup: a job whose deadline passed
    // while queued expires without costing detector time.
    let mut live: Vec<Submission> = Vec::with_capacity(members.len());
    for sub in members {
        let expired = sub
            .request
            .deadline
            .zip(table.get(sub.id).map(|r| r.submitted))
            .is_some_and(|(deadline, submitted)| submitted.elapsed() > deadline);
        if expired {
            table.update(sub.id, |r| {
                r.state = JobState::Expired;
                r.error = Some("deadline exceeded before a lane picked the job up".to_string());
            });
            if let Some(wal) = wal {
                wal.append_terminal(sub.id.0, JobState::Expired, None);
            }
            finish_trace(&sub, kind, JobState::Expired);
        } else {
            live.push(sub);
        }
    }
    if live.is_empty() {
        return;
    }

    // Queue-wait stage: submission instant → lane pickup. Recorded into
    // the histogram for every job; traced jobs also get the span.
    for sub in &live {
        let Some(submitted) = table.get(sub.id).map(|r| r.submitted) else { continue };
        let wait_ns = pickup.saturating_duration_since(submitted).as_nanos() as u64;
        omega_obs::histogram!("serve.queue_wait_ns").record(wait_ns);
        if let Some(trace) = &sub.trace {
            let start_ns = trace.offset_of(submitted);
            trace.record_wall("serve.queue_wait", trace.root_span(), start_ns, wait_ns);
        }
    }

    let overlap =
        if key.overlap_on { OverlapMode::DoubleBuffered } else { OverlapMode::Serialized };
    if let Err(message) = obtain_detector(kind, key, current, overlap) {
        fail_group(ctx, kind, &live, &message);
        return;
    }
    let Some(lane) = current.as_ref() else {
        fail_group(ctx, kind, &live, "internal: lane detector unavailable");
        return;
    };

    for sub in &live {
        table.update(sub.id, |r| r.state = JobState::Running);
    }
    omega_obs::histogram!("serve.batch_size").record(live.len() as u64);

    // One coalesced run over every member's replicates.
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(live.len());
    let mut alignments = Vec::new();
    for sub in &live {
        ranges.push((alignments.len(), sub.request.alignments.len()));
        alignments.extend(sub.request.alignments.iter().cloned());
    }

    // Coalesce stage: pickup → run start (grouping, detector obtain or
    // retarget, batch assembly).
    let run_start = Instant::now();
    let coalesce_ns = run_start.saturating_duration_since(pickup).as_nanos() as u64;
    omega_obs::histogram!("serve.coalesce_ns").record(coalesce_ns);
    for sub in &live {
        if let Some(trace) = &sub.trace {
            trace.record_wall(
                "serve.coalesce",
                trace.root_span(),
                trace.offset_of(pickup),
                coalesce_ns,
            );
        }
    }

    let outcome = {
        let _lane_span = match kind {
            BackendKind::Cpu => omega_obs::span!("serve.lane.cpu"),
            BackendKind::Gpu => omega_obs::span!("serve.lane.gpu"),
            BackendKind::Fpga => omega_obs::span!("serve.lane.fpga"),
        };
        match key.shard {
            // Shard jobs evaluate a slice of a *global* grid: positions
            // come from the ShardSpec geometry, not from the shipped
            // (sliced) alignment, so a coordinator's merged report is
            // bit-identical to a single-node scan.
            Some(spec) => {
                let det = lane.detector.detector();
                let mut outcomes = Vec::with_capacity(alignments.len());
                for alignment in &alignments {
                    match shard_grid_plan(alignment, &spec, &key.params) {
                        Some(plan) => outcomes.push(det.detect_with_plan(alignment, &plan)),
                        None => {
                            fail_group(ctx, kind, &live, "shard spec is not a valid grid slice");
                            return;
                        }
                    }
                }
                BatchOutcome::from_replicates(det.backend().label(), outcomes)
            }
            None => {
                let Ok(outcome) =
                    lane.detector.run(alignments.into_iter().map(Ok::<_, Infallible>));
                outcome
            }
        }
    };

    // Kernel stage: the coalesced detector run's wall time, charged to
    // every member (they share the batch).
    let kernel_ns = run_start.elapsed().as_nanos() as u64;
    omega_obs::histogram!("serve.kernel_ns").record(kernel_ns);
    kernel_stage_histogram(kind).record(kernel_ns);

    for (sub, (start, len)) in live.iter().zip(ranges) {
        let per_job = job_outcome(&outcome, start, len);
        // Auto-routed jobs: absolute prediction error against the stage
        // time the predictor actually modelled (LD+ω), in percent.
        if let Some(predicted) = sub.request.predicted_seconds {
            let actual = per_job.ld_seconds + per_job.omega_seconds;
            if actual > 0.0 {
                let err_pct = ((predicted - actual).abs() / actual * 100.0) as u64;
                omega_obs::histogram!("serve.auto_error_pct").record(err_pct);
            }
        }
        let transfer_ns = (per_job.transfer_seconds * 1e9) as u64;
        if transfer_ns > 0 {
            omega_obs::histogram!("serve.transfer_ns").record(transfer_ns);
        }
        if let Some(trace) = &sub.trace {
            let kernel_span = trace.record_wall(
                "serve.kernel",
                trace.root_span(),
                trace.offset_of(run_start),
                kernel_ns,
            );
            if transfer_ns > 0 {
                // Modelled: simulator cost-model time, not contained in
                // the kernel span's wall clock.
                trace.record_modelled(
                    "serve.transfer",
                    kernel_span,
                    trace.offset_of(run_start),
                    transfer_ns,
                );
            }
        }
        let result = Arc::new(result_json(&per_job));
        let timing = timing_json(&per_job);
        let cache_key = CacheKey::new(
            sub.request.payload_digest,
            sub.request.params,
            sub.request.backend_label.clone(),
            sub.request.overlap,
            sub.request.shard,
        );
        let digest = key_digest(&cache_key);
        cache.insert(cache_key, Arc::clone(&result));
        table.update(sub.id, |r| {
            r.state = JobState::Done;
            r.result = Some(result);
            r.timing = Some(timing);
            job_latency_histogram(kind).record(r.submitted.elapsed().as_nanos() as u64);
        });
        // The terminal record lands *after* the result is durable in the
        // store (cache.insert writes through), so a recovered `done`
        // record can always rehydrate its bytes.
        if let Some(wal) = wal {
            wal.append_terminal(sub.id.0, JobState::Done, Some(digest));
        }
        finish_trace(sub, kind, JobState::Done);
    }
}

/// The lane worker loop: runs until the lanes drain dry. With a WAL
/// attached, every terminal transition appends a fsync'd `end` record
/// so a restart never re-runs finished work.
pub fn run_lane(
    kind: BackendKind,
    lanes: &Lanes,
    table: &JobTable,
    cache: &ResultCache,
    wal: Option<&Wal>,
) {
    let ctx = LaneCtx { table, cache, wal };
    let mut current: Option<LaneDetector> = None;
    while let Some(batch) = lanes.pop_batch(kind) {
        let pickup = Instant::now();
        for (key, members) in group_submissions(batch) {
            run_group(kind, &key, members, &mut current, &ctx, pickup);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::parse_scan_request;
    use crate::queue::Submission;

    fn request_body(positions: &str, grid: usize) -> String {
        let payload =
            format!("ms 4 1\n1\n\n//\nsegsites: 3\npositions: {positions}\n101\n010\n110\n001\n");
        format!("{{\"format\":\"ms\",\"payload\":{payload:?},\"params\":{{\"grid\":{grid}}}}}")
    }

    fn submit(lanes: &Lanes, table: &JobTable, body: &str) -> crate::job::JobId {
        let request = parse_scan_request(body).unwrap();
        let id = table.create(request.kind);
        lanes.submit(Submission { id, request, trace: None }).unwrap();
        id
    }

    #[test]
    fn grouping_coalesces_identical_configs_in_order() {
        let a = parse_scan_request(&request_body("0.1 0.4 0.8", 4)).unwrap();
        let b = parse_scan_request(&request_body("0.2 0.5 0.9", 4)).unwrap();
        let c = parse_scan_request(&request_body("0.1 0.4 0.8", 8)).unwrap();
        let groups = group_submissions(vec![
            Submission { id: crate::job::JobId(1), request: a, trace: None },
            Submission { id: crate::job::JobId(2), request: c, trace: None },
            Submission { id: crate::job::JobId(3), request: b, trace: None },
        ]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1.len(), 2, "same-config jobs coalesce");
        assert_eq!(groups[0].1[0].id, crate::job::JobId(1));
        assert_eq!(groups[0].1[1].id, crate::job::JobId(3));
    }

    #[test]
    fn worker_drains_and_completes_jobs() {
        let lanes = Lanes::with_capacity(8);
        let table = JobTable::default();
        let cache = ResultCache::with_capacity(1 << 20);
        let id1 = submit(&lanes, &table, &request_body("0.1 0.4 0.8", 4));
        let id2 = submit(&lanes, &table, &request_body("0.2 0.5 0.9", 4));
        lanes.begin_drain();
        run_lane(BackendKind::Cpu, &lanes, &table, &cache, None);
        for id in [id1, id2] {
            let record = table.get(id).unwrap();
            assert_eq!(record.state, JobState::Done, "{:?}", record.error);
            assert!(record.result.is_some());
            assert!(record.timing.is_some());
        }
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn expired_jobs_never_run() {
        let lanes = Lanes::with_capacity(8);
        let table = JobTable::default();
        let cache = ResultCache::with_capacity(1 << 20);
        let body = format!(
            "{{\"format\":\"ms\",\"payload\":{:?},\"deadline_ms\":0}}",
            "ms 4 1\n1\n\n//\nsegsites: 3\npositions: 0.1 0.4 0.8\n101\n010\n110\n001\n"
        );
        let id = submit(&lanes, &table, &body);
        std::thread::sleep(std::time::Duration::from_millis(5));
        lanes.begin_drain();
        run_lane(BackendKind::Cpu, &lanes, &table, &cache, None);
        let record = table.get(id).unwrap();
        assert_eq!(record.state, JobState::Expired);
        assert!(record.result.is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
