//! `omegaplus` — command-line selective sweep scanner, mirroring the
//! OmegaPlus tool the paper accelerates.
//!
//! ```text
//! omegaplus -name RUN -input FILE [-format ms|fasta|vcf] [-length BP]
//!           [-grid N] [-minwin BP] [-maxwin BP] [-minsnps N]
//!           [-backend cpu|gpu|fpga|auto] [-device NAME]
//!           [-reps all|first|N] [-overlap on|off] [-report PATH]
//! ```
//!
//! With `-backend gpu|fpga` the scan runs through the simulated
//! accelerator backends and the summary reports the modelled LD/ω time
//! split alongside the (identical) functional results. `-backend auto`
//! prices the workload on every lane with the `omega-accel` cost
//! predictor (CPU rates from the `BENCH_omega.json` calibration record,
//! accelerator rates from the simulator cost models) and runs on the
//! predicted-fastest one. `-reps` selects how many `ms` replicates to
//! scan (default: all, streamed one at a time); `-overlap on` schedules
//! accelerator transfers behind compute.
//!
//! Observability: `-trace PATH` streams span and metrics events to a JSON
//! Lines file (schema in DESIGN.md), `-metrics` prints the metrics
//! registry as a table after the scan.
//!
//! Daemon mode:
//!
//! ```text
//! omegaplus serve [-addr HOST:PORT] [-queue N] [-cache-mb N]
//!                 [-max-body-mb N] [-retry-after SECS]
//!                 [-trace-capacity N] [-trace-all]
//! ```
//!
//! boots the omega-serve HTTP daemon (POST /scan, GET /jobs/<id>,
//! GET /stats, GET /metrics, GET /traces, GET /traces/<id>,
//! GET /healthz) and blocks until killed. See DESIGN.md's "Serving
//! layer" and "Telemetry plane" sections.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

use omega_accel::{Backend, BatchDetector, BatchOutcome, DetectionOutcome, OverlapMode};
use omega_core::{Report, ScanParams};
use omega_fpga_sim::FpgaDevice;
use omega_genome::filter::SiteFilter;
use omega_genome::ms::{MsReadOptions, MsReplicates};
use omega_genome::vcf::VcfReadOptions;
use omega_genome::{fasta, vcf, Alignment};
use omega_gpu_sim::GpuDevice;

/// Which `ms` replicates to scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RepSelect {
    /// Every replicate in the file (the default).
    All,
    /// Only the first replicate (the historical behaviour).
    First,
    /// The first `n` replicates.
    Count(usize),
}

struct Cli {
    name: String,
    input: String,
    format: String,
    length: Option<u64>,
    params: ScanParams,
    backend_kind: String,
    device: String,
    reps: RepSelect,
    overlap: OverlapMode,
    report_path: Option<String>,
    trace_path: Option<String>,
    metrics: bool,
    min_maf: f64,
}

/// Parses the argument list; `Ok(None)` means help was requested.
fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        name: "run".into(),
        input: String::new(),
        format: "ms".into(),
        length: None,
        params: ScanParams::default(),
        backend_kind: "cpu".into(),
        device: String::new(),
        reps: RepSelect::All,
        overlap: OverlapMode::Serialized,
        report_path: None,
        trace_path: None,
        metrics: false,
        min_maf: 0.0,
    };
    let mut i = 0;
    fn value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
        let v = args.get(*i).cloned().ok_or_else(|| format!("{flag} expects a value"))?;
        *i += 1;
        Ok(v)
    }
    while i < args.len() {
        let flag = args[i].clone();
        i += 1;
        let mut num = |name: &str| -> Result<String, String> { value(args, &mut i, name) };
        match flag.as_str() {
            "-name" => cli.name = num("-name")?,
            "-input" => cli.input = num("-input")?,
            "-format" => cli.format = num("-format")?,
            "-length" => cli.length = Some(num("-length")?.parse().map_err(|_| "bad -length")?),
            "-grid" => cli.params.grid = num("-grid")?.parse().map_err(|_| "bad -grid")?,
            "-minwin" => cli.params.min_win = num("-minwin")?.parse().map_err(|_| "bad -minwin")?,
            "-maxwin" => cli.params.max_win = num("-maxwin")?.parse().map_err(|_| "bad -maxwin")?,
            "-minsnps" => {
                cli.params.min_snps_per_side =
                    num("-minsnps")?.parse().map_err(|_| "bad -minsnps")?
            }
            "-backend" => cli.backend_kind = num("-backend")?,
            "-device" => cli.device = num("-device")?,
            "-reps" => {
                cli.reps = match num("-reps")?.as_str() {
                    "all" => RepSelect::All,
                    "first" => RepSelect::First,
                    n => match n.parse() {
                        Ok(c) if c >= 1 => RepSelect::Count(c),
                        _ => return Err("bad -reps: expected all, first, or a count >= 1".into()),
                    },
                }
            }
            "-overlap" => {
                cli.overlap = match num("-overlap")?.as_str() {
                    "on" => OverlapMode::DoubleBuffered,
                    "off" => OverlapMode::Serialized,
                    other => return Err(format!("bad -overlap '{other}': expected on or off")),
                }
            }
            "-report" => cli.report_path = Some(num("-report")?),
            "-trace" => cli.trace_path = Some(num("-trace")?),
            "-metrics" => cli.metrics = true,
            "-maf" => cli.min_maf = num("-maf")?.parse().map_err(|_| "bad -maf")?,
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if cli.input.is_empty() {
        return Err(format!("-input is required\n{USAGE}"));
    }
    Ok(Some(cli))
}

const USAGE: &str = "usage: omegaplus -name RUN -input FILE [-format ms|fasta|vcf] \
[-length BP] [-grid N] [-minwin BP] [-maxwin BP] [-minsnps N] \
[-backend cpu|gpu|fpga|auto] [-device radeon|k80|zcu102|alveo] [-reps all|first|N] \
[-overlap on|off] [-maf F] [-report PATH] [-trace PATH] [-metrics]";

/// Default region length for `ms` coordinate scaling when `-length` is
/// not given (ms positions are fractions of an unstated region).
const DEFAULT_MS_LENGTH: u64 = 100_000;

/// Checks that `path` can plausibly be created: its parent directory must
/// exist and be a directory. Catches the common typo'd-directory case up
/// front, before a long scan runs only to lose its output at the end.
fn validate_output_path(flag: &str, path: &str) -> Result<(), String> {
    match std::path::Path::new(path).parent() {
        // No parent (filesystem root) or an empty one (bare file name in
        // the current directory): nothing to check.
        None => Ok(()),
        Some(p) if p.as_os_str().is_empty() || p.is_dir() => Ok(()),
        Some(p) => Err(format!("{flag} {path}: directory {} does not exist", p.display())),
    }
}

/// Per-replicate report path: `dir/stem.tsv` becomes `dir/stem.repN.tsv`
/// (1-based), `dir/stem` becomes `dir/stem.repN`.
fn replicate_report_path(path: &str, index: usize) -> String {
    let p = std::path::Path::new(path);
    match p.extension().and_then(|e| e.to_str()) {
        Some(ext) => {
            format!("{}.rep{index}.{ext}", p.with_extension("").display())
        }
        None => format!("{path}.rep{index}"),
    }
}

/// Loads the single alignment of a FASTA/VCF input, honoring `-length`.
fn load_single_alignment(cli: &Cli) -> Result<Alignment, String> {
    let file = File::open(&cli.input).map_err(|e| format!("cannot open {}: {e}", cli.input))?;
    let reader = BufReader::new(file);
    let alignment = match cli.format.as_str() {
        "fasta" => {
            let a = fasta::read_fasta(reader).map_err(|e| e.to_string())?;
            match cli.length {
                Some(len) => a.with_region_len(len).map_err(|e| e.to_string())?,
                None => a,
            }
        }
        "vcf" => {
            let out = vcf::read_vcf_with(reader, VcfReadOptions { region_len: cli.length })
                .map_err(|e| e.to_string())?;
            if out.skipped_records > 0 {
                eprintln!("omegaplus: skipped {} non-biallelic/no-GT records", out.skipped_records);
            }
            if out.unsorted_records > 0 {
                eprintln!(
                    "omegaplus: {} records arrived out of POS order (sorted)",
                    out.unsorted_records
                );
            }
            if out.duplicate_records > 0 {
                eprintln!("omegaplus: dropped {} duplicate-POS records", out.duplicate_records);
            }
            out.alignment
        }
        other => return Err(format!("unknown format '{other}'")),
    };
    Ok(SiteFilter { min_maf: cli.min_maf, ..SiteFilter::default() }.apply(&alignment))
}

/// Streams the selected `ms` replicates through the batch driver. Only
/// one replicate is resident at a time, so peak memory is independent of
/// the replicate count.
fn run_ms_batch(cli: &Cli, batch: &BatchDetector) -> Result<BatchOutcome, String> {
    let file = File::open(&cli.input).map_err(|e| format!("cannot open {}: {e}", cli.input))?;
    let reader = BufReader::new(file);
    let opts = MsReadOptions { region_len: cli.length.unwrap_or(DEFAULT_MS_LENGTH) };
    let filter = SiteFilter { min_maf: cli.min_maf, ..SiteFilter::default() };
    let replicates = MsReplicates::new(reader, opts);
    let selected: Box<dyn Iterator<Item = _>> = match cli.reps {
        RepSelect::All => Box::new(replicates),
        RepSelect::First => Box::new(replicates.take(1)),
        RepSelect::Count(n) => Box::new(replicates.take(n)),
    };
    let mut index = 0usize;
    let stream = selected.map(move |r| {
        r.map(|a| {
            index += 1;
            let a = filter.apply(&a);
            eprintln!(
                "omegaplus: replicate {index}: {} sites x {} samples over {} bp",
                a.n_sites(),
                a.n_samples(),
                a.region_len()
            );
            a
        })
        .map_err(|e| e.to_string())
    });
    let outcome = batch.run(stream)?;
    if outcome.n_replicates() == 0 {
        return Err("ms input contains no replicates".into());
    }
    if let RepSelect::Count(n) = cli.reps {
        if outcome.n_replicates() < n {
            eprintln!(
                "omegaplus: only {} replicates available (requested {n})",
                outcome.n_replicates()
            );
        }
    }
    Ok(outcome)
}

/// Prints the single-replicate report block (the historical output
/// format) and writes the TSV to `-report` or stdout.
fn print_single(cli: &Cli, outcome: &DetectionOutcome) -> Result<(), String> {
    println!("# OmegaPlus-rs report: {}", cli.name);
    println!("# backend: {}", outcome.backend);
    println!(
        "# LD time: {:.6}s  omega time: {:.6}s  other: {:.6}s",
        outcome.ld_seconds, outcome.omega_seconds, outcome.other_seconds
    );
    if cli.overlap == OverlapMode::DoubleBuffered {
        println!("# hidden by overlap: {:.6}s", outcome.overlap_hidden_seconds);
    }
    println!(
        "# omega evaluations: {}  r2 pairs: {}  reused cells: {}",
        outcome.stats.omega_evaluations, outcome.stats.r2_pairs, outcome.stats.cells_reused
    );
    let report = Report::from_results(&outcome.results);
    if let Some(peak) = report.peak() {
        println!(
            "# peak omega {:.4} at position {} (window {}..{})",
            peak.omega, peak.pos_bp, peak.left_bp, peak.right_bp
        );
    }
    match &cli.report_path {
        Some(path) => {
            write_report(&report, path)?;
            println!("# per-position report written to {path}");
        }
        None => {
            let stdout = std::io::stdout();
            let mut w = BufWriter::new(stdout.lock());
            report.write_tsv(&mut w).map_err(|e| e.to_string())?;
            w.flush().map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Prints the multi-replicate aggregate block: per-replicate peaks (and
/// TSVs under `-report` with `.repN` names) plus batch totals.
fn print_batch(cli: &Cli, outcome: &BatchOutcome) -> Result<(), String> {
    println!("# OmegaPlus-rs batch report: {}", cli.name);
    println!("# backend: {}", outcome.backend);
    println!("# replicates: {}", outcome.n_replicates());
    for (i, rep) in outcome.replicates.iter().enumerate() {
        let index = i + 1;
        let report = Report::from_results(&rep.results);
        match report.peak() {
            Some(peak) => println!(
                "# replicate {index}: peak omega {:.4} at position {} (window {}..{})",
                peak.omega, peak.pos_bp, peak.left_bp, peak.right_bp
            ),
            None => println!("# replicate {index}: no scorable position"),
        }
        if let Some(path) = &cli.report_path {
            let rep_path = replicate_report_path(path, index);
            write_report(&report, &rep_path)?;
            println!("# replicate {index} report written to {rep_path}");
        }
    }
    println!(
        "# total LD time: {:.6}s  omega time: {:.6}s  other: {:.6}s",
        outcome.ld_seconds, outcome.omega_seconds, outcome.other_seconds
    );
    if cli.overlap == OverlapMode::DoubleBuffered {
        println!("# hidden by overlap: {:.6}s", outcome.overlap_hidden_seconds);
    }
    println!(
        "# omega evaluations: {}  r2 pairs: {}  reused cells: {}",
        outcome.stats.omega_evaluations, outcome.stats.r2_pairs, outcome.stats.cells_reused
    );
    Ok(())
}

fn write_report(report: &Report, path: &str) -> Result<(), String> {
    let f = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = BufWriter::new(f);
    report.write_tsv(&mut w).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())
}

fn pick_backend(cli: &Cli) -> Result<Backend, String> {
    match cli.backend_kind.as_str() {
        "cpu" => Ok(Backend::Cpu),
        "gpu" => Ok(Backend::Gpu(match cli.device.as_str() {
            "" | "k80" => GpuDevice::tesla_k80(),
            "radeon" => GpuDevice::radeon_hd8750m(),
            other => return Err(format!("unknown GPU device '{other}'")),
        })),
        "fpga" => Ok(Backend::Fpga(match cli.device.as_str() {
            "" | "alveo" => FpgaDevice::alveo_u200(),
            "zcu102" => FpgaDevice::zcu102(),
            other => return Err(format!("unknown FPGA device '{other}'")),
        })),
        other => Err(format!("unknown backend '{other}'")),
    }
}

/// Resolves `-backend auto` by pricing the workload on every lane and
/// reporting the decision. For `ms` inputs the first replicate is the
/// shape proxy for the whole file (replicates from one simulation share
/// their workload shape to first order).
fn resolve_auto_backend(cli: &Cli) -> Result<Backend, String> {
    if !cli.device.is_empty() {
        return Err("-backend auto cannot be combined with -device (auto picks the lane)".into());
    }
    let alignment = if cli.format == "ms" {
        let file = File::open(&cli.input).map_err(|e| format!("cannot open {}: {e}", cli.input))?;
        let opts = MsReadOptions { region_len: cli.length.unwrap_or(DEFAULT_MS_LENGTH) };
        let filter = SiteFilter { min_maf: cli.min_maf, ..SiteFilter::default() };
        let mut replicates = MsReplicates::new(BufReader::new(file), opts);
        match replicates.next() {
            Some(Ok(a)) => filter.apply(&a),
            Some(Err(e)) => return Err(e.to_string()),
            None => return Err("ms input contains no replicates".into()),
        }
    } else {
        load_single_alignment(cli)?
    };
    let prediction = omega_accel::CostPredictor::global().predict(&alignment, &cli.params);
    let lane = prediction.fastest();
    eprintln!(
        "omegaplus: backend auto: predicted cpu {:.6}s  gpu {:.6}s  fpga {:.6}s -> {}",
        prediction.cpu_seconds,
        prediction.gpu_seconds,
        prediction.fpga_seconds,
        lane.as_str()
    );
    Ok(lane.backend())
}

fn run(cli: &Cli) -> Result<(), String> {
    // Output destinations are validated before any work happens, so a
    // mistyped directory fails in milliseconds, not after the scan.
    if let Some(path) = &cli.report_path {
        validate_output_path("-report", path)?;
    }
    if let Some(path) = &cli.trace_path {
        validate_output_path("-trace", path)?;
        omega_obs::install_jsonl(std::path::Path::new(path))
            .map_err(|e| format!("-trace {path}: {e}"))?;
    }
    let backend =
        if cli.backend_kind == "auto" { resolve_auto_backend(cli)? } else { pick_backend(cli)? };
    let detector = omega_accel::SweepDetector::new(cli.params, backend)
        .map_err(|e| e.to_string())?
        .with_overlap(cli.overlap);

    if cli.format == "ms" {
        let batch = BatchDetector::from_detector(detector);
        let outcome = run_ms_batch(cli, &batch)?;
        if outcome.n_replicates() == 1 {
            print_single(cli, &outcome.replicates[0])?;
        } else {
            print_batch(cli, &outcome)?;
        }
    } else {
        let alignment = load_single_alignment(cli)?;
        eprintln!(
            "omegaplus: {} sites x {} samples over {} bp",
            alignment.n_sites(),
            alignment.n_samples(),
            alignment.region_len()
        );
        let outcome = detector.detect(&alignment);
        print_single(cli, &outcome)?;
    }

    let snap = omega_obs::snapshot();
    if cli.metrics {
        eprint!("{}", omega_obs::metrics_table(&snap));
    }
    if let Some(path) = &cli.trace_path {
        omega_obs::emit_metrics_snapshot(&snap);
        omega_obs::uninstall().map_err(|e| format!("-trace {path}: {e}"))?;
        eprintln!("omegaplus: trace written to {path}");
    }
    Ok(())
}

const SERVE_USAGE: &str = "usage: omegaplus serve [-addr HOST:PORT] [-queue N] \
[-cache-mb N] [-max-body-mb N] [-retry-after SECS] [-trace-capacity N] [-trace-all] \
[-data-dir PATH] [-no-persist] [-retain-jobs N] [-retain-secs SECS] [-worker-id NAME]";

const COORDINATE_USAGE: &str = "usage: omegaplus coordinate -workers HOST:PORT,HOST:PORT,... \
[-addr HOST:PORT] [-max-body-mb N] [-shards N] [-shard-timeout-ms MS] [-health-ms MS] \
[-io-timeout-ms MS]";

/// Parses `omegaplus coordinate` flags into a coordinator configuration.
fn parse_coordinate_args(args: &[String]) -> Result<Option<omega_cluster::ClusterConfig>, String> {
    let mut config = omega_cluster::ClusterConfig::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        i += 1;
        let mut num = |name: &str| -> Result<String, String> {
            let v = args.get(i).cloned().ok_or_else(|| format!("{name} expects a value"))?;
            i += 1;
            Ok(v)
        };
        match flag.as_str() {
            "-addr" => config.addr = num("-addr")?,
            "-workers" => {
                config.workers = num("-workers")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "-max-body-mb" => {
                let mb: usize = num("-max-body-mb")?.parse().map_err(|_| "bad -max-body-mb")?;
                config.max_body_bytes = mb << 20;
            }
            "-shards" => {
                config.shards_per_scan = num("-shards")?.parse().map_err(|_| "bad -shards")?
            }
            "-shard-timeout-ms" => {
                config.shard_timeout_ms =
                    num("-shard-timeout-ms")?.parse().map_err(|_| "bad -shard-timeout-ms")?
            }
            "-health-ms" => {
                config.health_interval_ms =
                    num("-health-ms")?.parse().map_err(|_| "bad -health-ms")?
            }
            "-io-timeout-ms" => {
                config.io_timeout_ms =
                    num("-io-timeout-ms")?.parse().map_err(|_| "bad -io-timeout-ms")?
            }
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown flag '{other}'\n{COORDINATE_USAGE}")),
        }
    }
    if config.workers.is_empty() {
        return Err(format!("-workers is required\n{COORDINATE_USAGE}"));
    }
    Ok(Some(config))
}

fn run_coordinate(args: &[String]) -> ExitCode {
    match parse_coordinate_args(args) {
        Ok(None) => {
            println!("{COORDINATE_USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(config)) => match omega_cluster::start(config) {
            Ok(handle) => {
                eprintln!("omegaplus coordinate: listening on http://{}", handle.addr());
                handle.wait();
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("omegaplus coordinate: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("omegaplus coordinate: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `omegaplus serve` flags into a daemon configuration.
fn parse_serve_args(args: &[String]) -> Result<Option<omega_serve::ServeConfig>, String> {
    let mut config = omega_serve::ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        i += 1;
        let mut num = |name: &str| -> Result<String, String> {
            let v = args.get(i).cloned().ok_or_else(|| format!("{name} expects a value"))?;
            i += 1;
            Ok(v)
        };
        match flag.as_str() {
            "-addr" => config.addr = num("-addr")?,
            "-queue" => config.queue_capacity = num("-queue")?.parse().map_err(|_| "bad -queue")?,
            "-cache-mb" => {
                let mb: usize = num("-cache-mb")?.parse().map_err(|_| "bad -cache-mb")?;
                config.cache_capacity_bytes = mb << 20;
            }
            "-max-body-mb" => {
                let mb: usize = num("-max-body-mb")?.parse().map_err(|_| "bad -max-body-mb")?;
                config.max_body_bytes = mb << 20;
            }
            "-retry-after" => {
                config.retry_after_secs =
                    num("-retry-after")?.parse().map_err(|_| "bad -retry-after")?
            }
            "-trace-capacity" => {
                config.trace_capacity =
                    num("-trace-capacity")?.parse().map_err(|_| "bad -trace-capacity")?
            }
            "-trace-all" => config.trace_all = true,
            "-data-dir" => config.data_dir = Some(num("-data-dir")?.into()),
            "-no-persist" => config.data_dir = None,
            "-retain-jobs" => {
                config.retain_jobs = num("-retain-jobs")?.parse().map_err(|_| "bad -retain-jobs")?
            }
            "-retain-secs" => {
                config.retain_job_secs =
                    num("-retain-secs")?.parse().map_err(|_| "bad -retain-secs")?
            }
            "-worker-id" => config.worker_id = num("-worker-id")?,
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown flag '{other}'\n{SERVE_USAGE}")),
        }
    }
    if config.queue_capacity == 0 {
        return Err("-queue must be >= 1".into());
    }
    Ok(Some(config))
}

fn run_serve(args: &[String]) -> ExitCode {
    match parse_serve_args(args) {
        Ok(None) => {
            println!("{SERVE_USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(config)) => match omega_serve::start(config) {
            Ok(handle) => {
                eprintln!("omegaplus serve: listening on http://{}", handle.addr());
                handle.wait();
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("omegaplus serve: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("omegaplus serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return run_serve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("coordinate") {
        return run_coordinate(&args[1..]);
    }
    match parse_args(&args) {
        Ok(None) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(cli)) => match run(&cli) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("omegaplus: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("omegaplus: {msg}");
            ExitCode::FAILURE
        }
    }
}
