//! The ADLP benchmark: one closed-loop workload per run, measured end to
//! end (untraced) or layer by layer (traced).
//!
//! ```text
//! cargo run --release --manifest-path adlpbench/Cargo.toml -- \
//!     --workload link --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `adlpbench/README.md` for the workloads and metrics.

mod alloc;
mod ingest;
mod light;
mod link;
mod oracle;
mod probe;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Every end-to-end metric, with its unit, printed by an untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("log_bytes_per_op", "B"),
    ("peak_heap_mb", "MiB"),
];

/// Every per-layer metric, with its unit, printed by a traced run. A
/// layer that does no work in a workload reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.sign_us", "us"),
    ("crypto.verify_us", "us"),
    ("crypto.sign_allocs", "count"),
    ("crypto.sha256_us_per_kib", "us/KiB"),
    ("crypto.keygen_ms", "ms"),
    ("pubsub.publish_us", "us"),
    ("core.deliver_ms", "ms"),
    ("core.ack_ms", "ms"),
    ("core.deposit_lag_ms", "ms"),
    ("core.allocs_per_op", "count"),
    ("core.unattributed_ms", "ms"),
    ("cluster.submit_us", "us"),
    ("cluster.flush_ms", "ms"),
    ("logger.wal.syncs_per_entry", "count"),
    ("logger.wal.sync_us", "us"),
    ("logger.wal.bytes_per_entry", "B"),
    ("logger.store.bytes_per_entry", "B"),
    ("logger.recovery_ms", "ms"),
    ("logger.sth.emit_ms", "ms"),
    ("logger.sth.inclusion_ms", "ms"),
    ("logger.sth.consistency_ms", "ms"),
    ("witness.light_audit_ms", "ms"),
    ("witness.verify_ms", "ms"),
    ("witness.unattributed_ms", "ms"),
    ("dispute.recording.bytes_per_entry", "B"),
    ("dispute.recording.appends_per_entry", "count"),
    ("dispute.replay_ms", "ms"),
    ("audit.audit_store_ms", "ms"),
    ("audit.verify_chain_ms", "ms"),
    ("host.ref_ms", "ms"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every setup's duration; the median is reported.
    pub setups: Vec<Duration>,
    /// Latency of every timed operation.
    pub op_latencies: Vec<Duration>,
    /// Timed intervals in run order, each with the ops it completed: one
    /// per op for the round workloads, one per burst for `ingest`.
    pub intervals: Vec<(u64, Duration)>,
    pub audit_entries_per_s: f64,
    pub log_bytes_per_op: f64,
    /// Per-layer values (traced runs); absent ones read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Reasons the outputs were found incorrect.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            op_latencies: Vec::with_capacity(OP_RESERVE),
            intervals: Vec::with_capacity(OP_RESERVE),
            ..Outcome::default()
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.layers.insert(name, value);
    }
}

/// Median of the values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of the values (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of durations, in milliseconds.
pub fn median_ms(values: &[Duration]) -> f64 {
    median(&values.iter().map(|d| probe::ms(*d)).collect::<Vec<_>>())
}

/// Median of durations, in microseconds.
pub fn median_us(values: &[Duration]) -> f64 {
    median(&values.iter().map(|d| probe::us(*d)).collect::<Vec<_>>())
}

/// Most windows a run is cut into by [`windowed`].
const WINDOWS: usize = 20;
/// Fewest samples in one window.
const WINDOW_MIN: usize = 20;
/// Ops a run keeps latencies for without growing its vectors, so that the
/// benchmark's own bookkeeping adds the same bytes to `peak_heap_mb` in
/// every run.
pub const OP_RESERVE: usize = 1 << 17;

/// Cuts `samples`, in run order, into up to [`WINDOWS`] windows of equally
/// many samples (at least [`WINDOW_MIN`] each, one window if there are
/// fewer), computes `stat` of each window and reports the median over the
/// windows.
///
/// The host's speed drifts during a run, for seconds at a time, as other
/// tenants load the cores and caches it shares. The median over the
/// windows is the figure of the run's typical stretch, and one stall
/// moves it by at most one window; a change to the program moves every
/// window, and so the figure.
fn windowed<T>(samples: &[T], stat: impl Fn(&[T]) -> f64) -> f64 {
    let per_window = (samples.len() / WINDOWS)
        .max(WINDOW_MIN)
        .min(samples.len())
        .max(1);
    let per: Vec<f64> = samples
        .chunks(per_window)
        .filter(|w| w.len() == per_window)
        .map(stat)
        .collect();
    median(&per)
}

/// Ops per second of timed work in one window of intervals.
fn rate(intervals: &[(u64, Duration)]) -> f64 {
    let ops: u64 = intervals.iter().map(|(n, _)| n).sum();
    let time: Duration = intervals.iter().map(|(_, t)| *t).sum();
    ops as f64 / time.as_secs_f64()
}

/// The host drift probe: a fixed computation of the benchmark's own, timed
/// five times; the median in milliseconds. Eight independent lanes keep
/// every execution port busy, so the probe slows down, as the workloads
/// do, when another tenant shares the core.
fn host_ref_ms() -> f64 {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        let mut lanes: [u64; 8] = black_box([1, 2, 3, 4, 5, 6, 7, 8]);
        for i in 0..1_000_000u64 {
            for x in &mut lanes {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
                *x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
            }
        }
        black_box(lanes);
        samples.push(probe::ms(start.elapsed()));
    }
    median(&samples)
}

/// The seed of the keys drawn by setup `k` of a run, counting down to 0.
/// Each setup draws other keys, so that `setup_s`, their median, does not
/// hang on how soon one key set's primes were found. The last setup
/// (`k` = 0), whose rig the timed phase uses, draws from the run's seed.
pub fn key_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("adlp-benchmark: {e}");
            eprintln!("usage: --workload link|ingest|light-audit --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // Before any thread is spawned, so that every thread inherits it.
    let cpu = match probe::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("adlp-benchmark: pin to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ref_start = host_ref_ms();
    let result = match args.workload.as_str() {
        "link" => link::run(&args),
        "ingest" => ingest::run(&args),
        "light-audit" => light::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("adlp-benchmark: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let ref_end = host_ref_ms();
    let host_ref = (ref_start + ref_end) / 2.0;

    let setup_s = median(
        &out.setups
            .iter()
            .map(Duration::as_secs_f64)
            .collect::<Vec<_>>(),
    );
    let lat: Vec<f64> = out.op_latencies.iter().map(|d| probe::ms(*d)).collect();
    let mut e2e: BTreeMap<&str, f64> = BTreeMap::new();
    e2e.insert("setup_s", setup_s);
    e2e.insert("ops_per_s", windowed(&out.intervals, rate));
    e2e.insert("op_p50_ms", windowed(&lat, |w| quantile(w, 0.5)));
    e2e.insert("op_p90_ms", windowed(&lat, |w| quantile(w, 0.9)));
    e2e.insert("log_bytes_per_op", out.log_bytes_per_op);
    e2e.insert(
        "peak_heap_mb",
        alloc::peak_bytes() as f64 / (1024.0 * 1024.0),
    );
    out.layer("host.ref_ms", host_ref);

    for e in &out.errors {
        eprintln!("adlp-benchmark: INCORRECT: {e}");
    }
    // Context that is printed but not gated: the drift probe, the p99 tail,
    // the audit rate and, on a traced run, the end-to-end figures it
    // measured (their difference from an untraced run is the tracing
    // overhead).
    let summary: Vec<String> = END_TO_END
        .iter()
        .map(|(name, _)| format!("{name}={}", json_number(e2e[name])))
        .collect();
    println!(
        "# workload={} seed={} trace={} cpu={cpu} ops={} host.ref_ms start={ref_start:.3} end={ref_end:.3} op_p99_ms={:.4} audit_entries_per_s={} {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.op_latencies.len(),
        quantile(&lat, 0.99),
        json_number(out.audit_entries_per_s),
        summary.join(" ")
    );

    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = out.layers.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(e2e[name])
                )
            })
            .collect()
    };
    let correct = out.errors.is_empty() && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
