//! `seekbench` — the repository benchmark.
//!
//! ```text
//! seekbench --workload <train-paper|infer-scale|serve-1k> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` it runs the workload's lifecycle with tracing off and
//! reports the end-to-end metrics; with `--trace 1` it runs the traced run
//! and reports the per-layer metrics. The last line of standard output is
//! the result object; the line before it records provenance and the
//! digests of the output edge sets. See `README.md` in this directory.

mod lifecycle;
mod loadgen;
mod quality;
mod report;
mod traced;
mod workloads;

use std::time::Duration;

use seeker_obs::json::JsonValue;

use crate::lifecycle::{Check, NoProbe, Run};
use crate::loadgen::percentile;
use crate::report::Metrics;
use crate::workloads::Spec;

/// The seed kept out of tuning: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_231_107;

/// Variables that would change what the benchmark measures.
const CLEARED_ENV: [&str; 4] =
    ["SEEKER_FULL_REFINE", "SEEKER_SHARDS", "SEEKER_FULL_INGEST", "SEEKER_OBS_JSON"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds must be a non-negative number, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
    })
}

fn main() {
    // Before anything reads the `seeker_obs::env` registry (it caches the
    // environment on first use): tracing off, escape hatches cleared.
    std::env::set_var("SEEKER_LOG", "off");
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("seekbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.smoke) else {
        eprintln!(
            "seekbench: unknown workload {} (expected one of {:?})",
            args.workload,
            workloads::NAMES
        );
        std::process::exit(2);
    };
    seeker_obs::set_level(seeker_obs::Level::Off);
    let outcome = if args.trace {
        traced::run(&spec, args.seed).map(|t| (t.metrics, t.checks, t.ops, t.run))
    } else {
        lifecycle::run(&spec, args.seed, Duration::from_secs_f64(args.seconds), &mut NoProbe)
            .map(|run| (end_to_end(&run), run.checks.clone(), run.ops, run))
    };
    let (metrics, checks, ops, run) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("seekbench: {}: {e}", spec.name);
            std::process::exit(1);
        }
    };
    for c in checks.iter().filter(|c| !c.passed) {
        eprintln!("seekbench: check failed: {}", c.name);
    }
    let correct = checks.iter().all(|c| c.passed) && ops.failed == 0;
    println!(
        "{}",
        report::provenance(spec.name, args.seed, args.trace, provenance_extra(&run, &checks))
    );
    println!("{}", report::result_line(correct, ops.attempted, ops.failed, &metrics));
}

/// The end-to-end metrics of an untraced lifecycle.
fn end_to_end(run: &Run) -> Metrics {
    let s = &run.serve;
    let mut m = Metrics::default();
    m.add("setup_s", run.setup_s, "s");
    m.add("peak_rss_mib", run.peak_rss_mib, "MiB");
    m.add("f1", run.quality.f1(), "ratio");
    m.add("train_s", percentile(&run.train_s, 0.5), "s");
    m.add("infer_s", percentile(&run.infer_s, 0.5), "s");
    let cps: Vec<f64> = s.bulk_s.iter().map(|t| s.bulk_checkins as f64 / t).collect();
    m.add("ingest_cps", percentile(&cps, 0.5), "1/s");
    m.add("snapshot_ms", percentile(&s.snapshot_ms, 0.5), "ms");
    m.add("restore_ms", percentile(&s.restore_ms, 0.5), "ms");
    m
}

/// Digests, sample counts and quality base counts for the provenance line.
fn provenance_extra(run: &Run, checks: &[Check]) -> Vec<(&'static str, String)> {
    let s = &run.serve;
    let q = run.quality;
    // JSON text of a number; `null` when it is not finite (no samples).
    let num = |v: f64| JsonValue::Number(v).to_compact_string();
    let visible_tail = loadgen::highest_supported(s.writes.visible_ms.len())
        .map_or("null".to_string(), |p| num(percentile(&s.writes.visible_ms, p)));
    let checks: Vec<String> = checks
        .iter()
        .map(|c| format!("{}:{}", JsonValue::from(c.name.as_str()).to_compact_string(), c.passed))
        .collect();
    vec![
        ("infer_digest", format!("\"{:016x}\"", run.infer_digest)),
        ("served_digest", format!("\"{:016x}\"", run.served_digest)),
        ("quality_counts", format!("{{\"tp\":{},\"fp\":{},\"fn\":{}}}", q.tp, q.fp, q.fn_)),
        (
            "samples",
            format!(
                "{{\"train\":{},\"infer\":{},\"read_queries\":{},\"mixed_queries\":{},\"visible\":{},\"bulk_checkins\":{},\"bulk_rounds\":{}}}",
                run.train_s.len(),
                run.infer_s.len(),
                s.read.latency_us.len(),
                s.mixed.latency_us.len(),
                s.writes.visible_ms.len(),
                s.bulk_checkins,
                s.bulk_s.len()
            ),
        ),
        (
            "serve_latency",
            format!(
                "{{\"query_p50_us\":{},\"query_p99_us\":{},\"mixed_query_p50_us\":{},\"mixed_query_p99_us\":{},\"visible_p50_ms\":{},\"visible_tail_ms\":{visible_tail}}}",
                num(percentile(&s.read.latency_us, 0.5)),
                num(percentile(&s.read.latency_us, 0.99)),
                num(percentile(&s.mixed.latency_us, 0.5)),
                num(percentile(&s.mixed.latency_us, 0.99)),
                num(percentile(&s.writes.visible_ms, 0.5)),
            ),
        ),
        ("threads", seeker_par::max_threads().to_string()),
        ("checks", format!("{{{}}}", checks.join(","))),
    ]
}
