//! madbench — a two-clock benchmark of the madeleine engine.
//!
//! ```text
//! madbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--peak-rss-mb <mb>] [--rss]
//! ```
//!
//! With `--trace 0` it repeats the workload for `--seconds` host seconds
//! with the benchmark's spans off, gauges the host's speed beside it (see
//! `calib.rs`), and prints every end-to-end metric; with
//! `--trace 1` it runs the workload once untraced and once traced, replays
//! the workload through each layer, and prints every per-layer metric.
//! Either way the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--rss` runs the
//! workload once and prints nothing (the caller measures the process's
//! peak resident set and passes it back with `--peak-rss-mb`). See
//! `NOTES.md` for the workloads and metrics.

mod bench;
mod calib;
mod probe;
mod replay;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use bench::*;
use calib::Gauge;
use stats::{median, percentile, supported_quantile};
use workload::{Outcome, Workload};

/// Timed repetitions a `--trace 0` run makes at least, whatever
/// `--seconds`.
const MIN_REPS: usize = 3;

/// Repetitions a `--trace 0` run makes before it starts timing. They let
/// the allocator's heap reach its steady size: the first two set-ups of
/// flows_100k take about twice as long as the later ones.
const WARMUP_REPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rss_only: bool,
    peak_rss_mb: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut rss_only, mut peak_rss_mb) = (false, 0.0);
    while let Some(flag) = it.next() {
        if flag == "--rss" {
            rss_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad.clone())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--peak-rss-mb" => peak_rss_mb = value.parse::<f64>().map_err(|_| bad.clone())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        rss_only,
        peak_rss_mb,
    })
}

/// Correctness problems of one run (wrong outputs), empty when its
/// outputs are right. Operations that did not complete are reported as
/// `failed`, not here.
fn check(o: &Outcome) -> Vec<String> {
    let mut problems = o.probe.failures.clone();
    if o.wrong > 0 {
        problems.push(format!("{} wrong outputs", o.wrong));
    }
    problems
}

fn json_result(correct: bool, o: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.attempted.saturating_sub(o.ok),
        body.join(", ")
    )
}

fn end_to_end(args: &Args) -> (bool, Outcome, Vec<Metric>) {
    let w = args.workload;
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let (mut raw_rates, mut slowdowns) = (Vec::new(), Vec::new());
    let mut digests = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut gauge = Gauge::new();
    while rates.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let mark = gauge.mark();
        let (o, s) = run_workload(w, args.seed, false, Some(&mut gauge));
        let slowdown = gauge.slowdown_since(mark);
        digests.push(o.sim_digest());
        if digests.len() > WARMUP_REPS {
            slowdowns.push(slowdown);
            raw_rates.push(o.host_msgs_per_s());
            setups.push(median(&s) / slowdown);
            rates.push(o.host_msgs_per_s() * slowdown);
        }
        first.get_or_insert(o);
    }
    let o = first.expect("at least one repetition");
    let mut problems = check(&o);
    if digests.iter().any(|d| *d != digests[0]) {
        problems.push(format!("same-seed repetitions differ: {digests:?}"));
    }
    let cap = capacity(w, args.seed, &o);
    let n = o.latency_ns.len();
    let q = supported_quantile(n);
    println!(
        "{} seed={} reps={} (after {WARMUP_REPS} untimed) host_msgs_per_s per rep={:.0?} (unscaled {:.0?}, host slowdown \
         {:.3?}) setup_s per rep={:.6?} messages={} sim_p{}={:.3}us (highest percentile with \
         >=10 samples beyond it) groups={} digest: {}",
        w.name(),
        args.seed,
        rates.len(),
        rates,
        raw_rates,
        slowdowns,
        setups,
        n,
        q * 100.0,
        percentile(&o.latency_ns, q) as f64 / 1e3,
        o.group_ns.len(),
        digests[0]
    );
    for p in &problems {
        println!("FAIL: {p}");
    }
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("host_msgs_per_s", median(&rates), "1/s"),
        ("peak_rss_mb", args.peak_rss_mb, "MB"),
        ("sim_p50_us", o.latency_us(0.5), "us"),
        ("sim_p99_us", o.latency_us(0.99), "us"),
        ("sim_goodput_mbps", o.goodput_mbps(), "Mbit/s"),
        ("sim_coll_p50_us", o.group_p50_us(), "us"),
        ("sim_capacity_msgs_s", cap, "1/s"),
        (
            "ok_fraction",
            o.ok as f64 / o.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    (problems.is_empty(), o, metrics)
}

fn per_layer(args: &Args) -> (bool, Outcome, Vec<Metric>) {
    let w = args.workload;
    let (plain, _) = run_workload(w, args.seed, false, None);
    let (traced, _) = run_workload(w, args.seed, true, None);
    let mut problems = check(&traced);
    if plain.sim_digest() != traced.sim_digest() {
        problems.push(format!(
            "traced run differs from untraced: {} vs {}",
            traced.sim_digest(),
            plain.sim_digest()
        ));
    }
    let (metrics, replay_problems) = layer_metrics(w, args.seed, &traced);
    problems.extend(replay_problems);
    let span_overhead = plain.host_msgs_per_s() / traced.host_msgs_per_s() - 1.0;
    println!(
        "{} seed={} traced: wall={:.3}s engine={:.3}s app={:.3}s span_overhead={:.3} digest: {}",
        w.name(),
        args.seed,
        traced.run_s,
        traced.probe.engine_self_ns() as f64 / 1e9,
        traced.probe.app_self_ns as f64 / 1e9,
        span_overhead,
        traced.sim_digest()
    );
    for p in &problems {
        println!("FAIL: {p}");
    }
    (problems.is_empty(), traced, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("madbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.rss_only {
        run_workload(args.workload, args.seed, false, None);
        return ExitCode::SUCCESS;
    }
    let (correct, o, metrics) = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    println!("{}", json_result(correct, &o, &metrics));
    ExitCode::SUCCESS
}
