//! One benchmark invocation: timed repetitions of a workload, the
//! capacity sweep, and (traced) the per-layer readings.

use std::time::Instant;

use madeleine::harness::Cluster;
use madeleine::{FairnessMode, TrafficClass};

use crate::calib::Gauge;
use crate::probe::Call;
use crate::replay::{replay_layers, replay_queue, stream_of};
use crate::stats::percentile;
use crate::workload::*;

/// Independent 16-rank jobs per `allreduce_lossy` run, one allreduce
/// each, every job on a fresh cluster with its own loss pattern.
pub const ALLREDUCE_JOBS: u64 = 24;

/// Seed pairs per `profiled_diff` run. Each pair is traced, exported,
/// profiled and diffed on its own, so memory stays that of one pair while
/// the sim-time percentiles get `2 × DIFF_PAIRS × DIFF_MSGS` samples.
pub const DIFF_PAIRS: u64 = 8;

/// Engine-trace ring capacity (events per node) for observability runs.
const TRACE_CAP: usize = 1 << 21;

/// Latency limit of the capacity sweep, µs: a grid point passes when its
/// exact p99 and the drain after its last arrival both stay under it.
/// `flows_100k`'s 16 KiB elephants put its p99 about 2.5 times above
/// `agg_knee`'s at every load below the knee, so it gets its own limit.
pub fn capacity_limit_us(w: Workload) -> f64 {
    match w {
        Workload::Flows100k => 500.0,
        _ => 200.0,
    }
}

/// Offered loads of the capacity grid, as shares of the wire rate.
pub const CAPACITY_GRID: [f64; 11] = [
    0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80,
];

/// Messages per capacity-grid point.
const CAPACITY_MSGS: u64 = 16_000;

/// Workload `w` at seed `seed`: one full run, every job folded in. With a
/// gauge, the gauge's passes are interleaved with the run (see
/// [`Bed::run_gauged`]).
pub fn run_workload(
    w: Workload,
    seed: u64,
    timing: bool,
    mut gauge: Option<&mut Gauge>,
) -> (Outcome, Vec<f64>) {
    match w {
        Workload::AggKnee => single(agg_bed(AGG_LOAD, AGG_MSGS, seed, timing, None), gauge),
        Workload::Flows100k => single(flows_bed(FLOWS_LOAD, FLOWS_100K, seed, timing, None), gauge),
        Workload::AllreduceLossy => jobs(ALLREDUCE_JOBS, |job| {
            single(
                allreduce_bed(job_seed(seed, job), timing, None),
                gauge.as_deref_mut(),
            )
        }),
        Workload::ProfiledDiff => jobs(DIFF_PAIRS, |pair| {
            let (a, b) = (job_seed(seed, 2 * pair), job_seed(seed, 2 * pair + 1));
            let obs = obs_pass(w, a, b, timing, gauge.as_deref_mut());
            let mut o = obs.outcome;
            // The observability work is part of this workload's run.
            o.post_s += obs.obs_s;
            (o, obs.setups)
        }),
    }
}

/// Run `n` independent jobs and fold their outcomes and set-up times.
fn jobs(n: u64, mut job: impl FnMut(u64) -> (Outcome, Vec<f64>)) -> (Outcome, Vec<f64>) {
    let (mut total, mut setups) = job(0);
    for j in 1..n {
        let (o, s) = job(j);
        total.absorb(o);
        setups.extend(s);
    }
    (total, setups)
}

fn single(bed: Bed, gauge: Option<&mut Gauge>) -> (Outcome, Vec<f64>) {
    let (o, _) = bed.run_gauged(gauge);
    let setup = o.setup_s;
    (o, vec![setup])
}

/// Seed of job `job` of run `seed` (allreduce fault plans, profiled_diff
/// seed pairs).
pub fn job_seed(seed: u64, job: u64) -> u64 {
    seed.wrapping_mul(64).wrapping_add(job)
}

/// The observability pipeline on a workload's traffic: the same traffic
/// engine-traced at two seeds, then `export_chrome_trace`,
/// `profile`, `run_snapshot` and `diff_against` on the pair.
pub struct ObsPass {
    /// Both traced runs folded together.
    pub outcome: Outcome,
    /// Set-up time of each traced run.
    pub setups: Vec<f64>,
    /// Host seconds of the export, profile, snapshot and diff work.
    pub obs_s: f64,
    /// Engine trace events recorded (both runs).
    pub trace_events: u64,
    /// Host ns of `export_chrome_trace`.
    pub chrome_ns: u64,
    /// Host ns of `profile`.
    pub profile_ns: u64,
    /// Host ns of `run_snapshot`.
    pub snapshot_ns: u64,
    /// Host ns of `diff_against`.
    pub diff_ns: u64,
}

/// The traffic an observability pass replays for `w`: `profiled_diff`'s
/// own, or a smaller run of the same shape for the other workloads.
fn obs_bed(w: Workload, seed: u64, timing: bool, trace: Option<usize>) -> Bed {
    match w {
        Workload::AggKnee | Workload::ProfiledDiff => {
            agg_bed(AGG_LOAD, DIFF_MSGS, seed, timing, trace)
        }
        Workload::Flows100k => flows_bed(FLOWS_LOAD, FLOWS_100K / 20, seed, timing, trace),
        Workload::AllreduceLossy => allreduce_bed(seed, timing, trace),
    }
}

/// Run the observability pass for `w` on seeds `seed_a` (baseline) and
/// `seed_b` (fresh). With a gauge, its passes are interleaved with the
/// runs and follow each step of the export, profile, snapshot and diff
/// work in proportion to its time.
pub fn obs_pass(
    w: Workload,
    seed_a: u64,
    seed_b: u64,
    timing: bool,
    mut gauge: Option<&mut Gauge>,
) -> ObsPass {
    let (mut a, ca) = obs_bed(w, seed_a, timing, Some(TRACE_CAP)).run_gauged(gauge.as_deref_mut());
    let (b, cb) = obs_bed(w, seed_b, timing, Some(TRACE_CAP)).run_gauged(gauge.as_deref_mut());
    let setups = vec![a.setup_s, b.setup_s];
    let trace_events = trace_len(&ca) + trace_len(&cb);
    let (chrome, chrome_ns) = timed(&mut gauge, || cb.export_chrome_trace());
    let (prof, profile_ns) = timed(&mut gauge, || cb.profile());
    let (snap, snapshot_ns) = timed(&mut gauge, || cb.run_snapshot("fresh"));
    let (diff, diff_ns) = timed(&mut gauge, || cb.diff_against(&ca));
    let obs_s = (chrome_ns + profile_ns + snapshot_ns + diff_ns) as f64 / 1e9;
    assert!(chrome.events > 0, "chrome export is empty");
    assert!(!prof.truncated(), "engine trace ring overflowed");
    assert!(!snap.truncated() && !diff.truncated(), "snapshot truncated");
    a.absorb(b);
    ObsPass {
        outcome: a,
        setups,
        obs_s,
        trace_events,
        chrome_ns,
        profile_ns,
        snapshot_ns,
        diff_ns,
    }
}

/// Host ns of `f`. With a gauge, one gauge pass per [`SLICE_S`] of that
/// time follows, so the passes sample the host close to the work.
fn timed<R>(gauge: &mut Option<&mut Gauge>, f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    let ns = t.elapsed().as_nanos() as u64;
    if let Some(g) = gauge {
        for _ in 0..(ns as f64 / 1e9 / SLICE_S).round() as u64 {
            g.pass();
        }
    }
    (r, ns)
}

fn trace_len(c: &Cluster) -> u64 {
    c.handles
        .iter()
        .filter_map(|h| h.opt())
        .map(|h| h.trace_snapshot().len() as u64)
        .sum()
}

/// `sim_capacity_msgs_s`: the delivered rate at the highest offered
/// load of [`CAPACITY_GRID`] whose exact p99 and post-arrival drain stay
/// under [`capacity_limit_us`] with every message delivered intact. The
/// sweep stops at the first failing point. `allreduce_lossy` is a closed
/// loop, so its capacity is the message rate the loop sustains.
pub fn capacity(w: Workload, seed: u64, run: &Outcome) -> f64 {
    let mut best = 0.0;
    for &load in &CAPACITY_GRID {
        let bed = match w {
            Workload::AggKnee | Workload::ProfiledDiff => {
                agg_bed(load, CAPACITY_MSGS, seed, false, None)
            }
            Workload::Flows100k => flows_bed(
                load,
                (CAPACITY_MSGS / MSGS_PER_FLOW) as usize,
                seed,
                false,
                None,
            ),
            Workload::AllreduceLossy => return run.sim_msgs_per_s(),
        };
        let (o, _) = bed.run();
        let last_submit = o
            .probe
            .deliveries
            .iter()
            .map(|d| d.at_ns - d.latency_ns)
            .max()
            .unwrap_or(0);
        let drain_us = o.makespan_ns.saturating_sub(last_submit) as f64 / 1e3;
        let limit = capacity_limit_us(w);
        let passes = o.ok == o.attempted && o.latency_us(0.99) <= limit && drain_us <= limit;
        eprintln!(
            "capacity {}: load {load:.2} p99 {:.3}us drain {drain_us:.3}us ok {}/{} -> {}",
            w.name(),
            o.latency_us(0.99),
            o.ok,
            o.attempted,
            if passes { "pass" } else { "fail" }
        );
        if !passes {
            break;
        }
        best = o.sim_msgs_per_s();
    }
    best
}

/// Engine-trace overhead on `w`'s observability traffic: the untraced
/// delivered-message rate over the engine-traced one, minus one; median
/// of three alternating pairs.
fn trace_overhead(w: Workload, seed: u64) -> f64 {
    let mut ratios: Vec<f64> = (0..3)
        .map(|_| {
            let (plain, _) = obs_bed(w, seed, false, None).run();
            let (traced, _) = obs_bed(w, seed, false, Some(TRACE_CAP)).run();
            plain.host_msgs_per_s() / traced.host_msgs_per_s() - 1.0
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[1]
}

/// Traffic class of flow `flow` in workload `w`'s stream.
fn class_of(w: Workload, flow: u32) -> TrafficClass {
    match w {
        Workload::Flows100k => FLOW_CLASSES[flow as usize % FLOW_CLASSES.len()],
        _ => TrafficClass::DEFAULT,
    }
}

/// Pending simulator events the workload keeps queued: one arrival
/// timer per generator flow plus about four NIC and retransmit events
/// per node.
fn pending_depth(w: Workload) -> usize {
    match w {
        Workload::AggKnee | Workload::ProfiledDiff => 16 + 4 * 2,
        Workload::Flows100k => FLOWS_100K + 4 * 2,
        Workload::AllreduceLossy => 4 * RANKS as usize,
    }
}

/// A metric reading: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Per-layer readings of a traced run, and any correctness problem the
/// layer replay found.
pub fn layer_metrics(w: Workload, seed: u64, traced: &Outcome) -> (Vec<Metric>, Vec<String>) {
    let p = &traced.probe;
    let e = &traced.engine;
    let wall_ns = traced.run_s * 1e9;
    let simnet_self_ns = (wall_ns - p.top_ns as f64).max(0.0);
    let events = traced.events.max(1) as f64;
    let med = |v: &[u64]| percentile(v, 0.5) as f64;
    let call = |c: Call| p.call(c);
    let self_s = |c: Call| p.call(c).self_ns.iter().sum::<u64>() as f64 / 1e9;

    let stream = stream_of(&p.deliveries);
    let fairness = if w == Workload::Flows100k {
        FairnessMode::Drr
    } else {
        FairnessMode::PackOrder
    };
    let backlog_p50 = percentile(&p.backlog, 0.5);
    let lt = replay_layers(&stream, |f| class_of(w, f), fairness, backlog_p50);
    let queue = replay_queue(pending_depth(w), 200_000);
    let obs = obs_pass(w, job_seed(seed, 0), job_seed(seed, 1), false, None);
    let overhead = trace_overhead(w, seed);
    println!(
        "replay samples: open_flow={} submit={} activations={} proposals={} scored={} \
         packets={} chunks={} queue_batches={} delivered={}/{}",
        lt.open_flow.len(),
        lt.submit.len(),
        lt.select.len(),
        lt.validate.len(),
        lt.score.len(),
        lt.encode.len(),
        lt.on_chunk.len(),
        queue.len(),
        lt.delivered,
        lt.submitted
    );
    let mut problems = Vec::new();
    if lt.delivered + lt.pending != lt.submitted {
        problems.push(format!(
            "replay delivered {} + pending {} != submitted {}",
            lt.delivered, lt.pending, lt.submitted
        ));
    }
    let metrics = vec![
        ("simnet.events", traced.events as f64, "count"),
        (
            "simnet.events_per_msg",
            events / traced.delivered.max(1) as f64,
            "ratio",
        ),
        ("simnet.self_s", simnet_self_ns / 1e9, "s"),
        ("simnet.ns_per_event", simnet_self_ns / events, "ns"),
        ("simnet.queue_ns", med(&queue), "ns"),
        (
            "engine.activation.calls",
            call(Call::Activation).calls as f64,
            "count",
        ),
        (
            "engine.activation.self_ns_p50",
            med(&call(Call::Activation).self_ns),
            "ns",
        ),
        (
            "engine.activation.self_ns_p99",
            percentile(&call(Call::Activation).self_ns, 0.99) as f64,
            "ns",
        ),
        ("engine.rx.calls", call(Call::Rx).calls as f64, "count"),
        ("engine.rx.self_ns_p50", med(&call(Call::Rx).self_ns), "ns"),
        (
            "engine.timer.calls",
            call(Call::Timer).calls as f64,
            "count",
        ),
        (
            "engine.timer.self_ns_p50",
            med(&call(Call::Timer).self_ns),
            "ns",
        ),
        (
            "engine.tx_done.self_ns_p50",
            med(&call(Call::TxDone).self_ns),
            "ns",
        ),
        ("engine.activation.self_s", self_s(Call::Activation), "s"),
        ("engine.rx.self_s", self_s(Call::Rx), "s"),
        ("engine.timer.self_s", self_s(Call::Timer), "s"),
        ("engine.tx_done.self_s", self_s(Call::TxDone), "s"),
        ("engine.submit.self_s", self_s(Call::Api), "s"),
        ("engine.self_s", p.engine_self_ns() as f64 / 1e9, "s"),
        ("app.self_s", p.app_self_ns as f64 / 1e9, "s"),
        ("collect.open_flow_ns", med(&lt.open_flow), "ns"),
        ("collect.submit_ns", med(&lt.submit), "ns"),
        ("collect.candidates_ns", med(&lt.candidates), "ns"),
        ("collect.backlog_bytes_p50", backlog_p50 as f64, "bytes"),
        ("optimizer.select_ns", med(&lt.select), "ns"),
        ("optimizer.propose_ns", med(&lt.propose), "ns"),
        ("optimizer.validate_ns", med(&lt.validate), "ns"),
        ("optimizer.score_ns", med(&lt.score), "ns"),
        (
            "optimizer.plans_per_activation",
            e.plans_evaluated as f64 / e.activations.max(1) as f64,
            "ratio",
        ),
        (
            "optimizer.useful_ratio",
            e.plans_submitted as f64 / e.plans_evaluated.max(1) as f64,
            "ratio",
        ),
        ("proto.encode_ns", med(&lt.encode), "ns"),
        ("proto.decode_ns", med(&lt.decode), "ns"),
        (
            "proto.chunks_per_packet",
            e.chunks as f64 / e.packets.max(1) as f64,
            "ratio",
        ),
        ("receiver.on_chunk_ns", med(&lt.on_chunk), "ns"),
        ("reliability.timeouts", e.timeouts as f64, "count"),
        ("reliability.retransmits", e.retransmits as f64, "count"),
        (
            "reliability.retx_per_packet",
            e.retransmits as f64 / e.packets.max(1) as f64,
            "ratio",
        ),
        (
            "reliability.rails_degraded",
            e.rails_degraded as f64,
            "count",
        ),
        ("reliability.rails_dead", e.rails_dead as f64, "count"),
        ("obs.trace_events", obs.trace_events as f64, "count"),
        ("obs.trace_overhead", overhead, "ratio"),
        ("obs.chrome_export_ns", obs.chrome_ns as f64, "ns"),
        ("obs.profile_ns", obs.profile_ns as f64, "ns"),
        ("obs.snapshot_ns", obs.snapshot_ns as f64, "ns"),
        ("obs.diff_ns", obs.diff_ns as f64, "ns"),
    ];
    (metrics, problems)
}
