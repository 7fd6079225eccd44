//! The four traffic workloads, the test bed they run on, and the outcome
//! of one run on both clocks.
//!
//! Nodes are assembled with the public `MadEngine::builder` exactly as
//! `Cluster::build_with_topologies` does, except that each engine is
//! installed behind a [`TimedEngine`] and each application behind a
//! [`TimedApp`]. Every generator is open-loop: arrivals follow the
//! generator's own seeded schedule whatever the engine does.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use madeleine::api::{AppDriver, NullApp};
use madeleine::coll::{CollApp, CollConfig, CollOp};
use madeleine::harness::{Cluster, NodeHandle};
use madeleine::ids::TrafficClass;
use madeleine::{
    CollHub, EngineConfig, EngineHandle, FairnessMode, MadEngine, PolicyKind, ReliabilityMode,
};
use madware::apps::{FlowSpec, StatsHandle, TrafficApp};
use madware::workload::{Arrival, SizeDist};
use simnet::{
    FaultPlan, NicId, NodeId, SimDuration, SimTime, Simulation, SplitMix64, Technology, Topology,
};

use crate::calib::Gauge;
use crate::probe::{CollStamps, CollWatch, Probe, ProbeRef, StampsRef, TimedApp, TimedEngine};
use crate::stats::{fnv, percentile};

/// MX wire bandwidth, bytes/s (`nicdrv::mx::params`).
pub const WIRE_BYTES_PER_S: f64 = 250e6;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 16 eager flows on one MX rail just below the aggregation knee.
    AggKnee,
    /// 100 000 short flows across the four traffic classes under DRR.
    Flows100k,
    /// 16-rank 256 KiB allreduce on `fat_tree(4)` with 0.1 % wire loss.
    AllreduceLossy,
    /// `agg_knee` traffic at a smaller size, engine-traced at two seeds,
    /// then exported, profiled, snapshotted and diffed.
    ProfiledDiff,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::AggKnee,
        Workload::Flows100k,
        Workload::AllreduceLossy,
        Workload::ProfiledDiff,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AggKnee => "agg_knee",
            Workload::Flows100k => "flows_100k",
            Workload::AllreduceLossy => "allreduce_lossy",
            Workload::ProfiledDiff => "profiled_diff",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `agg_knee` traffic: 16 eager flows of 8–512 B bodies behind an 8 B
/// express header, Poisson arrivals at `load` × the wire rate (payload
/// bytes, headers included), `msgs` messages in all.
pub fn agg_specs(load: f64, msgs: u64) -> Vec<FlowSpec> {
    const FLOWS: u64 = 16;
    let sizes = SizeDist::Uniform(8, 512);
    let msg_rate = load * WIRE_BYTES_PER_S / (sizes.mean() + 8.0);
    let gap_ns = (FLOWS as f64 * 1e9 / msg_rate) as u64;
    (0..FLOWS)
        .map(|_| FlowSpec {
            dst: NodeId(1),
            class: TrafficClass::DEFAULT,
            arrival: Arrival::Poisson(SimDuration::from_nanos(gap_ns)),
            sizes: sizes.clone(),
            express_header: 8,
            stop_after: Some(msgs / FLOWS),
            start_after: SimDuration::ZERO,
        })
        .collect()
}

/// Offered load of `agg_knee`: the highest point of the capacity grid
/// whose p99 stays under the limit on every seed tried.
pub const AGG_LOAD: f64 = 0.55;
/// Messages per `agg_knee` run.
pub const AGG_MSGS: u64 = 200_000;
/// Messages per `profiled_diff` run (each of its two seeds).
pub const DIFF_MSGS: u64 = 4_000;

/// Flows in `flows_100k`.
pub const FLOWS_100K: usize = 100_000;
/// Classes cycled across `flows_100k` flows (flow `i` has class
/// `FLOW_CLASSES[i % 4]`).
pub const FLOW_CLASSES: [TrafficClass; 4] = [
    TrafficClass::DEFAULT,
    TrafficClass::BULK,
    TrafficClass::PUT_GET,
    TrafficClass::CONTROL,
];
/// Messages each `flows_100k` flow sends.
pub const MSGS_PER_FLOW: u64 = 2;

/// Offered load of `flows_100k`, as a share of the wire rate.
pub const FLOWS_LOAD: f64 = 0.5;

/// `flows_100k` traffic: `flows` flows cycling the four classes, each
/// sending [`MSGS_PER_FLOW`] bounded-Pareto 64 B–16 KiB messages. Flow
/// starts are staggered so the aggregate offered load is `load` × the
/// wire rate and only a handful of flows are active at once; every
/// flow's first arrival is a pending timer from the start.
pub fn flow_specs(load: f64, flows: usize) -> Vec<FlowSpec> {
    let sizes = SizeDist::Pareto {
        min: 64,
        max: 16 << 10,
        alpha: 1.2,
    };
    let msg_rate = load * WIRE_BYTES_PER_S / (sizes.mean() + 8.0);
    let start_gap_ns = MSGS_PER_FLOW as f64 * 1e9 / msg_rate;
    (0..flows)
        .map(|i| FlowSpec {
            dst: NodeId(1),
            class: FLOW_CLASSES[i % FLOW_CLASSES.len()],
            arrival: Arrival::Poisson(SimDuration::from_micros(20)),
            sizes: sizes.clone(),
            express_header: 8,
            stop_after: Some(MSGS_PER_FLOW),
            start_after: SimDuration::from_nanos((i as f64 * start_gap_ns) as u64 + 1),
        })
        .collect()
}

/// Ranks in `allreduce_lossy` (`fat_tree(4)` has 16 hosts).
pub const RANKS: u32 = 16;
/// Allreduce vector length: 32 768 × u64 = 256 KiB.
pub const ALLREDUCE_ELEMS: u32 = 32_768;
/// Spread of the ranks' arrival at each allreduce job.
pub const ARRIVAL_SKEW: SimDuration = SimDuration::from_micros(10);
/// Wire loss rate of `allreduce_lossy`.
pub const LOSS: f64 = 0.001;

/// One assembled simulation.
pub struct Bed {
    /// The simulation.
    pub sim: Simulation,
    /// Node ids.
    pub nodes: Vec<NodeId>,
    /// `nics[node][rail]`.
    pub nics: Vec<Vec<NicId>>,
    /// Engine handles.
    pub handles: Vec<EngineHandle>,
    /// The one rail's network.
    pub network: simnet::NetworkId,
    /// The run's recorder.
    pub probe: ProbeRef,
    /// Generator statistics (message workloads).
    pub sent: Option<StatsHandle>,
    /// Collective statistics and completion stamps (allreduce).
    pub coll: Option<(CollHub, StampsRef)>,
    /// Host instant at which construction began.
    pub t0: Instant,
}

/// Build the bed: one MX rail, optional topology and fault plan.
#[allow(clippy::too_many_arguments)]
fn assemble(
    nodes_n: usize,
    topo: Option<Topology>,
    fault: Option<FaultPlan>,
    config: EngineConfig,
    apps: Vec<Box<dyn AppDriver>>,
    probe: ProbeRef,
    engine_trace: Option<usize>,
) -> (
    Simulation,
    Vec<NodeId>,
    Vec<Vec<NicId>>,
    Vec<EngineHandle>,
    simnet::NetworkId,
) {
    let mut sim = Simulation::new();
    if let Some(cap) = engine_trace {
        sim.enable_trace(cap);
    }
    let tech = Technology::MyrinetMx;
    let net = sim.add_network(nicdrv::calib::params(tech));
    if let Some(t) = topo {
        sim.install_topology(net, t);
    }
    if let Some(plan) = fault {
        sim.set_fault_plan(net, plan);
    }
    let nodes: Vec<NodeId> = (0..nodes_n).map(|_| sim.add_node()).collect();
    let nics: Vec<Vec<NicId>> = nodes.iter().map(|&n| vec![sim.add_nic(n, net)]).collect();
    let mut handles = Vec::with_capacity(nodes_n);
    for (i, (&node, app)) in nodes.iter().zip(apps).enumerate() {
        let mut b = MadEngine::builder(node)
            .config(config.clone())
            .policy(PolicyKind::Pooled)
            .rail_tech(tech, nics[i][0]);
        for (j, &peer) in nodes.iter().enumerate() {
            if j != i {
                b = b.peer(peer, nics[j].clone());
            }
        }
        let (engine, handle) = b.app(app).build().expect("valid benchmark bed");
        if let Some(cap) = engine_trace {
            handle.enable_trace(cap);
        }
        sim.set_endpoint(
            node,
            Box::new(TimedEngine::new(engine, handle.clone(), probe.clone())),
        );
        handles.push(handle);
    }
    (sim, nodes, nics, handles, net)
}

fn base_config() -> EngineConfig {
    EngineConfig {
        // Deliveries are recorded by the benchmark's own sink.
        record_deliveries: false,
        ..EngineConfig::default()
    }
}

/// A two-node bed: a `TrafficApp` generator on node 0 and a recording
/// sink on node 1.
fn pair_bed(
    specs: Vec<FlowSpec>,
    config: EngineConfig,
    seed: u64,
    timing: bool,
    engine_trace: Option<usize>,
) -> Bed {
    let t0 = Instant::now();
    let probe = Probe::new(timing, true);
    // `madware::rng_for` offsets consecutive seeds by one draw of the same
    // stream, so the seed is scrambled first to give unrelated inputs.
    let scrambled = SplitMix64::new(seed).next_u64();
    let (gen, sent) = TrafficApp::new("madbench", specs, scrambled, 0);
    let apps: Vec<Box<dyn AppDriver>> = vec![
        Box::new(TimedApp::new(Box::new(gen), probe.clone(), None)),
        Box::new(TimedApp::new(Box::new(NullApp), probe.clone(), None)),
    ];
    let (sim, nodes, nics, handles, network) =
        assemble(2, None, None, config, apps, probe.clone(), engine_trace);
    Bed {
        sim,
        nodes,
        nics,
        handles,
        network,
        probe,
        sent: Some(sent),
        coll: None,
        t0,
    }
}

/// `agg_knee` (and `profiled_diff`) bed.
pub fn agg_bed(load: f64, msgs: u64, seed: u64, timing: bool, trace: Option<usize>) -> Bed {
    pair_bed(agg_specs(load, msgs), base_config(), seed, timing, trace)
}

/// `flows_100k` bed with `flows` flows at `load`.
pub fn flows_bed(load: f64, flows: usize, seed: u64, timing: bool, trace: Option<usize>) -> Bed {
    let config = EngineConfig {
        fairness: FairnessMode::Drr,
        ..base_config()
    };
    pair_bed(flow_specs(load, flows), config, seed, timing, trace)
}

/// One `allreduce_lossy` job: a single allreduce with madrel `Recover`
/// at the default timeout and retry budget, auto-selected algorithm, 0.1 % wire loss, ranks
/// arriving up to [`ARRIVAL_SKEW`] apart.
pub fn allreduce_bed(seed: u64, timing: bool, trace: Option<usize>) -> Bed {
    let t0 = Instant::now();
    let probe = Probe::new(timing, false);
    let profile = nicdrv::calib::params(Technology::MyrinetMx).link_profile();
    let topo = Topology::fat_tree(4, profile);
    let cfg = CollConfig {
        algo: None,
        ..CollConfig::for_fabric(Technology::MyrinetMx, &topo)
    };
    // Ranks reach the allreduce at seeded times up to `ARRIVAL_SKEW`
    // apart, as compute stragglers do; receives that land before a rank
    // has started are held by its wrapper until it starts.
    let mut rng = SplitMix64::new(seed);
    let (apps, hub) = CollApp::ranks(CollOp::Allreduce, ALLREDUCE_ELEMS, RANKS, 1, &cfg);
    let stamps: StampsRef = Rc::new(RefCell::new(CollStamps::default()));
    let apps: Vec<Box<dyn AppDriver>> = apps
        .into_iter()
        .enumerate()
        .map(|(m, app)| {
            let watch = CollWatch {
                member: m,
                hub: hub.clone(),
                stamps: stamps.clone(),
                start_delay: SimDuration::from_nanos(rng.next_below(ARRIVAL_SKEW.as_nanos())),
            };
            Box::new(TimedApp::new(
                app.expect("one app per rank"),
                probe.clone(),
                Some(watch),
            )) as Box<dyn AppDriver>
        })
        .collect();
    let config = EngineConfig {
        reliability: ReliabilityMode::Recover,
        ..base_config()
    };
    let fault = FaultPlan::new(seed).with_loss(LOSS);
    let (sim, nodes, nics, handles, network) = assemble(
        RANKS as usize,
        Some(topo),
        Some(fault),
        config,
        apps,
        probe.clone(),
        trace,
    );
    Bed {
        sim,
        nodes,
        nics,
        handles,
        network,
        probe,
        sent: None,
        coll: Some((hub, stamps)),
        t0,
    }
}

/// Engine counters summed over every node.
#[derive(Clone, Debug, Default)]
pub struct EngineTotals {
    /// Data packets sent.
    pub packets: u64,
    /// Chunks sent.
    pub chunks: u64,
    /// Optimizer activations (all causes).
    pub activations: u64,
    /// Plans scored.
    pub plans_evaluated: u64,
    /// Plans submitted to drivers.
    pub plans_submitted: u64,
    /// Retransmit timeouts fired.
    pub timeouts: u64,
    /// Data packets re-sent.
    pub retransmits: u64,
    /// Rails degraded at the end of the run.
    pub rails_degraded: u64,
    /// Rails dead at the end of the run.
    pub rails_dead: u64,
}

/// Everything one run produced, on both clocks.
pub struct Outcome {
    /// Host seconds from construction to the first simulated event.
    pub setup_s: f64,
    /// Host seconds from the first simulated event to quiescence.
    pub run_s: f64,
    /// Host seconds of work the workload does after its simulations
    /// (`profiled_diff`'s export, profile, snapshot and diff).
    pub post_s: f64,
    /// Operations attempted (messages, or collectives).
    pub attempted: u64,
    /// Operations completed correctly.
    pub ok: u64,
    /// Outputs that were wrong (corrupt, duplicated or wrong value).
    pub wrong: u64,
    /// Messages delivered to applications.
    pub delivered: u64,
    /// Submit→delivery latency of each message, ns, with failed
    /// operations as `u64::MAX` (they miss every limit).
    pub latency_ns: Vec<u64>,
    /// Completion time of each operation group, ns.
    pub group_ns: Vec<u64>,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Simulated time from the first submit to the last delivery, ns.
    pub span_ns: u64,
    /// Time of the last delivery, ns.
    pub makespan_ns: u64,
    /// Simulated events dispatched.
    pub events: u64,
    /// Summed engine counters.
    pub engine: EngineTotals,
    /// The run's recorder (spans are present only when timing was on).
    pub probe: Probe,
    /// Digest of every delivery and collective completion.
    pub delivery_hash: u64,
}

/// Messages per operation group on the message workloads (the member
/// count of the allreduce).
pub const GROUP: usize = RANKS as usize;

/// Host seconds of simulation between two gauge passes.
pub const SLICE_S: f64 = 0.01;

impl Bed {
    /// Run to quiescence and collect the outcome.
    pub fn run(self) -> (Outcome, Cluster) {
        self.run_gauged(None)
    }

    /// Run to quiescence and collect the outcome. With a gauge, the run
    /// stops about every [`SLICE_S`] host seconds after the first event
    /// for one gauge pass; the passes are left out of `run_s`. Where the run stops does not
    /// change what it simulates.
    pub fn run_gauged(mut self, mut gauge: Option<&mut Gauge>) -> (Outcome, Cluster) {
        let gauge_s0 = gauge.as_ref().map_or(0.0, |g| g.secs());
        if let Some(g) = gauge.as_deref_mut() {
            // The slice is set in simulated time and steered towards
            // SLICE_S of host time.
            let (mut limit, mut step) = (0u64, 1_000u64);
            loop {
                let t = Instant::now();
                self.sim.run_until_quiescent(SimTime::from_nanos(limit));
                if self.sim.is_quiescent() {
                    break;
                }
                let took = t.elapsed().as_secs_f64();
                // Set-up lasts until the first event; no pass falls in it.
                if self.probe.borrow().first_event.is_some() {
                    g.pass();
                }
                let scale = (SLICE_S / took.max(1e-6)).clamp(0.5, 2.0);
                step = ((step as f64 * scale) as u64).max(1);
                limit = limit.saturating_add(step);
            }
        }
        self.sim
            .run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        let end = Instant::now();
        let gauge_s = gauge.map_or(0.0, |g| g.secs()) - gauge_s0;
        let first = self.probe.borrow().first_event.unwrap_or(end);
        let setup_s = first.duration_since(self.t0).as_secs_f64();
        let run_s = end.duration_since(first).as_secs_f64() - gauge_s;
        let events = self.sim.events_processed();
        let mut engine = EngineTotals::default();
        for h in &self.handles {
            let m = h.metrics();
            engine.packets += m.packets_sent;
            engine.chunks += m.chunks_sent;
            engine.activations += m.activations_idle + m.activations_submit + m.activations_timer;
            engine.plans_evaluated += m.plans_evaluated;
            engine.plans_submitted += m.plans_submitted;
            engine.timeouts += m.timeouts;
            engine.retransmits += m.retransmits;
            let (_, degraded, dead) = h.rail_health(0);
            engine.rails_degraded += degraded as u64;
            engine.rails_dead += dead as u64;
        }
        let probe = std::mem::take(&mut *self.probe.borrow_mut());
        let mut hash = fnv(0, events);
        for d in &probe.deliveries {
            hash = fnv(hash, d.latency_ns);
            hash = fnv(hash, d.at_ns);
            hash = fnv(hash, d.bytes);
        }
        let delivered = probe.deliveries.len() as u64;
        let bytes: u64 = probe.deliveries.iter().map(|d| d.bytes).sum();
        let first_submit = probe
            .deliveries
            .iter()
            .map(|d| d.at_ns - d.latency_ns)
            .min()
            .unwrap_or(0);
        let makespan_ns = probe.deliveries.iter().map(|d| d.at_ns).max().unwrap_or(0);
        let span_ns = makespan_ns.saturating_sub(first_submit).max(1);
        let wrong_msgs = probe.deliveries.iter().filter(|d| !d.ok).count() as u64;
        let (attempted, ok, wrong, latency_ns, group_ns) = match (&self.sent, &self.coll) {
            (Some(sent), _) => {
                let attempted = sent.borrow().sent;
                let ok = delivered - wrong_msgs;
                let mut lat: Vec<u64> = probe
                    .deliveries
                    .iter()
                    .map(|d| if d.ok { d.latency_ns } else { u64::MAX })
                    .collect();
                lat.resize(attempted.max(delivered) as usize, u64::MAX);
                (attempted, ok, wrong_msgs, lat, message_groups(&probe))
            }
            (None, Some((hub, stamps))) => {
                let h = hub.borrow();
                let done = stamps.borrow().completions();
                for d in &done {
                    hash = fnv(hash, d.as_nanos());
                }
                let attempted = h.started.max(done.len() as u64);
                let wrong = h.wrong_results + wrong_msgs;
                let ok = (done.len() as u64).saturating_sub(h.wrong_results);
                let lat = probe.deliveries.iter().map(|d| d.latency_ns).collect();
                (
                    attempted,
                    ok,
                    wrong,
                    lat,
                    done.iter().map(|d| d.as_nanos()).collect(),
                )
            }
            (None, None) => unreachable!("every bed has a generator"),
        };
        let cluster = Cluster {
            sim: self.sim,
            nodes: self.nodes,
            nics: self.nics,
            handles: self.handles.into_iter().map(NodeHandle::Opt).collect(),
            networks: vec![self.network],
        };
        (
            Outcome {
                setup_s,
                run_s,
                post_s: 0.0,
                attempted,
                ok,
                wrong,
                delivered,
                latency_ns,
                group_ns,
                bytes,
                span_ns,
                makespan_ns,
                events,
                engine,
                probe,
                delivery_hash: hash,
            },
            cluster,
        )
    }
}

/// Completion time of each group of [`GROUP`] consecutively submitted
/// messages: from the first submit to the last delivery in the group.
fn message_groups(probe: &Probe) -> Vec<u64> {
    let mut msgs: Vec<(u64, u64)> = probe
        .deliveries
        .iter()
        .map(|d| (d.at_ns - d.latency_ns, d.at_ns))
        .collect();
    msgs.sort_unstable();
    msgs.chunks_exact(GROUP)
        .map(|g| {
            let end = g.iter().map(|m| m.1).max().expect("non-empty group");
            end - g[0].0
        })
        .collect()
}

impl Outcome {
    /// Fold another run (the next job of the same workload) into this
    /// one: samples are concatenated, counts and times summed.
    pub fn absorb(&mut self, o: Outcome) {
        self.run_s += o.run_s;
        self.post_s += o.post_s;
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.wrong += o.wrong;
        self.delivered += o.delivered;
        self.latency_ns.extend(o.latency_ns);
        self.group_ns.extend(o.group_ns);
        self.bytes += o.bytes;
        self.span_ns += o.span_ns;
        self.makespan_ns += o.makespan_ns;
        self.events += o.events;
        let (a, b) = (&mut self.engine, o.engine);
        a.packets += b.packets;
        a.chunks += b.chunks;
        a.activations += b.activations;
        a.plans_evaluated += b.plans_evaluated;
        a.plans_submitted += b.plans_submitted;
        a.timeouts += b.timeouts;
        a.retransmits += b.retransmits;
        a.rails_degraded += b.rails_degraded;
        a.rails_dead += b.rails_dead;
        self.probe.absorb(o.probe);
        self.delivery_hash = fnv(self.delivery_hash, o.delivery_hash);
    }

    /// Delivered messages per host second of the timed run.
    pub fn host_msgs_per_s(&self) -> f64 {
        self.delivered as f64 / (self.run_s + self.post_s)
    }

    /// Delivered payload per simulated second, Mbit/s.
    pub fn goodput_mbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / 1e6 / (self.span_ns as f64 / 1e9)
    }

    /// Delivered messages per simulated second.
    pub fn sim_msgs_per_s(&self) -> f64 {
        self.delivered as f64 / (self.span_ns as f64 / 1e9)
    }

    /// Exact sim-time percentile of message latency, µs. A percentile
    /// that falls on a failed operation reads as the whole run's length.
    pub fn latency_us(&self, q: f64) -> f64 {
        let v = percentile(&self.latency_ns, q);
        if v == u64::MAX {
            self.makespan_ns as f64 / 1e3
        } else {
            v as f64 / 1e3
        }
    }

    /// Median group completion time, µs.
    pub fn group_p50_us(&self) -> f64 {
        percentile(&self.group_ns, 0.5) as f64 / 1e3
    }

    /// Every sim-time result of the run, rendered for byte comparison.
    pub fn sim_digest(&self) -> String {
        format!(
            "p50={:.3} p99={:.3} goodput={:.6} group_p50={:.3} ok={}/{} wrong={} delivered={} \
             events={} makespan={} hash={:016x}",
            self.latency_us(0.5),
            self.latency_us(0.99),
            self.goodput_mbps(),
            self.group_p50_us(),
            self.ok,
            self.attempted,
            self.wrong,
            self.delivered,
            self.events,
            self.makespan_ns,
            self.delivery_hash
        )
    }
}
