//! Layer replays: a workload's own message stream pushed through the
//! engine's public layer functions one call at a time, each call timed
//! from outside.
//!
//! The stream is what node 0 sent in the workload's untraced run (flow,
//! destination, class and size of every message, in delivery order).
//! The replay keeps the collect-layer backlog at the workload's median
//! backlog at activation, then runs one activation after another:
//!
//! `CollectLayer::submit` → `collect_candidates` → `select_plan` (and,
//! on the same context, `propose_all`, `validate_plan`, `score_plan`) →
//! `commit_chunk` → `proto::encode_packet` → `proto::decode_packet` →
//! `Receiver::on_chunk`.
//!
//! `simnet::event::EventQueue` push+pop is replayed separately at the
//! workload's pending-event depth.

use std::hint::black_box;
use std::time::Instant;

use madeleine::collect::CollectLayer;
use madeleine::constraints::validate_plan;
use madeleine::cost::score_plan;
use madeleine::ids::{ChannelId, FlowId, TrafficClass};
use madeleine::message::MessageBuilder;
use madeleine::optimizer::select_plan;
use madeleine::plan::PlanBody;
use madeleine::proto::{decode_packet, encode_packet, make_header, WireChunk, KIND_DATA};
use madeleine::receiver::Receiver;
use madeleine::strategy::{OptContext, StrategyRegistry};
use madeleine::{EngineConfig, FairnessMode};
use nicdrv::{calib, CostModel};
use simnet::event::{EventKind, EventQueue};
use simnet::{NicId, NodeId, SimTime, SplitMix64, Technology, TimerId, WirePacket};

use crate::probe::Delivery;

/// One message of the replayed stream.
#[derive(Clone, Copy)]
pub struct StreamMsg {
    /// Sender-side flow id.
    pub flow: u32,
    /// Destination node.
    pub dst: u32,
    /// Payload bytes (express header included).
    pub bytes: u64,
}

/// What node 0 sent, in delivery order.
pub fn stream_of(deliveries: &[Delivery]) -> Vec<StreamMsg> {
    deliveries
        .iter()
        .filter(|d| d.src == 0)
        .map(|d| StreamMsg {
            flow: d.flow,
            dst: d.dst,
            bytes: d.bytes,
        })
        .collect()
}

/// Per-call host-time samples, ns.
#[derive(Default)]
pub struct LayerTimes {
    /// `CollectLayer::open_flow`.
    pub open_flow: Vec<u64>,
    /// `CollectLayer::submit`.
    pub submit: Vec<u64>,
    /// `collect_candidates`, per activation.
    pub candidates: Vec<u64>,
    /// `select_plan`, per activation.
    pub select: Vec<u64>,
    /// `propose_all`, per activation.
    pub propose: Vec<u64>,
    /// `validate_plan`, per proposal.
    pub validate: Vec<u64>,
    /// `score_plan`, per valid proposal.
    pub score: Vec<u64>,
    /// `encode_packet`, per packet.
    pub encode: Vec<u64>,
    /// `decode_packet`, per packet.
    pub decode: Vec<u64>,
    /// `Receiver::on_chunk`, per chunk.
    pub on_chunk: Vec<u64>,
    /// Messages the receiver delivered.
    pub delivered: u64,
    /// Messages submitted.
    pub submitted: u64,
    /// Messages still in the collect layer when the replay stopped.
    pub pending: u64,
}

/// Most activations one replay runs.
const MAX_ACTIVATIONS: usize = 40_000;

fn timed<R>(samples: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = black_box(f());
    samples.push(t0.elapsed().as_nanos() as u64);
    r
}

/// Replay `stream` through the layers. `classes` gives each flow's
/// traffic class by id; `backlog_target` is the backlog (bytes) the
/// replay keeps queued before each activation.
pub fn replay_layers(
    stream: &[StreamMsg],
    class_of: impl Fn(u32) -> TrafficClass,
    fairness: FairnessMode,
    backlog_target: u64,
) -> LayerTimes {
    let tech = Technology::MyrinetMx;
    let caps = calib::capabilities(tech);
    let params = calib::params(tech);
    let cost = CostModel::from_params(&params);
    let config = EngineConfig {
        fairness,
        ..EngineConfig::default()
    };
    let registry = StrategyRegistry::standard(&config);
    let mtu = params.mtu;
    let mut t = LayerTimes::default();

    let mut collect = CollectLayer::new();
    if fairness == FairnessMode::Drr {
        collect.set_fairness(fairness, config.drr_quantum, config.class_weights);
    }
    let flows = stream.iter().map(|m| m.flow + 1).max().unwrap_or(0);
    let mut dst_of = vec![1u32; flows as usize];
    for m in stream.iter().rev() {
        dst_of[m.flow as usize] = m.dst;
    }
    for f in 0..flows {
        let dst = NodeId(dst_of[f as usize]);
        timed(&mut t.open_flow, || collect.open_flow(dst, class_of(f)));
    }

    let mut receiver = Receiver::new();
    let mut next = 0usize;
    let mut now_ns = 1_000u64;
    let mut cookie = 0u64;
    for _ in 0..MAX_ACTIVATIONS {
        while next < stream.len()
            && (collect.is_empty() || collect.backlog_bytes() < backlog_target)
        {
            let m = stream[next];
            let body = m.bytes.saturating_sub(8) as usize;
            let parts = MessageBuilder::new()
                .pack_express(&[0xA5; 8])
                .pack_cheaper(&vec![m.flow as u8; body])
                .build_parts();
            let now = SimTime::from_nanos(now_ns);
            timed(&mut t.submit, || {
                collect.submit(FlowId(m.flow), parts, now, caps.rndv_threshold_hint)
            });
            next += 1;
            t.submitted += 1;
        }
        now_ns += 1_000;
        let now = SimTime::from_nanos(now_ns);
        let groups = timed(&mut t.candidates, || {
            collect.collect_candidates(ChannelId(0), config.lookahead_window, |_, _| true)
        });
        if groups.is_empty() {
            break;
        }
        let octx = OptContext {
            now,
            channel: ChannelId(0),
            caps: &caps,
            cost: &cost,
            config: &config,
            groups: &groups,
            packet_limit: mtu.min(caps.max_packet_bytes),
            rail_count: 1,
            health_penalty: 1.0,
        };
        let outcome = timed(&mut t.select, || {
            select_plan(&registry, &octx, &collect, mtu, config.rearrange_budget)
        });
        let mut proposals = Vec::new();
        timed(&mut t.propose, || {
            registry.propose_all(&octx, &mut proposals)
        });
        for p in &proposals {
            let valid = timed(&mut t.validate, || validate_plan(p, &collect, &caps, mtu));
            if valid.is_ok() {
                timed(&mut t.score, || score_plan(p, &octx));
            }
        }
        let Some(best) = outcome.best else { break };
        let plan = best.plan;
        match plan.body {
            PlanBody::Data {
                ref chunks,
                linearize,
            } => {
                let wire: Vec<WireChunk> = chunks
                    .iter()
                    .map(|c| {
                        let msg = collect.find_msg(c.flow, c.seq).expect("planned message");
                        let frag = &msg.frags[c.frag as usize];
                        WireChunk {
                            header: make_header(
                                c.flow,
                                c.seq,
                                c.frag,
                                msg.frags.len() as u16,
                                frag.mode == madeleine::message::PackMode::Express,
                                msg.class,
                                frag.len(),
                                c.offset,
                                c.len,
                                msg.submitted_at,
                            ),
                            data: frag
                                .data
                                .slice(c.offset as usize..(c.offset + c.len) as usize),
                        }
                    })
                    .collect();
                let segments = timed(&mut t.encode, || encode_packet(&wire, linearize));
                cookie += 1;
                let pkt = WirePacket {
                    src: NodeId(0),
                    dst: plan.dst,
                    src_nic: NicId(0),
                    dst_nic: NicId(1),
                    vchan: 0,
                    kind: KIND_DATA,
                    cookie,
                    seq: cookie,
                    ecn: false,
                    payload: segments,
                };
                let decoded = timed(&mut t.decode, || decode_packet(&pkt))
                    .expect("a packet the encoder produced decodes");
                for c in chunks {
                    collect.commit_chunk(c, ChannelId(0));
                    collect.complete_chunk(c);
                }
                for d in &decoded {
                    let out = timed(&mut t.on_chunk, || receiver.on_chunk(NodeId(0), d, now));
                    t.delivered += out.len() as u64;
                }
            }
            PlanBody::RndvRequest { flow, seq, frag } => {
                collect.mark_rndv_requested(flow, seq, frag);
                collect.grant_rndv(flow, seq, frag);
            }
        }
    }
    t.pending = collect.pending_msgs();
    t
}

/// Replay `EventQueue` push+pop pairs at a steady `depth` of pending
/// events; returns one sample (ns per pair, averaged over a batch) per
/// batch.
pub fn replay_queue(depth: usize, pairs: usize) -> Vec<u64> {
    const BATCH: usize = 1_000;
    let mut rng = SplitMix64::new(0x51_u64 ^ depth as u64);
    let mut q = EventQueue::new();
    let mut now = 0u64;
    let timer = |at: u64| EventKind::Timer {
        node: NodeId(0),
        timer: TimerId(at),
        tag: 0,
    };
    for _ in 0..depth {
        let at = rng.next_u64() % 1_000_000;
        q.push(SimTime::from_nanos(at), timer(at));
    }
    let mut out = Vec::with_capacity(pairs / BATCH + 1);
    for _ in 0..pairs / BATCH {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            let ev = q.pop().expect("queue stays at depth");
            now = now.max(ev.at.as_nanos());
            let at = now + rng.next_u64() % 1_000_000;
            q.push(SimTime::from_nanos(at), timer(at));
        }
        out.push(t0.elapsed().as_nanos() as u64 / BATCH as u64);
    }
    black_box(q.len());
    out
}
