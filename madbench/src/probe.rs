//! Outside-in timing of a live simulation.
//!
//! Every node's [`MadEngine`] is installed behind a [`TimedEngine`]
//! endpoint and every application behind a [`TimedApp`] driver, so the
//! benchmark sees each call into the engine and each callback into an
//! application without any change to the program. With timing off the
//! wrappers only forward calls and record deliveries; with timing on they
//! keep a span stack and charge each span's self time (its duration minus
//! its nested spans) to its layer.
//!
//! The layers are:
//! * engine — `Endpoint` callbacks, plus the `CommApi` calls an
//!   application makes back into the engine (submit, open_flow, flush);
//! * app — `AppDriver` callbacks minus the engine calls nested in them;
//! * simnet — wall time of the run minus every top-level span.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use madeleine::api::{AppDriver, CommApi};
use madeleine::flowmgr::SendOutcome;
use madeleine::ids::{FlowId, MsgId, TrafficClass};
use madeleine::message::{DeliveredMessage, Fragment};
use madeleine::trace::EngineEvent;
use madeleine::{CollHub, EngineHandle, MadEngine};
use simnet::{Endpoint, NicId, NodeId, SimCtx, SimDuration, SimTime, TimerId, WirePacket};

/// Engine entry points timed at the `Endpoint` boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `on_start`.
    Start,
    /// `on_tx_done`.
    TxDone,
    /// `on_nic_idle`: the optimizer's activation.
    Activation,
    /// `on_packet_rx`.
    Rx,
    /// `on_timer`.
    Timer,
    /// A `CommApi` call made by an application (submit path).
    Api,
}

const CALLS: usize = 6;

/// Self-time samples of one engine entry point.
#[derive(Default)]
pub struct CallStats {
    /// Number of calls.
    pub calls: u64,
    /// Self time of each call, ns.
    pub self_ns: Vec<u64>,
}

/// One message delivered to an application.
#[derive(Clone, Copy)]
pub struct Delivery {
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Sender-side flow id.
    pub flow: u32,
    /// Submit→delivery latency, ns (from `DeliveredMessage::latency`).
    pub latency_ns: u64,
    /// Delivery time, ns of sim time.
    pub at_ns: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Delivered exactly once, in order, with an intact payload.
    pub ok: bool,
}

/// Shared recorder for one run.
#[derive(Default)]
pub struct Probe {
    /// Benchmark span timing on (the traced run) or off.
    pub timing: bool,
    /// Verify payloads against `madware::pattern` on delivery.
    pub check_payloads: bool,
    /// Host instant of the first simulated event (end of set-up).
    pub first_event: Option<Instant>,
    stack: Vec<u64>,
    /// Per-entry-point engine self times, indexed by [`Call`].
    pub engine: [CallStats; CALLS],
    /// Application callback self time, ns.
    pub app_self_ns: u64,
    /// Time spent in top-level spans, ns (subtracted from wall for simnet).
    pub top_ns: u64,
    /// Collect-layer backlog sampled at each activation, bytes.
    pub backlog: Vec<u64>,
    /// Every delivery, in delivery order.
    pub deliveries: Vec<Delivery>,
    /// Next expected sequence per (source, flow).
    next_seq: HashMap<(u32, u32), u32>,
    /// Integrity failures seen (bounded description list).
    pub failures: Vec<String>,
}

/// Shared handle to a [`Probe`].
pub type ProbeRef = Rc<RefCell<Probe>>;

impl Probe {
    /// A fresh recorder.
    pub fn new(timing: bool, check_payloads: bool) -> ProbeRef {
        Rc::new(RefCell::new(Probe {
            timing,
            check_payloads,
            ..Probe::default()
        }))
    }

    fn mark_event(&mut self) {
        if self.first_event.is_none() {
            self.first_event = Some(Instant::now());
        }
    }

    fn enter(&mut self) {
        self.stack.push(0);
    }

    /// Close the innermost span, which lasted `total` ns; returns its
    /// self time.
    fn exit(&mut self, total: u64) -> u64 {
        let nested = self.stack.pop().expect("span stack underflow");
        match self.stack.last_mut() {
            Some(parent) => *parent += total,
            None => self.top_ns += total,
        }
        total.saturating_sub(nested)
    }

    fn record_call(&mut self, call: Call, self_ns: u64) {
        let s = &mut self.engine[call as usize];
        s.calls += 1;
        s.self_ns.push(self_ns);
    }

    /// Engine self time summed over every entry point, ns.
    pub fn engine_self_ns(&self) -> u64 {
        self.engine.iter().flat_map(|c| c.self_ns.iter()).sum()
    }

    /// Fold another run's recorder into this one.
    pub fn absorb(&mut self, o: Probe) {
        for (a, b) in self.engine.iter_mut().zip(o.engine) {
            a.calls += b.calls;
            a.self_ns.extend(b.self_ns);
        }
        self.app_self_ns += o.app_self_ns;
        self.top_ns += o.top_ns;
        self.backlog.extend(o.backlog);
        self.deliveries.extend(o.deliveries);
        self.failures.extend(o.failures);
    }

    /// Stats of one engine entry point.
    pub fn call(&self, call: Call) -> &CallStats {
        &self.engine[call as usize]
    }

    fn record_delivery(&mut self, dst: NodeId, msg: &DeliveredMessage) {
        let next = self.next_seq.entry((msg.src.0, msg.flow.0)).or_insert(0);
        let mut ok = msg.id.seq.0 == *next;
        if ok {
            *next += 1;
        } else if self.failures.len() < 8 {
            self.failures
                .push(format!("{} delivered out of order or twice", msg.id));
        }
        if self.check_payloads {
            if let Err(e) = madware::check_message(msg) {
                ok = false;
                if self.failures.len() < 8 {
                    self.failures.push(e);
                }
            }
        }
        self.deliveries.push(Delivery {
            src: msg.src.0,
            dst: dst.0,
            flow: msg.flow.0,
            latency_ns: msg.latency.as_nanos(),
            at_ns: msg.delivered_at.as_nanos(),
            bytes: msg.total_len(),
            ok,
        });
    }
}

/// Time `f` as a span of `probe` when timing is on; returns `f`'s result
/// and the span's self time (0 when timing is off).
fn span<R>(probe: &ProbeRef, f: impl FnOnce() -> R) -> (R, u64) {
    if !probe.borrow().timing {
        return (f(), 0);
    }
    probe.borrow_mut().enter();
    let t0 = Instant::now();
    let r = f();
    let total = t0.elapsed().as_nanos() as u64;
    let self_ns = probe.borrow_mut().exit(total);
    (r, self_ns)
}

/// A node's engine behind the benchmark's own `Endpoint`.
pub struct TimedEngine {
    inner: MadEngine,
    handle: EngineHandle,
    probe: ProbeRef,
}

impl TimedEngine {
    /// Wrap `inner`; `handle` is used to sample the backlog.
    pub fn new(inner: MadEngine, handle: EngineHandle, probe: ProbeRef) -> Self {
        TimedEngine {
            inner,
            handle,
            probe,
        }
    }

    fn timed(&mut self, call: Call, f: impl FnOnce(&mut MadEngine)) {
        if call != Call::Start {
            self.probe.borrow_mut().mark_event();
        }
        let probe = self.probe.clone();
        let inner = &mut self.inner;
        let (_, self_ns) = span(&probe, || f(inner));
        if probe.borrow().timing {
            probe.borrow_mut().record_call(call, self_ns);
        }
    }
}

impl Endpoint for TimedEngine {
    fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
        self.timed(Call::Start, |e| e.on_start(ctx));
    }

    fn on_tx_done(&mut self, ctx: &mut SimCtx<'_>, nic: NicId, cookie: u64) {
        self.timed(Call::TxDone, |e| e.on_tx_done(ctx, nic, cookie));
    }

    fn on_nic_idle(&mut self, ctx: &mut SimCtx<'_>, nic: NicId) {
        if self.probe.borrow().timing {
            let backlog = self.handle.backlog_bytes();
            self.probe.borrow_mut().backlog.push(backlog);
        }
        self.timed(Call::Activation, |e| e.on_nic_idle(ctx, nic));
    }

    fn on_packet_rx(&mut self, ctx: &mut SimCtx<'_>, nic: NicId, pkt: WirePacket) {
        self.timed(Call::Rx, |e| e.on_packet_rx(ctx, nic, pkt));
    }

    fn on_timer(&mut self, ctx: &mut SimCtx<'_>, timer: TimerId, tag: u64) {
        self.timed(Call::Timer, |e| e.on_timer(ctx, timer, tag));
    }
}

/// Start and completion instants of each member's collectives.
#[derive(Default)]
pub struct CollStamps {
    /// `started[m]`: when member `m` began its first collective.
    pub started: Vec<SimTime>,
    /// `done[m][i]`: when member `m` finished iteration `i`.
    pub done: Vec<Vec<SimTime>>,
}

/// Shared handle to [`CollStamps`].
pub type StampsRef = Rc<RefCell<CollStamps>>;

impl CollStamps {
    /// Completion times of every collective finished by all members:
    /// from the first member starting it until the last one finishing.
    pub fn completions(&self) -> Vec<SimDuration> {
        let iters = self.done.iter().map(Vec::len).min().unwrap_or(0);
        (0..iters)
            .map(|i| {
                let start = self
                    .done
                    .iter()
                    .zip(&self.started)
                    .map(|(d, &s)| if i == 0 { s } else { d[i - 1] })
                    .min()
                    .expect("at least one member");
                let end = self.done.iter().map(|d| d[i]).max().expect("member");
                end.since(start)
            })
            .collect()
    }
}

/// Collective bookkeeping of one member: the shared hub (whose member
/// completion counter moves only on this member's callbacks) and the
/// stamp table.
pub struct CollWatch {
    /// Member index.
    pub member: usize,
    /// The collective's shared statistics.
    pub hub: CollHub,
    /// Where start and completion instants go.
    pub stamps: StampsRef,
    /// How long after simulation start the member begins.
    pub start_delay: SimDuration,
}

/// Timer tag the wrapper uses to start a delayed member (below the
/// engine's reserved range; the wrapped collective apps arm no timers).
const START_TAG: u64 = 1 << 61;

/// An application behind the benchmark's own `AppDriver`: times its
/// callbacks, records every delivery, and stamps collective completions.
pub struct TimedApp {
    inner: Box<dyn AppDriver>,
    probe: ProbeRef,
    coll: Option<CollWatch>,
    /// Receives held until a delayed member starts (`None` once started).
    held: Option<Vec<DeliveredMessage>>,
}

impl TimedApp {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn AppDriver>, probe: ProbeRef, coll: Option<CollWatch>) -> Self {
        TimedApp {
            inner,
            probe,
            coll,
            held: None,
        }
    }

    fn timed(
        &mut self,
        api: &mut dyn CommApi,
        f: impl FnOnce(&mut dyn AppDriver, &mut dyn CommApi),
    ) {
        let before = self
            .coll
            .as_ref()
            .map(|c| c.hub.borrow().member_completions);
        let probe = self.probe.clone();
        let inner = self.inner.as_mut();
        let (_, self_ns) = if probe.borrow().timing {
            let mut timed_api = TimedApi {
                inner: &mut *api,
                probe: probe.clone(),
            };
            span(&probe, || f(inner, &mut timed_api))
        } else {
            (f(inner, &mut *api), 0)
        };
        probe.borrow_mut().app_self_ns += self_ns;
        if let (Some(c), Some(before)) = (&self.coll, before) {
            let after = c.hub.borrow().member_completions;
            let mut stamps = c.stamps.borrow_mut();
            for _ in before..after {
                stamps.done[c.member].push(api.now());
            }
        }
    }

    fn start_member(&mut self, api: &mut dyn CommApi) {
        if let Some(c) = &self.coll {
            let mut stamps = c.stamps.borrow_mut();
            let n = (c.member + 1).max(stamps.started.len());
            stamps.started.resize(n, SimTime::ZERO);
            stamps.done.resize_with(n, Vec::new);
            stamps.started[c.member] = api.now();
        }
        self.timed(api, |a, api| a.on_start(api));
        for msg in self.held.take().unwrap_or_default() {
            self.timed(api, |a, api| a.on_message(api, &msg));
        }
    }
}

impl AppDriver for TimedApp {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        match self.coll.as_ref().map(|c| c.start_delay) {
            Some(delay) if !delay.is_zero() => {
                self.held = Some(Vec::new());
                api.set_timer(delay, START_TAG);
            }
            _ => self.start_member(api),
        }
    }

    fn on_timer(&mut self, api: &mut dyn CommApi, tag: u64) {
        if tag == START_TAG && self.coll.is_some() {
            self.start_member(api);
        } else {
            self.timed(api, |a, api| a.on_timer(api, tag));
        }
    }

    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        // Recording and verifying the delivery is the consuming
        // application's work, so it is charged to the app span.
        let probe = self.probe.clone();
        if let Some(held) = &mut self.held {
            probe.borrow_mut().record_delivery(api.node(), msg);
            held.push(msg.clone());
            return;
        }
        self.timed(api, |a, api| {
            probe.borrow_mut().record_delivery(api.node(), msg);
            a.on_message(api, msg);
        });
    }

    fn on_sent(&mut self, api: &mut dyn CommApi, msg: MsgId) {
        self.timed(api, |a, api| a.on_sent(api, msg));
    }

    fn on_unblocked(&mut self, api: &mut dyn CommApi, class: TrafficClass) {
        self.timed(api, |a, api| a.on_unblocked(api, class));
    }
}

/// The `CommApi` handed to a timed application: each call back into the
/// engine is an engine span nested in the application's span.
struct TimedApi<'a> {
    inner: &'a mut dyn CommApi,
    probe: ProbeRef,
}

impl TimedApi<'_> {
    fn engine<R>(&mut self, f: impl FnOnce(&mut dyn CommApi) -> R) -> R {
        let probe = self.probe.clone();
        let inner = &mut *self.inner;
        let (r, self_ns) = span(&probe, || f(inner));
        probe.borrow_mut().record_call(Call::Api, self_ns);
        r
    }
}

impl CommApi for TimedApi<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn open_flow(&mut self, dst: NodeId, class: TrafficClass) -> FlowId {
        self.engine(|api| api.open_flow(dst, class))
    }

    fn send(&mut self, flow: FlowId, parts: Vec<Fragment>) -> MsgId {
        self.engine(|api| api.send(flow, parts))
    }

    fn try_send(&mut self, flow: FlowId, parts: Vec<Fragment>) -> SendOutcome {
        self.engine(|api| api.try_send(flow, parts))
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.inner.set_timer(delay, tag)
    }

    fn flush(&mut self) {
        self.engine(|api| api.flush())
    }

    fn note_event(&mut self, event: EngineEvent) {
        self.inner.note_event(event)
    }
}
