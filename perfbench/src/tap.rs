//! Pass-through wrappers around the program's two seams,
//! [`ClusterBackend`] and [`Policy`], that time the calls crossing them.
//!
//! A wrapper forwards every trait method to the wrapped value unchanged,
//! so a wrapped run is bit-identical to an unwrapped one
//! (`tests/wrappers.rs` pins this on every workload). What it adds is a
//! record of host time around the calls:
//!
//! * [`Mode::Latency`] (the untraced run): two clock reads per interval,
//!   the instant the backend reports the window ready and the instant
//!   the next `apply` returns. Their difference is the interval latency
//!   (decide + arbitration wait + actuation).
//! * [`Mode::Spans`] (the traced run): one [`Span`] per timed call, keyed
//!   by `(member, interval)`.
//!
//! Wrappers keep their records locally and hand them to the shared
//! [`Probe`] when dropped — the fleet drops each member's loop when it
//! finishes — so recording takes no lock on the hot path.

use pema_control::{
    ClusterBackend, Decision, FluidBackend, HoldPolicy, Policy, RulePolicy, SimBackend, WindowPoll,
    WindowRequest,
};
use pema_core::PemaController;
use pema_live::LiveBackend;
use pema_sim::{Allocation, WindowStats};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How much a wrapper records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No wrappers at all: members get the bare backend and policy.
    Raw,
    /// Wrappers record only the interval latency.
    Latency,
    /// Wrappers record a span per timed call.
    Spans,
}

/// The calls a span can time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `ClusterBackend::begin_window`.
    Begin,
    /// `ClusterBackend::poll_window` (one span per poll).
    Poll,
    /// `ClusterBackend::apply` committing an interval's decision.
    Apply,
    /// `ClusterBackend::apply` issued before a window (pre-interval
    /// allocation switch).
    ApplyPre,
    /// `Policy::decide`.
    Decide,
    /// `Policy::pre_interval`.
    PreInterval,
}

impl Call {
    /// Span name as written to the span table.
    pub fn name(self) -> &'static str {
        match self {
            Call::Begin => "backend.begin_window",
            Call::Poll => "backend.poll_window",
            Call::Apply => "backend.apply",
            Call::ApplyPre => "backend.apply_pre",
            Call::Decide => "policy.decide",
            Call::PreInterval => "policy.pre_interval",
        }
    }
}

/// One timed call. The parent of every member span is the root span of
/// the run that drove the member (`fleet.run` or `live.loop`); spans of
/// one control interval share `(member, interval)`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub call: Call,
    /// Member id (fleet insertion index).
    pub member: u32,
    /// Control interval index within the member.
    pub interval: u32,
    /// Start, nanoseconds since the probe's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the probe's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Which layer a wrapped backend belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `SimBackend` — the discrete-event simulator.
    Des,
    /// `FluidBackend` — the analytic fluid model.
    Fluid,
    /// `LiveBackend` — HTTP to Prometheus/Kubernetes.
    Live,
}

/// Which policy a wrapped policy is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// `PemaController` (pema-core).
    Pema,
    /// `RulePolicy` (pema-baselines).
    Rule,
    /// `HoldPolicy`.
    Hold,
}

/// Read-only facts a backend wrapper reports about its backend.
pub trait InspectBackend {
    /// Layer of the backend.
    const KIND: BackendKind;
    /// DES events processed so far (0 for non-DES backends).
    fn sim_events(&self) -> u64 {
        0
    }
}

impl InspectBackend for SimBackend {
    const KIND: BackendKind = BackendKind::Des;
    fn sim_events(&self) -> u64 {
        self.sim.events_processed()
    }
}

impl InspectBackend for FluidBackend {
    const KIND: BackendKind = BackendKind::Fluid;
}

impl InspectBackend for LiveBackend {
    const KIND: BackendKind = BackendKind::Live;
}

/// Read-only facts a policy wrapper reports about its policy.
pub trait InspectPolicy {
    /// Which policy this is.
    const KIND: PolicyKind;
    /// Records in the controller's history database (RHDb), if it has one.
    fn rhdb_records(&self) -> usize {
        0
    }
}

impl InspectPolicy for PemaController {
    const KIND: PolicyKind = PolicyKind::Pema;
    fn rhdb_records(&self) -> usize {
        self.rhdb().len()
    }
}

impl InspectPolicy for RulePolicy {
    const KIND: PolicyKind = PolicyKind::Rule;
}

impl InspectPolicy for HoldPolicy {
    const KIND: PolicyKind = PolicyKind::Hold;
}

/// What a backend wrapper hands to the probe when dropped.
#[derive(Debug, Default)]
pub struct BackendRecord {
    /// Member id.
    pub member: u32,
    /// Backend layer (`None` only for a default record).
    pub kind: Option<BackendKind>,
    /// Interval latencies (window ready → apply returned), ns.
    pub latency_ns: Vec<u64>,
    /// Spans of backend calls (traced run only).
    pub spans: Vec<Span>,
    /// Host ns from each interval's `begin_window` to its ready poll
    /// returning (traced run only).
    pub window_elapsed_ns: Vec<u64>,
    /// `poll_window` calls.
    pub polls: u64,
    /// DES events processed over the member's life.
    pub sim_events: u64,
}

/// What a policy wrapper hands to the probe when dropped.
#[derive(Debug, Default)]
pub struct PolicyRecord {
    /// Member id.
    pub member: u32,
    /// Policy identity (`None` only for a default record).
    pub kind: Option<PolicyKind>,
    /// Spans of policy calls (traced run only).
    pub spans: Vec<Span>,
    /// RHDb records after the last decision.
    pub rhdb_records_end: usize,
}

/// The shared sink wrappers deliver their records to.
pub struct Probe {
    /// Zero of every span timestamp.
    epoch: Instant,
    mode: Mode,
    backends: Mutex<Vec<BackendRecord>>,
    policies: Mutex<Vec<PolicyRecord>>,
}

impl Probe {
    /// A probe for one run in `mode`.
    pub fn new(mode: Mode) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            mode,
            backends: Mutex::new(Vec::new()),
            policies: Mutex::new(Vec::new()),
        })
    }

    /// The recording mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Drains the records delivered so far, each list sorted by member.
    pub fn take(&self) -> (Vec<BackendRecord>, Vec<PolicyRecord>) {
        let mut b = std::mem::take(&mut *self.backends.lock().expect("probe poisoned"));
        let mut p = std::mem::take(&mut *self.policies.lock().expect("probe poisoned"));
        b.sort_by_key(|r| r.member);
        p.sort_by_key(|r| r.member);
        (b, p)
    }
}

/// A [`ClusterBackend`] that forwards to `inner` and times the calls.
pub struct TapBackend<B: ClusterBackend + InspectBackend> {
    inner: B,
    probe: Arc<Probe>,
    rec: BackendRecord,
    interval: u32,
    /// When the current interval's window began (traced run).
    began_ns: u64,
    /// When the current interval's window was reported ready; consumed
    /// by the next `apply`.
    ready: Option<Instant>,
    events_at_start: u64,
}

impl<B: ClusterBackend + InspectBackend> TapBackend<B> {
    /// Wraps `inner` as member `member`.
    pub fn new(inner: B, member: u32, probe: &Arc<Probe>) -> Self {
        let events_at_start = inner.sim_events();
        Self {
            inner,
            probe: Arc::clone(probe),
            rec: BackendRecord {
                member,
                kind: Some(B::KIND),
                ..BackendRecord::default()
            },
            interval: 0,
            began_ns: 0,
            ready: None,
            events_at_start,
        }
    }

    fn traced(&self) -> bool {
        self.probe.mode == Mode::Spans
    }

    fn span(&mut self, call: Call, start_ns: u64, end_ns: u64) {
        self.rec.spans.push(Span {
            call,
            member: self.rec.member,
            interval: self.interval,
            start_ns,
            end_ns,
        });
    }

    fn on_ready(&mut self, end_ns: u64) {
        self.ready = Some(Instant::now());
        if self.traced() {
            self.rec.window_elapsed_ns.push(end_ns - self.began_ns);
        }
    }
}

impl<B: ClusterBackend + InspectBackend> Drop for TapBackend<B> {
    fn drop(&mut self) {
        let mut rec = std::mem::take(&mut self.rec);
        rec.sim_events = self.inner.sim_events() - self.events_at_start;
        if let Ok(mut sink) = self.probe.backends.lock() {
            sink.push(rec);
        }
    }
}

impl<B: ClusterBackend + InspectBackend> ClusterBackend for TapBackend<B> {
    fn apply(&mut self, alloc: &Allocation) {
        let start = if self.traced() {
            self.probe.now_ns()
        } else {
            0
        };
        self.inner.apply(alloc);
        match self.ready.take() {
            Some(ready) => {
                self.rec.latency_ns.push(ready.elapsed().as_nanos() as u64);
                if self.traced() {
                    let end = self.probe.now_ns();
                    self.span(Call::Apply, start, end);
                }
                self.interval += 1;
            }
            None => {
                if self.traced() {
                    let end = self.probe.now_ns();
                    self.span(Call::ApplyPre, start, end);
                }
            }
        }
    }

    fn allocation(&self) -> Allocation {
        self.inner.allocation()
    }

    fn measure_window(&mut self, rps: f64, warmup_s: f64, window_s: f64) -> WindowStats {
        self.inner.measure_window(rps, warmup_s, window_s)
    }

    fn measure_window_abortable(
        &mut self,
        rps: f64,
        warmup_s: f64,
        window_s: f64,
        check_s: f64,
        slo_ms: f64,
    ) -> (WindowStats, bool) {
        self.inner
            .measure_window_abortable(rps, warmup_s, window_s, check_s, slo_ms)
    }

    fn now_s(&self) -> f64 {
        self.inner.now_s()
    }

    fn begin_window(&mut self, req: &WindowRequest) {
        if self.traced() {
            let start = self.probe.now_ns();
            self.inner.begin_window(req);
            let end = self.probe.now_ns();
            self.began_ns = start;
            self.span(Call::Begin, start, end);
        } else {
            self.inner.begin_window(req);
        }
    }

    fn poll_window(&mut self, req: &WindowRequest) -> WindowPoll {
        self.rec.polls += 1;
        if self.traced() {
            let start = self.probe.now_ns();
            let poll = self.inner.poll_window(req);
            let end = self.probe.now_ns();
            self.span(Call::Poll, start, end);
            if matches!(poll, WindowPoll::Ready { .. }) {
                self.on_ready(end);
            }
            poll
        } else {
            let poll = self.inner.poll_window(req);
            if matches!(poll, WindowPoll::Ready { .. }) {
                self.on_ready(0);
            }
            poll
        }
    }

    fn cancel_window(&mut self) {
        self.inner.cancel_window()
    }

    fn set_speed(&mut self, speed: f64) {
        self.inner.set_speed(speed)
    }
}

/// A [`Policy`] that forwards to `inner` and times the calls.
pub struct TapPolicy<P: Policy + InspectPolicy> {
    inner: P,
    probe: Arc<Probe>,
    rec: PolicyRecord,
    interval: u32,
}

impl<P: Policy + InspectPolicy> TapPolicy<P> {
    /// Wraps `inner` as member `member`.
    pub fn new(inner: P, member: u32, probe: &Arc<Probe>) -> Self {
        Self {
            inner,
            probe: Arc::clone(probe),
            rec: PolicyRecord {
                member,
                kind: Some(P::KIND),
                ..PolicyRecord::default()
            },
            interval: 0,
        }
    }

    fn traced(&self) -> bool {
        self.probe.mode == Mode::Spans
    }
}

impl<P: Policy + InspectPolicy> Drop for TapPolicy<P> {
    fn drop(&mut self) {
        let mut rec = std::mem::take(&mut self.rec);
        rec.rhdb_records_end = self.inner.rhdb_records();
        if let Ok(mut sink) = self.probe.policies.lock() {
            sink.push(rec);
        }
    }
}

impl<P: Policy + InspectPolicy> Policy for TapPolicy<P> {
    fn pre_interval(&mut self, rps: f64) -> Option<Allocation> {
        if !self.traced() {
            return self.inner.pre_interval(rps);
        }
        let start = self.probe.now_ns();
        let out = self.inner.pre_interval(rps);
        let end = self.probe.now_ns();
        self.rec.spans.push(Span {
            call: Call::PreInterval,
            member: self.rec.member,
            interval: self.interval,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    fn decide(&mut self, stats: &WindowStats) -> Decision {
        if !self.traced() {
            return self.inner.decide(stats);
        }
        let start = self.probe.now_ns();
        let out = self.inner.decide(stats);
        let end = self.probe.now_ns();
        self.rec.spans.push(Span {
            call: Call::Decide,
            member: self.rec.member,
            interval: self.interval,
            start_ns: start,
            end_ns: end,
        });
        self.interval += 1;
        out
    }

    fn slo_ms(&self) -> f64 {
        self.inner.slo_ms()
    }
}
