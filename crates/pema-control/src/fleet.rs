//! [`Fleet`] — a sharded scheduler that drives many control loops
//! from one process, optionally arbitrating a shared CPU budget
//! across them.
//!
//! The paper's Fig. 9 loop controls a single application, and a
//! blocking measurement (one whole window per call) means one thread
//! can drive one loop. Production controllers are deployed fleet-wide:
//! one process watching thousands of applications, each with its own
//! monitoring windows, policy state, and virtual clock. This module is
//! that multiplexer, built on the backend's one measurement seam,
//! [`begin_window`](ClusterBackend::begin_window) /
//! [`poll_window`](ClusterBackend::poll_window), which never blocks
//! for a whole window.
//!
//! ## Design: sharded poll executors, no tokio
//!
//! The offline vendor set has no async runtime, and none is needed:
//! every shipped backend runs on *virtual* time, so "concurrency" means
//! interleaving loops along the reconstructed shared clock, not real
//! I/O parallelism. Instead of futures + waker plumbing, each loop is a
//! plain state machine ([`ControlLoop::poll_step`]) that reports when
//! it next wants service (`ready-at`, in its backend's virtual
//! seconds), and [`Fleet::run`] partitions members **by member id**
//! (`id % threads`) into shards, each shard a `pollster`-style
//! block-on: a min-heap over `(ready_at, tie_rank)` that services
//! whichever of its loops is furthest behind in virtual time until
//! every loop completes. One core caps a single cooperative scheduler
//! at a few hundred thousand app-intervals/sec; with
//! [`threads`](Fleet::threads) the shards run on `std::thread::scope`
//! workers and the ceiling scales with cores.
//!
//! ## Pacing: virtual by default, wall-clock on request
//!
//! Under the default [`Clock::Virtual`] pace the executor never
//! sleeps: it services whichever loop is furthest behind and lets
//! virtual time run as fast as the backends can measure — the byte-
//! identical mode every simulation scenario uses. A live backend
//! (`pema-live`) reports *wall* timestamps from `now_s`, and replaying
//! its ready-at schedule at full speed would busy-poll windows that
//! take real seconds to fill. [`Fleet::pace`]`(`[`Clock::Wall`]`)`
//! makes each shard sleep until a popped member's ready-at before
//! polling it, so a fleet of live loops wakes exactly at window
//! boundaries instead of spinning; virtual-time members under wall
//! pace are always already past their ready-at and run unchanged (the
//! equivalence is pinned by `fleet_wall_pace_matches_virtual`).
//!
//! ## Determinism
//!
//! Fleet members share nothing — each owns its backend, policy, RNG
//! stream, and observers — so per-member results are independent of
//! scheduling by construction: any poll order yields bit-identical
//! [`RunResult`]s per member, and a fleet of one is byte-identical to
//! the plain [`Experiment::run`](crate::Experiment) path (both are
//! pinned by tests: property tests permute the tie-break order *and*
//! the thread count, and a golden test byte-compares the single-app
//! fleet against the facade). Sharding inherits the guarantee: the
//! partition depends only on member ids and the resolved thread count,
//! each shard is itself a deterministic cooperative scheduler, and
//! [`FleetResult::runs`] reports members in insertion order (never
//! completion order), merged across shards, so downstream CSVs are
//! byte-identical for **any** `threads` value. [`FleetResult::polls`]
//! is the sum of per-member poll counts, which scheduling cannot
//! change either.
//!
//! ## Arbitration: one CPU budget across the fleet
//!
//! [`Fleet::arbitration`] deliberately breaks member independence: a
//! real cluster has a finite CPU pool, and co-located applications
//! contend for it. The mechanism is a deterministic **two-phase
//! collect/grant barrier** at window boundaries:
//!
//! 1. **collect** — each member's loop runs in *propose* mode: when its
//!    window closes and its policy decides, the allocation is staged
//!    (not applied) and the member parks. A shard drives its heap until
//!    every member is parked or finished, then rendezvouses with the
//!    other shards; the last shard to arrive assembles every parked
//!    member's [`ArbitrationRequest`] **in fleet insertion order** and
//!    invokes the [`FleetPolicy`] once;
//! 2. **grant** — every shard wakes, reads its members' grants, commits
//!    them (an under-grant scales the member's per-service allocation
//!    proportionally), and resumes polling.
//!
//! Arbitration round `k` therefore sees exactly the `k`-th proposal of
//! every member that still has intervals left — a pure function of the
//! fleet description. Which shard happens to *run* the policy is
//! scheduling-dependent, but the `(round, requests)` sequence it
//! observes is not, so stateful policies (AIMD) evolve identically at
//! every thread count and tie-break permutation. With a slack budget
//! every shipped policy passes proposals through verbatim, grants never
//! rescale anything, and the run is bit-identical to an unarbitrated
//! fleet — the degenerate case the property tests pin.
//!
//! Per-member metadata for the arbiter (priority class, weight, floor)
//! rides on [`MemberSpec`]; grant/deny telemetry comes back on
//! [`FleetResult::arbitration`] and through the
//! [`Observer::on_arbitration`](crate::Observer::on_arbitration) hook.
//!
//! ## Cancellation
//!
//! Two levels, both poll-boundary, neither spinning:
//!
//! * **early-check** — a window begun with an [`EarlyCheck`] aborts at
//!   the first poll whose running p95 breaches the SLO (§6 semantics;
//!   [`ClusterBackend::measure_window_abortable`] is the same poll
//!   loop run to completion). Per-shard heaps preserve this:
//!   the abort decision is a function of the member's own window state
//!   alone, so it fires at the same virtual poll boundary no matter
//!   which shard (or how many) the member runs in;
//! * **loop teardown** — [`ControlLoop::cancel_interval`] abandons an
//!   in-flight window via [`ClusterBackend::cancel_window`], leaving
//!   the backend reusable and completed intervals logged.
//!
//! ## Example
//!
//! ```
//! use pema_control::{
//!     Experiment, Fleet, HarnessConfig, MemberSpec, Pema, UseFluid, WeightedFairShare,
//! };
//! use pema_core::PemaParams;
//!
//! let app = pema_apps::toy_chain();
//! let member = |seed: u64| {
//!     MemberSpec::new()
//!         .app(&app)
//!         .policy(Pema(PemaParams::defaults(app.slo_ms)))
//!         .backend(UseFluid)
//!         .config(HarnessConfig::with_seed(seed))
//!         .rps(150.0)
//!         .iters(4)
//! };
//! // threads(0) = one shard per available core; output is
//! // byte-identical for any thread count. Members share a 3-core
//! // budget; the high-priority member is served first under
//! // contention.
//! let fleet = Fleet::new()
//!     .threads(0)
//!     .member(member(1).priority(1).floor(0.5))
//!     .member(member(2).weight(2.0))
//!     .arbitration(3.0, WeightedFairShare::new())
//!     .run();
//! assert_eq!(fleet.runs.len(), 2);
//! assert!(fleet.runs.iter().all(|r| r.result.log.len() == 4));
//! let arb = fleet.arbitration.expect("budget was set");
//! assert_eq!(arb.rounds, 4);
//! ```
//!
//! [`EarlyCheck`]: crate::EarlyCheck

use crate::arbitration::{
    ArbitrationEvent, ArbitrationRequest, FleetArbitration, FleetPolicy, MemberArbitration,
};
use crate::backend::ClusterBackend;
use crate::control::{ControlLoop, HarnessConfig, LoopPoll, Observer, RunResult};
use crate::experiment::{
    Experiment, ExperimentBuilder, IntoBackend, IntoPolicy, Load, Unset, UseSim,
};
use crate::policy::Policy;
use crate::telemetry::{LoopTelemetry, ShardTelemetry};
use pema_sim::AppSpec;
use pema_telemetry::{EventSink, Telemetry};
use pema_workload::Workload;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Resolves a worker-thread knob: `0` means "one per available core"
/// (falling back to 1 when parallelism cannot be queried), any other
/// value is taken literally.
///
/// The single source of truth for every `--jobs` / `--threads` flag in
/// the workspace (the scenario executor, [`Fleet::threads`], and the
/// CLI all call this), so the `0 → auto` convention cannot drift
/// between surfaces.
pub fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Object-safe view of one loop under fleet control: the type-erased
/// form of `ControlLoop<P, B> + load + iteration budget`. `Send` so
/// shards can run on scoped worker threads.
trait FleetDriver: Send {
    /// Services the loop once.
    fn poll(&mut self) -> DriverPoll;

    /// The loop's backend virtual time, seconds.
    fn now_s(&self) -> f64;

    /// Switches the loop into propose mode (fleet arbitration): polls
    /// park at window close instead of applying the decision. Must be
    /// called before the first poll.
    fn set_propose_mode(&mut self);

    /// Total cores of the staged proposal. Only valid while parked
    /// (after a [`DriverPoll::Proposed`], before the commit).
    fn proposed_total(&self) -> f64;

    /// Applies an arbitration grant to the staged interval and logs
    /// it. Returns `true` when the member has completed all its
    /// intervals.
    fn commit_granted(&mut self, granted: f64, event: &ArbitrationEvent) -> bool;

    /// Attaches self-instrumentation to the member's loop (see
    /// [`Fleet::telemetry`]). Called before the first poll.
    fn set_telemetry(&mut self, telemetry: LoopTelemetry);

    /// Finalizes into the run result.
    fn finish(self: Box<Self>) -> RunResult;
}

/// What servicing a driver once did.
enum DriverPoll {
    /// Mid-window; service again at this backend virtual time.
    Pending { resume_at_s: f64 },
    /// Completed one interval; more remain.
    Logged,
    /// (Propose mode.) Window closed, decision staged; the member is
    /// parked at the arbitration barrier awaiting its grant.
    Proposed,
    /// All intervals done.
    Done,
}

/// The concrete driver: decomposes `run_const` / `run_workload` at
/// window-poll granularity, sampling time-varying workloads at each
/// interval start (backend virtual time) exactly like the blocking
/// runner does.
struct LoopDriver<P: Policy, B: ClusterBackend> {
    control: ControlLoop<P, B>,
    load: Load,
    iters: usize,
    completed: usize,
    /// Offered load of the interval in flight (sampled once at its
    /// start; `None` between intervals).
    current_rps: Option<f64>,
}

impl<P: Policy + Send, B: ClusterBackend + Send> FleetDriver for LoopDriver<P, B> {
    fn poll(&mut self) -> DriverPoll {
        if self.completed >= self.iters {
            return DriverPoll::Done;
        }
        let rps = *self.current_rps.get_or_insert_with(|| match &self.load {
            Load::Const(rps) => *rps,
            Load::Pattern(w) => w.rps_at(self.control.backend.now_s()),
        });
        match self.control.poll_step(rps) {
            LoopPoll::Pending { resume_at_s } => DriverPoll::Pending { resume_at_s },
            LoopPoll::Proposed => DriverPoll::Proposed,
            LoopPoll::Logged => {
                self.completed += 1;
                self.current_rps = None;
                if self.completed >= self.iters {
                    DriverPoll::Done
                } else {
                    DriverPoll::Logged
                }
            }
        }
    }

    fn now_s(&self) -> f64 {
        self.control.backend.now_s()
    }

    fn set_propose_mode(&mut self) {
        self.control.set_propose_mode();
    }

    fn proposed_total(&self) -> f64 {
        self.control
            .staged_proposed_total()
            .expect("proposed_total: member is parked with a staged decision")
    }

    fn commit_granted(&mut self, granted: f64, event: &ArbitrationEvent) -> bool {
        self.control.commit_granted(granted, event);
        self.completed += 1;
        self.current_rps = None;
        self.completed >= self.iters
    }

    fn set_telemetry(&mut self, telemetry: LoopTelemetry) {
        self.control.set_telemetry(telemetry);
    }

    fn finish(self: Box<Self>) -> RunResult {
        self.control.into_result()
    }
}

/// One member's completed run.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The member's name (auto-assigned `app<i>` unless
    /// [`MemberSpec::name`] gave one).
    pub name: String,
    /// The member's run, logged like any single-loop run.
    pub result: RunResult,
    /// The member's backend virtual time when it finished, seconds.
    pub end_s: f64,
}

/// Everything a [`Fleet::run`] produced, members in insertion order
/// (never completion order — downstream output must not depend on
/// scheduling or the thread count).
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-member runs, in the order the members were added.
    pub runs: Vec<FleetRun>,
    /// Scheduler services performed (one per poll of any member;
    /// arbitration commits are not polls). A per-member quantity
    /// summed across shards, so it is identical for every thread
    /// count.
    pub polls: u64,
    /// Grant/deny telemetry when the fleet ran under
    /// [`Fleet::arbitration`]; `None` for independent-member fleets.
    pub arbitration: Option<FleetArbitration>,
}

impl FleetResult {
    /// Total control intervals across the fleet.
    pub fn total_intervals(&self) -> usize {
        self.runs.iter().map(|r| r.result.log.len()).sum()
    }

    /// The furthest any member's virtual clock advanced, seconds.
    pub fn span_s(&self) -> f64 {
        self.runs.iter().fold(0.0, |m, r| m.max(r.end_s))
    }
}

/// A heap slot: the next service time of one member. Min-ordered by
/// `(ready_at, rank)` — `rank` is the tie-break priority among members
/// ready at the same virtual instant.
struct Slot {
    ready_at: f64,
    rank: usize,
    idx: usize,
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Slot {}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest
        // (ready_at, rank, idx) on top. The final idx key keeps the
        // schedule fully deterministic even under duplicate ranks.
        other
            .ready_at
            .total_cmp(&self.ready_at)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// One member handed to a shard: the driver plus everything needed to
/// report it back under its original insertion index.
struct Member {
    /// Insertion index in the fleet (the member id the partition and
    /// the result merge key on).
    idx: usize,
    /// Tie-break rank among same-instant members of the same shard.
    rank: usize,
    name: String,
    driver: Box<dyn FleetDriver>,
}

/// Arbitration metadata of one member, captured from its
/// [`MemberSpec`] at insertion.
struct ArbMeta {
    priority: i32,
    weight: f64,
    floor: f64,
}

/// One fleet member under construction: a full run description (the
/// same grammar as [`Experiment::builder`]) plus fleet-level metadata —
/// the member's [`name`](Self::name) and its arbitration attributes
/// ([`priority`](Self::priority) class, fair-share
/// [`weight`](Self::weight), guaranteed [`floor`](Self::floor)).
///
/// Built either from scratch (`MemberSpec::new()`) or from an existing
/// [`ExperimentBuilder`] via `From`/`Into` — `fleet.member(builder)`
/// accepts both. Hand it to [`Fleet::member`].
pub struct MemberSpec<P = Unset, B = UseSim> {
    exp: ExperimentBuilder<P, B>,
    name: Option<String>,
    priority: i32,
    weight: f64,
    floor: f64,
}

impl MemberSpec {
    /// Starts an empty member description (policy slot unset, DES
    /// backend) — the fleet-member twin of [`Experiment::builder`].
    pub fn new() -> Self {
        Experiment::builder().into()
    }
}

impl Default for MemberSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl<P, B> From<ExperimentBuilder<P, B>> for MemberSpec<P, B> {
    fn from(exp: ExperimentBuilder<P, B>) -> Self {
        Self {
            exp,
            name: None,
            priority: 0,
            weight: 1.0,
            floor: 0.0,
        }
    }
}

impl<P, B> MemberSpec<P, B> {
    /// The name [`FleetResult`] reports this member by (default
    /// `app<i>` by insertion index).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Arbitration priority class — higher classes are served first
    /// under contention (default 0).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Weighted-fair-share weight under contention (default 1.0).
    ///
    /// # Panics
    /// Panics unless the weight is finite and non-negative.
    pub fn weight(mut self, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "MemberSpec::weight: must be finite and non-negative"
        );
        self.weight = weight;
        self
    }

    /// Guaranteed minimum total cores under contention (default 0.0;
    /// a member is never forced above its own proposal — the effective
    /// floor is `min(floor, proposed)`).
    ///
    /// # Panics
    /// Panics unless the floor is finite and non-negative.
    pub fn floor(mut self, floor: f64) -> Self {
        assert!(
            floor.is_finite() && floor >= 0.0,
            "MemberSpec::floor: must be finite and non-negative"
        );
        self.floor = floor;
        self
    }

    /// The application under test (required).
    pub fn app(mut self, app: &AppSpec) -> Self {
        self.exp = self.exp.app(app);
        self
    }

    /// Full harness timing configuration (interval, warmup, seed).
    pub fn config(mut self, cfg: HarnessConfig) -> Self {
        self.exp = self.exp.config(cfg);
        self
    }

    /// Backend seed, keeping the current interval/warmup.
    pub fn seed(mut self, seed: u64) -> Self {
        self.exp = self.exp.seed(seed);
        self
    }

    /// Monitoring window per control interval, seconds.
    pub fn interval_s(mut self, interval_s: f64) -> Self {
        self.exp = self.exp.interval_s(interval_s);
        self
    }

    /// Settling time before each measurement, seconds.
    pub fn warmup_s(mut self, warmup_s: f64) -> Self {
        self.exp = self.exp.warmup_s(warmup_s);
        self
    }

    /// Overrides the SLO the policy targets (marker policies only).
    pub fn slo_ms(mut self, slo_ms: f64) -> Self {
        self.exp = self.exp.slo_ms(slo_ms);
        self
    }

    /// Enables §6 early violation checks every `check_s` seconds.
    pub fn early_check(mut self, check_s: f64) -> Self {
        self.exp = self.exp.early_check(check_s);
        self
    }

    /// Constant offered load (required unless
    /// [`workload`](Self::workload) is set).
    pub fn rps(mut self, rps: f64) -> Self {
        self.exp = self.exp.rps(rps);
        self
    }

    /// Time-varying offered load, sampled at each interval start.
    pub fn workload(mut self, w: impl Workload + Send + 'static) -> Self {
        self.exp = self.exp.workload(w);
        self
    }

    /// Number of control intervals the member runs (required).
    pub fn iters(mut self, iters: usize) -> Self {
        self.exp = self.exp.iters(iters);
        self
    }

    /// Registers a per-interval observer on the member's loop.
    pub fn observer(mut self, obs: impl Observer + Send + 'static) -> Self {
        self.exp = self.exp.observer(obs);
        self
    }

    /// Attaches self-instrumentation to this member alone, labelled by
    /// its app name. Superseded by [`Fleet::telemetry`] when that is
    /// also set (the fleet re-labels members by their fleet names).
    pub fn telemetry(mut self, hub: &Telemetry) -> Self {
        self.exp = self.exp.telemetry(hub);
        self
    }

    /// Streams this member's interval events to `sink` (see
    /// [`ExperimentBuilder::events`]).
    pub fn events(mut self, sink: EventSink) -> Self {
        self.exp = self.exp.events(sink);
        self
    }

    /// Fills the policy slot (marker or explicit
    /// [`Policy`](crate::Policy) instance).
    pub fn policy<Q>(self, policy: Q) -> MemberSpec<Q, B> {
        MemberSpec {
            exp: self.exp.policy(policy),
            name: self.name,
            priority: self.priority,
            weight: self.weight,
            floor: self.floor,
        }
    }

    /// Fills the backend slot (marker or explicit
    /// [`ClusterBackend`] instance).
    pub fn backend<C>(self, backend: C) -> MemberSpec<P, C> {
        MemberSpec {
            exp: self.exp.backend(backend),
            name: self.name,
            priority: self.priority,
            weight: self.weight,
            floor: self.floor,
        }
    }
}

/// How a fleet shard treats a member's ready-at time (see the module
/// docs, "Pacing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Clock {
    /// Never sleep: service loops as fast as their backends measure.
    /// The deterministic default — output is byte-identical to every
    /// prior fleet behavior.
    #[default]
    Virtual,
    /// Sleep until a popped member's ready-at before polling it: for
    /// fleets of live (wall-clock) backends, whose windows fill in
    /// real time. Members already past their ready-at (every
    /// virtual-time backend) are polled without sleeping.
    Wall,
}

/// The fleet under construction — see the module docs. Add fully
/// described members (policy, backend, load, and iteration count all
/// set), optionally an [`arbitration`](Self::arbitration) budget, then
/// [`run`](Self::run).
#[derive(Default)]
pub struct Fleet {
    members: Vec<Option<(String, Box<dyn FleetDriver>)>>,
    meta: Vec<ArbMeta>,
    tie_break: Option<Vec<usize>>,
    /// Worker threads for [`run`](Self::run); 0 = one per core.
    /// Defaults to 1 (the PR 5 single-threaded cooperative scheduler).
    threads: usize,
    arbitration: Option<(f64, Box<dyn FleetPolicy>)>,
    pace: Clock,
    telemetry: Option<Telemetry>,
    events: Option<EventSink>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Self {
            members: Vec::new(),
            meta: Vec::new(),
            tie_break: None,
            threads: 1,
            arbitration: None,
            pace: Clock::Virtual,
            telemetry: None,
            events: None,
        }
    }

    /// Attaches fleet-wide self-instrumentation: every member's loop
    /// records interval counters and phase histograms (labelled by its
    /// member name) into `hub`, and each executor shard records its
    /// scheduler metrics (polls, heap depth, barrier wait). A pure side
    /// channel — the run's output is byte-identical with or without it,
    /// at any thread count.
    pub fn telemetry(mut self, hub: &Telemetry) -> Self {
        self.telemetry = Some(hub.clone());
        self
    }

    /// Additionally streams one JSONL event per committed interval
    /// (fleet-wide, any-member order under threading) to `sink`. Only
    /// meaningful together with [`telemetry`](Self::telemetry).
    pub fn events(mut self, sink: EventSink) -> Self {
        self.events = Some(sink);
        self
    }

    /// Sets the pacing clock (default [`Clock::Virtual`]). Use
    /// [`Clock::Wall`] for fleets of live backends — shards then sleep
    /// to each member's ready-at instead of busy-polling real-time
    /// windows. Virtual members are unaffected (they are never behind
    /// their ready-at), so mixed fleets work and `Clock::Virtual`
    /// output stays byte-identical.
    pub fn pace(mut self, pace: Clock) -> Self {
        self.pace = pace;
        self
    }

    /// Adds a member. Accepts a [`MemberSpec`] or (via `Into`) a bare
    /// [`ExperimentBuilder`]; unnamed members are auto-named `app<i>`.
    /// Members must be `Send` — every shipped policy and backend is,
    /// and observers/workloads share state through `Arc<Mutex<…>>` —
    /// so shards can run on worker threads.
    ///
    /// # Panics
    /// Panics unless the spec carries a load (`.rps(..)` /
    /// `.workload(..)`) and a positive `.iters(..)` — the fleet needs
    /// the complete run description up front.
    pub fn member<P, B>(mut self, spec: impl Into<MemberSpec<P, B>>) -> Self
    where
        P: IntoPolicy,
        B: IntoBackend,
        P::Policy: Send + 'static,
        B::Backend: Send + 'static,
    {
        let spec = spec.into();
        let name = spec
            .name
            .unwrap_or_else(|| format!("app{}", self.members.len()));
        let (control, load, iters) = spec.exp.into_parts();
        assert!(iters > 0, "Fleet: set .iters(..) on every member");
        let load = load.expect("Fleet: set .rps(..) or .workload(..) on every member");
        self.meta.push(ArbMeta {
            priority: spec.priority,
            weight: spec.weight,
            floor: spec.floor,
        });
        self.members.push(Some((
            name,
            Box::new(LoopDriver {
                control,
                load,
                iters,
                completed: 0,
                current_rps: None,
            }),
        )));
        self
    }

    /// Shares one CPU budget (total cores) across all members,
    /// arbitrated by `policy` at every window-boundary round — see the
    /// module docs for barrier semantics and the determinism argument.
    /// Shipped policies: [`Unlimited`](crate::Unlimited) (pass-through),
    /// [`WeightedFairShare`](crate::WeightedFairShare), and
    /// [`AimdBackoff`](crate::AimdBackoff). Use `f64::INFINITY` for an
    /// explicitly slack budget.
    pub fn arbitration(mut self, budget: f64, policy: impl FleetPolicy + 'static) -> Self {
        self.arbitration = Some((budget, Box::new(policy)));
        self
    }

    /// Overrides the tie-break priority used when several members of
    /// the same shard are ready at the same virtual instant: `order[i]`
    /// is member `i`'s rank, lower ranks first (default: insertion
    /// order). Per-member results are scheduling-invariant — this knob
    /// exists so the property tests can *prove* it, and so experiments
    /// can study scheduling artifacts if any ever appear.
    pub fn tie_break(mut self, order: Vec<usize>) -> Self {
        self.tie_break = Some(order);
        self
    }

    /// Sets the worker-thread count [`run`](Self::run) shards members
    /// across: members are partitioned by member id (`id % threads`),
    /// each shard runs its own ready-at min-heap, and the merged
    /// output is byte-identical for every value of this knob. `0`
    /// means one thread per available core ([`resolve_threads`]);
    /// the default is 1 (fully cooperative, no threads spawned).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Number of members added so far.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no members were added.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Drives every member to completion, interleaved along the shared
    /// virtual clock (reconstructed from each member's `now_s`): within
    /// each shard the member furthest behind in virtual time is
    /// serviced first, ties broken by rank. With
    /// [`threads`](Self::threads) > 1 the shards run concurrently on
    /// `std::thread::scope` workers; results are merged back in
    /// insertion order, so the output is identical for any thread
    /// count. Under [`arbitration`](Self::arbitration), shards
    /// additionally rendezvous at every window-boundary round (module
    /// docs).
    ///
    /// # Panics
    /// Panics if a [`tie_break`](Self::tie_break) order was given with
    /// the wrong length, if a backend reports a non-finite time, or if
    /// an arbitration budget is non-positive, smaller than the sum of
    /// member floors (the invariants would be unsatisfiable), or a
    /// [`FleetPolicy`] returns invalid grants.
    pub fn run(self) -> FleetResult {
        let n = self.members.len();
        let ranks = match self.tie_break {
            Some(order) => {
                assert_eq!(
                    order.len(),
                    n,
                    "Fleet::tie_break: order must rank every member"
                );
                order
            }
            None => (0..n).collect(),
        };
        let shards_n = resolve_threads(self.threads).min(n.max(1));

        let meta = self.meta;
        let arb = self.arbitration.map(|(budget, policy)| {
            assert!(budget > 0.0, "Fleet::arbitration: budget must be positive");
            let floors: f64 = meta.iter().map(|m| m.floor).sum();
            assert!(
                floors <= budget,
                "Fleet::arbitration: member floors sum to {floors} cores, exceeding the \
                 {budget}-core budget — the floor and budget invariants would be unsatisfiable"
            );
            ArbShared {
                budget,
                meta,
                state: Mutex::new(ArbState {
                    telemetry: FleetArbitration {
                        policy: policy.name().to_string(),
                        budget,
                        rounds: 0,
                        contended_rounds: 0,
                        members: vec![MemberArbitration::default(); n],
                    },
                    policy,
                    live_shards: shards_n,
                    waiting: 0,
                    generation: 0,
                    round: 0,
                    proposals: vec![None; n],
                    events: vec![None; n],
                }),
                cv: Condvar::new(),
            }
        });

        // Partition by member id: shard k owns members i ≡ k (mod
        // shards_n). The partition depends only on ids and the resolved
        // thread count — never on timing — and per-member results are
        // schedule-invariant, so any partition yields the same output.
        // Telemetry injection happens here, single-threaded and in
        // insertion order, so registration order (and thus any
        // registration panic) is deterministic too.
        let hub = self.telemetry;
        let events = self.events;
        let mut shards: Vec<Vec<Member>> = (0..shards_n).map(|_| Vec::new()).collect();
        for (idx, slot) in self.members.into_iter().enumerate() {
            let (name, mut driver) = slot.expect("members are present until run");
            if arb.is_some() {
                driver.set_propose_mode();
            }
            if let Some(hub) = &hub {
                let mut tel = LoopTelemetry::new(hub, &name);
                if let Some(sink) = &events {
                    tel = tel.with_events(sink.clone());
                }
                driver.set_telemetry(tel);
            }
            shards[idx % shards_n].push(Member {
                idx,
                rank: ranks[idx],
                name,
                driver,
            });
        }
        let mut shard_tel: Vec<Option<ShardTelemetry>> = (0..shards_n)
            .map(|s| hub.as_ref().map(|h| ShardTelemetry::new(h, s)))
            .collect();

        let mut results: Vec<Option<FleetRun>> = (0..n).map(|_| None).collect();
        let mut polls = 0u64;
        let arb_ref = arb.as_ref();
        let pace = self.pace;
        if shards_n <= 1 {
            // Single-threaded: run the one shard inline (the barrier
            // degenerates to "every arrival is the leader").
            for shard in shards {
                let tel = shard_tel[0].take();
                let (runs, shard_polls) = run_shard(shard, arb_ref, pace, tel);
                polls += shard_polls;
                for (idx, run) in runs {
                    results[idx] = Some(run);
                }
            }
        } else {
            let outcomes = std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .zip(shard_tel.iter_mut().map(std::mem::take))
                    .map(|(shard, tel)| scope.spawn(move || run_shard(shard, arb_ref, pace, tel)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fleet shard worker panicked"))
                    .collect::<Vec<_>>()
            });
            for (runs, shard_polls) in outcomes {
                polls += shard_polls;
                for (idx, run) in runs {
                    results[idx] = Some(run);
                }
            }
        }

        FleetResult {
            runs: results
                .into_iter()
                .map(|r| r.expect("every member completes"))
                .collect(),
            polls,
            arbitration: arb.map(|shared| {
                shared
                    .state
                    .into_inner()
                    .expect("arbitration state poisoned")
                    .telemetry
            }),
        }
    }
}

/// Everything the arbitration barrier shares across shards. Borrowed
/// (not `Arc`ed) into the scoped workers.
struct ArbShared {
    budget: f64,
    /// Per-member arbitration metadata, fleet insertion order.
    meta: Vec<ArbMeta>,
    state: Mutex<ArbState>,
    cv: Condvar,
}

/// The mutable barrier state, guarded by [`ArbShared::state`].
struct ArbState {
    policy: Box<dyn FleetPolicy>,
    /// Shards still participating (a shard deregisters when all its
    /// members finished).
    live_shards: usize,
    /// Shards that have arrived at the current round's barrier.
    waiting: usize,
    /// Bumped once per completed round; sleeping shards wake on it.
    generation: u64,
    /// Next round index.
    round: usize,
    /// This round's proposed totals, fleet-idx indexed (`None` =
    /// member finished, not proposing).
    proposals: Vec<Option<f64>>,
    /// This round's grants, fleet-idx indexed; each shard `take`s its
    /// own members' events under the lock before resuming.
    events: Vec<Option<ArbitrationEvent>>,
    telemetry: FleetArbitration,
}

/// Leader duty: assembles this round's requests in pinned fleet order,
/// runs the policy, validates and records the grants. Caller holds the
/// state lock and is responsible for waking the other shards.
fn run_round(state: &mut ArbState, budget: f64, meta: &[ArbMeta]) {
    let requests: Vec<ArbitrationRequest> = state
        .proposals
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            p.map(|proposed| ArbitrationRequest {
                member: i,
                priority: meta[i].priority,
                weight: meta[i].weight,
                floor: meta[i].floor,
                proposed,
            })
        })
        .collect();
    let mut grants = state.policy.arbitrate(budget, &requests);
    assert_eq!(
        grants.len(),
        requests.len(),
        "FleetPolicy `{}`: must return one grant per request",
        state.policy.name()
    );
    let fleet_demand: f64 = requests.iter().map(|r| r.proposed).sum();
    for (g, r) in grants.iter_mut().zip(&requests) {
        assert!(
            g.is_finite(),
            "FleetPolicy `{}`: non-finite grant for member {}",
            state.policy.name(),
            r.member
        );
        // Granting more than proposed is meaningless; clamp rather
        // than burden every policy with the check.
        *g = g.min(r.proposed);
        assert!(
            *g >= r.effective_floor() - 1e-9,
            "FleetPolicy `{}`: member {} granted {} below its effective floor {}",
            state.policy.name(),
            r.member,
            g,
            r.effective_floor()
        );
    }
    let fleet_granted: f64 = grants.iter().sum();
    if state.policy.enforces_budget() {
        assert!(
            fleet_granted <= budget + 1e-9,
            "FleetPolicy `{}`: granted {fleet_granted} cores exceeds the {budget}-core budget",
            state.policy.name()
        );
    }
    let mut contended = false;
    for (g, r) in grants.iter().zip(&requests) {
        let ev = ArbitrationEvent {
            round: state.round,
            budget,
            proposed: r.proposed,
            granted: *g,
            fleet_demand,
            fleet_granted,
        };
        contended |= ev.cut();
        let m = &mut state.telemetry.members[r.member];
        m.rounds += 1;
        m.cuts += ev.cut() as usize;
        m.proposed_sum += r.proposed;
        m.granted_sum += *g;
        state.events[r.member] = Some(ev);
    }
    state.telemetry.rounds += 1;
    state.telemetry.contended_rounds += contended as usize;
    state.round += 1;
    for p in state.proposals.iter_mut() {
        *p = None;
    }
}

/// Two-phase collect/grant rendezvous: deposits this shard's proposals
/// (`(fleet_idx, proposed_total)` pairs), blocks until the round
/// resolves (the last shard to arrive is the leader and runs
/// [`run_round`]), and returns this shard's grants in proposal order.
fn rendezvous(shared: &ArbShared, proposals: &[(usize, f64)]) -> Vec<ArbitrationEvent> {
    let mut state = shared.state.lock().expect("arbitration state poisoned");
    for &(idx, p) in proposals {
        state.proposals[idx] = Some(p);
    }
    state.waiting += 1;
    if state.waiting == state.live_shards {
        run_round(&mut state, shared.budget, &shared.meta);
        state.waiting = 0;
        state.generation += 1;
        shared.cv.notify_all();
    } else {
        let gen = state.generation;
        while state.generation == gen {
            state = shared.cv.wait(state).expect("arbitration state poisoned");
        }
    }
    // Read own grants under the same lock acquisition that observed
    // the new generation — no shard can start (and overwrite) the next
    // round before every waiter has collected its events, because the
    // next leader needs `waiting == live_shards` again.
    proposals
        .iter()
        .map(|&(idx, _)| {
            state.events[idx]
                .take()
                .expect("arbitration round granted every proposer")
        })
        .collect()
}

/// Removes a finished shard from the barrier. If the remaining shards
/// are all already waiting, the departing shard runs the round on
/// their behalf (they can no longer be joined by anyone else).
fn deregister(shared: &ArbShared) {
    let mut state = shared.state.lock().expect("arbitration state poisoned");
    state.live_shards -= 1;
    if state.live_shards > 0 && state.waiting == state.live_shards {
        run_round(&mut state, shared.budget, &shared.meta);
        state.waiting = 0;
        state.generation += 1;
        shared.cv.notify_all();
    }
}

/// Drives one shard's members to completion over its own ready-at
/// min-heap; under arbitration (`arb` set) the shard parks proposing
/// members and rendezvouses with the other shards at every round.
/// Under [`Clock::Wall`] the shard sleeps each popped member's
/// ready-at gap away before polling it. Returns each member's run
/// keyed by its fleet-wide insertion index, plus the shard's poll
/// count.
fn run_shard(
    members: Vec<Member>,
    arb: Option<&ArbShared>,
    pace: Clock,
    tel: Option<ShardTelemetry>,
) -> (Vec<(usize, FleetRun)>, u64) {
    let n = members.len();
    let mut names: Vec<String> = Vec::with_capacity(n);
    let mut drivers: Vec<Option<Box<dyn FleetDriver>>> = Vec::with_capacity(n);
    let mut fleet_idx: Vec<usize> = Vec::with_capacity(n);
    let mut ranks: Vec<usize> = Vec::with_capacity(n);
    let mut heap: BinaryHeap<Slot> = BinaryHeap::with_capacity(n);
    for (local, m) in members.into_iter().enumerate() {
        let ready_at = m.driver.now_s();
        assert!(
            ready_at.is_finite(),
            "member {} reports non-finite time",
            m.idx
        );
        heap.push(Slot {
            ready_at,
            rank: m.rank,
            idx: local,
        });
        names.push(m.name);
        drivers.push(Some(m.driver));
        fleet_idx.push(m.idx);
        ranks.push(m.rank);
    }

    let mut polls = 0u64;
    let mut out: Vec<(usize, FleetRun)> = Vec::with_capacity(n);
    // Members parked at the barrier (local indices), in park order.
    let mut parked: Vec<usize> = Vec::new();
    loop {
        while let Some(slot) = heap.pop() {
            if let Some(t) = &tel {
                // The popped slot still counts as live in the heap.
                t.heap_depth.set(heap.len() as f64 + 1.0);
                t.polls.inc();
            }
            let local = slot.idx;
            let driver = drivers[local]
                .as_mut()
                .expect("done members leave the heap");
            if pace == Clock::Wall {
                // Live backends report wall timestamps: sleep the gap
                // to this member's ready-at away instead of having its
                // poll_window spin it down in bounded waits. Virtual
                // members are never behind their ready-at, so this
                // branch never sleeps for them.
                let gap_s = slot.ready_at - driver.now_s();
                if gap_s > 1e-4 {
                    std::thread::sleep(std::time::Duration::from_secs_f64(gap_s));
                }
            }
            polls += 1;
            let ready_at = match driver.poll() {
                DriverPoll::Pending { resume_at_s } => resume_at_s,
                DriverPoll::Logged => driver.now_s(),
                DriverPoll::Proposed => {
                    assert!(arb.is_some(), "member proposed without arbitration");
                    parked.push(local);
                    continue;
                }
                DriverPoll::Done => {
                    let driver = drivers[local].take().unwrap();
                    let end_s = driver.now_s();
                    out.push((
                        fleet_idx[local],
                        FleetRun {
                            name: std::mem::take(&mut names[local]),
                            result: driver.finish(),
                            end_s,
                        },
                    ));
                    continue;
                }
            };
            assert!(
                ready_at.is_finite(),
                "member {} reports non-finite time",
                fleet_idx[local]
            );
            heap.push(Slot {
                ready_at,
                rank: slot.rank,
                idx: local,
            });
        }
        // Heap drained: every member is parked or finished.
        let Some(shared) = arb else { break };
        if parked.is_empty() {
            deregister(shared);
            break;
        }
        let proposals: Vec<(usize, f64)> = parked
            .iter()
            .map(|&l| (fleet_idx[l], drivers[l].as_ref().unwrap().proposed_total()))
            .collect();
        // Barrier park time is honest wall time (std::time::Instant):
        // it diagnoses shard imbalance on the host, so the modelled
        // clock is the wrong ruler. Side channel only — never fed back.
        let parked_at = tel.as_ref().map(|_| Instant::now());
        let events = rendezvous(shared, &proposals);
        if let (Some(t), Some(at)) = (&tel, parked_at) {
            t.barrier_wait.observe(at.elapsed().as_secs_f64());
            t.rounds.inc();
        }
        for (&local, ev) in parked.iter().zip(&events) {
            let done = drivers[local]
                .as_mut()
                .unwrap()
                .commit_granted(ev.granted, ev);
            if done {
                let driver = drivers[local].take().unwrap();
                let end_s = driver.now_s();
                out.push((
                    fleet_idx[local],
                    FleetRun {
                        name: std::mem::take(&mut names[local]),
                        result: driver.finish(),
                        end_s,
                    },
                ));
            } else {
                let ready_at = drivers[local].as_ref().unwrap().now_s();
                assert!(
                    ready_at.is_finite(),
                    "member {} reports non-finite time",
                    fleet_idx[local]
                );
                heap.push(Slot {
                    ready_at,
                    rank: ranks[local],
                    idx: local,
                });
            }
        }
        parked.clear();
    }
    (out, polls)
}

#[cfg(test)]
mod tests {
    use super::resolve_threads;

    #[test]
    fn explicit_thread_counts_pass_through() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert_eq!(resolve_threads(64), 64);
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        let auto = resolve_threads(0);
        assert!(auto >= 1);
        let expected = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(auto, expected);
    }
}
