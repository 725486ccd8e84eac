//! [`Experiment`] — the builder-style facade over the control loop.
//!
//! This is the one way examples, tests, and `pema-bench` scenarios
//! construct runs:
//!
//! ```
//! use pema_control::{Experiment, HarnessConfig, Pema};
//! use pema_core::PemaParams;
//!
//! let app = pema_apps::toy_chain();
//! let result = Experiment::builder()
//!     .app(&app)
//!     .policy(Pema(PemaParams::defaults(app.slo_ms)))
//!     .config(HarnessConfig {
//!         interval_s: 10.0,
//!         warmup_s: 1.0,
//!         seed: 7,
//!     })
//!     .rps(150.0)
//!     .iters(3)
//!     .run();
//! assert_eq!(result.log.len(), 3);
//! ```
//!
//! The builder is generic over two slots, each filled by a marker or an
//! explicit instance:
//!
//! * **policy** — [`Pema`], [`Managed`], [`Rule`], or any value
//!   implementing [`Policy`] directly;
//! * **backend** — [`UseSim`] (default), [`UseFluid`], or any value
//!   implementing [`ClusterBackend`] directly.
//!
//! Markers defer construction to [`build`](ExperimentBuilder::build),
//! so the app, seed, and SLO override can arrive in any order.
//! [`build`] hands back the fully wired
//! [`ControlLoop`](crate::ControlLoop) for stepping runs that script
//! the policy or backend mid-flight; [`run`](ExperimentBuilder::run)
//! drives the configured workload to completion in one call.
//!
//! [`build`]: ExperimentBuilder::build

use crate::backend::{ClusterBackend, FluidBackend, SimBackend};
use crate::control::{ControlLoop, HarnessConfig, Observer, RunResult};
use crate::policy::{Policy, RulePolicy};
use crate::telemetry::LoopTelemetry;
use pema_core::{PemaController, PemaParams, RangeConfig, WorkloadAwarePema};
use pema_sim::AppSpec;
use pema_telemetry::{EventSink, Telemetry};
use pema_workload::Workload;

/// Entry point of the facade: [`Experiment::builder`].
pub struct Experiment;

impl Experiment {
    /// Starts an empty fleet — many run descriptions driven
    /// concurrently from one process (see [`Fleet`](crate::Fleet)).
    pub fn fleet() -> crate::Fleet {
        crate::Fleet::new()
    }

    /// Starts a run description. Policy slot is empty (filling it is
    /// mandatory); backend slot defaults to the DES ([`UseSim`]).
    pub fn builder() -> ExperimentBuilder<Unset, UseSim> {
        ExperimentBuilder {
            app: None,
            cfg: HarnessConfig::default(),
            policy: Unset,
            backend: UseSim,
            slo_ms: None,
            early_check_s: None,
            load: None,
            iters: 0,
            observers: Vec::new(),
            telemetry: None,
            events: None,
        }
    }
}

/// Placeholder for the not-yet-chosen policy slot. Does not implement
/// [`IntoPolicy`], so forgetting `.policy(..)` is a compile error at
/// `.build()` / `.run()`.
pub struct Unset;

/// Policy marker: the plain PEMA controller (Algorithm 1) starting from
/// the app's generous allocation.
pub struct Pema(pub PemaParams);

/// Policy marker: the workload-aware range manager (§3.4) starting from
/// the app's generous allocation.
pub struct Managed(pub PemaParams, pub RangeConfig);

/// Policy marker: the latency-blind k8s-style rule baseline, judged
/// against the app's SLO (or the builder's [`slo_ms`] override).
///
/// [`slo_ms`]: ExperimentBuilder::slo_ms
pub struct Rule;

/// Anything the builder's policy slot accepts: a marker (constructed
/// against the app at build time) or a ready [`Policy`] instance.
pub trait IntoPolicy {
    /// The concrete policy driving the loop.
    type Policy: Policy;

    /// Builds the policy. `slo_ms` is the builder-level override
    /// (`None` → the app's / params' own SLO).
    fn into_policy(self, app: &AppSpec, slo_ms: Option<f64>) -> Self::Policy;
}

impl IntoPolicy for Pema {
    type Policy = PemaController;

    fn into_policy(self, app: &AppSpec, slo_ms: Option<f64>) -> PemaController {
        let mut params = self.0;
        if let Some(s) = slo_ms {
            params.slo_ms = s;
        }
        PemaController::new(params, app.generous_alloc.clone())
    }
}

impl IntoPolicy for Managed {
    type Policy = WorkloadAwarePema;

    fn into_policy(self, app: &AppSpec, slo_ms: Option<f64>) -> WorkloadAwarePema {
        let mut params = self.0;
        if let Some(s) = slo_ms {
            params.slo_ms = s;
        }
        WorkloadAwarePema::new(params, app.generous_alloc.clone(), self.1)
    }
}

impl IntoPolicy for Rule {
    type Policy = RulePolicy;

    fn into_policy(self, app: &AppSpec, slo_ms: Option<f64>) -> RulePolicy {
        let policy = RulePolicy::new(app);
        match slo_ms {
            Some(s) => policy.with_slo_ms(s),
            None => policy,
        }
    }
}

impl<P: Policy> IntoPolicy for P {
    type Policy = P;

    fn into_policy(self, _app: &AppSpec, slo_ms: Option<f64>) -> P {
        assert!(
            slo_ms.is_none(),
            "an explicit policy instance carries its own SLO; \
             configure it on the policy instead of .slo_ms(..)"
        );
        self
    }
}

/// Backend marker: the discrete-event simulator ([`SimBackend::new`] —
/// generous allocation, 8×SLO request timeout), seeded from the
/// harness config. The builder's default.
pub struct UseSim;

/// Backend marker: the analytic fluid model ([`FluidBackend::new`]) —
/// orders of magnitude faster, approximate numbers, deterministic.
pub struct UseFluid;

/// Anything the builder's backend slot accepts: a marker (constructed
/// against the app + config at build time) or a ready
/// [`ClusterBackend`] instance.
pub trait IntoBackend {
    /// The concrete backend under the loop.
    type Backend: ClusterBackend;

    /// Builds the backend.
    fn into_backend(self, app: &AppSpec, cfg: &HarnessConfig) -> Self::Backend;
}

impl IntoBackend for UseSim {
    type Backend = SimBackend;

    fn into_backend(self, app: &AppSpec, cfg: &HarnessConfig) -> SimBackend {
        SimBackend::new(app, cfg.seed)
    }
}

impl IntoBackend for UseFluid {
    type Backend = FluidBackend;

    fn into_backend(self, app: &AppSpec, _cfg: &HarnessConfig) -> FluidBackend {
        FluidBackend::new(app)
    }
}

impl<B: ClusterBackend> IntoBackend for B {
    type Backend = B;

    fn into_backend(self, _app: &AppSpec, _cfg: &HarnessConfig) -> B {
        self
    }
}

pub(crate) enum Load {
    Const(f64),
    Pattern(Box<dyn Workload + Send>),
}

/// The run description — see [`Experiment::builder`] for the grammar
/// and the crate docs for a full example.
pub struct ExperimentBuilder<P = Unset, B = UseSim> {
    app: Option<AppSpec>,
    cfg: HarnessConfig,
    policy: P,
    backend: B,
    slo_ms: Option<f64>,
    early_check_s: Option<f64>,
    load: Option<Load>,
    iters: usize,
    observers: Vec<Box<dyn Observer + Send>>,
    telemetry: Option<Telemetry>,
    events: Option<EventSink>,
}

impl<P, B> ExperimentBuilder<P, B> {
    /// The application under test (required).
    pub fn app(mut self, app: &AppSpec) -> Self {
        self.app = Some(app.clone());
        self
    }

    /// Full harness timing configuration (interval, warmup, seed).
    pub fn config(mut self, cfg: HarnessConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Backend seed, keeping the current interval/warmup.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Monitoring window per control interval, seconds.
    pub fn interval_s(mut self, interval_s: f64) -> Self {
        self.cfg.interval_s = interval_s;
        self
    }

    /// Settling time before each measurement, seconds.
    pub fn warmup_s(mut self, warmup_s: f64) -> Self {
        self.cfg.warmup_s = warmup_s;
        self
    }

    /// Overrides the SLO the policy targets (marker policies only).
    pub fn slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ms = Some(slo_ms);
        self
    }

    /// Enables §6 early violation checks every `check_s` seconds.
    pub fn early_check(mut self, check_s: f64) -> Self {
        self.early_check_s = Some(check_s);
        self
    }

    /// Constant offered load for [`run`](Self::run).
    pub fn rps(mut self, rps: f64) -> Self {
        self.load = Some(Load::Const(rps));
        self
    }

    /// Time-varying offered load for [`run`](Self::run), sampled at
    /// each interval start (backend virtual time). `Send` so the run
    /// can join a sharded [`Fleet`](crate::Fleet).
    pub fn workload(mut self, w: impl Workload + Send + 'static) -> Self {
        self.load = Some(Load::Pattern(Box::new(w)));
        self
    }

    /// Number of control intervals [`run`](Self::run) executes.
    pub fn iters(mut self, iters: usize) -> Self {
        self.iters = iters;
        self
    }

    /// Registers a per-interval observer (any
    /// `FnMut(&IterationLog, &WindowStats)` closure qualifies; `Send`
    /// so the run can join a sharded [`Fleet`](crate::Fleet) — share
    /// state through `Arc<Mutex<…>>`).
    pub fn observer(mut self, obs: impl Observer + Send + 'static) -> Self {
        self.observers.push(Box::new(obs));
        self
    }

    /// Attaches self-instrumentation: the loop records its interval
    /// counters and phase-span histograms into `hub` (labelled by the
    /// app's name), e.g. for a scrapeable `pema_live::MetricsServer`
    /// (a crate above this one, so not linked). A pure side
    /// channel — run output is byte-identical with or without it.
    pub fn telemetry(mut self, hub: &Telemetry) -> Self {
        self.telemetry = Some(hub.clone());
        self
    }

    /// Additionally streams one JSONL event per committed interval to
    /// `sink` (only meaningful together with
    /// [`telemetry`](Self::telemetry)).
    pub fn events(mut self, sink: EventSink) -> Self {
        self.events = Some(sink);
        self
    }

    /// Fills the policy slot (marker or explicit [`Policy`] instance).
    pub fn policy<Q>(self, policy: Q) -> ExperimentBuilder<Q, B> {
        ExperimentBuilder {
            app: self.app,
            cfg: self.cfg,
            policy,
            backend: self.backend,
            slo_ms: self.slo_ms,
            early_check_s: self.early_check_s,
            load: self.load,
            iters: self.iters,
            observers: self.observers,
            telemetry: self.telemetry,
            events: self.events,
        }
    }

    /// Fills the backend slot (marker or explicit [`ClusterBackend`]
    /// instance).
    pub fn backend<C>(self, backend: C) -> ExperimentBuilder<P, C> {
        ExperimentBuilder {
            app: self.app,
            cfg: self.cfg,
            policy: self.policy,
            backend,
            slo_ms: self.slo_ms,
            early_check_s: self.early_check_s,
            load: self.load,
            iters: self.iters,
            observers: self.observers,
            telemetry: self.telemetry,
            events: self.events,
        }
    }
}

impl<P: IntoPolicy, B: IntoBackend> ExperimentBuilder<P, B> {
    pub(crate) fn into_parts(self) -> (ControlLoop<P::Policy, B::Backend>, Option<Load>, usize) {
        let app = self
            .app
            .expect("Experiment::builder(): call .app(..) before .build()/.run()");
        let policy = self.policy.into_policy(&app, self.slo_ms);
        let backend = self.backend.into_backend(&app, &self.cfg);
        let mut control = ControlLoop::new(backend, policy, self.cfg);
        if let Some(check_s) = self.early_check_s {
            control = control.with_early_check(check_s);
        }
        for obs in self.observers {
            control.push_observer(obs);
        }
        if let Some(hub) = self.telemetry {
            let mut tel = LoopTelemetry::new(&hub, &app.name);
            if let Some(sink) = self.events {
                tel = tel.with_events(sink);
            }
            control.set_telemetry(tel);
        }
        (control, self.load, self.iters)
    }

    /// Wires everything up and hands back the loop for manual stepping
    /// (mid-run SLO / clock scripting, per-interval branching, …).
    pub fn build(self) -> ControlLoop<P::Policy, B::Backend> {
        self.into_parts().0
    }

    /// Wires everything up and drives the configured workload for the
    /// configured number of intervals.
    ///
    /// # Panics
    /// Panics unless both a load (`.rps(..)` / `.workload(..)`) and a
    /// positive `.iters(..)` were set.
    pub fn run(self) -> RunResult {
        let (control, load, iters) = self.into_parts();
        assert!(iters > 0, "Experiment: set .iters(..) before .run()");
        match load.expect("Experiment: set .rps(..) or .workload(..) before .run()") {
            Load::Const(rps) => control.run_const(rps, iters),
            Load::Pattern(w) => control.run_workload(&*w, iters),
        }
    }
}
