//! # PEMA — Practical Efficient Microservice Autoscaling (HPDC '22)
//!
//! A full-system reproduction of Hossen, Islam & Ahmed, *"Practical
//! Efficient Microservice Autoscaling with QoS Assurance"* (HPDC '22),
//! in Rust. The paper's Kubernetes testbed is replaced by a
//! discrete-event cluster simulator that reproduces the observables the
//! autoscaler consumes; everything above that line — the PEMA
//! controller, the workload-aware range manager, the OPTM and RULE
//! baselines, the three benchmark applications, and the full
//! experiment suite — is implemented as published.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | `pema` (this crate) | umbrella re-exports + `pema-cli` |
//! | [`pema_control`] | backend-agnostic control plane: [`ClusterBackend`](pema_control::ClusterBackend), [`ControlLoop`](pema_control::ControlLoop), [`Experiment`](pema_control::Experiment) facade |
//! | [`pema_core`] | the PEMA controller (Algorithm 1, Eqns. 3–11) |
//! | [`pema_sim`] | DES cluster: CFS throttling, thread pools, tail latency |
//! | [`pema_apps`] | SockShop (13), TrainTicket (41), HotelReservation (18) |
//! | [`pema_workload`] | constant / step / burst / diurnal load patterns |
//! | [`pema_baselines`] | OPTM optimum search, RULE k8s-style scaler |
//! | [`pema_classifier`] | bottleneck-detection study (paper Table 1) |
//! | [`pema_metrics`] | latency histograms, moving-average windows, summary statistics |
//! | [`pema_trace`] | trace record/replay: versioned JSONL traces, [`TraceBackend`](pema_trace::TraceBackend) counterfactual replayer |
//! | [`pema_live`] | live-cluster adapter: [`LiveBackend`](pema_live::LiveBackend) scrapes Prometheus / patches Kubernetes over hand-rolled HTTP, plus the in-process [`FakeCluster`](pema_live::FakeCluster) test server |
//! | `pema-bench` | scenario registry + parallel deterministic executor |
//!
//! ## The experiment suite
//!
//! Every figure/table of the paper's evaluation is a registered
//! *scenario* in `pema-bench`; the `bench` driver (and `pema-cli
//! list|run|all`, which delegates to it) runs any subset across worker
//! threads with byte-identical results for any `--jobs` value. CSVs
//! land under `$PEMA_RESULTS_DIR` (default `./results`):
//!
//! ```text
//! pema-cli list                 show the registry
//! pema-cli all  --jobs 4        run the full suite
//! pema-cli run  fig05 --smoke   tiny-duration sanity pass of one figure
//! ```
//!
//! ## Quick start
//!
//! Runs are described through the [`Experiment`](pema_control::Experiment)
//! builder: pick an app, a policy (marker or instance), a backend
//! (DES by default, [`UseFluid`](pema_control::UseFluid) for fast
//! approximate sweeps), and a load:
//!
//! ```
//! use pema::prelude::*;
//!
//! let app = pema_apps::sockshop();
//! let result = Experiment::builder()
//!     .app(&app)
//!     .policy(Pema(PemaParams::defaults(app.slo_ms)))
//!     .config(HarnessConfig { interval_s: 10.0, warmup_s: 2.0, seed: 7 })
//!     .rps(700.0)
//!     .iters(5)
//!     .run();
//! assert_eq!(result.log.len(), 5);
//! ```

pub use pema_apps;
pub use pema_baselines;
pub use pema_classifier;
pub use pema_control;
pub use pema_core;
pub use pema_live;
pub use pema_metrics;
pub use pema_sim;
pub use pema_telemetry;
pub use pema_trace;
pub use pema_workload;

/// Common imports for examples and experiments.
pub mod prelude {
    pub use pema_baselines::{find_optimum, OptmConfig, RuleScaler};
    pub use pema_control::{
        optimum_for, resolve_threads, squeeze_to_budget, stats_to_obs, AimdBackoff,
        ArbitrationEvent, ArbitrationRequest, Clock, ClusterBackend, ControlLoop, Decision,
        EarlyCheck, Experiment, ExperimentBuilder, Fleet, FleetArbitration, FleetPolicy,
        FleetResult, FleetRun, FluidBackend, HarnessConfig, HoldPolicy, Instrumented, IterationLog,
        LoopPoll, LoopTelemetry, Managed, ManagedRunner, MemberArbitration, MemberSpec, Observer,
        Pema, PemaRunner, Policy, Rule, RulePolicy, RuleRunner, RunResult, SimBackend, Unlimited,
        UseFluid, UseSim, WeightedFairShare, WindowPoll, WindowRequest,
    };
    pub use pema_core::{
        Action, Observation, PemaController, PemaParams, RangeConfig, ServiceObs, WorkloadAwarePema,
    };
    pub use pema_live::{
        live_over_fake, FakeClock, FakeCluster, KubeConfigLite, LiveBackend, LiveConfig, LiveError,
        RetryPolicy, TimeSource, WallClock,
    };
    pub use pema_sim::{
        Allocation, AppSpec, ClusterSim, Evaluator, FluidEvaluator, SimEvaluator, TailCurve,
        TailModel, WindowStats,
    };
    pub use pema_telemetry::{EventSink, MetricsServer, Telemetry};
    pub use pema_trace::{
        rebase_stats, rebase_stats_with, replay, DivergenceSummary, IntervalDivergence, ReadMode,
        ReplayRun, Trace, TraceBackend, TraceRecorder,
    };
    pub use pema_workload::{
        wikipedia_like_trace, BurstPattern, Constant, DiurnalPattern, StepPattern, TracePattern,
        Workload, WorkloadRange,
    };
}
