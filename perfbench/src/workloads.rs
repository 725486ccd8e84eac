//! The three workloads. Each builds its inputs from the seed alone,
//! drives the program through its public API, checks the outputs, and
//! returns one [`Episode`]: timings, counts, quality-of-service figures
//! and the result of every output check.

use crate::stats::{mix, unit};
use crate::tap::{
    BackendRecord, InspectBackend, InspectPolicy, Mode, PolicyRecord, Probe, TapBackend, TapPolicy,
};
use pema_control::{
    ArbitrationEvent, ClusterBackend, ControlLoop, Fleet, FleetResult, FluidBackend, HarnessConfig,
    HoldPolicy, IterationLog, MemberSpec, Observer, Policy, RulePolicy, RunResult, SimBackend,
    WeightedFairShare,
};
use pema_core::{PemaController, PemaParams};
use pema_live::{live_over_fake_with, FakeLive, Fault, LiveBackend, LiveConfig};
use pema_sim::{AppSpec, WindowStats};
use pema_telemetry::{Telemetry, DEFAULT_SECONDS_BUCKETS};
use pema_trace::{replay, ReadMode, Trace, TraceRecorder};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Size of a `fluid_fleet` instance.
#[derive(Debug, Clone, Copy)]
pub struct FluidShape {
    /// Copies of the 3 apps × 9 load levels × 3 policies grid.
    pub replicas: usize,
    /// Control intervals per member.
    pub iters: usize,
    /// Fleet worker threads.
    pub threads: usize,
}

/// Size of a `des_paper` instance.
#[derive(Debug, Clone, Copy)]
pub struct DesShape {
    /// PEMA + RULE pairs per paper app.
    pub replicas: usize,
    /// Control intervals per member.
    pub iters: usize,
    /// Fleet worker threads.
    pub threads: usize,
}

/// Size of a `live_fake` instance.
#[derive(Debug, Clone, Copy)]
pub struct LiveShape {
    /// Control intervals of the live loop.
    pub intervals: usize,
    /// Also queue faults right after decisions, so they land on PATCHes.
    /// Off in the benchmark: a PATCH is not retried, so such a fault is
    /// an operation that fails, and the output checks report it (see
    /// the README's known defects).
    pub patch_faults: bool,
}

/// What an episode keeps and how far it goes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOpts {
    /// Keep every member's log bits in [`Episode::member_bits`].
    pub keep_logs: bool,
    /// Stop after set-up (a set-up time sample; nothing runs).
    pub setup_only: bool,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed values, for the report.
    pub detail: String,
}

/// Quality of service of the policies under test (simulated, so it
/// repeats exactly for a fixed seed).
#[derive(Debug, Clone, Default)]
pub struct Qos {
    /// PEMA intervals that violated the SLO.
    pub pema_violations: usize,
    /// PEMA intervals.
    pub pema_intervals: usize,
    /// Σ settled cores of PEMA members and of their RULE counterparts,
    /// per app (empty when the workload has no RULE twin).
    pub settled: Vec<(String, f64, f64)>,
}

impl Qos {
    /// SLO-violating PEMA intervals ÷ PEMA intervals.
    pub fn slo_violation_share(&self) -> f64 {
        self.pema_violations as f64 / self.pema_intervals.max(1) as f64
    }

    /// Mean settled cores of PEMA ÷ RULE over the same apps and loads
    /// (`None` without RULE twins).
    pub fn cpu_vs_rule(&self) -> Option<f64> {
        if self.settled.is_empty() {
            return None;
        }
        let pema: f64 = self.settled.iter().map(|s| s.1).sum();
        let rule: f64 = self.settled.iter().map(|s| s.2).sum();
        Some(pema / rule)
    }
}

/// A root span the harness records around a whole call into a layer.
#[derive(Debug, Clone)]
pub struct Root {
    /// Span name.
    pub name: &'static str,
    /// Start, ns since the probe epoch.
    pub start_ns: u64,
    /// End, ns since the probe epoch.
    pub end_ns: u64,
    /// Threads that ran under it.
    pub threads: usize,
}

/// Live-path counts of one `live_fake` episode.
#[derive(Debug, Clone, Default)]
pub struct LiveCounts {
    /// HTTP requests the fake cluster served (its own ledger).
    pub requests: u64,
    /// Prometheus query attempts (client telemetry).
    pub scrapes: u64,
    /// Kubernetes PATCH round trips (client telemetry).
    pub patches: u64,
    /// Scrape retries (client telemetry).
    pub retries: u64,
    /// Queries that failed after retries plus failed PATCHes.
    pub failed_ops: u64,
    /// Mean query round trip, ms (client histogram).
    pub query_ms_mean: f64,
    /// Mean PATCH round trip, ms (client histogram).
    pub patch_ms_mean: f64,
    /// Faults the harness queued.
    pub faults_injected: u64,
}

/// Trace-codec figures of one `live_fake` episode.
#[derive(Debug, Clone, Default)]
pub struct TraceCounts {
    /// Records on the tape.
    pub records: usize,
    /// Bytes of its JSONL encoding.
    pub bytes: usize,
    /// Host seconds in `Trace::to_jsonl`.
    pub encode_s: f64,
    /// Host seconds in `Trace::parse_jsonl`.
    pub decode_s: f64,
    /// Host seconds in `replay`.
    pub replay_s: f64,
}

/// Arbitration figures of one fleet episode.
#[derive(Debug, Clone, Default)]
pub struct ArbCounts {
    /// Rounds.
    pub rounds: usize,
    /// Rounds in which the budget cut some member.
    pub contended: usize,
    /// Σ granted ÷ Σ proposed.
    pub grant_ratio: f64,
}

/// Everything one episode produced.
#[derive(Debug, Default)]
pub struct Episode {
    /// Host seconds building members, backends and servers.
    pub setup_s: f64,
    /// Host seconds of the timed region.
    pub timed_s: f64,
    /// Process CPU seconds spent in the timed region.
    pub cpu_s: f64,
    /// Share of host CPU time stolen by the hypervisor while the
    /// episode ran (filled in by the run loop).
    pub host_steal: f64,
    /// Threads the timed region ran on.
    pub threads: usize,
    /// Control intervals requested.
    pub attempted: usize,
    /// Control intervals completed.
    pub intervals: usize,
    /// Digest of every member's log and final allocation: equal
    /// digests mean bit-identical outputs.
    pub digest: u64,
    /// Per-member log bits (kept only when asked for).
    pub member_bits: Vec<Vec<u64>>,
    /// Quality of service.
    pub qos: Qos,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Harness root spans.
    pub roots: Vec<Root>,
    /// Fleet scheduler polls (fleet workloads).
    pub fleet_polls: u64,
    /// Arbitration figures (fluid_fleet).
    pub arb: Option<ArbCounts>,
    /// The telemetry hub's interval counter.
    pub telemetry_records: f64,
    /// Live-path counts (live_fake).
    pub live: Option<LiveCounts>,
    /// Trace-codec figures (live_fake).
    pub trace: Option<TraceCounts>,
    /// What the backend wrappers recorded, by member.
    pub backends: Vec<BackendRecord>,
    /// What the policy wrappers recorded, by member.
    pub policies: Vec<PolicyRecord>,
}

impl Episode {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }
}

/// Every bit of a run's log and final allocation, in order.
pub fn log_bits(r: &RunResult) -> Vec<u64> {
    let mut v = Vec::with_capacity(r.log.len() * 16);
    for l in &r.log {
        v.extend([
            l.iter as u64,
            l.time_s.to_bits(),
            l.rps.to_bits(),
            l.total_cpu.to_bits(),
            l.p95_ms.to_bits(),
            l.mean_ms.to_bits(),
            l.violated as u64,
            fnv(l.action.as_bytes()),
            l.pema_id as u64,
            l.interval_s.to_bits(),
        ]);
        v.extend(l.alloc.iter().map(|a| a.to_bits()));
    }
    v.extend(r.final_alloc.0.iter().map(|a| a.to_bits()));
    v.push(r.slo_ms.to_bits());
    v
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fold_digest(digest: u64, words: &[u64]) -> u64 {
    words.iter().fold(digest, |h, w| mix(h, *w))
}

/// Adds one member, wrapped or bare as the probe's mode says.
fn add_member<P, B>(
    fleet: Fleet,
    spec: MemberSpec,
    policy: P,
    backend: B,
    id: u32,
    probe: &Arc<Probe>,
) -> Fleet
where
    P: Policy + InspectPolicy + Send + 'static,
    B: ClusterBackend + InspectBackend + Send + 'static,
{
    match probe.mode() {
        Mode::Raw => fleet.member(spec.policy(policy).backend(backend)),
        Mode::Latency | Mode::Spans => fleet.member(
            spec.policy(TapPolicy::new(policy, id, probe))
                .backend(TapBackend::new(backend, id, probe)),
        ),
    }
}

fn pema_params(app: &AppSpec, seed: u64) -> PemaParams {
    let mut p = PemaParams::defaults(app.slo_ms);
    p.seed = seed;
    p
}

/// Every member's arbitration events, keyed by member id.
type ArbSink = Arc<Mutex<Vec<(usize, Vec<ArbitrationEvent>)>>>;

/// Records every arbitration event a member sees and hands them over
/// when the member's loop is dropped.
struct ArbLog {
    member: usize,
    events: Vec<ArbitrationEvent>,
    sink: ArbSink,
}

impl Observer for ArbLog {
    fn on_interval(&mut self, _log: &IterationLog, _stats: &WindowStats) {}

    fn on_arbitration(&mut self, event: &ArbitrationEvent) {
        self.events.push(*event);
    }
}

impl Drop for ArbLog {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.push((self.member, std::mem::take(&mut self.events)));
        }
    }
}

/// The policy a `fluid_fleet` member runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FleetPolicyPick {
    Pema,
    Rule,
    Hold,
}

/// One `fluid_fleet` member's inputs.
struct FluidMember {
    app: usize,
    policy: FleetPolicyPick,
    rps: f64,
    floor: f64,
}

/// The `fluid_fleet` grid. Member `i` runs app `i % 3` at load level
/// `(i / 3) % 9` under policy `(i / 27) % 3`, so the policy cycles
/// independently of the app and every app runs under every policy at
/// every load level.
fn fluid_grid(shape: &FluidShape, apps: &[(AppSpec, f64)]) -> Vec<FluidMember> {
    let n = 81 * shape.replicas;
    (0..n)
        .map(|i| {
            let app = i % 3;
            let level = (i / 3) % 9;
            let policy = match (i / 27) % 3 {
                0 => FleetPolicyPick::Pema,
                1 => FleetPolicyPick::Rule,
                _ => FleetPolicyPick::Hold,
            };
            let (spec, nominal) = &apps[app];
            FluidMember {
                app,
                policy,
                rps: pema_apps::fleet_rps(*nominal, 3 * level, 3),
                floor: 0.2 * spec.generous_alloc.iter().sum::<f64>(),
            }
        })
        .collect()
}

/// Share of the fleet's starting demand granted as the arbitration
/// budget: below the starting demand, above the settled demand, so
/// early rounds cut and later rounds pass.
pub const FLUID_BUDGET_SHARE: f64 = 0.68;

/// `fluid_fleet`: fluid-model members under PEMA, RULE and HOLD sharing
/// one CPU budget, with a telemetry hub attached.
pub fn fluid_fleet(seed: u64, shape: &FluidShape, mode: Mode, opts: RunOpts) -> Episode {
    let probe = Probe::new(mode);
    let mut ep = Episode {
        threads: shape.threads,
        ..Episode::default()
    };
    let t_setup = Instant::now();
    let apps = pema_apps::fleet_mix();
    let grid = fluid_grid(shape, &apps);
    let demand: f64 = grid
        .iter()
        .map(|m| apps[m.app].0.generous_alloc.iter().sum::<f64>())
        .sum();
    let budget = FLUID_BUDGET_SHARE * demand;
    let hub = Telemetry::new();
    let arb_sink = Arc::new(Mutex::new(Vec::new()));
    let mut fleet = Fleet::new()
        .threads(shape.threads)
        .telemetry(&hub)
        .arbitration(budget, WeightedFairShare::new());
    for (i, m) in grid.iter().enumerate() {
        let app = &apps[m.app].0;
        let member_seed = mix(seed, i as u64);
        let spec = MemberSpec::new()
            .name(format!("m{i}"))
            .floor(m.floor)
            .app(app)
            .config(HarnessConfig::with_seed(member_seed))
            .rps(m.rps)
            .iters(shape.iters)
            .observer(ArbLog {
                member: i,
                events: Vec::new(),
                sink: Arc::clone(&arb_sink),
            });
        let backend = FluidBackend::new(app);
        fleet = match m.policy {
            FleetPolicyPick::Pema => {
                let policy =
                    PemaController::new(pema_params(app, member_seed), app.generous_alloc.clone());
                add_member(fleet, spec, policy, backend, i as u32, &probe)
            }
            FleetPolicyPick::Rule => {
                add_member(fleet, spec, RulePolicy::new(app), backend, i as u32, &probe)
            }
            FleetPolicyPick::Hold => {
                let policy = HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms);
                add_member(fleet, spec, policy, backend, i as u32, &probe)
            }
        };
    }
    ep.setup_s = t_setup.elapsed().as_secs_f64();
    if opts.setup_only {
        return ep;
    }

    let result = timed_fleet_run(fleet, &probe, &mut ep);
    ep.attempted = grid.len() * shape.iters;
    ep.intervals = result.total_intervals();
    check_member_lengths(&mut ep, &result, shape.iters);

    // Arbitration: per-round budget, floors, and the grant ledger.
    let arb = result
        .arbitration
        .as_ref()
        .map_or_else(ArbCounts::default, |a| ArbCounts {
            rounds: a.rounds,
            contended: a.contended_rounds,
            grant_ratio: a.grant_ratio(),
        });
    ep.arb = Some(arb.clone());
    let logs = std::mem::take(&mut *arb_sink.lock().expect("arbitration log poisoned"));
    let mut round_granted = vec![0.0f64; shape.iters];
    let mut round_fleet = vec![f64::NAN; shape.iters];
    let mut round_demand = vec![0.0f64; shape.iters];
    let (mut floor_bad, mut over_bad, mut count_bad) = (0usize, 0usize, 0usize);
    for (member, events) in &logs {
        if events.len() != shape.iters {
            count_bad += 1;
        }
        let floor = grid[*member].floor;
        for e in events {
            if e.granted + 1e-9 < floor.min(e.proposed) || e.granted > e.proposed + 1e-9 {
                floor_bad += 1;
            }
            if e.fleet_granted > e.budget + 1e-9 {
                over_bad += 1;
            }
            if let Some(g) = round_granted.get_mut(e.round) {
                *g += e.granted;
                round_fleet[e.round] = e.fleet_granted;
                round_demand[e.round] = e.fleet_demand;
            }
        }
    }
    let ledger_bad = round_granted
        .iter()
        .zip(&round_fleet)
        .filter(|(sum, fleet)| (*sum - *fleet).abs() > 1e-6 * fleet.abs().max(1.0))
        .count();
    ep.check(
        "arbitration: grants within [min(floor, proposed), proposed]",
        floor_bad == 0,
        format!("{floor_bad} violating grants"),
    );
    ep.check(
        "arbitration: every round's grants within budget",
        over_bad == 0 && ledger_bad == 0 && logs.len() == grid.len() && count_bad == 0,
        format!(
            "{over_bad} over budget, {ledger_bad} rounds whose grants do not sum to the \
             fleet total, {count_bad} members with a missing round, budget {budget:.1} cores"
        ),
    );
    ep.check(
        "arbitration: early rounds cut, later rounds pass",
        arb.contended > 0 && arb.contended < arb.rounds,
        format!(
            "{} of {} rounds cut; demand per member {:.1} cores at round 0, {:.1} at the \
             last round, budget {:.1}",
            arb.contended,
            arb.rounds,
            round_demand.first().unwrap_or(&0.0) / grid.len() as f64,
            round_demand.last().unwrap_or(&0.0) / grid.len() as f64,
            budget / grid.len() as f64
        ),
    );

    ep.telemetry_records = (0..grid.len())
        .map(|i| {
            hub.counter(
                "pema_ctrl_intervals_total",
                "",
                &[("member", &format!("m{i}"))],
            )
            .value()
        })
        .sum();
    ep.check(
        "telemetry: hub interval counter equals FleetResult::total_intervals",
        ep.telemetry_records == result.total_intervals() as f64,
        format!(
            "hub {} vs fleet {}",
            ep.telemetry_records,
            result.total_intervals()
        ),
    );

    // QoS per app: the grid gives PEMA and RULE members the same loads.
    let k = (shape.iters / 4).max(1);
    let mut qos = Qos::default();
    let mut settled: Vec<(String, f64, f64)> = apps
        .iter()
        .map(|(a, _)| (a.name.clone(), 0.0, 0.0))
        .collect();
    for (m, run) in grid.iter().zip(&result.runs) {
        match m.policy {
            FleetPolicyPick::Pema => {
                qos.pema_violations += run.result.violations();
                qos.pema_intervals += run.result.log.len();
                settled[m.app].1 += run.result.settled_total(k);
            }
            FleetPolicyPick::Rule => settled[m.app].2 += run.result.settled_total(k),
            FleetPolicyPick::Hold => {}
        }
    }
    qos.settled = settled;
    ep.qos = qos;
    finish_digest(&mut ep, &result, opts.keep_logs);
    ep
}

/// The paper apps' nominal loads, and the 2 s early check PEMA runs
/// with on the DES.
pub const DES_EARLY_CHECK_S: f64 = 2.0;

/// `des_paper`: the three paper apps on the discrete-event simulator,
/// PEMA with early checks beside a RULE twin on the same seed.
pub fn des_paper(seed: u64, shape: &DesShape, mode: Mode, opts: RunOpts) -> Episode {
    let probe = Probe::new(mode);
    let mut ep = Episode {
        threads: shape.threads,
        ..Episode::default()
    };
    let t_setup = Instant::now();
    let apps = pema_apps::fleet_mix();
    let mut fleet = Fleet::new().threads(shape.threads);
    // (app, is PEMA) per member. Pairs alternate which twin comes
    // first, so the fleet's `id % threads` sharding mixes PEMA and RULE
    // members on every thread.
    let mut members: Vec<(usize, bool)> = Vec::new();
    for r in 0..shape.replicas {
        for (a, (app, rps)) in apps.iter().enumerate() {
            let backend_seed = mix(seed, (r * apps.len() + a) as u64);
            let cfg = HarnessConfig::with_seed(backend_seed);
            let pema_first = (r * apps.len() + a).is_multiple_of(2);
            for is_pema in [pema_first, !pema_first] {
                let id = members.len() as u32;
                let role = if is_pema { "pema" } else { "rule" };
                let spec = MemberSpec::new()
                    .name(format!("{}-{role}-{r}", app.name))
                    .app(app)
                    .config(cfg)
                    .rps(*rps)
                    .iters(shape.iters);
                let backend = SimBackend::new(app, backend_seed);
                fleet = if is_pema {
                    let policy = PemaController::new(
                        pema_params(app, mix(backend_seed, 1)),
                        app.generous_alloc.clone(),
                    );
                    let spec = spec.early_check(DES_EARLY_CHECK_S);
                    add_member(fleet, spec, policy, backend, id, &probe)
                } else {
                    add_member(fleet, spec, RulePolicy::new(app), backend, id, &probe)
                };
                members.push((a, is_pema));
            }
        }
    }
    ep.setup_s = t_setup.elapsed().as_secs_f64();
    if opts.setup_only {
        return ep;
    }

    let result = timed_fleet_run(fleet, &probe, &mut ep);
    ep.attempted = members.len() * shape.iters;
    ep.intervals = result.total_intervals();
    check_member_lengths(&mut ep, &result, shape.iters);

    let k = (shape.iters / 4).max(1);
    let mut qos = Qos::default();
    let mut settled: Vec<(String, f64, f64)> = apps
        .iter()
        .map(|(a, _)| (a.name.clone(), 0.0, 0.0))
        .collect();
    for (&(a, is_pema), run) in members.iter().zip(&result.runs) {
        if is_pema {
            qos.pema_violations += run.result.violations();
            qos.pema_intervals += run.result.log.len();
            settled[a].1 += run.result.settled_total(k);
        } else {
            settled[a].2 += run.result.settled_total(k);
        }
    }
    qos.settled = settled;
    ep.qos = qos;
    finish_digest(&mut ep, &result, opts.keep_logs);
    ep
}

fn timed_fleet_run(fleet: Fleet, probe: &Arc<Probe>, ep: &mut Episode) -> FleetResult {
    let cpu0 = crate::stats::process_cpu_s().unwrap_or(0.0);
    let start_ns = probe.now_ns();
    let t = Instant::now();
    let result = fleet.run();
    ep.timed_s = t.elapsed().as_secs_f64();
    let end_ns = probe.now_ns();
    ep.cpu_s = crate::stats::process_cpu_s().unwrap_or(0.0) - cpu0;
    ep.roots.push(Root {
        name: "fleet.run",
        start_ns,
        end_ns,
        threads: ep.threads,
    });
    ep.fleet_polls = result.polls;
    (ep.backends, ep.policies) = probe.take();
    result
}

fn check_member_lengths(ep: &mut Episode, result: &FleetResult, iters: usize) {
    let short = result
        .runs
        .iter()
        .filter(|r| r.result.log.len() != iters)
        .count();
    ep.check(
        "every member logs exactly its requested intervals",
        short == 0,
        format!("{short} of {} members off", result.runs.len()),
    );
}

fn finish_digest(ep: &mut Episode, result: &FleetResult, keep_logs: bool) {
    let mut digest = 0u64;
    for run in &result.runs {
        let bits = log_bits(&run.result);
        digest = fold_digest(digest, &bits);
        digest = mix(digest, fnv(run.name.as_bytes()));
        if keep_logs {
            ep.member_bits.push(bits);
        }
    }
    ep.digest = digest;
}

/// Nominal sockshop load and the periodic swing `live_fake` puts on it.
pub const LIVE_SWING: f64 = 0.4;
/// Period of the load swing, control intervals.
pub const LIVE_PERIOD: f64 = 60.0;
/// Chance that an interval's first scrape meets one queued fault.
pub const LIVE_FAULT_P: f64 = 0.08;
/// Chance that it meets two (absorbed by the second retry).
pub const LIVE_DOUBLE_FAULT_P: f64 = 0.02;

/// The offered load of `live_fake` interval `i` under `seed`.
pub fn live_rps(seed: u64, i: usize) -> f64 {
    let nominal = pema_apps::fleet_mix()[0].1;
    let phase = LIVE_PERIOD * unit(seed, 0xA5E);
    let x = 2.0 * std::f64::consts::PI * (i as f64 + phase) / LIVE_PERIOD;
    nominal * (1.0 + LIVE_SWING * x.sin())
}

/// The faults queued before `live_fake` interval `i` under `seed`.
pub fn live_faults(seed: u64, i: usize) -> Vec<Fault> {
    let u = unit(seed, 0xFA17_0000 + i as u64);
    let n = if u < LIVE_DOUBLE_FAULT_P {
        2
    } else if u < LIVE_FAULT_P {
        1
    } else {
        0
    };
    (0..n)
        .map(|k| match mix(seed, 0xFA18_0000 + 2 * i as u64 + k) % 3 {
            0 => Fault::Http500,
            1 => Fault::GarbageBody,
            _ => Fault::DropConnection,
        })
        .collect()
}

/// The fault [`LiveShape::patch_faults`] queues after decision `i`.
fn live_patch_fault(seed: u64, i: usize) -> Option<Fault> {
    (unit(seed, 0xFA19_0000 + i as u64) < LIVE_FAULT_P).then(|| {
        match mix(seed, 0xFA1A_0000 + i as u64) % 3 {
            0 => Fault::Http500,
            1 => Fault::GarbageBody,
            _ => Fault::DropConnection,
        }
    })
}

/// Queues a fault on the cluster right after some decisions, so it
/// lands on the first PATCH of the following `apply` (used only by
/// [`LiveShape::patch_faults`]).
struct FaultBeforeApply<P> {
    inner: P,
    cluster: pema_live::FakeCluster,
    seed: u64,
    interval: usize,
}

impl<P: Policy> Policy for FaultBeforeApply<P> {
    fn pre_interval(&mut self, rps: f64) -> Option<pema_sim::Allocation> {
        self.inner.pre_interval(rps)
    }

    fn decide(&mut self, stats: &WindowStats) -> pema_control::Decision {
        let d = self.inner.decide(stats);
        if let Some(fault) = live_patch_fault(self.seed, self.interval) {
            self.cluster.inject_fault(fault);
        }
        self.interval += 1;
        d
    }

    fn slo_ms(&self) -> f64 {
        self.inner.slo_ms()
    }
}

impl<P: InspectPolicy> InspectPolicy for FaultBeforeApply<P> {
    const KIND: crate::tap::PolicyKind = P::KIND;
    fn rhdb_records(&self) -> usize {
        self.inner.rhdb_records()
    }
}

/// `live_fake`: one PEMA `LiveBackend` loop on sockshop against an
/// in-process `FakeCluster`, recorded to a tape that is encoded,
/// decoded and replayed.
pub fn live_fake(seed: u64, shape: &LiveShape, mode: Mode, opts: RunOpts) -> Episode {
    let probe = Probe::new(mode);
    let mut ep = Episode {
        threads: 2,
        ..Episode::default()
    };
    let t_setup = Instant::now();
    let app = pema_apps::sockshop();
    let params = pema_params(&app, mix(seed, 1));
    let cfg = HarnessConfig::with_seed(mix(seed, 2));
    let FakeLive {
        cluster,
        clock: _clock,
        mut backend,
    } = live_over_fake_with(
        &app,
        live_rps(seed, 0),
        LiveConfig {
            jitter_seed: mix(seed, 3),
            ..LiveConfig::default()
        },
    );
    let hub = Telemetry::new();
    backend.set_telemetry(&hub);
    let recorder = TraceRecorder::new(&app, "pema", params.seed, &cfg);
    let tape = recorder.handle();
    let controller = PemaController::new(params.clone(), app.generous_alloc.clone());
    ep.setup_s = t_setup.elapsed().as_secs_f64();
    if opts.setup_only {
        return ep;
    }

    let cpu0 = crate::stats::process_cpu_s().unwrap_or(0.0);
    let t_loop = Instant::now();
    let loop_start = probe.now_ns();
    let mut injected = 0u64;
    let run = LiveRun {
        cfg,
        recorder,
        cluster: &cluster,
        seed,
        shape,
        probe: &probe,
        injected: &mut injected,
    };
    let (result, shadow) = if shape.patch_faults {
        run.drive(
            FaultBeforeApply {
                inner: controller,
                cluster: cluster.clone(),
                seed,
                interval: 0,
            },
            backend,
        )
    } else {
        run.drive(controller, backend)
    };
    let loop_s = t_loop.elapsed().as_secs_f64();
    let loop_end = probe.now_ns();
    (ep.backends, ep.policies) = probe.take();
    ep.roots.push(Root {
        name: "live.loop",
        start_ns: loop_start,
        end_ns: loop_end,
        threads: 1,
    });

    // Tape: encode, decode, re-encode, replay under the same policy.
    let trace = tape.take();
    let (text, encode_s) = timed(&probe, &mut ep, "trace.encode", || trace.to_jsonl());
    let (back, decode_s) = timed(&probe, &mut ep, "trace.decode", || {
        Trace::parse_jsonl(&text, ReadMode::Strict)
    });
    let back = match back {
        Ok(back) => back,
        Err(e) => {
            ep.check("trace: tape decodes", false, e.to_string());
            trace.clone()
        }
    };
    let rerun_policy = PemaController::new(params, back.meta.initial_alloc.clone());
    let (rerun, replay_s) = timed(&probe, &mut ep, "trace.replay", || {
        replay(&back, rerun_policy)
    });
    ep.timed_s = loop_s + encode_s + decode_s + replay_s;
    ep.cpu_s = crate::stats::process_cpu_s().unwrap_or(0.0) - cpu0;

    ep.attempted = shape.intervals;
    ep.intervals = result.log.len();
    ep.check(
        "every member logs exactly its requested intervals",
        result.log.len() == shape.intervals,
        format!("{} of {} intervals", result.log.len(), shape.intervals),
    );

    // The client's books against the server's.
    let counter =
        |name: &str, labels: &[(&str, &str)]| hub.counter(name, "", labels).value() as u64;
    let truth = cluster.fault_stats();
    let patch_log = cluster.patches().len() as u64;
    let queries = counter("pema_live_queries_total", &[("target", "prom")]);
    let retries = counter("pema_live_retries_total", &[("target", "prom")]);
    let patches = counter("pema_live_patches_total", &[("target", "kube")]);
    let scrape_errors = counter("pema_live_errors_total", &[("kind", "scrape")]);
    let patch_errors = counter("pema_live_errors_total", &[("kind", "patch")]);
    let hist = |name: &str, labels: &[(&str, &str)]| {
        let h = hub.histogram(name, "", labels, DEFAULT_SECONDS_BUCKETS);
        1e3 * h.sum() / h.count().max(1) as f64
    };
    if shape.patch_faults {
        injected += (0..shape.intervals)
            .filter(|&i| live_patch_fault(seed, i).is_some())
            .count() as u64;
    }
    ep.check(
        "live: faults fired equal faults queued",
        truth.total_faults() == injected && truth.delayed == 0,
        format!("{} fired, {injected} queued", truth.total_faults()),
    );
    ep.check(
        "live: client queries + PATCHes equal requests served",
        queries + patches == truth.requests && patches - patch_errors == patch_log,
        format!(
            "{queries} queries + {patches} PATCHes vs {} served, {patch_log} in the patch log",
            truth.requests
        ),
    );
    ep.check(
        "live: every fault cost one retry or failed one PATCH",
        retries + patch_errors == truth.total_faults(),
        format!(
            "{retries} retries + {patch_errors} failed PATCHes for {} faults",
            truth.total_faults()
        ),
    );
    ep.check(
        "live: no operation failed",
        scrape_errors == 0 && patch_errors == 0,
        format!("{scrape_errors} failed scrapes, {patch_errors} failed PATCHes"),
    );
    ep.check(
        "live: final cluster allocation equals the backend's shadow",
        cluster.allocation() == shadow,
        format!(
            "cluster {:.4} cores, shadow {:.4} cores",
            cluster.allocation().total(),
            shadow.total()
        ),
    );
    let reencoded = back.to_jsonl();
    ep.check(
        "trace: parse_jsonl(to_jsonl(tape)) re-encodes byte-identically",
        reencoded == text,
        format!("{} vs {} bytes", reencoded.len(), text.len()),
    );
    let actions_match = back
        .records
        .iter()
        .zip(&rerun.result.log)
        .all(|(rec, rep)| rec.action == rep.action)
        && back.records.len() == rerun.result.log.len();
    ep.check(
        "trace: same-policy replay has zero divergence",
        rerun.summary.is_zero() && actions_match,
        format!(
            "{} of {} intervals diverged, violations {} recorded vs {} replayed",
            rerun.summary.diverged_intervals,
            rerun.summary.intervals,
            rerun.summary.recorded_violations,
            rerun.summary.would_violations
        ),
    );

    ep.live = Some(LiveCounts {
        requests: truth.requests,
        scrapes: queries,
        patches,
        retries,
        failed_ops: scrape_errors + patch_errors,
        query_ms_mean: hist("pema_live_query_seconds", &[("target", "prom")]),
        patch_ms_mean: hist("pema_live_patch_seconds", &[("target", "kube")]),
        faults_injected: injected,
    });
    ep.trace = Some(TraceCounts {
        records: back.records.len(),
        bytes: text.len(),
        encode_s,
        decode_s,
        replay_s,
    });
    ep.qos = Qos {
        pema_violations: result.violations(),
        pema_intervals: result.log.len(),
        settled: Vec::new(),
    };
    let bits = log_bits(&result);
    let mut digest = fold_digest(0, &bits);
    digest = mix(digest, fnv(text.as_bytes()));
    for p in cluster.patches() {
        digest = mix(digest, fnv(p.service.as_bytes()) ^ p.cores.to_bits());
    }
    ep.digest = digest;
    if opts.keep_logs {
        ep.member_bits.push(bits);
    }
    ep
}

/// Everything the live loop needs besides its policy and backend.
struct LiveRun<'a> {
    cfg: HarnessConfig,
    recorder: TraceRecorder,
    cluster: &'a pema_live::FakeCluster,
    seed: u64,
    shape: &'a LiveShape,
    probe: &'a Arc<Probe>,
    injected: &'a mut u64,
}

impl LiveRun<'_> {
    /// Drives the loop with `policy` over `backend`, wrapped or bare as
    /// the probe's mode says.
    fn drive<P>(self, policy: P, backend: LiveBackend) -> (RunResult, pema_sim::Allocation)
    where
        P: Policy + InspectPolicy,
    {
        match self.probe.mode() {
            Mode::Raw => {
                let control = ControlLoop::new(backend, policy, self.cfg).observe(self.recorder);
                drive_live(control, self.cluster, self.seed, self.shape, self.injected)
            }
            Mode::Latency | Mode::Spans => {
                let control = ControlLoop::new(
                    TapBackend::new(backend, 0, self.probe),
                    TapPolicy::new(policy, 0, self.probe),
                    self.cfg,
                )
                .observe(self.recorder);
                drive_live(control, self.cluster, self.seed, self.shape, self.injected)
            }
        }
    }
}

/// Runs the live loop, moving the cluster's load along the pattern and
/// queueing the fault schedule before each interval (the faults land on
/// that interval's first scrape). Returns the run and the backend's
/// shadow allocation at the end.
fn drive_live<P: Policy, B: ClusterBackend>(
    mut control: ControlLoop<P, B>,
    cluster: &pema_live::FakeCluster,
    seed: u64,
    shape: &LiveShape,
    injected: &mut u64,
) -> (RunResult, pema_sim::Allocation) {
    for i in 0..shape.intervals {
        let rps = live_rps(seed, i);
        cluster.set_rps(rps);
        for fault in live_faults(seed, i) {
            cluster.inject_fault(fault);
            *injected += 1;
        }
        control.step_once(rps);
    }
    let shadow = control.backend.allocation();
    (control.into_result(), shadow)
}

fn timed<T>(
    probe: &Arc<Probe>,
    ep: &mut Episode,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start_ns = probe.now_ns();
    let t = Instant::now();
    let out = f();
    let s = t.elapsed().as_secs_f64();
    ep.roots.push(Root {
        name,
        start_ns,
        end_ns: probe.now_ns(),
        threads: 1,
    });
    (out, s)
}
