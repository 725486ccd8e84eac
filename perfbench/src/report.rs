//! One benchmark run: repeats a workload's episode for the requested
//! time, then turns the episodes into named metrics and a report.

use crate::stats::{host_ticks, mean, median, peak_rss_mib, quantile, tail_q};
use crate::tap::{BackendKind, Call, Mode, PolicyKind, Span};
use crate::workloads::{
    des_paper, fluid_fleet, live_fake, DesShape, Episode, FluidShape, LiveShape, RunOpts,
};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fluid-model fleet under arbitration and telemetry.
    FluidFleet,
    /// The paper apps on the DES.
    DesPaper,
    /// The live HTTP path over `FakeCluster`, with the trace codec.
    LiveFake,
}

/// `fluid_fleet` as benchmarked: 972 members × 300 intervals.
pub const FLUID: FluidShape = FluidShape {
    replicas: 12,
    iters: 300,
    threads: 2,
};

/// `des_paper` as benchmarked: 3 apps × PEMA/RULE × 20 intervals.
pub const DES: DesShape = DesShape {
    replicas: 1,
    iters: 20,
    threads: 2,
};

/// `live_fake` as benchmarked: 1000 intervals per episode.
pub const LIVE: LiveShape = LiveShape {
    intervals: 1000,
    patch_faults: false,
};

/// Set-up time samples taken before each episode. They come from
/// set-ups alone, not from the episodes' own set-ups, which follow an
/// episode on cold caches.
pub const SETUPS_PER_EPISODE: usize = 5;

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fluid_fleet" => Some(Self::FluidFleet),
            "des_paper" => Some(Self::DesPaper),
            "live_fake" => Some(Self::LiveFake),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::FluidFleet => "fluid_fleet",
            Self::DesPaper => "des_paper",
            Self::LiveFake => "live_fake",
        }
    }

    /// Whether a run starts with an untimed episode. Short episodes
    /// would otherwise carry the cost of first growing the heap; a
    /// `des_paper` episode is long enough to absorb it.
    pub fn warms_up(self) -> bool {
        self != Self::DesPaper
    }

    /// Runs one episode at the benchmark's size.
    pub fn episode(self, seed: u64, mode: Mode, opts: RunOpts) -> Episode {
        match self {
            Self::FluidFleet => fluid_fleet(seed, &FLUID, mode, opts),
            Self::DesPaper => des_paper(seed, &DES, mode, opts),
            Self::LiveFake => live_fake(seed, &LIVE, mode, opts),
        }
    }
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
    /// Further metrics printed in the report only.
    pub extra: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Whether every output check held.
    pub correct: bool,
    /// Control intervals requested.
    pub attempted: usize,
    /// Control intervals that did not complete.
    pub failed: usize,
    /// The first traced episode, whose spans the per-layer metrics come
    /// from (traced run only).
    pub first_traced: Option<Episode>,
}

/// Runs `workload` for `seconds`: untraced episodes only, or (with
/// `trace`) untraced and traced episodes in alternation.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut plain: Vec<Episode> = Vec::new();
    let mut traced: Vec<Episode> = Vec::new();
    let mut warm: Vec<Episode> = Vec::new();
    let mut peak_rss = None;
    if workload.warms_up() {
        // Untimed: the first episode pays for growing the heap.
        let ep = workload.episode(seed, Mode::Latency, RunOpts::default());
        peak_rss = peak_rss_mib();
        warm.push(ep);
    }
    let setup_only = RunOpts {
        setup_only: true,
        ..RunOpts::default()
    };
    let mut setups = Vec::new();
    let start = Instant::now();
    loop {
        // Set-up samples come in small batches before every episode, so
        // the median spans the whole run rather than one moment of a
        // host whose speed drifts.
        setups.extend(
            (0..SETUPS_PER_EPISODE)
                .map(|_| workload.episode(seed, Mode::Latency, setup_only).setup_s),
        );
        let mode = if trace && plain.len() > traced.len() {
            Mode::Spans
        } else {
            Mode::Latency
        };
        let ticks = host_ticks();
        let mut ep = workload.episode(seed, mode, RunOpts::default());
        if let (Some((s0, t0)), Some((s1, t1))) = (ticks, host_ticks()) {
            ep.host_steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        }
        // Peak RSS of one episode: later episodes can only add
        // allocator fragmentation, not footprint.
        peak_rss = peak_rss.or_else(peak_rss_mib);
        match mode {
            Mode::Spans => {
                // Per-layer figures come from the first traced episode;
                // later ones only time the traced loop, so their spans
                // need not stay in memory.
                if !traced.is_empty() {
                    ep.backends.clear();
                    ep.policies.clear();
                }
                traced.push(ep)
            }
            _ => plain.push(ep),
        }
        let done = start.elapsed().as_secs_f64() >= seconds;
        if done && (!trace || !traced.is_empty()) {
            break;
        }
    }

    let mut out = Outcome::default();
    out.report.push(format!(
        "set-up: {} samples, quartiles {:?} ms",
        setups.len(),
        {
            let v = sorted(setups.clone());
            [0.25, 0.5, 0.75].map(|q| (quantile(&v, q) * 1e6).round() / 1e3)
        }
    ));
    let all: Vec<&Episode> = warm.iter().chain(&plain).chain(&traced).collect();
    out.attempted = all.iter().map(|e| e.attempted).sum();
    out.failed = all.iter().map(|e| e.attempted - e.intervals).sum();
    out.correct = true;
    let first = all[0];
    for ep in &all {
        for c in &ep.checks {
            if !c.ok {
                out.correct = false;
            }
        }
    }
    let same = all.iter().all(|e| e.digest == first.digest);
    out.correct &= same;
    for c in &first.checks {
        out.report.push(format!(
            "check {:<4} {} ({})",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            c.detail
        ));
    }
    out.report.push(format!(
        "check {:<4} every episode reproduces the first bit for bit ({} episodes{})",
        if same { "ok" } else { "FAIL" },
        all.len(),
        if trace { ", traced and untraced" } else { "" }
    ));

    let qos = &first.qos;
    out.report.push(format!(
        "qos slo_violation_share = {:.6} ratio ({} of {} PEMA intervals)",
        qos.slo_violation_share(),
        qos.pema_violations,
        qos.pema_intervals
    ));
    match qos.cpu_vs_rule() {
        Some(r) => {
            out.report.push(format!(
                "qos cpu_vs_rule = {r:.6} ratio (settled cores, PEMA ÷ RULE)"
            ));
            for (app, pema, rule) in &qos.settled {
                out.report.push(format!(
                    "qos cpu_vs_rule[{app}] = {:.4} ({pema:.2} ÷ {rule:.2} cores)",
                    pema / rule
                ));
            }
        }
        None => out
            .report
            .push("qos cpu_vs_rule: not applicable (no RULE twin)".into()),
    }
    let failed_ops = first.live.as_ref().map_or(0, |l| l.failed_ops);
    let ops = first.live.as_ref().map_or(first.attempted as u64, |l| {
        l.scrapes - l.retries + l.patches
    });
    let failed_op_share = match &first.live {
        Some(_) => failed_ops as f64 / ops.max(1) as f64,
        None => (first.attempted - first.intervals) as f64 / first.attempted.max(1) as f64,
    };
    out.report.push(format!(
        "qos failed_op_share = {failed_op_share:.6} ratio ({failed_ops} of {ops} operations)"
    ));

    let rate = |eps: &[Episode]| LoopTiming::of(eps).wall_rate;
    let timing = LoopTiming::of(&plain);
    out.report.push(format!(
        "interval latency: {} samples, tail = p{:.1}",
        timing.samples,
        100.0 * timing.tail_q
    ));
    out.report.push(format!(
        "episodes (intervals/s wall, intervals per CPU-s, host steal %): {:?}",
        plain
            .iter()
            .map(|e| (
                (e.intervals as f64 / e.timed_s).round(),
                (e.intervals as f64 / e.cpu_s).round(),
                (e.host_steal * 1000.0).round() / 10.0
            ))
            .collect::<Vec<_>>()
    ));
    if trace {
        let spans_rate = rate(&traced);
        let ungated = timing.ungated();
        out.metrics.extend(ungated);
        layer_metrics(
            &mut out,
            &plain,
            &traced[0],
            failed_op_share,
            timing.wall_rate,
            spans_rate,
        );
    } else {
        out.extra = timing.ungated();
        let m = &mut out.metrics;
        m.push(Metric {
            name: "app_intervals_per_cpu_s",
            value: timing.cpu_rate,
            unit: "1/s",
        });
        m.push(Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        });
        m.push(Metric {
            name: "peak_rss_mb",
            value: peak_rss.unwrap_or(0.0),
            unit: "MiB",
        });
    }
    out.report.push(format!(
        "run: {} untraced + {} traced episodes, {} set-up samples, {:.2} s",
        plain.len(),
        traced.len(),
        setups.len(),
        start.elapsed().as_secs_f64()
    ));
    out.first_traced = traced.into_iter().next();
    out
}

/// Host cost of the untraced episodes of one run.
struct LoopTiming {
    /// Median over episodes of completed intervals ÷ wall seconds.
    wall_rate: f64,
    /// Median over episodes of completed intervals ÷ process CPU
    /// seconds.
    cpu_rate: f64,
    /// Interval latency (window ready → apply returned), pooled, µs.
    p50_us: f64,
    tail_us: f64,
    tail_q: f64,
    samples: usize,
}

impl LoopTiming {
    // Medians of per-episode rates: one disturbed episode moves them
    // less than it moves a pooled total.
    fn of(eps: &[Episode]) -> Self {
        let per = |f: &dyn Fn(&Episode) -> f64| median(&eps.iter().map(f).collect::<Vec<_>>());
        let lat = sorted(
            eps.iter()
                .flat_map(|e| &e.backends)
                .flat_map(|b| &b.latency_ns)
                .map(|ns| us(*ns))
                .collect(),
        );
        let tail_q = tail_q(lat.len());
        Self {
            wall_rate: per(&|e| e.intervals as f64 / e.timed_s),
            cpu_rate: per(&|e| e.intervals as f64 / e.cpu_s.max(0.01)),
            p50_us: quantile(&lat, 0.5),
            tail_us: quantile(&lat, tail_q),
            tail_q,
            samples: lat.len(),
        }
    }

    /// The end-to-end metrics that wall-clock noise on a shared host
    /// keeps out of the gate (see the README).
    fn ungated(&self) -> Vec<Metric> {
        vec![
            Metric {
                name: "loop.app_intervals_per_s",
                value: self.wall_rate,
                unit: "1/s",
            },
            Metric {
                name: "loop.interval_latency_p50_us",
                value: self.p50_us,
                unit: "us",
            },
            Metric {
                name: "loop.interval_latency_tail_us",
                value: self.tail_us,
                unit: "us",
            },
        ]
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Per-interval sums of backend window-call time (begin + polls), by
/// backend kind.
fn window_self_us(ep: &Episode, kind: BackendKind) -> Vec<f64> {
    let mut out = Vec::new();
    for b in ep.backends.iter().filter(|b| b.kind == Some(kind)) {
        let mut per: Vec<u64> = Vec::new();
        for s in &b.spans {
            if matches!(s.call, Call::Begin | Call::Poll) {
                let i = s.interval as usize;
                if per.len() <= i {
                    per.resize(i + 1, 0);
                }
                per[i] += s.ns();
            }
        }
        out.extend(per.into_iter().map(us));
    }
    out
}

/// The per-layer metrics, from the spans of one traced episode (`first`)
/// and the timing of the untraced ones.
fn layer_metrics(
    out: &mut Outcome,
    plain: &[Episode],
    first: &Episode,
    failed_op_share: f64,
    plain_rate: f64,
    spans_rate: f64,
) {
    let backend_spans = || first.backends.iter().flat_map(|b| &b.spans);
    let pema_decides = |f: &dyn Fn(&Span) -> bool| -> Vec<f64> {
        first
            .policies
            .iter()
            .filter(|p| p.kind == Some(PolicyKind::Pema))
            .flat_map(|p| &p.spans)
            .filter(|s| s.call == Call::Decide && f(s))
            .map(|s| us(s.ns()))
            .collect()
    };
    let decide = sorted(pema_decides(&|_| true));
    let iters = first.backends.first().map_or(0, |b| b.latency_ns.len()) as u32;
    let quarter = (iters / 4).max(1);
    let early = mean(&pema_decides(&|s| s.interval < quarter));
    let late = mean(&pema_decides(&|s| {
        s.interval >= iters.saturating_sub(quarter)
    }));
    let rhdb_end = mean(
        &first
            .policies
            .iter()
            .filter(|p| p.kind == Some(PolicyKind::Pema))
            .map(|p| p.rhdb_records_end as f64)
            .collect::<Vec<_>>(),
    );

    let window = sorted(
        first
            .backends
            .iter()
            .flat_map(|b| &b.window_elapsed_ns)
            .map(|ns| us(*ns))
            .collect(),
    );
    let apply = sorted(
        backend_spans()
            .filter(|s| s.call == Call::Apply)
            .map(|s| us(s.ns()))
            .collect(),
    );
    let polls: u64 = first.backends.iter().map(|b| b.polls).sum();
    let intervals = first.intervals.max(1) as f64;

    // Self share of the driving loop: the part of its threads' time not
    // spent inside a backend or policy call.
    let child_ns: u64 = backend_spans()
        .chain(first.policies.iter().flat_map(|p| &p.spans))
        .map(Span::ns)
        .sum();
    let self_share = first
        .roots
        .iter()
        .find(|r| r.name == "fleet.run" || r.name == "live.loop")
        .map_or(0.0, |root| {
            let cap = (root.end_ns - root.start_ns) as f64 * root.threads as f64;
            1.0 - child_ns as f64 / cap
        });

    // Arbitration wait: decide end → the apply that commits it. Both
    // record lists are sorted by member, one record per member.
    let mut waits = Vec::new();
    for (b, p) in first.backends.iter().zip(&first.policies) {
        let applies = b.spans.iter().filter(|s| s.call == Call::Apply);
        let decides = p.spans.iter().filter(|s| s.call == Call::Decide);
        for (a, d) in applies.zip(decides) {
            waits.push(us(a.start_ns.saturating_sub(d.end_ns)));
        }
    }
    let waits = sorted(waits);
    let arb = first.arb.clone().unwrap_or_default();

    let des_events: u64 = first.backends.iter().map(|b| b.sim_events).sum();
    let des_window_s: f64 = first
        .backends
        .iter()
        .filter(|b| b.kind == Some(BackendKind::Des))
        .flat_map(|b| &b.spans)
        .filter(|s| matches!(s.call, Call::Begin | Call::Poll))
        .map(|s| s.ns() as f64 / 1e9)
        .sum();
    let fluid_window = sorted(window_self_us(first, BackendKind::Fluid));

    let live = first.live.clone().unwrap_or_default();
    let tr = first.trace.clone().unwrap_or_default();
    let mb = tr.bytes as f64 / 1e6;
    let per = |x: f64, s: f64| if s > 0.0 { x / s } else { 0.0 };
    let plain_cpu: f64 = plain.iter().map(|e| e.cpu_s).sum();
    let plain_wall: f64 = plain.iter().map(|e| e.timed_s * e.threads as f64).sum();

    let m = &mut out.metrics;
    let mut push =
        |name: &'static str, value: f64, unit: &'static str| m.push(Metric { name, value, unit });
    push("core.decide_us_p50", quantile(&decide, 0.5), "us");
    push("core.decide_us_p99", quantile(&decide, 0.99), "us");
    push("core.decide_growth", per(late, early), "ratio");
    push("core.rhdb_records_end", rhdb_end, "count");
    push("control.window_us_p50", quantile(&window, 0.5), "us");
    push("control.window_us_p99", quantile(&window, 0.99), "us");
    push("control.apply_us_p50", quantile(&apply, 0.5), "us");
    push(
        "control.fleet_polls_per_interval",
        polls as f64 / intervals,
        "count",
    );
    push("control.fleet_self_share", self_share, "ratio");
    push("arbitration.rounds", arb.rounds as f64, "count");
    push(
        "arbitration.cut_share",
        per(arb.contended as f64, arb.rounds as f64),
        "ratio",
    );
    push("arbitration.grant_ratio", arb.grant_ratio, "ratio");
    push("arbitration.wait_us_p50", quantile(&waits, 0.5), "us");
    push("arbitration.wait_us_p99", quantile(&waits, 0.99), "us");
    push("sim.events", des_events as f64, "count");
    push(
        "sim.events_per_s",
        per(des_events as f64, des_window_s),
        "1/s",
    );
    push(
        "sim.fluid_window_us_p50",
        quantile(&fluid_window, 0.5),
        "us",
    );
    push("live.requests", live.requests as f64, "count");
    push("live.scrapes", live.scrapes as f64, "count");
    push("live.patches", live.patches as f64, "count");
    push("live.retries", live.retries as f64, "count");
    push("live.failed_ops", live.failed_ops as f64, "count");
    push("live.query_ms_mean", live.query_ms_mean, "ms");
    push("live.patch_ms_mean", live.patch_ms_mean, "ms");
    push("trace.records", tr.records as f64, "count");
    push("trace.bytes", tr.bytes as f64, "bytes");
    push("trace.encode_mb_per_s", per(mb, tr.encode_s), "MB/s");
    push("trace.decode_mb_per_s", per(mb, tr.decode_s), "MB/s");
    push(
        "trace.replay_intervals_per_s",
        per(tr.records as f64, tr.replay_s),
        "1/s",
    );
    push("telemetry.records", first.telemetry_records, "count");
    push("proc.cpu_util", per(plain_cpu, plain_wall), "ratio");
    push(
        "harness.tracing_overhead",
        1.0 - spans_rate / plain_rate,
        "ratio",
    );
    push(
        "qos.slo_violation_share",
        first.qos.slo_violation_share(),
        "ratio",
    );
    push(
        "qos.cpu_vs_rule",
        first.qos.cpu_vs_rule().unwrap_or(0.0),
        "ratio",
    );
    push("qos.failed_op_share", failed_op_share, "ratio");

    out.report.push(format!(
        "tracing overhead: {:.1} app-intervals/s untraced vs {:.1} traced",
        plain_rate, spans_rate
    ));
    span_table(out, first);
}

/// Count, total and self time per span name of one traced episode.
fn span_table(out: &mut Outcome, ep: &Episode) {
    let calls = [
        Call::Begin,
        Call::Poll,
        Call::Decide,
        Call::PreInterval,
        Call::Apply,
        Call::ApplyPre,
    ];
    let spans: Vec<&Span> = ep
        .backends
        .iter()
        .flat_map(|b| &b.spans)
        .chain(ep.policies.iter().flat_map(|p| &p.spans))
        .collect();
    let children_ns: u64 = spans.iter().map(|s| s.ns()).sum();
    out.report
        .push("span self time (first traced episode): name count total_ms self_ms".into());
    for root in &ep.roots {
        let dur = (root.end_ns - root.start_ns) as f64 / 1e6;
        let is_loop = root.name == "fleet.run" || root.name == "live.loop";
        let self_ms = if is_loop {
            dur * root.threads as f64 - children_ns as f64 / 1e6
        } else {
            dur
        };
        out.report.push(format!(
            "span {} 1 {dur:.3} {self_ms:.3} (threads {})",
            root.name, root.threads
        ));
    }
    for call in calls {
        let (n, total) = spans
            .iter()
            .filter(|s| s.call == call)
            .fold((0usize, 0u64), |(n, t), s| (n + 1, t + s.ns()));
        if n > 0 {
            let ms = total as f64 / 1e6;
            out.report
                .push(format!("span {} {n} {ms:.3} {ms:.3}", call.name()));
        }
    }
}

/// Writes every span of a traced episode as a table
/// (`name member interval start_ns end_ns parent`), roots first.
pub fn write_spans(ep: &Episode, w: &mut impl std::io::Write) -> std::io::Result<()> {
    let parent = ep
        .roots
        .iter()
        .find(|r| r.name == "fleet.run" || r.name == "live.loop")
        .map_or("-", |r| r.name);
    writeln!(w, "name\tmember\tinterval\tstart_ns\tend_ns\tparent")?;
    for root in &ep.roots {
        writeln!(
            w,
            "{}\t-\t-\t{}\t{}\t-",
            root.name, root.start_ns, root.end_ns
        )?;
    }
    let spans = ep
        .backends
        .iter()
        .flat_map(|b| &b.spans)
        .chain(ep.policies.iter().flat_map(|p| &p.spans));
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{parent}",
            s.call.name(),
            s.member,
            s.interval,
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}
