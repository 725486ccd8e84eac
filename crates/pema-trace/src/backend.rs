//! [`TraceBackend`] — a [`ClusterBackend`] that replays a recorded
//! trace, turning the control loop into a counterfactual evaluator.
//!
//! The replay contract mirrors how autoscaler policies are compared
//! against production history: the *telemetry* comes from the tape,
//! the *actuation* is hypothetical. Concretely:
//!
//! * [`poll_window`](ClusterBackend::poll_window) returns the next
//!   recorded [`WindowStats`] in one poll; virtual time is
//!   reconstructed from the recorded timeline (not from the caller's
//!   requested window).
//! * [`apply`](ClusterBackend::apply) is a **no-op against the tape**:
//!   it only updates the backend's notion of the counterfactual
//!   allocation and feeds the divergence log. Nothing can change what
//!   was recorded.
//! * When the counterfactual allocation differs from the recorded one,
//!   the replayed window is **re-based** onto it: `alloc_cores`
//!   becomes the counterfactual allocation, utilization is recomputed
//!   from the recorded CPU demand, and a *work-conservation check*
//!   marks the window saturated (infinite latency, zero completions)
//!   whenever some service's recorded demand rate exceeds its
//!   counterfactual quota — the paper-faithful "this allocation would
//!   have violated" signal. Latency of non-saturated diverged windows
//!   is a **recorded/fluid hybrid estimate**: the recorded quantiles
//!   are scaled by the fluid model's M/G/1-PS congestion ratio
//!   `(1−ρ_rec)/(1−ρ_cf)` at the bottleneck, and the tail quantiles
//!   additionally by the calibrated [`TailModel`]'s factor ratio
//!   between the two utilizations — so tightening an allocation raises
//!   the estimated tail before the hard saturation cliff, instead of
//!   the work-conservation check being the only counterfactual signal.
//!   When the counterfactual allocation is bit-identical to the
//!   recorded one the window is passed through **verbatim**, which is
//!   what makes same-policy replays reproduce the recorded decision
//!   sequence exactly.
//!
//! Each measured window appends an [`IntervalDivergence`] entry;
//! [`TraceBackend::summary`] folds them into a
//! [`DivergenceSummary`] whose [`is_zero`](DivergenceSummary::is_zero)
//! is the "same policy ⇒ same run" acceptance check CI enforces.

use crate::format::{Trace, TraceRecord};
use pema_control::{
    ClusterBackend, ControlLoop, HarnessConfig, Policy, RunResult, WindowPoll, WindowRequest,
};
use pema_sim::{Allocation, TailModel, WindowStats};

/// What a replay does when the tape runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OnExhausted {
    /// Panic with a clear message — replays must fit the recording.
    Stop,
    /// Wrap to the first record, shifting the reconstructed clock so
    /// virtual time keeps strictly increasing.
    Cycle,
}

/// Divergence between the recorded run and the policy-under-test for
/// one replayed interval.
#[derive(Debug, Clone)]
pub struct IntervalDivergence {
    /// Replay interval index (0-based; counts windows measured, which
    /// equals the record index until a cycling replay wraps).
    pub iter: usize,
    /// Total cores the recorded run held during this window.
    pub recorded_total: f64,
    /// Total cores the policy-under-test held during this window.
    pub replay_total: f64,
    /// Σ |counterfactual − recorded| over services, cores.
    pub l1_delta: f64,
    /// Whether the recorded window violated the trace's SLO.
    pub recorded_violated: bool,
    /// Whether the counterfactual window violates the trace's SLO
    /// (estimated latency, or forced saturation when the counterfactual
    /// allocation cannot carry the recorded demand).
    pub would_violate: bool,
    /// The p95 the tape recorded for this window, ms.
    pub recorded_p95_ms: f64,
    /// The counterfactual p95 estimate, ms: the recorded value for a
    /// non-diverged window, the recorded/fluid hybrid for a diverged
    /// one, infinite when the work-conservation check saturates.
    pub estimated_p95_ms: f64,
}

impl IntervalDivergence {
    /// True when the counterfactual allocation differed from the
    /// recorded one (beyond bit equality).
    pub fn diverged(&self) -> bool {
        self.l1_delta > 0.0
    }
}

/// Aggregate divergence of one replay.
#[derive(Debug, Clone, Default)]
pub struct DivergenceSummary {
    /// Windows replayed.
    pub intervals: usize,
    /// Windows whose counterfactual allocation differed from the tape.
    pub diverged_intervals: usize,
    /// Σ of per-interval L1 allocation deltas, cores.
    pub total_l1: f64,
    /// Largest per-interval L1 allocation delta, cores.
    pub max_l1: f64,
    /// Mean (counterfactual − recorded) total allocation, cores —
    /// negative when the policy-under-test is cheaper than the tape.
    pub mean_total_delta: f64,
    /// Recorded SLO violations over the replayed windows.
    pub recorded_violations: usize,
    /// Counterfactual SLO violations over the replayed windows.
    pub would_violations: usize,
    /// Mean signed (estimated − recorded) p95 over diverged windows
    /// where both sides are finite, ms. Negative: the policy-under-test
    /// would have *improved* tail latency relative to the tape.
    pub mean_p95_delta_ms: f64,
    /// Largest |estimated − recorded| p95 among those windows, ms.
    pub max_p95_delta_ms: f64,
    /// Diverged windows whose latency estimate is infinite (the
    /// work-conservation check saturated them).
    pub saturated_intervals: usize,
}

impl DivergenceSummary {
    /// True when the replay tracked the tape exactly: no allocation
    /// ever differed and the violation accounting matches. This is
    /// what a same-policy replay must satisfy.
    pub fn is_zero(&self) -> bool {
        self.diverged_intervals == 0 && self.would_violations == self.recorded_violations
    }
}

/// The trace-replay backend. See the module docs for the replay
/// contract and [`replay`] for the one-call driver.
pub struct TraceBackend {
    trace: Trace,
    cursor: usize,
    /// Clock shift accumulated by cycling wraps, seconds.
    wrap_offset_s: f64,
    on_exhausted: OnExhausted,
    /// Counterfactual allocation currently in force.
    alloc: Allocation,
    clock_s: f64,
    divergence: Vec<IntervalDivergence>,
}

impl TraceBackend {
    /// Replays the trace once; measuring past the last record panics.
    ///
    /// # Panics
    /// Panics if the trace has no records.
    pub fn new(trace: Trace) -> Self {
        Self::build(trace, OnExhausted::Stop)
    }

    /// Replays the trace in a loop, shifting reconstructed time on
    /// each wrap so `now_s` keeps strictly increasing. For drivers
    /// that run longer than the recording (e.g. scenario sweeps).
    ///
    /// # Panics
    /// Panics if the trace has no records.
    pub fn cycling(trace: Trace) -> Self {
        Self::build(trace, OnExhausted::Cycle)
    }

    fn build(trace: Trace, on_exhausted: OnExhausted) -> Self {
        assert!(
            !trace.records.is_empty(),
            "TraceBackend needs at least one recorded window"
        );
        trace.validate().expect("structurally invalid trace");
        let alloc = Allocation::new(trace.meta.initial_alloc.clone());
        let clock_s = trace.records[0].time_s;
        Self {
            trace,
            cursor: 0,
            wrap_offset_s: 0.0,
            on_exhausted,
            alloc,
            clock_s,
            divergence: Vec::new(),
        }
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Per-interval divergence log, one entry per measured window.
    pub fn divergence(&self) -> &[IntervalDivergence] {
        &self.divergence
    }

    /// Folds the divergence log into a summary.
    pub fn summary(&self) -> DivergenceSummary {
        let mut s = DivergenceSummary {
            intervals: self.divergence.len(),
            ..DivergenceSummary::default()
        };
        let mut delta_sum = 0.0;
        let mut p95_delta_sum = 0.0;
        let mut p95_delta_n = 0usize;
        for d in &self.divergence {
            if d.diverged() {
                s.diverged_intervals += 1;
                if d.estimated_p95_ms.is_finite() && d.recorded_p95_ms.is_finite() {
                    let delta = d.estimated_p95_ms - d.recorded_p95_ms;
                    p95_delta_sum += delta;
                    p95_delta_n += 1;
                    s.max_p95_delta_ms = s.max_p95_delta_ms.max(delta.abs());
                } else if d.estimated_p95_ms.is_infinite() {
                    s.saturated_intervals += 1;
                }
            }
            s.total_l1 += d.l1_delta;
            s.max_l1 = s.max_l1.max(d.l1_delta);
            delta_sum += d.replay_total - d.recorded_total;
            s.recorded_violations += d.recorded_violated as usize;
            s.would_violations += d.would_violate as usize;
        }
        if s.intervals > 0 {
            s.mean_total_delta = delta_sum / s.intervals as f64;
        }
        if p95_delta_n > 0 {
            s.mean_p95_delta_ms = p95_delta_sum / p95_delta_n as f64;
        }
        s
    }

    /// Advances the cursor and returns the record to replay plus the
    /// clock offset it must be shifted by.
    fn advance(&mut self) -> (usize, f64) {
        if self.cursor == self.trace.records.len() {
            match self.on_exhausted {
                OnExhausted::Stop => panic!(
                    "trace exhausted after {} recorded windows (strict replay; \
                     use TraceBackend::cycling to wrap)",
                    self.trace.records.len()
                ),
                OnExhausted::Cycle => {
                    // Shift subsequent windows by the recorded span so
                    // reconstructed time keeps strictly increasing.
                    let first = &self.trace.records[0];
                    let last = self.trace.records.last().unwrap();
                    let span = (last.stats.start_s + last.stats.duration_s) - first.time_s;
                    self.wrap_offset_s += span.max(1.0);
                    self.cursor = 0;
                }
            }
        }
        let idx = self.cursor;
        self.cursor += 1;
        (idx, self.wrap_offset_s)
    }

    /// Builds the counterfactual view of one recorded window under the
    /// allocation currently in force, and logs its divergence entry.
    fn counterfactual_window(&mut self, idx: usize, offset_s: f64) -> WindowStats {
        let slo_ms = self.trace.meta.slo_ms;
        let record = &self.trace.records[idx];
        let mut stats = rebase(record, &self.alloc);
        if offset_s != 0.0 {
            stats.start_s += offset_s;
        }
        let recorded_total: f64 = record.stats.per_service.iter().map(|s| s.alloc_cores).sum();
        let l1_delta: f64 = record
            .stats
            .per_service
            .iter()
            .enumerate()
            .map(|(i, s)| (self.alloc.get(i) - s.alloc_cores).abs())
            .sum();
        self.divergence.push(IntervalDivergence {
            iter: self.divergence.len(),
            recorded_total,
            replay_total: self.alloc.total(),
            l1_delta,
            recorded_violated: record.stats.violates(slo_ms),
            would_violate: stats.violates(slo_ms),
            recorded_p95_ms: record.stats.p95_ms,
            estimated_p95_ms: stats.p95_ms,
        });
        stats
    }
}

fn rebase(record: &TraceRecord, alloc: &Allocation) -> WindowStats {
    rebase_stats(&record.stats, alloc)
}

/// Re-bases a measured window onto a different allocation, using the
/// DES-calibrated [`TailModel::calibrated`] for the latency hybrid.
/// See [`rebase_stats_with`].
pub fn rebase_stats(recorded: &WindowStats, alloc: &Allocation) -> WindowStats {
    rebase_stats_with(recorded, alloc, &TailModel::calibrated())
}

/// Re-bases a measured window onto a different allocation.
///
/// Bit-identical allocation ⇒ the recorded stats verbatim. Otherwise
/// allocation-derived fields are recomputed from the recorded CPU
/// demand, and a work-conservation check saturates the window when the
/// counterfactual quota cannot carry that demand.
///
/// Non-saturated diverged windows get a **recorded/fluid hybrid**
/// latency estimate: recorded quantiles are anchored to ground truth,
/// and the allocation change is projected through the fluid model's
/// congestion shape. With ρ = bottleneck (recorded demand rate /
/// quota) on each side,
///
/// * mean and p50 scale by the M/G/1-PS ratio `(1−ρ_rec)/(1−ρ_cf)`;
/// * p95/p99/max additionally scale by the [`TailModel`]'s
///   load-dependent factor ratio `factor(ρ_cf)/factor(ρ_rec)`, so the
///   estimated tail sharpens the way DES calibration says it does as
///   the counterfactual allocation approaches saturation.
///
/// Both utilizations are clamped to 0.995 so a near-exact fit degrades
/// to a large-but-finite estimate instead of dividing by zero; the
/// hard "demand exceeds quota" case still saturates to infinity.
///
/// This is the replayer's counterfactual kernel, exposed publicly so
/// `pema-live`'s dry-run mode can project scraped windows onto its
/// shadow allocation: the recorded tape then carries exactly the
/// allocations the policy decided, which is what makes a dry-run tape
/// replay with zero divergence.
pub fn rebase_stats_with(
    recorded: &WindowStats,
    alloc: &Allocation,
    tail: &TailModel,
) -> WindowStats {
    let identical = recorded
        .per_service
        .iter()
        .enumerate()
        .all(|(i, s)| s.alloc_cores == alloc.get(i));
    let mut stats = recorded.clone();
    if identical {
        return stats;
    }
    let dur = recorded.duration_s.max(1e-9);
    let mut saturated = false;
    // Bottleneck utilization under each allocation, from the recorded
    // per-service demand rates.
    let mut rho_rec: f64 = 0.0;
    let mut rho_cf: f64 = 0.0;
    for (i, svc) in stats.per_service.iter_mut().enumerate() {
        let cf = alloc.get(i);
        let demanded = svc.cpu_used_s / dur; // recorded demand rate, cores
        if svc.alloc_cores > 0.0 {
            rho_rec = rho_rec.max(demanded / svc.alloc_cores);
        }
        if cf > 0.0 {
            rho_cf = rho_cf.max(demanded / cf);
        }
        svc.alloc_cores = cf;
        if demanded > cf {
            // The recorded work does not fit the counterfactual quota:
            // the service would have run throttled flat-out and the
            // backlog would have grown without bound.
            saturated = true;
            svc.cpu_used_s = cf * dur;
            svc.util_pct = 100.0;
            svc.throttled_s = dur;
        } else {
            svc.util_pct = if cf > 0.0 { demanded / cf * 100.0 } else { 0.0 };
        }
        // Per-second usage cannot exceed the quota.
        svc.usage_p90_cores = svc.usage_p90_cores.min(cf);
        svc.usage_peak_cores = svc.usage_peak_cores.min(cf);
    }
    if saturated {
        stats.mean_ms = f64::INFINITY;
        stats.p50_ms = f64::INFINITY;
        stats.p95_ms = f64::INFINITY;
        stats.p99_ms = f64::INFINITY;
        stats.max_ms = f64::INFINITY;
        stats.achieved_rps = 0.0;
        stats.completed = 0;
        return stats;
    }
    // Hybrid latency estimate. Clamp both sides below 1 (a window the
    // recording itself ran saturated has demand ≈ quota on the
    // recorded side too) and scale only finite recorded values —
    // a zero or infinite recorded quantile passes through unchanged.
    let rho_rec = rho_rec.clamp(0.0, 0.995);
    let rho_cf = rho_cf.clamp(0.0, 0.995);
    let congestion = (1.0 - rho_rec) / (1.0 - rho_cf);
    let scale = |v: &mut f64, extra: f64| {
        if v.is_finite() {
            *v *= congestion * extra;
        }
    };
    scale(&mut stats.mean_ms, 1.0);
    scale(&mut stats.p50_ms, 1.0);
    scale(
        &mut stats.p95_ms,
        tail.p95.factor(rho_cf) / tail.p95.factor(rho_rec),
    );
    scale(
        &mut stats.p99_ms,
        tail.p99.factor(rho_cf) / tail.p99.factor(rho_rec),
    );
    scale(
        &mut stats.max_ms,
        tail.max.factor(rho_cf) / tail.max.factor(rho_rec),
    );
    stats
}

impl ClusterBackend for TraceBackend {
    fn apply(&mut self, alloc: &Allocation) {
        assert_eq!(
            alloc.len(),
            self.trace.n_services(),
            "allocation length must match the recorded app ({} services)",
            self.trace.n_services()
        );
        // No-op against the tape: only the counterfactual view moves.
        self.alloc = alloc.clone();
    }

    fn allocation(&self) -> Allocation {
        self.alloc.clone()
    }

    fn poll_window(&mut self, req: &WindowRequest) -> WindowPoll {
        let (idx, offset) = self.advance();
        let mut stats = self.counterfactual_window(idx, offset);
        let aborted = match req.early {
            None => false,
            // A window the recording itself aborted is already truncated
            // (duration ≈ one check period): report it aborted as-is, so
            // replays of early-check runs reproduce the recorded
            // `early-…` action tags.
            Some(_) if self.trace.records[idx].action.starts_with("early-") => true,
            // Otherwise the recorded window ran full length and has no
            // intra-window trajectory left, so — like the fluid backend —
            // a violating window is caught at the first early check and
            // the interval shrinks to one check period, with
            // duration-proportional counters.
            Some(e) if stats.violates(e.slo_ms) && e.check_s < stats.duration_s => {
                let ratio = e.check_s / stats.duration_s;
                stats.duration_s = e.check_s;
                stats.completed = (stats.completed as f64 * ratio) as u64;
                stats.arrivals = (stats.arrivals as f64 * ratio) as u64;
                for svc in &mut stats.per_service {
                    svc.cpu_used_s *= ratio;
                    svc.throttled_s *= ratio;
                    svc.visits = (svc.visits as f64 * ratio) as u64;
                }
                true
            }
            Some(_) => false,
        };
        self.clock_s = stats.start_s + stats.duration_s;
        WindowPoll::Ready { stats, aborted }
    }

    fn now_s(&self) -> f64 {
        self.clock_s
    }
}

/// One replay of a trace under an arbitrary policy.
#[derive(Debug, Clone)]
pub struct ReplayRun {
    /// The replayed run, logged like any other control-loop run.
    pub result: RunResult,
    /// Per-interval divergence from the tape.
    pub divergence: Vec<IntervalDivergence>,
    /// Aggregate divergence.
    pub summary: DivergenceSummary,
}

/// Replays every recorded interval of `trace` under `policy`, driving
/// the real [`ControlLoop`] with the recorded per-interval offered
/// load and the recorded harness timing (including the recorded §6
/// early-check mode, when the header carries one).
pub fn replay<P: Policy>(trace: &Trace, policy: P) -> ReplayRun {
    let cfg = HarnessConfig {
        interval_s: trace.meta.interval_s,
        warmup_s: trace.meta.warmup_s,
        seed: trace.meta.backend_seed,
    };
    let rps: Vec<f64> = trace.records.iter().map(|r| r.rps).collect();
    let mut control = ControlLoop::new(TraceBackend::new(trace.clone()), policy, cfg);
    if let Some(check_s) = trace.meta.early_check_s {
        control = control.with_early_check(check_s);
    }
    for r in rps {
        control.step_once(r);
    }
    let divergence = control.backend.divergence().to_vec();
    let summary = control.backend.summary();
    ReplayRun {
        result: control.into_result(),
        divergence,
        summary,
    }
}
