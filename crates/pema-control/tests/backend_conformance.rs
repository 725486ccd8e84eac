//! Backend-conformance suite: every [`ClusterBackend`] must honour the
//! same loop-facing contract, whatever is underneath it. The suite runs
//! against all four shipped backends ([`SimBackend`], [`FluidBackend`],
//! `pema_trace::TraceBackend` replaying a freshly recorded DES run, and
//! `pema_live::LiveBackend` scraping a loopback
//! [`FakeCluster`](pema_live::FakeCluster) over real HTTP); any further
//! adapter should be added to [`each_backend`] and pass unchanged.
//!
//! Pinned invariants:
//! * `apply` takes effect before the next measurement (both directly
//!   and through a [`ControlLoop`] pre-interval switch);
//! * virtual time strictly advances across measurements;
//! * an early-abort check shortens the reported `duration_s` on an SLO
//!   breach and leaves healthy windows untouched;
//! * violation accounting: a permanently starved run marks every
//!   interval violated and `violating_time_s` sums the (shortened)
//!   interval lengths;
//! * the non-blocking seam (`begin_window`/`poll_window`) is
//!   result-identical to the blocking one — plain windows match
//!   `measure_window`, early-check cancellation matches
//!   `measure_window_abortable` — and `now_s` stays monotone while
//!   windows of several backends are polled interleaved (the fleet
//!   scheduler's contract);
//! * the DES poll seam reproduces the engine's own blocking
//!   `ClusterSim::run_window` / `run_window_abortable` bit for bit.

use pema_control::{
    ClusterBackend, ControlLoop, Experiment, FluidBackend, HarnessConfig, HoldPolicy, Instrumented,
    SimBackend, WindowPoll, WindowRequest,
};
use pema_live::{live_over_fake, Fault};
use pema_sim::{Allocation, AppSpec, ClusterSim, WindowStats, MIN_ALLOC};
use pema_telemetry::Telemetry;
use pema_trace::{TraceBackend, TraceRecorder};

/// Records a healthy DES run of `app` to replay in the conformance
/// checks: six 8-second windows under the generous allocation. Long
/// enough for every check below (none measures more than four
/// windows), and recorded at the longest window any check requests so
/// the replayed `duration_s` satisfies the full-length assertion.
fn conformance_trace(app: &AppSpec) -> pema_trace::Trace {
    let cfg = HarnessConfig {
        interval_s: 8.0,
        warmup_s: 1.0,
        seed: 42,
    };
    let recorder = TraceRecorder::new(app, "hold", 0, &cfg);
    let handle = recorder.handle();
    Experiment::builder()
        .app(app)
        .policy(HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms))
        .config(cfg)
        .rps(120.0)
        .iters(6)
        .observer(recorder)
        .run();
    handle.take()
}

/// The offered load the live fake cluster serves. All conformance
/// checks drive loads (100–150 rps) whose healthy/starved verdicts on
/// the toy chain match this one's, so a single constant keeps the
/// fake's telemetry consistent across checks.
const LIVE_RPS: f64 = 120.0;

/// Runs `check` once per shipped backend, labelled for assertions —
/// then once more per backend wrapped in [`Instrumented`], which must
/// pass every check unchanged (the wrapper's bit-invisibility
/// contract).
fn each_backend(app: &AppSpec, check: impl Fn(&str, Box<dyn ClusterBackend>)) {
    check("sim", Box::new(SimBackend::new(app, 42)));
    check("fluid", Box::new(FluidBackend::new(app)));
    check("trace", Box::new(TraceBackend::new(conformance_trace(app))));
    check("live", Box::new(live_over_fake(app, LIVE_RPS)));
    let hub = Telemetry::new();
    check(
        "sim+instrumented",
        Box::new(Instrumented::new(SimBackend::new(app, 42), &hub, "sim")),
    );
    check(
        "fluid+instrumented",
        Box::new(Instrumented::new(FluidBackend::new(app), &hub, "fluid")),
    );
    check(
        "trace+instrumented",
        Box::new(Instrumented::new(
            TraceBackend::new(conformance_trace(app)),
            &hub,
            "trace",
        )),
    );
    check(
        "live+instrumented",
        Box::new(Instrumented::new(
            live_over_fake(app, LIVE_RPS),
            &hub,
            "live",
        )),
    );
}

/// Runs `check` once per shipped backend with *two* identically
/// constructed instances — for proving two driving styles equivalent.
fn each_backend_pair(
    app: &AppSpec,
    check: impl Fn(&str, Box<dyn ClusterBackend>, Box<dyn ClusterBackend>),
) {
    check(
        "sim",
        Box::new(SimBackend::new(app, 42)),
        Box::new(SimBackend::new(app, 42)),
    );
    check(
        "fluid",
        Box::new(FluidBackend::new(app)),
        Box::new(FluidBackend::new(app)),
    );
    let tape = conformance_trace(app);
    check(
        "trace",
        Box::new(TraceBackend::new(tape.clone())),
        Box::new(TraceBackend::new(tape)),
    );
    // Two independent fake clusters: the fluid model behind them is
    // deterministic, so identically driven instances stay bit-equal.
    check(
        "live",
        Box::new(live_over_fake(app, LIVE_RPS)),
        Box::new(live_over_fake(app, LIVE_RPS)),
    );
    // Asymmetric instrumentation: the blocking instance stays bare
    // while the polled one is wrapped — the two seams must *still*
    // agree, which is the sharpest bit-invisibility check the pair
    // helpers can express.
    let hub = Telemetry::new();
    check(
        "sim+instrumented",
        Box::new(SimBackend::new(app, 42)),
        Box::new(Instrumented::new(SimBackend::new(app, 42), &hub, "sim")),
    );
    check(
        "fluid+instrumented",
        Box::new(FluidBackend::new(app)),
        Box::new(Instrumented::new(FluidBackend::new(app), &hub, "fluid")),
    );
}

/// Drives one window through the non-blocking seam to completion,
/// asserting `now_s` never moves backwards between polls. Returns the
/// stats, the abort flag, and how many `Pending` polls occurred.
fn poll_to_ready(b: &mut dyn ClusterBackend, req: &WindowRequest) -> (WindowStats, bool, usize) {
    b.begin_window(req);
    let mut last_now = b.now_s();
    let mut pendings = 0usize;
    loop {
        match b.poll_window(req) {
            WindowPoll::Pending { resume_at_s } => {
                pendings += 1;
                assert!(resume_at_s.is_finite(), "resume_at_s must be finite");
                let now = b.now_s();
                assert!(
                    now >= last_now,
                    "now_s moved backwards mid-window: {last_now} → {now}"
                );
                last_now = now;
            }
            WindowPoll::Ready { stats, aborted } => return (stats, aborted, pendings),
        }
    }
}

fn app() -> AppSpec {
    pema_apps::toy_chain() // 3 services, SLO 100 ms
}

/// A load/allocation pair that deeply saturates the toy chain on both
/// backends (every service at the 0.05-core floor at 150 rps).
fn starved(app: &AppSpec) -> Allocation {
    Allocation::new(vec![MIN_ALLOC; app.n_services()])
}

#[test]
fn apply_is_visible_in_allocation_and_measurement() {
    let app = app();
    let target = Allocation::new(vec![0.9, 0.8, 0.7]);
    each_backend(&app, |name, mut b| {
        b.apply(&target);
        let read_back = b.allocation();
        for i in 0..app.n_services() {
            assert_eq!(
                read_back.get(i),
                target.get(i),
                "{name}: allocation() must read back what apply() set"
            );
        }
        let stats = b.measure_window(120.0, 1.0, 5.0);
        for (i, s) in stats.per_service.iter().enumerate() {
            assert_eq!(
                s.alloc_cores,
                target.get(i),
                "{name}: the measured window must see the applied allocation"
            );
        }
    });
}

#[test]
fn virtual_time_strictly_advances() {
    let app = app();
    each_backend(&app, |name, mut b| {
        let t0 = b.now_s();
        b.measure_window(100.0, 1.0, 4.0);
        let t1 = b.now_s();
        b.measure_window(100.0, 1.0, 4.0);
        let t2 = b.now_s();
        assert!(t1 > t0 && t2 > t1, "{name}: time went {t0} → {t1} → {t2}");
    });
}

#[test]
fn early_abort_shortens_violating_windows_only() {
    let app = app();
    each_backend(&app, |name, mut b| {
        // Healthy: generous allocation, no abort, full window.
        let (healthy, aborted) = b.measure_window_abortable(120.0, 1.0, 8.0, 2.0, app.slo_ms);
        assert!(!aborted, "{name}: healthy window must not abort");
        assert!(
            healthy.duration_s > 0.9 * 8.0,
            "{name}: healthy window must run (close to) full length, got {}",
            healthy.duration_s
        );

        // Starved: the p95 breach must cut the window to ~one check.
        b.apply(&starved(&app));
        let (sick, aborted) = b.measure_window_abortable(150.0, 1.0, 8.0, 2.0, app.slo_ms);
        assert!(aborted, "{name}: saturated window must abort early");
        assert!(
            sick.duration_s < 8.0 / 2.0,
            "{name}: aborted window must be much shorter than requested, got {}",
            sick.duration_s
        );
        assert!(
            sick.violates(app.slo_ms),
            "{name}: aborted window must still report the violation"
        );
    });
}

#[test]
fn loop_applies_pre_interval_allocation_before_measuring() {
    let app = app();
    let held = vec![0.6, 0.5, 0.4];
    let total: f64 = held.iter().sum();
    each_backend(&app, |name, b| {
        let mut control = ControlLoop::new(
            b,
            HoldPolicy::new(held.clone(), app.slo_ms),
            HarnessConfig {
                interval_s: 5.0,
                warmup_s: 1.0,
                seed: 7,
            },
        );
        for _ in 0..3 {
            let log = control.step_once(120.0);
            // `total_cpu` is the allocation in force *during* the
            // window: from the very first interval it must be the held
            // allocation, not the generous start.
            assert!(
                (log.total_cpu - total).abs() < 1e-9,
                "{name}: interval {} ran under {} cores, expected {total}",
                log.iter,
                log.total_cpu
            );
        }
    });
}

#[test]
fn nonblocking_seam_matches_measure_window() {
    // Three consecutive plain windows driven through begin/poll must be
    // result-identical to the blocking measure_window path, interval by
    // interval, with the same virtual timeline — the fleet scheduler
    // changes nothing about what a window measures.
    let app = app();
    each_backend_pair(&app, |name, mut blocking, mut polled| {
        for i in 0..3 {
            let req = WindowRequest::new(120.0, 1.0, 5.0);
            let want = blocking.measure_window(req.rps, req.warmup_s, req.window_s);
            let (got, aborted, _) = poll_to_ready(&mut *polled, &req);
            assert!(!aborted, "{name}: plain window {i} must not abort");
            assert_eq!(
                want, got,
                "{name}: window {i} differs between the blocking and non-blocking seams"
            );
            assert_eq!(
                blocking.now_s().to_bits(),
                polled.now_s().to_bits(),
                "{name}: virtual clocks diverged after window {i}"
            );
        }
    });
}

#[test]
fn nonblocking_cancellation_matches_measure_window_abortable() {
    let app = app();
    each_backend_pair(&app, |name, mut blocking, mut polled| {
        // Healthy window under early checks: no cancellation, and for
        // backends with intra-window visibility (the DES) the window
        // must actually be served in several polls — that is what lets
        // a fleet interleave other loops between checks instead of
        // spinning inside measure_window_abortable.
        let req = WindowRequest::new(120.0, 1.0, 8.0).with_early_check(2.0, app.slo_ms);
        let (want, want_abort) =
            blocking.measure_window_abortable(120.0, 1.0, 8.0, 2.0, app.slo_ms);
        let (got, got_abort, pendings) = poll_to_ready(&mut *polled, &req);
        assert!(!want_abort && !got_abort, "{name}: healthy window aborted");
        assert_eq!(want, got, "{name}: healthy early-check window differs");
        if name == "sim" {
            assert!(
                pendings >= 2,
                "{name}: an 8 s window at 2 s checks must take several polls, got {pendings}"
            );
        }

        // Starved window: the breach must cancel it at a check boundary
        // with exactly the stats the blocking abortable path reports.
        blocking.apply(&starved(&app));
        polled.apply(&starved(&app));
        let req = WindowRequest::new(150.0, 1.0, 8.0).with_early_check(2.0, app.slo_ms);
        let (want, want_abort) =
            blocking.measure_window_abortable(150.0, 1.0, 8.0, 2.0, app.slo_ms);
        let (got, got_abort, _) = poll_to_ready(&mut *polled, &req);
        assert!(want_abort, "{name}: starved window must abort (blocking)");
        assert!(got_abort, "{name}: starved window must abort (polled)");
        assert_eq!(
            want, got,
            "{name}: cancelled window differs between the seams"
        );
        assert_eq!(
            blocking.now_s().to_bits(),
            polled.now_s().to_bits(),
            "{name}: virtual clocks diverged after the cancelled window"
        );
    });
}

#[test]
fn now_s_monotone_across_interleaved_windows() {
    // The fleet scheduler polls many backends' windows interleaved;
    // each backend's clock must advance monotonically regardless of
    // what happens to the others between its polls.
    let app = app();
    each_backend_pair(&app, |name, mut a, mut b| {
        let req = WindowRequest::new(120.0, 1.0, 8.0).with_early_check(2.0, app.slo_ms);
        let t0a = a.now_s();
        let t0b = b.now_s();
        a.begin_window(&req);
        b.begin_window(&req);
        let (mut last_a, mut last_b) = (a.now_s(), b.now_s());
        assert!(
            last_a >= t0a && last_b >= t0b,
            "{name}: begin went backwards"
        );
        let (mut done_a, mut done_b) = (false, false);
        while !(done_a && done_b) {
            if !done_a {
                done_a = matches!(a.poll_window(&req), WindowPoll::Ready { .. });
                let now = a.now_s();
                assert!(now >= last_a, "{name}: a went {last_a} → {now}");
                last_a = now;
            }
            if !done_b {
                done_b = matches!(b.poll_window(&req), WindowPoll::Ready { .. });
                let now = b.now_s();
                assert!(now >= last_b, "{name}: b went {last_b} → {now}");
                last_b = now;
            }
        }
        assert!(
            last_a > t0a && last_b > t0b,
            "{name}: a completed window must advance the clock"
        );
        // A subsequent window keeps advancing strictly.
        let next = WindowRequest::new(120.0, 1.0, 4.0);
        let (_, _, _) = poll_to_ready(&mut *a, &next);
        assert!(
            a.now_s() > last_a,
            "{name}: the next window must advance the clock further"
        );
    });
}

#[test]
fn violation_accounting_sums_shortened_intervals() {
    let app = app();
    each_backend(&app, |name, b| {
        let floor = starved(&app);
        let mut control = ControlLoop::new(
            b,
            HoldPolicy::new(floor.0.clone(), app.slo_ms),
            HarnessConfig {
                interval_s: 8.0,
                warmup_s: 1.0,
                seed: 9,
            },
        )
        .with_early_check(2.0);
        for _ in 0..4 {
            control.step_once(150.0);
        }
        let result = control.into_result();
        assert_eq!(
            result.violations(),
            4,
            "{name}: every starved interval must count as a violation"
        );
        assert!(
            (result.violation_rate() - 1.0).abs() < 1e-12,
            "{name}: violation rate must be 1.0"
        );
        let expected: f64 = result.log.iter().map(|l| l.interval_s).sum();
        assert!(
            (result.violating_time_s() - expected).abs() < 1e-9,
            "{name}: violating_time_s must sum the measured interval lengths"
        );
        // Early checks shortened every interval.
        for l in &result.log {
            assert!(
                l.interval_s < 8.0 / 2.0,
                "{name}: interval {} ran {}s despite early checks",
                l.iter,
                l.interval_s
            );
            assert!(
                l.action.starts_with("early-"),
                "{name}: aborted interval must carry the early- action tag, got {}",
                l.action
            );
        }
    });
}

#[test]
fn live_backend_rides_out_first_poll_flakiness() {
    // Network-flakiness conformance: the live backend's first scrape
    // attempt hits a dropped connection; the retry policy absorbs it.
    // The window must still complete un-degraded, `now_s` must stay
    // monotone across the polls (checked inside `poll_to_ready`), and
    // no typed measurement error may be recorded.
    let app = app();
    let mut live = live_over_fake(&app, LIVE_RPS);
    live.cluster.inject_fault(Fault::DropConnection);
    let req = WindowRequest::new(LIVE_RPS, 1.0, 8.0);
    let (stats, aborted, _) = poll_to_ready(&mut live, &req);
    assert!(
        !aborted,
        "live: a transient fault must not abort the window"
    );
    assert!(
        stats.p95_ms.is_finite(),
        "live: the retried scrape must recover real telemetry"
    );
    assert!(
        live.backend.errors().is_empty(),
        "live: an absorbed fault must not surface as an error: {:?}",
        live.backend.errors()
    );
    // The retry backoff consumes real (fake-clock) time, so the clock
    // ends at or slightly past the window boundary — never before it.
    let now = live.now_s();
    assert!(
        (9.0..10.0).contains(&now),
        "live: clock must land at warmup + window (+ one short backoff), got {now}"
    );
    assert_eq!(stats.duration_s.to_bits(), 8.0f64.to_bits());
}

/// Every field of a window, floats as raw bits, in declaration order.
fn stats_bits(s: &WindowStats) -> Vec<u64> {
    let mut bits = vec![
        s.start_s.to_bits(),
        s.duration_s.to_bits(),
        s.offered_rps.to_bits(),
        s.achieved_rps.to_bits(),
        s.completed,
        s.arrivals,
        s.mean_ms.to_bits(),
        s.p50_ms.to_bits(),
        s.p95_ms.to_bits(),
        s.p99_ms.to_bits(),
        s.max_ms.to_bits(),
    ];
    for svc in &s.per_service {
        bits.extend([
            svc.alloc_cores.to_bits(),
            svc.util_pct.to_bits(),
            svc.cpu_used_s.to_bits(),
            svc.throttled_s.to_bits(),
            svc.usage_p90_cores.to_bits(),
            svc.usage_peak_cores.to_bits(),
            svc.mem_bytes.to_bits(),
            svc.visits,
            svc.mean_self_ms.to_bits(),
            svc.mean_visit_ms.to_bits(),
        ]);
    }
    bits
}

#[test]
fn sim_poll_seam_matches_the_engine_blocking_windows() {
    // The DES reference: `SimBackend` measures only through the poll
    // seam, so tie that seam to the engine's own blocking windows. A
    // fresh `ClusterSim` built like `SimBackend::new` (same seed, same
    // 8×SLO request timeout) runs `run_window` / `run_window_abortable`
    // beside it; stats, abort flags and clocks must agree bit for bit.
    let app = app();
    let mut polled = SimBackend::new(&app, 42);
    let mut engine = ClusterSim::new(&app, 42);
    engine.set_request_timeout(Some(app.slo_ms / 1e3 * 8.0));
    let same = |what: &str, got: &(WindowStats, bool), want: &(WindowStats, bool)| {
        assert_eq!(
            stats_bits(&got.0),
            stats_bits(&want.0),
            "{what}: stats differ from the engine"
        );
        assert_eq!(got.1, want.1, "{what}: abort flag differs from the engine");
    };

    let req = WindowRequest::new(120.0, 1.0, 5.0);
    let (stats, aborted, _) = poll_to_ready(&mut polled, &req);
    let want = (engine.run_window(120.0, 1.0, 5.0), false);
    same("plain window", &(stats, aborted), &want);
    assert_eq!(polled.now_s().to_bits(), engine.now().as_secs().to_bits());

    let req = WindowRequest::new(120.0, 1.0, 8.0).with_early_check(2.0, app.slo_ms);
    let (stats, aborted, _) = poll_to_ready(&mut polled, &req);
    let want = engine.run_window_abortable(120.0, 1.0, 8.0, 2.0, app.slo_ms);
    assert!(!want.1, "the healthy reference window must not abort");
    same("healthy early-check window", &(stats, aborted), &want);
    assert_eq!(polled.now_s().to_bits(), engine.now().as_secs().to_bits());

    polled.apply(&starved(&app));
    engine.set_allocation(&starved(&app));
    let req = WindowRequest::new(150.0, 1.0, 8.0).with_early_check(2.0, app.slo_ms);
    let (stats, aborted, _) = poll_to_ready(&mut polled, &req);
    let want = engine.run_window_abortable(150.0, 1.0, 8.0, 2.0, app.slo_ms);
    assert!(want.1, "the starved reference window must abort");
    same("aborted window", &(stats, aborted), &want);
    assert_eq!(polled.now_s().to_bits(), engine.now().as_secs().to_bits());
}
