//! The harness's wrappers must not change what the program computes.
//!
//! Each workload runs at a small size three times — bare, with the
//! latency wrappers of the untraced run, and with the span wrappers of
//! the traced run — and every member's log must match bit for bit. A
//! second group drives every `ClusterBackend` and `Policy` method
//! through a wrapper and a bare twin side by side, including the ones
//! the workloads never call (`measure_window*`, `cancel_window`,
//! `set_speed`).

use pema_control::{
    ClusterBackend, FluidBackend, HoldPolicy, Policy, RulePolicy, SimBackend, WindowPoll,
    WindowRequest,
};
use pema_sim::Allocation;
use perfbench::tap::{Call, Mode, Probe, TapBackend, TapPolicy};
use perfbench::workloads::{
    des_paper, fluid_fleet, live_fake, DesShape, Episode, FluidShape, LiveShape, RunOpts,
};

const KEEP: RunOpts = RunOpts {
    keep_logs: true,
    setup_only: false,
};

fn assert_same_outputs(raw: &Episode, wrapped: &Episode, what: &str) {
    assert!(!raw.member_bits.is_empty(), "{what}: no members logged");
    assert_eq!(
        raw.member_bits.len(),
        wrapped.member_bits.len(),
        "{what}: member count"
    );
    for (i, (a, b)) in raw.member_bits.iter().zip(&wrapped.member_bits).enumerate() {
        assert!(a == b, "{what}: member {i} logged different bits");
    }
    assert_eq!(raw.digest, wrapped.digest, "{what}: digest");
    let verdicts = |e: &Episode| {
        e.checks
            .iter()
            .map(|c| (c.name.clone(), c.ok))
            .collect::<Vec<_>>()
    };
    assert_eq!(verdicts(raw), verdicts(wrapped), "{what}: check verdicts");
}

fn assert_recorded(ep: &Episode, mode: Mode, what: &str) {
    let latencies: usize = ep.backends.iter().map(|b| b.latency_ns.len()).sum();
    assert_eq!(latencies, ep.intervals, "{what}: one latency per interval");
    let spans: usize = ep.backends.iter().map(|b| b.spans.len()).sum::<usize>()
        + ep.policies.iter().map(|p| p.spans.len()).sum::<usize>();
    match mode {
        Mode::Spans => {
            let decides = ep
                .policies
                .iter()
                .flat_map(|p| &p.spans)
                .filter(|s| s.call == Call::Decide)
                .count();
            assert_eq!(
                decides, ep.intervals,
                "{what}: one decide span per interval"
            );
        }
        _ => assert_eq!(spans, 0, "{what}: untraced run records no spans"),
    }
}

#[test]
fn fluid_fleet_wrappers_are_bit_invisible() {
    let shape = FluidShape {
        replicas: 1,
        iters: 12,
        threads: 2,
    };
    let raw = fluid_fleet(7, &shape, Mode::Raw, KEEP);
    assert_eq!(raw.intervals, 81 * 12);
    for mode in [Mode::Latency, Mode::Spans] {
        let wrapped = fluid_fleet(7, &shape, mode, KEEP);
        assert_same_outputs(&raw, &wrapped, &format!("fluid_fleet {mode:?}"));
        assert_recorded(&wrapped, mode, &format!("fluid_fleet {mode:?}"));
    }
}

#[test]
fn des_paper_wrappers_are_bit_invisible() {
    let shape = DesShape {
        replicas: 1,
        iters: 3,
        threads: 2,
    };
    let raw = des_paper(7, &shape, Mode::Raw, KEEP);
    assert!(raw.checks.iter().all(|c| c.ok), "{:?}", raw.checks);
    for mode in [Mode::Latency, Mode::Spans] {
        let wrapped = des_paper(7, &shape, mode, KEEP);
        assert_same_outputs(&raw, &wrapped, &format!("des_paper {mode:?}"));
        assert_recorded(&wrapped, mode, &format!("des_paper {mode:?}"));
    }
}

#[test]
fn live_fake_wrappers_are_bit_invisible() {
    let shape = LiveShape {
        intervals: 120,
        patch_faults: false,
    };
    let raw = live_fake(7, &shape, Mode::Raw, KEEP);
    assert!(raw.checks.iter().all(|c| c.ok), "{:?}", raw.checks);
    assert!(raw
        .live
        .as_ref()
        .is_some_and(|l| l.retries > 0 && l.patches > 0));
    for mode in [Mode::Latency, Mode::Spans] {
        let wrapped = live_fake(7, &shape, mode, KEEP);
        assert_same_outputs(&raw, &wrapped, &format!("live_fake {mode:?}"));
        assert_recorded(&wrapped, mode, &format!("live_fake {mode:?}"));
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    let shape = LiveShape {
        intervals: 60,
        patch_faults: false,
    };
    let a = live_fake(7, &shape, Mode::Raw, KEEP);
    let b = live_fake(8, &shape, Mode::Raw, KEEP);
    assert_ne!(a.digest, b.digest);
    assert_eq!(a.digest, live_fake(7, &shape, Mode::Raw, KEEP).digest);
}

/// Drives every backend method on a wrapped and a bare twin and
/// compares each result.
fn drive_both<B: ClusterBackend>(mut bare: B, mut wrapped: impl ClusterBackend) {
    let same = |a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug, what: &str| {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
    };
    for speed in [0.8, 1.0] {
        bare.set_speed(speed);
        wrapped.set_speed(speed);
        same(
            &bare.measure_window(300.0, 1.0, 6.0),
            &wrapped.measure_window(300.0, 1.0, 6.0),
            "measure_window",
        );
        same(
            &bare.measure_window_abortable(300.0, 1.0, 6.0, 2.0, 5.0),
            &wrapped.measure_window_abortable(300.0, 1.0, 6.0, 2.0, 5.0),
            "measure_window_abortable",
        );
    }
    // A window abandoned part-way, then a full one.
    let req = WindowRequest::new(300.0, 1.0, 8.0).with_early_check(2.0, 1e9);
    bare.begin_window(&req);
    wrapped.begin_window(&req);
    same(
        &bare.poll_window(&req),
        &wrapped.poll_window(&req),
        "first poll",
    );
    bare.cancel_window();
    wrapped.cancel_window();
    same(&bare.now_s(), &wrapped.now_s(), "now_s after cancel");
    bare.begin_window(&req);
    wrapped.begin_window(&req);
    loop {
        let (a, b) = (bare.poll_window(&req), wrapped.poll_window(&req));
        same(&a, &b, "poll");
        if matches!(a, WindowPoll::Ready { .. }) {
            break;
        }
    }
    let halved = Allocation::new(bare.allocation().0.iter().map(|c| c * 0.5).collect());
    bare.apply(&halved);
    wrapped.apply(&halved);
    same(&bare.allocation(), &wrapped.allocation(), "allocation");
    same(
        &bare.measure_window(300.0, 1.0, 6.0),
        &wrapped.measure_window(300.0, 1.0, 6.0),
        "window after apply",
    );
    same(&bare.now_s(), &wrapped.now_s(), "now_s");
}

#[test]
fn every_backend_method_is_forwarded() {
    let app = pema_apps::toy_chain();
    for mode in [Mode::Latency, Mode::Spans] {
        let probe = Probe::new(mode);
        drive_both(
            SimBackend::new(&app, 5),
            TapBackend::new(SimBackend::new(&app, 5), 0, &probe),
        );
        drive_both(
            FluidBackend::new(&app),
            TapBackend::new(FluidBackend::new(&app), 1, &probe),
        );
    }
}

#[test]
fn every_policy_method_is_forwarded() {
    let app = pema_apps::toy_chain();
    let stats = SimBackend::new(&app, 3).measure_window(150.0, 1.0, 6.0);
    for mode in [Mode::Latency, Mode::Spans] {
        let probe = Probe::new(mode);
        let mut bare = RulePolicy::new(&app);
        let mut wrapped = TapPolicy::new(RulePolicy::new(&app), 0, &probe);
        assert_eq!(bare.slo_ms().to_bits(), wrapped.slo_ms().to_bits());
        assert_eq!(
            format!("{:?}", bare.pre_interval(150.0)),
            format!("{:?}", wrapped.pre_interval(150.0))
        );
        assert_eq!(
            format!("{:?}", bare.decide(&stats)),
            format!("{:?}", wrapped.decide(&stats))
        );
        let mut bare = HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms);
        let mut wrapped = TapPolicy::new(
            HoldPolicy::new(app.generous_alloc.clone(), app.slo_ms),
            1,
            &probe,
        );
        assert_eq!(
            format!("{:?}", bare.pre_interval(150.0)),
            format!("{:?}", wrapped.pre_interval(150.0))
        );
        assert_eq!(
            format!("{:?}", bare.decide(&stats)),
            format!("{:?}", wrapped.decide(&stats))
        );
    }
}
