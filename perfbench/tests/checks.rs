//! The output checks must be able to fail: faults that land on PATCHes
//! (which the live client does not retry) have to surface as failed
//! checks, not pass unnoticed.

use perfbench::tap::Mode;
use perfbench::workloads::{live_fake, LiveShape, RunOpts};

fn verdict(ep: &perfbench::workloads::Episode, name: &str) -> bool {
    ep.checks
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no check named {name:?}"))
        .ok
}

#[test]
fn faults_on_patches_fail_the_live_checks() {
    let shape = LiveShape {
        intervals: 300,
        patch_faults: true,
    };
    let ep = live_fake(1, &shape, Mode::Raw, RunOpts::default());
    let live = ep.live.as_ref().expect("live counts");
    assert!(live.failed_ops > 0, "no PATCH failed: {live:?}");
    assert!(verdict(&ep, "live: faults fired equal faults queued"));
    assert!(!verdict(&ep, "live: no operation failed"));
    assert!(!verdict(
        &ep,
        "trace: same-policy replay has zero divergence"
    ));
}

#[test]
fn the_benchmark_schedule_passes_every_check() {
    let shape = LiveShape {
        intervals: 300,
        patch_faults: false,
    };
    let ep = live_fake(1, &shape, Mode::Raw, RunOpts::default());
    let failed: Vec<_> = ep.checks.iter().filter(|c| !c.ok).collect();
    assert!(failed.is_empty(), "{failed:?}");
    assert!(ep.live.as_ref().is_some_and(|l| l.faults_injected > 0));
}
