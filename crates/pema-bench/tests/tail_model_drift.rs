//! Drift tests for the DES-calibrated fluid tail model.
//!
//! The calibration contract (an acceptance criterion of the tail-model
//! work): `TailModel::calibrated()`'s load-dependent p95 curve must cut
//! the log-RMS error against DES knee sweeps to **at most half** of
//! the legacy constant factor's (`LEGACY_P95_FACTOR = 2.6`), and the
//! pinned coefficients must stay inside the DES-plausible band — close
//! to what a fresh fit on today's DES would produce. Two guards:
//!
//! * against the **committed calibration fixture**
//!   (`tests/fixtures/tail_knee_full.csv`, the full `bench run
//!   tail_knee` sweep) — fast, pins fit quality on the exact data the
//!   coefficients were fitted on;
//! * against a **live smoke probe** (the `tail_knee` smoke sweep
//!   re-run in-process) — catches the DES or the fluid mean drifting
//!   out from under the pinned coefficients, and byte-pins the smoke
//!   CSV (`tests/fixtures/tail_knee_smoke.csv`; kept out of
//!   `tests/goldens/`, which the golden-snapshot test reserves for the
//!   macro trio's own outputs).
//!
//! If these fail after an intentional engine change: re-run `bench run
//! tail_knee --force`, re-pin the `TAIL_*` constants in
//! `pema-sim/src/fluid.rs` from the printed fresh fit, and regenerate
//! the fixture + golden (see `docs/fluid-tail.md`).

use pema_bench::scenarios::tail_knee::{curve_rms, fit_curve, probe, KneePoint, SMOKE_SCALES};
use pema_sim::{TailModel, LEGACY_P95_FACTOR};
use std::path::{Path, PathBuf};

fn testdata(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(rel)
}

/// Parses `tail_knee.csv` rows back into probe points.
fn parse_fixture(csv: &str) -> Vec<KneePoint> {
    let mut points = Vec::new();
    for line in csv.lines().skip(1) {
        let f: Vec<f64> = line
            .split(',')
            .skip(3) // app, scale, rps
            .map(|t| t.parse().expect("numeric fixture field"))
            .collect();
        assert_eq!(f.len(), 8, "fixture row has {} numeric fields", f.len());
        points.push(KneePoint {
            rho: f[0],
            des_p95_ms: f[1],
            des_p99_ms: f[2],
            des_max_ms: f[3],
            fluid_mean_ms: f[5],
        });
    }
    assert!(points.len() >= 30, "full fixture should have 36 points");
    points
}

/// The headline criterion, on the exact data the coefficients were
/// fitted against: calibrated p95 error ≤ half the constant factor's.
#[test]
fn calibrated_model_halves_baseline_error_on_fixture() {
    let csv = std::fs::read_to_string(testdata("fixtures/tail_knee_full.csv"))
        .expect("committed calibration fixture");
    let points = parse_fixture(&csv);
    let cal = TailModel::calibrated();
    let flat = TailModel::constant(LEGACY_P95_FACTOR);

    let p95_cal = curve_rms(&points, &cal.p95, |p| p.des_p95_ms);
    let p95_flat = curve_rms(&points, &flat.p95, |p| p.des_p95_ms);
    assert!(
        p95_cal <= 0.5 * p95_flat,
        "calibrated p95 RMS {p95_cal:.3} must be ≤ half the flat baseline's {p95_flat:.3}"
    );

    let p99_cal = curve_rms(&points, &cal.p99, |p| p.des_p99_ms);
    let p99_flat = curve_rms(&points, &flat.p99, |p| p.des_p99_ms);
    assert!(
        p99_cal <= 0.5 * p99_flat,
        "calibrated p99 RMS {p99_cal:.3} must be ≤ half the flat baseline's {p99_flat:.3}"
    );

    let max_cal = curve_rms(&points, &cal.max, |p| p.des_max_ms);
    let max_flat = curve_rms(&points, &flat.max, |p| p.des_max_ms);
    assert!(
        max_cal <= max_flat,
        "calibrated max RMS {max_cal:.3} must not be worse than the flat baseline's {max_flat:.3}"
    );
}

/// Re-runs the smoke sweep live and checks the pinned model against a
/// fresh fit on today's DES: if either engine drifts, the pinned
/// coefficients stop being DES-plausible and this fails. Also pins the
/// smoke CSV byte-for-byte.
#[test]
fn pinned_model_stays_in_des_plausible_band() {
    // The smoke parameters `ctx.window(4.0, 20.0)` resolves to.
    let (rows, points) = probe(&SMOKE_SCALES, 1.0, 5.0);

    // Golden: the smoke sweep is deterministic.
    let golden_path = testdata("fixtures/tail_knee_smoke.csv");
    let golden = std::fs::read_to_string(&golden_path).expect("committed smoke golden");
    let fresh = format!(
        "{}\n{}\n",
        pema_bench::scenarios::tail_knee::CSV_HEADER,
        rows.join("\n")
    );
    assert_eq!(
        golden,
        fresh,
        "tail_knee smoke sweep diverged from {} — the DES or fluid \
         model changed behavior; regenerate per docs/fluid-tail.md",
        golden_path.display()
    );

    // Plausibility band: the pinned curves must stay within striking
    // distance of a fresh fit on this (smaller) sweep, and must still
    // halve the flat baseline here too.
    for (name, curve, des) in [
        (
            "p95",
            TailModel::calibrated().p95,
            (|p: &KneePoint| p.des_p95_ms) as fn(&KneePoint) -> f64,
        ),
        ("p99", TailModel::calibrated().p99, |p: &KneePoint| {
            p.des_p99_ms
        }),
    ] {
        let pinned_rms = curve_rms(&points, &curve, des);
        let fresh_fit = fit_curve(&points, des);
        let fit_rms = curve_rms(&points, &fresh_fit, des);
        let flat = TailModel::constant(LEGACY_P95_FACTOR);
        let flat_curve = if name == "p95" { flat.p95 } else { flat.p99 };
        let flat_rms = curve_rms(&points, &flat_curve, des);
        assert!(
            pinned_rms <= 0.5 * flat_rms,
            "{name}: pinned RMS {pinned_rms:.3} must stay ≤ half the flat {flat_rms:.3}"
        );
        assert!(
            pinned_rms <= fit_rms * 1.75 + 0.05,
            "{name}: pinned RMS {pinned_rms:.3} left the DES-plausible band \
             (fresh fit achieves {fit_rms:.3}) — re-pin the TAIL_* constants"
        );
    }
}
