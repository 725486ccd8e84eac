//! Bit-identity oracle for the compiled fluid model.
//!
//! `FluidEvaluator` compiles an `AppSpec` into flat per-service and
//! post-order endpoint tables and evaluates them in two iterative
//! passes. This file keeps the straightforward recursive evaluator it
//! replaced — one `visit_sojourn`/`throttle_fraction` call per service,
//! a recursive walk of the endpoint tree per class — as a reference,
//! and checks that both produce the same `WindowStats`, field by field
//! and bit for bit, on random allocations (saturated ones included),
//! loads, speeds, window lengths and knob settings.

use pema_sim::runtime::CFS_PERIOD_S;
use pema_sim::topology::{CallGroup, EndpointNode, NodeSpec, RequestClass};
use pema_sim::{
    Allocation, AppSpec, Evaluator, FluidEvaluator, ServiceId, ServiceSpec, ServiceWindowStats,
    TailCurve, TailModel, WindowStats,
};

/// The recursive fluid evaluator, as it stood before the compiled
/// model: it walks the `AppSpec` on every call.
struct Reference {
    app: AppSpec,
    visits: Vec<f64>,
    demand: Vec<f64>,
    speed: f64,
    window_s: f64,
    burst_p90: f64,
    peak_factor: f64,
    tail: TailModel,
}

impl Reference {
    fn new(app: &AppSpec, f: &FluidEvaluator) -> Self {
        Self {
            app: app.clone(),
            visits: app.expected_visits(),
            demand: app.expected_demand(),
            speed: f.speed,
            window_s: f.window_s,
            burst_p90: f.burst_p90,
            peak_factor: f.peak_factor,
            tail: f.tail,
        }
    }

    fn visit_demand(&self, i: usize) -> f64 {
        if self.visits[i] > 0.0 {
            self.demand[i] / self.visits[i] / self.speed
        } else {
            0.0
        }
    }

    fn utilization(&self, i: usize, alloc: f64, lambda_i: f64) -> f64 {
        lambda_i * self.visit_demand(i) / alloc
    }

    fn bottleneck_rho(&self, alloc: &Allocation, rps: f64) -> f64 {
        (0..self.app.services.len())
            .map(|i| self.utilization(i, alloc.get(i), rps * self.visits[i]))
            .fold(0.0, f64::max)
    }

    fn visit_sojourn(&self, i: usize, alloc: f64, lambda_i: f64) -> f64 {
        let d_visit = self.visit_demand(i);
        if d_visit == 0.0 {
            return 0.0;
        }
        let rho = lambda_i * d_visit / alloc;
        if rho >= 1.0 {
            return f64::INFINITY;
        }
        let base = d_visit / (1.0 - rho);
        let quota = alloc * CFS_PERIOD_S;
        let nu = lambda_i * CFS_PERIOD_S;
        let p_throttle = if nu > 0.0 && d_visit > 0.0 {
            let thresh = quota / d_visit;
            normal_tail((thresh - nu) / nu.sqrt().max(1e-9))
        } else {
            0.0
        };
        base + p_throttle * CFS_PERIOD_S * 0.5
    }

    fn throttle_fraction(&self, i: usize, alloc: f64, lambda_i: f64) -> f64 {
        let d_visit = self.visit_demand(i);
        if d_visit == 0.0 {
            return 0.0;
        }
        let rho = lambda_i * d_visit / alloc;
        if rho >= 1.0 {
            return 1.0;
        }
        let quota = alloc * CFS_PERIOD_S;
        let nu = lambda_i * CFS_PERIOD_S;
        if nu <= 0.0 || d_visit <= 0.0 {
            return 0.0;
        }
        let thresh = quota / d_visit;
        normal_tail((thresh - nu) / nu.sqrt().max(1e-9))
    }

    fn endpoint_latency(&self, e: usize, sojourn: &[f64]) -> f64 {
        let ep = &self.app.endpoints[e];
        let own = sojourn[ep.service.0] * ep.work_scale.max(0.0);
        let mut total = own;
        for g in &ep.groups {
            let mut group_latency: f64 = 0.0;
            for &(child, p) in &g.calls {
                let l = p * (self.endpoint_latency(child, sojourn) + 2.0 * self.app.net_delay_s);
                group_latency = group_latency.max(l);
            }
            total += group_latency;
        }
        total
    }

    fn evaluate(&self, alloc: &Allocation, rps: f64) -> WindowStats {
        let n = self.app.services.len();
        let mut sojourn = vec![0.0; n];
        let mut per_service = Vec::with_capacity(n);
        let mut rho_max: f64 = 0.0;
        for i in 0..n {
            let lambda_i = rps * self.visits[i];
            sojourn[i] = self.visit_sojourn(i, alloc.get(i), lambda_i);
            rho_max = rho_max.max(self.utilization(i, alloc.get(i), lambda_i));
            let cpu_rate = (rps * self.demand[i] / self.speed).min(alloc.get(i));
            let util = cpu_rate / alloc.get(i) * 100.0;
            let thr_frac = self.throttle_fraction(i, alloc.get(i), lambda_i);
            per_service.push(ServiceWindowStats {
                alloc_cores: alloc.get(i),
                util_pct: util,
                cpu_used_s: cpu_rate * self.window_s,
                throttled_s: thr_frac * self.window_s,
                usage_p90_cores: cpu_rate * self.burst_p90,
                usage_peak_cores: cpu_rate * self.peak_factor.max(self.burst_p90),
                mem_bytes: self.app.services[i].mem_base_bytes,
                visits: (lambda_i * self.window_s).round() as u64,
                mean_self_ms: self.visit_demand(i) * 1e3,
                mean_visit_ms: sojourn[i] * 1e3,
            });
        }
        let total_w: f64 = self.app.classes.iter().map(|c| c.weight).sum();
        let mut mean_s = 0.0;
        for c in &self.app.classes {
            mean_s += c.weight / total_w * self.endpoint_latency(c.root, &sojourn);
        }
        let p95 = mean_s * self.tail.p95.factor(rho_max);
        let p99 = mean_s * self.tail.p99.factor(rho_max);
        let max = mean_s * self.tail.max.factor(rho_max);
        let completed = (rps * self.window_s).round() as u64;
        WindowStats {
            start_s: 0.0,
            duration_s: self.window_s,
            offered_rps: rps,
            achieved_rps: if mean_s.is_finite() { rps } else { 0.0 },
            completed: if mean_s.is_finite() { completed } else { 0 },
            arrivals: completed,
            mean_ms: mean_s * 1e3,
            p50_ms: mean_s * 0.8 * 1e3,
            p95_ms: p95 * 1e3,
            p99_ms: p99 * 1e3,
            max_ms: max * 1e3,
            per_service,
        }
    }
}

fn normal_tail(z: f64) -> f64 {
    if z >= 8.0 {
        return 0.0;
    }
    if z <= -8.0 {
        return 1.0;
    }
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// SplitMix64: a self-contained, seedable input stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// One field-by-field bit comparison, naming the first field that
/// differs.
fn assert_bits(what: &str, case: usize, got: &WindowStats, want: &WindowStats) {
    let top = [
        ("start_s", got.start_s, want.start_s),
        ("duration_s", got.duration_s, want.duration_s),
        ("offered_rps", got.offered_rps, want.offered_rps),
        ("achieved_rps", got.achieved_rps, want.achieved_rps),
        ("mean_ms", got.mean_ms, want.mean_ms),
        ("p50_ms", got.p50_ms, want.p50_ms),
        ("p95_ms", got.p95_ms, want.p95_ms),
        ("p99_ms", got.p99_ms, want.p99_ms),
        ("max_ms", got.max_ms, want.max_ms),
    ];
    for (field, g, w) in top {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what} case {case}: {field} {g} vs reference {w}"
        );
    }
    assert_eq!(
        got.completed, want.completed,
        "{what} case {case}: completed"
    );
    assert_eq!(got.arrivals, want.arrivals, "{what} case {case}: arrivals");
    assert_eq!(got.per_service.len(), want.per_service.len());
    for (i, (g, w)) in got.per_service.iter().zip(&want.per_service).enumerate() {
        let fields = [
            ("alloc_cores", g.alloc_cores, w.alloc_cores),
            ("util_pct", g.util_pct, w.util_pct),
            ("cpu_used_s", g.cpu_used_s, w.cpu_used_s),
            ("throttled_s", g.throttled_s, w.throttled_s),
            ("usage_p90_cores", g.usage_p90_cores, w.usage_p90_cores),
            ("usage_peak_cores", g.usage_peak_cores, w.usage_peak_cores),
            ("mem_bytes", g.mem_bytes, w.mem_bytes),
            ("mean_self_ms", g.mean_self_ms, w.mean_self_ms),
            ("mean_visit_ms", g.mean_visit_ms, w.mean_visit_ms),
        ];
        for (field, gv, wv) in fields {
            assert_eq!(
                gv.to_bits(),
                wv.to_bits(),
                "{what} case {case}: service {i} {field} {gv} vs reference {wv}"
            );
        }
        assert_eq!(g.visits, w.visits, "{what} case {case}: service {i} visits");
    }
}

/// A typical offered load for the app: the rate at which its generous
/// allocation runs at about 40% utilization on its tightest service.
fn nominal_rps(app: &AppSpec) -> f64 {
    let demand = app.expected_demand();
    let worst = demand
        .iter()
        .zip(&app.generous_alloc)
        .map(|(d, a)| d / a)
        .fold(0.0, f64::max);
    0.4 / worst
}

/// Drives `cases` random evaluations of `app` through both evaluators
/// and checks every field bit for bit.
fn check_app(what: &str, app: &AppSpec, seed: u64, cases: usize) {
    let mut rng = Rng(seed);
    let mut fluid = FluidEvaluator::new(app);
    let rps0 = nominal_rps(app);
    let n = app.services.len();
    for case in 0..cases {
        // Knobs: mostly defaults, sometimes moved, so the per-service
        // telemetry and the tail map are exercised off their defaults.
        fluid.speed = if rng.chance(0.5) {
            1.0
        } else {
            rng.range(0.25, 3.0)
        };
        fluid.window_s = if rng.chance(0.5) {
            20.0
        } else {
            rng.range(0.5, 60.0)
        };
        if rng.chance(0.2) {
            fluid.burst_p90 = rng.range(1.0, 4.0);
            fluid.peak_factor = rng.range(1.0, 4.0);
        }
        if rng.chance(0.2) {
            let f = rng.range(1.5, 4.0);
            fluid.tail = TailModel {
                p95: TailCurve::new(f, rng.range(-2.0, 0.0), rng.range(0.0, 2.0), 8.0),
                ..TailModel::constant(f)
            };
        }
        let rps = if rng.chance(0.05) {
            0.0
        } else {
            rps0 * rng.range(0.05, 3.0)
        };
        // Allocations around the generous one; some services squeezed
        // past saturation (ρ ≥ 1), some far over-provisioned.
        let alloc = Allocation::new(
            app.generous_alloc
                .iter()
                .map(|g| {
                    let u = rng.unit();
                    if u < 0.1 {
                        g * rng.range(0.0, 0.1)
                    } else if u < 0.2 {
                        g * rng.range(2.0, 10.0)
                    } else {
                        g * rng.range(0.2, 1.5)
                    }
                })
                .collect(),
        );
        assert_eq!(alloc.len(), n);
        let reference = Reference::new(app, &fluid);
        let got = fluid.evaluate(&alloc, rps);
        let want = reference.evaluate(&alloc, rps);
        assert_bits(what, case, &got, &want);
        assert_eq!(
            fluid.bottleneck_rho(&alloc, rps).to_bits(),
            reference.bottleneck_rho(&alloc, rps).to_bits(),
            "{what} case {case}: bottleneck_rho"
        );
    }
}

#[test]
fn paper_apps_match_the_recursive_reference_bit_for_bit() {
    check_app("sockshop", &pema_apps::sockshop(), 1, 3000);
    check_app("trainticket", &pema_apps::trainticket(), 2, 3000);
    check_app("hotelreservation", &pema_apps::hotelreservation(), 3, 3000);
}

#[test]
fn cluster_scale_matches_the_recursive_reference_bit_for_bit() {
    check_app("cluster_scale(24)", &pema_apps::cluster_scale(24), 4, 300);
}

/// A topology built to hit the compiled model's edge cases: endpoint 3
/// is shared by two parents (and reached from two classes), endpoint 5
/// is unreachable (so service `d` is never visited), and endpoint 4
/// carries zero work (so service `e` is visited but demands nothing).
fn edge_app() -> AppSpec {
    let ep = |service: usize, work_scale: f64, groups: Vec<Vec<(usize, f64)>>| EndpointNode {
        service: ServiceId(service),
        work_scale,
        groups: groups
            .into_iter()
            .map(|calls| CallGroup { calls })
            .collect(),
    };
    AppSpec {
        name: "edges".into(),
        services: vec![
            ServiceSpec::new("a", 0.002),
            ServiceSpec::new("b", 0.003),
            ServiceSpec::new("c", 0.0015),
            ServiceSpec::new("d", 0.004),
            ServiceSpec::new("e", 0.001),
        ],
        endpoints: vec![
            ep(0, 1.0, vec![vec![(1, 0.7), (2, 1.0)], vec![(3, 0.5)]]),
            ep(1, 1.5, vec![vec![(3, 1.0)]]),
            ep(2, 0.8, vec![vec![(3, 0.9), (4, 1.0)]]),
            ep(2, 1.2, vec![]),
            ep(4, 0.0, vec![]),
            ep(3, 1.0, vec![vec![(3, 1.0)]]),
        ],
        classes: vec![
            RequestClass {
                name: "browse".into(),
                weight: 3.0,
                root: 0,
            },
            RequestClass {
                name: "direct".into(),
                weight: 1.0,
                root: 1,
            },
        ],
        nodes: vec![NodeSpec { cores: 16.0 }],
        net_delay_s: 0.0003,
        slo_ms: 50.0,
        generous_alloc: vec![1.0, 1.0, 1.0, 0.5, 0.5],
    }
}

#[test]
fn edge_topology_matches_the_recursive_reference_bit_for_bit() {
    let app = edge_app();
    app.validate().expect("edge app is valid");
    let visits = app.expected_visits();
    assert_eq!(visits[3], 0.0, "service d must be unvisited");
    assert!(visits[4] > 0.0 && app.expected_demand()[4] == 0.0);
    check_app("edges", &app, 5, 3000);
}

#[test]
fn nan_and_degenerate_inputs_match_the_recursive_reference() {
    // The sojourn and throttle paths guard the throttle tail with
    // `nu > 0 && d > 0` and `nu <= 0 || d <= 0` respectively; the two
    // only disagree on NaN, so NaN loads and speeds pin that the
    // compiled pass keeps both guards.
    for app in [edge_app(), pema_apps::sockshop()] {
        let mut fluid = FluidEvaluator::new(&app);
        let alloc = Allocation::new(app.generous_alloc.clone());
        let mut nan_alloc = alloc.clone();
        nan_alloc.0[0] = f64::NAN;
        let cases = [
            (1.0, f64::NAN, &alloc),
            (f64::NAN, 100.0, &alloc),
            (1.0, 100.0, &nan_alloc),
            (f64::INFINITY, 100.0, &alloc),
            (1.0, f64::INFINITY, &alloc),
            (-1.0, 100.0, &alloc),
            (1.0, -5.0, &alloc),
            (0.0, 100.0, &alloc),
        ];
        for (case, (speed, rps, a)) in cases.into_iter().enumerate() {
            fluid.speed = speed;
            let reference = Reference::new(&app, &fluid);
            assert_bits(
                &app.name,
                case,
                &fluid.evaluate(a, rps),
                &reference.evaluate(a, rps),
            );
        }
    }
}
