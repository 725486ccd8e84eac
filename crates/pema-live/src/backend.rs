//! [`LiveBackend`] — the paper's actual Fig. 9 loop: Prometheus as the
//! telemetry source, the Kubernetes API as the actuator.
//!
//! The backend implements the same [`ClusterBackend`] contract as the
//! simulator backends, so the controller, the fleet executor, and the
//! trace recorder drive a real cluster unchanged. Three design points:
//!
//! * **Shared metric mapping.** Queries are built from
//!   [`pema_trace::prom`], the same module that names the CSV
//!   importer's columns — a live scrape and an offline Prometheus
//!   export cannot drift apart.
//! * **Windows are schedules, not sleeps.** `begin_window` computes
//!   the window's boundary times; `poll_window` waits toward the next
//!   boundary through a [`TimeSource`] and scrapes when it arrives.
//!   The backend implements only that seam; the trait's blocking
//!   helpers poll it until the window is ready.
//! * **Errors degrade, never panic.** Scrapes retry with exponential
//!   backoff + deterministic jitter; an exhausted retry records a
//!   typed [`LiveError`] and yields a degraded window (zero
//!   completions, `NaN` latencies) rather than tearing the loop down.
//!
//! Every scraped window is re-based onto the backend's shadow
//! allocation with [`pema_trace::rebase_stats`] — the replayer's own
//! counterfactual kernel. In normal operation the cluster's read-back
//! limits match the shadow bit-for-bit and the rebase is a verbatim
//! pass-through; in `dry_run` mode (PATCHes suppressed) it projects
//! the measured windows onto the *decided* allocations, which is what
//! makes a recorded dry-run tape replay with zero divergence.

use crate::clock::TimeSource;
use crate::kube::{KubeClient, KubeError};
use crate::prom::{PromClient, PromError, Series};
use pema_control::{ClusterBackend, WindowPoll, WindowRequest};
use pema_sim::{Allocation, AppSpec, WindowStats};
use pema_telemetry::{Counter, Histogram, Telemetry, DEFAULT_SECONDS_BUCKETS};
use pema_trace::prom as queries;
use pema_trace::{rebase_stats, window_from_scrape, ScrapedService, ScrapedWindow};
use std::time::Instant;

/// Retry schedule for Prometheus scrapes: exponential backoff with
/// deterministic jitter (an xorshift stream seeded from
/// [`LiveConfig::jitter_seed`], so tests replay the exact schedule).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per query, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, seconds; doubles per retry.
    pub base_backoff_s: f64,
    /// Backoff ceiling, seconds.
    pub max_backoff_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_s: 0.25,
            max_backoff_s: 5.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based), jittered into
    /// `[½, 1]` of the exponential value to decorrelate loops that
    /// fail together.
    fn backoff_s(&self, retry: u32, jitter: &mut u64) -> f64 {
        let exp = self.base_backoff_s * 2f64.powi(retry as i32 - 1);
        let capped = exp.min(self.max_backoff_s);
        *jitter ^= *jitter << 13;
        *jitter ^= *jitter >> 7;
        *jitter ^= *jitter << 17;
        let u = (*jitter >> 11) as f64 / (1u64 << 53) as f64;
        capped * (0.5 + 0.5 * u)
    }
}

/// Operating parameters of a [`LiveBackend`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// When set, `apply` updates only the local shadow allocation and
    /// never PATCHes the cluster; scraped windows are projected onto
    /// the shadow so the recorded tape stays internally consistent.
    pub dry_run: bool,
    /// Prometheus `query_range` step, seconds; `0` means one sample
    /// per window (the scrape reduces samples to their mean anyway).
    pub step_s: f64,
    /// Scrape retry schedule.
    pub retry: RetryPolicy,
    /// Seed of the deterministic backoff-jitter stream.
    pub jitter_seed: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            dry_run: false,
            step_s: 0.0,
            retry: RetryPolicy::default(),
            jitter_seed: 0x5eed_cafe,
        }
    }
}

/// A measurement or actuation failure, recorded instead of panicking.
/// Drain with [`LiveBackend::take_errors`].
#[derive(Debug, Clone, PartialEq)]
pub enum LiveError {
    /// A Prometheus query exhausted its retries.
    Scrape {
        /// The PromQL expression that failed.
        query: String,
        /// Attempts made.
        attempts: u32,
        /// The final attempt's error.
        last: PromError,
    },
    /// A Kubernetes PATCH was rejected or failed in transport.
    Patch {
        /// The deployment/service being patched.
        service: String,
        /// What went wrong.
        error: KubeError,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Scrape {
                query,
                attempts,
                last,
            } => write!(
                f,
                "scrape failed after {attempts} attempts ({last}): {query}"
            ),
            LiveError::Patch { service, error } => {
                write!(f, "patching {service} failed: {error}")
            }
        }
    }
}

/// Self-instrumentation of one [`LiveBackend`] (see
/// [`LiveBackend::set_telemetry`]): query/retry/error counters and
/// wall-clock round-trip histograms. Latencies here use
/// [`std::time::Instant`] deliberately — they describe real HTTP
/// round-trips, which exist even under a virtual [`TimeSource`] —
/// and flow only to the registry, never into run output.
struct LiveTelemetry {
    queries: Counter,
    query_seconds: Histogram,
    retries: Counter,
    scrape_errors: Counter,
    patch_errors: Counter,
    patches: Counter,
    patch_seconds: Histogram,
}

impl LiveTelemetry {
    fn new(hub: &Telemetry) -> Self {
        LiveTelemetry {
            queries: hub.counter(
                "pema_live_queries_total",
                "Prometheus range-query attempts, including retries.",
                &[("target", "prom")],
            ),
            query_seconds: hub.histogram(
                "pema_live_query_seconds",
                "Wall-clock latency of one Prometheus range-query attempt.",
                &[("target", "prom")],
                DEFAULT_SECONDS_BUCKETS,
            ),
            retries: hub.counter(
                "pema_live_retries_total",
                "Backoff retries taken after failed Prometheus queries.",
                &[("target", "prom")],
            ),
            scrape_errors: hub.counter(
                "pema_live_errors_total",
                "Recorded LiveErrors, by kind.",
                &[("kind", "scrape")],
            ),
            patch_errors: hub.counter(
                "pema_live_errors_total",
                "Recorded LiveErrors, by kind.",
                &[("kind", "patch")],
            ),
            patches: hub.counter(
                "pema_live_patches_total",
                "Kubernetes CPU-limit PATCH round-trips attempted.",
                &[("target", "kube")],
            ),
            patch_seconds: hub.histogram(
                "pema_live_patch_seconds",
                "Wall-clock latency of one Kubernetes PATCH round-trip.",
                &[("target", "kube")],
                DEFAULT_SECONDS_BUCKETS,
            ),
        }
    }
}

/// The window currently being measured.
#[derive(Debug, Clone)]
struct InFlight {
    start_s: f64,
    end_s: f64,
    /// Next §6 early-check boundary, when checks remain.
    next_check_s: Option<f64>,
}

/// A [`ClusterBackend`] over a real (or [faked](crate::FakeCluster))
/// Prometheus + Kubernetes pair. See the module docs for the design.
pub struct LiveBackend {
    app: AppSpec,
    prom: PromClient,
    kube: KubeClient,
    clock: Box<dyn TimeSource>,
    cfg: LiveConfig,
    /// Shadow of the allocation in force (the decided one in dry-run).
    alloc: Allocation,
    inflight: Option<InFlight>,
    errors: Vec<LiveError>,
    jitter: u64,
    telemetry: Option<LiveTelemetry>,
}

impl LiveBackend {
    /// Builds the backend. Like the simulator backends, the starting
    /// allocation is the app's generous one — the live deployment is
    /// expected to have been rolled out at those limits.
    pub fn new(
        app: &AppSpec,
        prom: PromClient,
        kube: KubeClient,
        clock: Box<dyn TimeSource>,
        cfg: LiveConfig,
    ) -> Self {
        let jitter = cfg.jitter_seed | 1; // xorshift must not start at 0
        LiveBackend {
            app: app.clone(),
            prom,
            kube,
            clock,
            alloc: Allocation::new(app.generous_alloc.clone()),
            cfg,
            inflight: None,
            errors: Vec::new(),
            jitter,
            telemetry: None,
        }
    }

    /// Attaches self-instrumentation: query/retry/error counters and
    /// wall-clock round-trip histograms registered on `hub`
    /// (`pema_live_*` — see `docs/telemetry.md`). A pure side channel:
    /// scraped windows and recorded errors are unchanged.
    pub fn set_telemetry(&mut self, hub: &Telemetry) {
        self.telemetry = Some(LiveTelemetry::new(hub));
    }

    /// Records an error on both channels: the drainable
    /// [`errors`](Self::errors) list (unchanged behavior) and, when
    /// telemetry is attached, the per-kind error counter.
    fn record_error(&mut self, e: LiveError) {
        if let Some(tel) = &self.telemetry {
            match &e {
                LiveError::Scrape { .. } => tel.scrape_errors.inc(),
                LiveError::Patch { .. } => tel.patch_errors.inc(),
            }
        }
        self.errors.push(e);
    }

    /// Errors recorded since the last [`take_errors`](Self::take_errors).
    pub fn errors(&self) -> &[LiveError] {
        &self.errors
    }

    /// Drains the recorded errors.
    pub fn take_errors(&mut self) -> Vec<LiveError> {
        std::mem::take(&mut self.errors)
    }

    /// Whether the backend suppresses PATCHes.
    pub fn is_dry_run(&self) -> bool {
        self.cfg.dry_run
    }

    /// One query with the retry schedule. Backoff waits go through the
    /// [`TimeSource`], so virtual-clock tests replay the schedule
    /// instantly.
    fn retrying_query(
        &mut self,
        query: &str,
        start_s: f64,
        end_s: f64,
    ) -> Result<Vec<Series>, LiveError> {
        let step = if self.cfg.step_s > 0.0 {
            self.cfg.step_s
        } else {
            end_s - start_s
        };
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let issued = self.telemetry.as_ref().map(|_| Instant::now());
            let result = self.prom.query_range(query, start_s, end_s, step);
            if let (Some(tel), Some(t0)) = (&self.telemetry, issued) {
                tel.queries.inc();
                tel.query_seconds.observe(t0.elapsed().as_secs_f64());
            }
            match result {
                Ok(series) => return Ok(series),
                Err(last) => {
                    if attempt >= self.cfg.retry.max_attempts {
                        return Err(LiveError::Scrape {
                            query: query.to_string(),
                            attempts: attempt,
                            last,
                        });
                    }
                    if let Some(tel) = &self.telemetry {
                        tel.retries.inc();
                    }
                    let backoff = self.cfg.retry.backoff_s(attempt, &mut self.jitter);
                    let now = self.clock.now_s();
                    self.clock.block_until(now + backoff);
                }
            }
        }
    }

    /// A scalar query (aggregate series): the single series' window
    /// mean, or `NaN` with a recorded error when the query failed or
    /// came back empty.
    fn scalar(&mut self, query: String, start_s: f64, end_s: f64) -> f64 {
        match self.retrying_query(&query, start_s, end_s) {
            Ok(series) => match series.first() {
                Some(s) => s.value,
                None => {
                    self.record_error(LiveError::Scrape {
                        query,
                        attempts: 1,
                        last: PromError::Malformed("empty result".into()),
                    });
                    f64::NAN
                }
            },
            Err(e) => {
                self.record_error(e);
                f64::NAN
            }
        }
    }

    /// A per-container query: `container` label → window mean. A failed
    /// query records its error and degrades to an empty map.
    fn by_container(&mut self, query: String, start_s: f64, end_s: f64) -> Vec<Series> {
        match self.retrying_query(&query, start_s, end_s) {
            Ok(series) => series,
            Err(e) => {
                self.record_error(e);
                Vec::new()
            }
        }
    }

    /// Scrapes one `[start_s, end_s]` window (6 range queries), reduces
    /// it through the shared [`ScrapedWindow`] mapping, and re-bases
    /// the result onto the shadow allocation.
    fn scrape_window(&mut self, start_s: f64, end_s: f64) -> WindowStats {
        let dur = end_s - start_s;
        let ns = self.kube.config.namespace.clone();
        let p95_ms = self.scalar(queries::p95_query(&ns, dur), start_s, end_s) * 1e3;
        let mean_ms = self.scalar(queries::mean_latency_query(&ns, dur), start_s, end_s) * 1e3;
        let offered_rps = self.scalar(queries::request_rate_query(&ns, dur), start_s, end_s);
        let limits = self.by_container(queries::cpu_limit_query(&ns), start_s, end_s);
        let usage = self.by_container(queries::cpu_usage_query(&ns, dur), start_s, end_s);
        let throttled = self.by_container(queries::cpu_throttled_query(&ns, dur), start_s, end_s);
        let find = |series: &[Series], name: &str| -> Option<f64> {
            series.iter().find(|s| s.container == name).map(|s| s.value)
        };
        let services = self
            .app
            .services
            .iter()
            .enumerate()
            .map(|(i, svc)| ScrapedService {
                // A container missing from the limits series falls back
                // to the shadow value: the rebase would overwrite the
                // scraped number anyway, and the fallback keeps the
                // common case a verbatim pass-through.
                alloc_cores: find(&limits, &svc.name).unwrap_or_else(|| self.alloc.get(i)),
                cpu_used_s: find(&usage, &svc.name).unwrap_or(0.0) * dur,
                throttled_s: find(&throttled, &svc.name).unwrap_or(0.0),
            })
            .collect();
        let scraped = ScrapedWindow {
            start_s,
            duration_s: dur,
            offered_rps,
            p95_ms,
            mean_ms,
            services,
        };
        rebase_stats(&window_from_scrape(&scraped), &self.alloc)
    }
}

impl ClusterBackend for LiveBackend {
    fn apply(&mut self, alloc: &Allocation) {
        assert_eq!(
            alloc.len(),
            self.alloc.len(),
            "allocation length must match the app"
        );
        if self.cfg.dry_run {
            // Dry run: the shadow *is* the decided allocation — that is
            // what makes the recorded tape replay with zero divergence.
            self.alloc = alloc.clone();
            return;
        }
        // Per-service: the shadow takes the decided value only when the
        // PATCH landed. A failed PATCH keeps the previous value, so
        // subsequent windows rebase onto the allocation actually in
        // force on the cluster instead of silently misrepresenting
        // measured windows until a later patch succeeds.
        for i in 0..alloc.len() {
            if alloc.get(i) == self.alloc.get(i) {
                continue;
            }
            let service = self.app.services[i].name.clone();
            let issued = self.telemetry.as_ref().map(|_| Instant::now());
            let result = self.kube.patch_cpu_limit(&service, alloc.get(i));
            if let (Some(tel), Some(t0)) = (&self.telemetry, issued) {
                tel.patches.inc();
                tel.patch_seconds.observe(t0.elapsed().as_secs_f64());
            }
            match result {
                Ok(()) => self.alloc.set(i, alloc.get(i)),
                Err(error) => self.record_error(LiveError::Patch { service, error }),
            }
        }
    }

    fn allocation(&self) -> Allocation {
        self.alloc.clone()
    }

    fn now_s(&self) -> f64 {
        self.clock.now_s()
    }

    fn begin_window(&mut self, req: &WindowRequest) {
        assert!(
            self.inflight.is_none(),
            "begin_window while a window is already in flight"
        );
        let start_s = self.clock.now_s() + req.warmup_s;
        let end_s = start_s + req.window_s;
        let next_check_s = req.early.and_then(|e| {
            assert!(e.check_s > 0.0, "check interval must be positive");
            let first = start_s + e.check_s;
            (first < end_s).then_some(first)
        });
        self.inflight = Some(InFlight {
            start_s,
            end_s,
            next_check_s,
        });
    }

    fn poll_window(&mut self, req: &WindowRequest) -> WindowPoll {
        let w = self
            .inflight
            .clone()
            .expect("poll_window without begin_window");
        let target = w.next_check_s.unwrap_or(w.end_s);
        if self.clock.now_s() < target {
            // Wall clocks sleep at most their poll granularity here; a
            // virtual clock jumps to the boundary so the poll below
            // proceeds immediately.
            self.clock.pend_until(target);
            if self.clock.now_s() < target {
                return WindowPoll::Pending {
                    resume_at_s: target,
                };
            }
        }
        if let Some(check_s) = w.next_check_s {
            let e = req.early.expect("in-flight check without an early request");
            let stats = self.scrape_window(w.start_s, check_s);
            if stats.violates(e.slo_ms) {
                self.inflight = None;
                return WindowPoll::Ready {
                    stats,
                    aborted: true,
                };
            }
            let next = check_s + e.check_s;
            let w = self.inflight.as_mut().expect("window vanished mid-poll");
            w.next_check_s = (next < w.end_s).then_some(next);
            return WindowPoll::Pending {
                resume_at_s: w.next_check_s.unwrap_or(w.end_s),
            };
        }
        let stats = self.scrape_window(w.start_s, w.end_s);
        self.inflight = None;
        WindowPoll::Ready {
            stats,
            aborted: false,
        }
    }

    fn cancel_window(&mut self) {
        self.inflight = None;
    }
}
