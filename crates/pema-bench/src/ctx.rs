//! [`ExperimentCtx`] — everything a scenario needs to run, in one
//! place: buffered human output, CSV emission, the shared OPTM cache,
//! harness timing, and a per-scenario deterministic RNG.
//!
//! Scenarios never print or touch the filesystem directly; routing all
//! side effects through the context is what makes the parallel
//! executor deterministic (per-scenario seeds, no interleaved stdout)
//! and lets a `--smoke` run shrink every knob in one place.

use crate::exec::BackendSel;
use crate::optm::{CachedOptimum, OptmCache};
use pema::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default results directory: `$PEMA_RESULTS_DIR` or `./results`.
/// Nothing is created until a scenario writes.
pub fn default_results_dir() -> PathBuf {
    std::env::var("PEMA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Stable 64-bit FNV-1a hash of a scenario id — the root of the
/// scenario's RNG stream. Depends only on the id, never on
/// registration order or executor scheduling.
pub(crate) fn seed_for(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Per-scenario execution context handed to [`Scenario::run`].
///
/// [`Scenario::run`]: crate::registry::Scenario::run
pub struct ExperimentCtx {
    id: &'static str,
    seed: u64,
    smoke: bool,
    results_dir: PathBuf,
    out: String,
    optm: Arc<OptmCache>,
    backend: BackendSel,
    fleet_threads: usize,
    /// Parsed once per context for `BackendSel::Trace` — scenarios
    /// build several backends per run and must not re-read the file
    /// each time.
    trace: RefCell<Option<Trace>>,
}

impl ExperimentCtx {
    pub(crate) fn new(
        id: &'static str,
        smoke: bool,
        results_dir: PathBuf,
        optm: Arc<OptmCache>,
        backend: BackendSel,
        fleet_threads: usize,
    ) -> Self {
        Self {
            id,
            seed: seed_for(id),
            smoke,
            results_dir,
            out: String::new(),
            optm,
            backend,
            fleet_threads,
            trace: RefCell::new(None),
        }
    }

    /// The id of the scenario this context belongs to.
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// True in `--smoke` mode: every duration/trial knob shrinks to a
    /// seconds-scale sanity run.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// The directory this scenario's CSVs land in.
    pub fn results_dir(&self) -> &Path {
        &self.results_dir
    }

    /// Worker threads fleet scenarios shard their members across
    /// (`--fleet-threads`; 0 = one per core, default 1). Output is
    /// byte-identical for every value — the knob exists so CI can prove
    /// it by diffing sharded runs against the single-threaded goldens.
    pub fn fleet_threads(&self) -> usize {
        self.fleet_threads
    }

    // ---- human output (buffered; the executor prints it whole) ----

    /// Appends one line to the scenario's buffered output.
    pub fn say(&mut self, line: impl AsRef<str>) {
        self.out.push_str(line.as_ref());
        self.out.push('\n');
    }

    /// Pretty-prints a fixed-width table into the buffered output.
    pub fn print_table(&mut self, title: &str, header: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for r in rows {
            for (i, c) in r.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let _ = writeln!(self.out, "\n== {title} ==");
        let mut line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>w$}  ", c, w = widths.get(i).copied().unwrap_or(8));
            }
            let _ = writeln!(self.out, "{s}");
        };
        line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
        for r in rows {
            line(r);
        }
    }

    /// Takes the buffered output (executor-side).
    pub(crate) fn take_output(&mut self) -> String {
        std::mem::take(&mut self.out)
    }

    // ---- CSV output ----

    /// Writes (and logs) `<results_dir>/<name>.csv`. Directory creation
    /// is race-safe (`create_dir_all`) so parallel scenarios can share
    /// a fresh results dir; failures name the offending path instead of
    /// panicking mid-suite.
    pub fn write_csv(&mut self, name: &str, header: &str, rows: &[String]) -> io::Result<()> {
        std::fs::create_dir_all(&self.results_dir).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("create results dir {}: {e}", self.results_dir.display()),
            )
        })?;
        let path = self.results_dir.join(format!("{name}.csv"));
        let mut out = String::with_capacity(rows.len() * 32 + header.len() + 1);
        let _ = writeln!(out, "{header}");
        for r in rows {
            let _ = writeln!(out, "{r}");
        }
        std::fs::write(&path, &out)
            .map_err(|e| io::Error::new(e.kind(), format!("write {}: {e}", path.display())))?;
        self.say(format!("→ wrote {}", path.display()));
        Ok(())
    }

    // ---- deterministic randomness ----

    /// A deterministic RNG stream for this scenario. Streams depend
    /// only on `(scenario id, salt)` — never on scheduling — so
    /// `--jobs 1` and `--jobs N` runs produce identical CSVs.
    pub fn rng(&self, salt: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ salt.rotate_left(17))
    }

    // ---- experiment plumbing ----

    /// The standard harness configuration
    /// ([`HarnessConfig::with_seed`]), shrunk in smoke mode.
    pub fn harness_cfg(&self, seed: u64) -> HarnessConfig {
        let mut cfg = HarnessConfig::with_seed(seed);
        if self.smoke {
            cfg.interval_s = 6.0;
            cfg.warmup_s = 1.0;
        }
        cfg
    }

    /// The backend selection this suite run was launched with
    /// (`--backend`; DES by default).
    pub fn backend(&self) -> &BackendSel {
        &self.backend
    }

    /// Builds the selected backend for a closed-loop run of `app`,
    /// seeded like the default DES path ([`SimBackend::new`] with
    /// `cfg.seed`) so `--backend sim` stays byte-identical to the
    /// historical `UseSim` construction. `trace:<path>` backends are
    /// read leniently, replay cycling (scenarios often run longer than
    /// the tape), and must have been recorded from the same app.
    ///
    /// Scenarios participating in the backend matrix pass the result
    /// to `Experiment::builder().backend(..)`; the boxed trait object
    /// drives the loop through the `Box` forwarding impl.
    pub fn loop_backend(
        &self,
        app: &AppSpec,
        cfg: &HarnessConfig,
    ) -> io::Result<Box<dyn ClusterBackend>> {
        match &self.backend {
            BackendSel::Sim => Ok(Box::new(SimBackend::new(app, cfg.seed))),
            BackendSel::Fluid => Ok(Box::new(FluidBackend::new(app))),
            BackendSel::Trace(path) => {
                let mut cached = self.trace.borrow_mut();
                if cached.is_none() {
                    *cached = Some(Trace::read_file(path, ReadMode::Lenient)?);
                }
                let trace = cached.as_ref().unwrap();
                if trace.meta.app != app.name || trace.n_services() != app.n_services() {
                    return Err(io::Error::other(format!(
                        "trace {} was recorded from '{}' ({} services), scenario needs '{}' ({})",
                        path.display(),
                        trace.meta.app,
                        trace.n_services(),
                        app.name,
                        app.n_services()
                    )));
                }
                Ok(Box::new(TraceBackend::cycling(trace.clone())))
            }
        }
    }

    /// Scales an iteration/trial count for smoke mode (full count
    /// otherwise).
    pub fn iters(&self, full: usize) -> usize {
        if self.smoke {
            full.min(2)
        } else {
            full
        }
    }

    /// Scales a `(warmup_s, window_s)` pair for smoke mode.
    pub fn window(&self, warmup_s: f64, window_s: f64) -> (f64, f64) {
        if self.smoke {
            (warmup_s.min(1.0), window_s.min(5.0))
        } else {
            (warmup_s, window_s)
        }
    }

    /// Measures one fresh-cluster window of `alloc` at `rps` (fixed
    /// seed, common random numbers across calls).
    ///
    /// Implemented as a one-interval [`Experiment`] run: a
    /// [`HoldPolicy`] pins the allocation, a bare [`SimBackend`] (no
    /// request timeout — an infinitely patient load generator) hosts
    /// the cluster, and an observer captures the window's full stats.
    /// Byte-identical to the historical direct `ClusterSim` path (the
    /// golden-snapshot tests pin `fig06.csv` through this code).
    ///
    /// Under `--backend fluid` the window comes from the analytic
    /// model instead (instant, approximate). A `trace:` selection
    /// keeps the DES here: an arbitrary one-shot allocation probe has
    /// no counterpart on a recorded tape.
    pub fn measure(&self, app: &AppSpec, alloc: &Allocation, rps: f64, seed: u64) -> WindowStats {
        let (warmup, window) = self.window(4.0, 20.0);
        let captured: Arc<Mutex<Option<WindowStats>>> = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&captured);
        let backend: Box<dyn ClusterBackend> = match self.backend {
            BackendSel::Fluid => Box::new(FluidBackend::new(app)),
            _ => Box::new(SimBackend::bare(app, seed)),
        };
        Experiment::builder()
            .app(app)
            .policy(HoldPolicy::new(alloc.0.clone(), app.slo_ms))
            .backend(backend)
            .config(HarnessConfig {
                interval_s: window,
                warmup_s: warmup,
                seed,
            })
            .rps(rps)
            .iters(1)
            .observer(move |_log: &IterationLog, stats: &WindowStats| {
                *sink.lock().unwrap() = Some(stats.clone());
            })
            .run();
        let stats = captured.lock().unwrap().take();
        stats.expect("one-interval run must observe exactly one window")
    }

    /// Returns the OPTM allocation for `(app, rps)`, computing and
    /// caching it on first use. The cache is shared across concurrently
    /// running scenarios (one computation per key) and persisted to
    /// `<results_dir>/optm_cache.csv` in full-fidelity mode; smoke mode
    /// uses a fast fluid-model search and never touches the disk cache.
    pub fn optimum_cached(&mut self, app: &AppSpec, rps: f64) -> io::Result<CachedOptimum> {
        let cache = Arc::clone(&self.optm);
        cache.optimum(app, rps, &mut self.out)
    }
}

/// `(app, Fig. 5 workloads, Fig. 15 workloads)` for the three paper
/// applications.
pub fn paper_apps() -> Vec<(AppSpec, [f64; 3], [f64; 3])> {
    vec![
        (
            pema_apps::trainticket(),
            pema_apps::trainticket::PAPER_WORKLOADS,
            pema_apps::trainticket::FIG15_WORKLOADS,
        ),
        (
            pema_apps::sockshop(),
            pema_apps::sockshop::PAPER_WORKLOADS,
            pema_apps::sockshop::FIG15_WORKLOADS,
        ),
        (
            pema_apps::hotelreservation(),
            pema_apps::hotelreservation::PAPER_WORKLOADS,
            pema_apps::hotelreservation::FIG15_WORKLOADS,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx(dir: &Path) -> ExperimentCtx {
        ExperimentCtx::new(
            "unit",
            true,
            dir.to_path_buf(),
            Arc::new(OptmCache::new(dir.to_path_buf(), true)),
            BackendSel::default(),
            1,
        )
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("pema-bench-ctx-csv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctx = test_ctx(&dir);
        ctx.write_csv("unit", "a,b", &["1,2".to_string()]).unwrap();
        let content = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        assert!(ctx.take_output().contains("unit.csv"));
    }

    #[test]
    fn csv_failure_names_path() {
        let dir = std::env::temp_dir().join("pema-bench-ctx-failpath");
        let _ = std::fs::remove_dir_all(&dir);
        // A *file* where the results dir should be makes create_dir_all
        // fail deterministically.
        std::fs::write(&dir, b"not a dir").unwrap();
        let mut ctx = test_ctx(&dir);
        let err = ctx.write_csv("x", "a", &[]).unwrap_err();
        assert!(
            err.to_string().contains("pema-bench-ctx-failpath"),
            "error should name the path: {err}"
        );
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn rng_streams_depend_on_id_and_salt_only() {
        use rand::Rng;
        let dir = std::env::temp_dir().join("pema-bench-ctx-rng");
        let a = test_ctx(&dir);
        let b = test_ctx(&dir);
        let mut r1 = a.rng(42);
        let mut r2 = b.rng(42);
        assert_eq!(r1.gen::<f64>().to_bits(), r2.gen::<f64>().to_bits());
        let mut r3 = a.rng(43);
        assert_ne!(r1.gen::<f64>().to_bits(), r3.gen::<f64>().to_bits());
    }

    #[test]
    fn smoke_shrinks_knobs() {
        let dir = std::env::temp_dir().join("pema-bench-ctx-smoke");
        let ctx = test_ctx(&dir);
        assert_eq!(ctx.iters(70), 2);
        assert!(ctx.harness_cfg(1).interval_s < 10.0);
        assert!(ctx.window(4.0, 25.0).1 <= 5.0);
    }
}
