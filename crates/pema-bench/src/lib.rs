//! # pema-bench — the experiment harness
//!
//! Every table and figure of the paper's evaluation (plus the
//! ablations DESIGN.md calls out) is a registered [`Scenario`]: a
//! ~30-line module with a `run(ctx)` function, and the `bench` driver
//! runs any subset in parallel (`cargo run --release -p pema-bench
//! --bin bench -- run fig05` runs one figure at full fidelity):
//!
//! ```text
//! bench list                          show every scenario
//! bench all  [--jobs N] [--smoke] [--force]
//! bench run  <id>... [--jobs N] [--smoke] [--force]
//! ```
//!
//! Runs are **deterministic regardless of parallelism**: each scenario
//! derives its RNG streams from its id, buffers its human output, and
//! shares the OPTM result cache through per-key locks with canonical
//! (round-tripped) values — so `--jobs 1` and `--jobs N` produce
//! byte-identical CSVs under `$PEMA_RESULTS_DIR` (default `results/`).
//!
//! The `perf` module is the repo's performance harness (`bench perf`):
//! calibrated micro benches (engine event throughput, histogram
//! insert, MMPP stepping) plus macro benches (full windows on the
//! three paper apps and three representative scenarios end-to-end),
//! emitted as a machine-readable `BENCH_<label>.json` and gated in CI
//! against `benchmarks/BENCH_baseline.json` (>25% macro regressions
//! fail the build).
//!
//! Criterion micro-benchmarks live under `benches/` (`cargo bench`).

pub mod ctx;
pub mod exec;
pub mod optm;
pub mod perf;
pub mod registry;
pub mod scenarios;

pub use ctx::{default_results_dir, paper_apps, ExperimentCtx};
pub use exec::{run_suite, BackendSel, Outcome, ScenarioReport, SuiteConfig};
pub use optm::{CachedOptimum, OptmCache};
pub use perf::{run_perf, PerfConfig, PerfReport};
pub use registry::{by_id, registry, Scenario};
