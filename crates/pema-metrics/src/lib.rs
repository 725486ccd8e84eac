//! Metric primitives for the PEMA reproduction.
//!
//! The paper's controller consumes end-to-end latency percentiles
//! (Linkerd in the paper), per-service CPU utilization and throttling
//! (Prometheus), and moving averages of the response time. This crate
//! holds the machinery the first and last of those need:
//!
//! * latency percentiles — [`histogram::LatencyHistogram`];
//! * moving averages of the response time (Eqns. 10/11 of the paper) —
//!   [`window::MovingAvg`], built on the ring buffer
//!   [`window::RollingWindow`];
//! * the summary statistics and regressions the experiments report —
//!   [`stats`].
//!
//! The simulator accounts per-service CPU itself (`pema-sim`), and the
//! control plane's self-telemetry registry lives in `pema-telemetry`.
//! Everything here is deterministic and allocation-conscious:
//! histograms are fixed-size log-bucketed arrays and windows are ring
//! buffers.

pub mod histogram;
pub mod stats;
pub mod window;

pub use histogram::LatencyHistogram;
pub use stats::{linear_regression, mean, percentile_sorted, std_dev, Summary};
pub use window::{MovingAvg, RollingWindow};
