//! Benchmark harness for the PEMA control plane.
//!
//! Drives the program from outside, through its public API only, on
//! three workloads (see `README.md` in this directory):
//!
//! * `fluid_fleet` — ~1000 fluid-model members under PEMA, RULE and HOLD
//!   sharing one arbitrated CPU budget, with a telemetry hub attached;
//! * `des_paper` — the three paper apps on the discrete-event simulator,
//!   PEMA with early checks beside a RULE twin;
//! * `live_fake` — one PEMA `LiveBackend` loop over HTTP against an
//!   in-process `FakeCluster`, recorded, encoded, decoded and replayed.
//!
//! [`tap`] holds the pass-through wrappers that time the calls into
//! each layer, [`workloads`] the workloads and their output checks,
//! [`report`] the metrics computed from both.

pub mod report;
pub mod stats;
pub mod tap;
pub mod workloads;
