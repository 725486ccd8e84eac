//! Time sources for the live backend.
//!
//! The live control loop is paced by real time, but every test must be
//! deterministic and fast. [`TimeSource`] is the seam: the production
//! backend runs on [`WallClock`], the test harness on [`FakeClock`],
//! and both implement identical semantics — time only moves forward,
//! and waits land *exactly* on their requested target, so window
//! boundaries and `now_s` values are reproducible down to the bit (the
//! backend-conformance suite compares them with `to_bits`).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A monotone clock the [`LiveBackend`](crate::LiveBackend) schedules
/// against.
pub trait TimeSource: Send {
    /// Current time, seconds since this source's epoch.
    fn now_s(&self) -> f64;

    /// Blocks until `target_s`. Serves only the scrape retry backoff;
    /// window boundaries are waited for with
    /// [`pend_until`](Self::pend_until). Must leave
    /// `now_s() >= target_s`, and when the source controls its own time
    /// it must land exactly on `target_s`.
    fn block_until(&self, target_s: f64);

    /// A *bounded* wait toward `target_s`, used inside
    /// [`poll_window`](pema_control::ClusterBackend::poll_window).
    /// Wall clocks sleep at most their polling granularity so a fleet
    /// thread stays responsive; virtual clocks jump straight to the
    /// target so busy-poll loops make progress instead of spinning.
    fn pend_until(&self, target_s: f64);
}

/// Real time: `now_s` is **seconds since the unix epoch** (Prometheus
/// interprets `query_range` start/end as unix timestamps, so the live
/// backend's window bounds must be epoch-anchored), waits are
/// `thread::sleep`. The unix offset is sampled once at construction
/// and advanced by a monotonic [`Instant`], so `now_s` never goes
/// backwards even if the system clock is stepped mid-run.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
    /// Unix time at `epoch`, seconds.
    unix_at_epoch: f64,
    /// Longest single sleep `pend_until` will take, seconds. Bounds how
    /// stale a `Pending` poll result can get without busy-spinning.
    pub max_poll_wait_s: f64,
}

impl WallClock {
    /// A wall clock anchored to the current unix time.
    pub fn new() -> Self {
        let unix_at_epoch = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        WallClock {
            epoch: Instant::now(),
            unix_at_epoch,
            max_poll_wait_s: 0.05,
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

fn sleep_s(dt: f64) {
    if dt > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(dt));
    }
}

impl TimeSource for WallClock {
    fn now_s(&self) -> f64 {
        self.unix_at_epoch + self.epoch.elapsed().as_secs_f64()
    }

    fn block_until(&self, target_s: f64) {
        sleep_s(target_s - self.now_s());
    }

    fn pend_until(&self, target_s: f64) {
        sleep_s((target_s - self.now_s()).min(self.max_poll_wait_s));
    }
}

/// Deterministic virtual time: waits jump the clock to the target
/// instantly, so a test exercises the exact scheduling logic of the
/// wall-clock path in microseconds. Cloning shares the underlying
/// clock (the backend and the test assert against the same time).
#[derive(Debug, Clone, Default)]
pub struct FakeClock {
    now: Arc<Mutex<f64>>,
}

impl FakeClock {
    /// A fake clock starting at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock to `target_s` (never backwards).
    pub fn advance_to(&self, target_s: f64) {
        let mut now = self.now.lock().unwrap();
        if target_s > *now {
            *now = target_s;
        }
    }
}

impl TimeSource for FakeClock {
    fn now_s(&self) -> f64 {
        *self.now.lock().unwrap()
    }

    fn block_until(&self, target_s: f64) {
        self.advance_to(target_s);
    }

    fn pend_until(&self, target_s: f64) {
        self.advance_to(target_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fake_clock_lands_exactly_and_never_rewinds() {
        let c = FakeClock::new();
        c.block_until(12.5);
        assert_eq!(c.now_s().to_bits(), 12.5f64.to_bits());
        c.pend_until(3.0);
        assert_eq!(c.now_s(), 12.5);
        let shared = c.clone();
        shared.advance_to(20.0);
        assert_eq!(c.now_s(), 20.0);
    }

    #[test]
    fn wall_clock_pend_is_bounded() {
        let mut c = WallClock::new();
        c.max_poll_wait_s = 0.01;
        let before = Instant::now();
        c.pend_until(c.now_s() + 10.0);
        assert!(before.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wall_clock_is_unix_anchored() {
        // Prometheus treats query_range start/end as unix timestamps;
        // a clock that starts near 0 would query the 1970 epoch and
        // read back empty matrices. 1.6e9 s ≈ 2020-09.
        let c = WallClock::new();
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_secs_f64();
        assert!(
            c.now_s() > 1.6e9,
            "now_s {} is not epoch-anchored",
            c.now_s()
        );
        assert!((c.now_s() - unix).abs() < 60.0);
    }

    #[test]
    fn wall_clock_block_reaches_target() {
        let c = WallClock::new();
        let target = c.now_s() + 0.02;
        c.block_until(target);
        assert!(c.now_s() >= target);
    }
}
