//! A delayed run's memory does not grow with its horizon: the process's
//! peak resident set (`VmHWM`) after a 3 s run stays within a few pages
//! of the peak after a 0.3 s run at the same delay and step (one page
//! in practice). Storing every state adds ~2.8 MB here (120,792
//! states). Its own test binary, so no other test allocates meanwhile;
//! skipped where `/proc/self/status` is missing.

use bcn::delay::DelayedBcn;
use bcn::BcnParams;

/// The peak resident set in kB, if the platform reports it.
fn peak_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn delayed_run_memory_is_independent_of_the_horizon() {
    let p = BcnParams::test_defaults();
    let tau = 0.01 * std::f64::consts::TAU / p.a().sqrt();
    let sys = DelayedBcn::new(p.clone(), tau).linearized();
    let short = sys.run(p.initial_point(), 0.3, tau / 8.0);
    let Some(after_short) = peak_kb() else { return };
    let long = sys.run(p.initial_point(), 3.0, tau / 8.0);
    let after_long = peak_kb().expect("VmHWM was readable a moment ago");
    assert!(short.max_x <= long.max_x, "{short:?} vs {long:?}");
    assert!(
        after_long < after_short + 64,
        "peak RSS grew with the horizon: {after_short} -> {after_long} kB"
    );
}
