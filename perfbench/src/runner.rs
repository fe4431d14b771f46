//! The measurement loops: an untraced phase for the end-to-end metrics
//! and a traced phase for the per-layer ones.

use std::time::Instant;

use crate::metrics::Layers;
use crate::reference::{on_quiet_host, Reference};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::Workload;

/// How long a phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Units until this much wall time has passed (at least one unit).
    Seconds(f64),
    /// Exactly this many units (tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Units(usize),
}

impl Budget {
    fn done(self, units: usize, started: Instant) -> bool {
        match self {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Units(n) => units >= n,
        }
    }
}

/// Samples of the untraced phase, in wall seconds.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Wall time of each timed unit.
    pub run_s: Vec<f64>,
    /// The reference kernel's time right after each timed unit.
    pub reference_s: Vec<f64>,
    /// Wall time of each construction call timed on its own, with the
    /// reference time of the unit it followed.
    pub setup_s: Vec<(f64, f64)>,
    /// Peak resident set during each timed unit, in MiB.
    pub rss_mb: Vec<f64>,
    /// Operations attempted, warm-up unit included.
    pub attempted: u64,
    /// Operations that did not complete, warm-up unit included.
    pub failed: u64,
}

impl Untraced {
    /// Each unit's time as seconds on a quiet host.
    pub fn quiet_run_s(&self) -> Vec<f64> {
        self.run_s.iter().zip(&self.reference_s).map(|(&t, &r)| on_quiet_host(t, r)).collect()
    }
}

/// Construction calls made after each timed unit; the first of each
/// burst only re-warms the caches the unit left cold and is not kept.
const SETUP_BURST: usize = 4;

/// One untimed warm-up unit, then timed units until `budget` is spent.
/// The peak resident set is reset before each unit and read after it.
/// After each unit the reference kernel runs once, then the construction
/// call is timed on its own in a short burst, so the `setup_s` samples
/// span the whole run and each has a reference time from its moment.
pub fn untraced(w: &mut dyn Workload, budget: Budget) -> Untraced {
    let mut out = Untraced::default();
    let mut reference = Reference::new();
    let warm = w.unit();
    reference.time();
    out.attempted += w.ops_per_unit();
    out.failed += warm.failed;
    let started = Instant::now();
    loop {
        reset_peak_rss();
        let u = w.unit();
        out.rss_mb.push(peak_rss_mb());
        let r = reference.time();
        out.run_s.push(u.run_s);
        out.reference_s.push(r);
        out.attempted += w.ops_per_unit();
        out.failed += u.failed;
        w.setup();
        out.setup_s.extend((1..SETUP_BURST).map(|_| (w.setup(), r)));
        if budget.done(out.run_s.len(), started) {
            return out;
        }
    }
}

/// The end-to-end metrics of an untraced phase, times as seconds on a
/// quiet host.
pub fn end_to_end(w: &dyn Workload, u: &Untraced) -> Vec<(&'static str, f64)> {
    let run_s = u.quiet_run_s();
    let setup_s: Vec<f64> = u.setup_s.iter().map(|&(t, r)| on_quiet_host(t, r)).collect();
    let timed_ops = w.ops_per_unit() as f64 * run_s.len() as f64;
    vec![
        ("setup_s", median(&setup_s).unwrap_or(0.0)),
        ("run_s.p50", percentile(&run_s, 50.0).unwrap_or(0.0)),
        ("ops_per_s", timed_ops / run_s.iter().sum::<f64>()),
        ("peak_rss_mb", median(&u.rss_mb).unwrap_or(0.0)),
    ]
}

/// Traced units until `budget` is spent, then the workload's layer
/// metrics plus the tracing overhead against the untraced median unit.
pub fn traced(w: &mut dyn Workload, budget: Budget, untraced_p50: f64) -> (Layers, Tracer) {
    let mut tr = Tracer::new();
    let started = Instant::now();
    let mut units = 0;
    loop {
        w.traced_unit(&mut tr);
        units += 1;
        if budget.done(units, started) {
            break;
        }
    }
    let mut layers = Layers::default();
    w.layers(&tr, units, &mut layers);
    let traced_p50 = median(&tr.durations("unit")).unwrap_or(0.0);
    layers.set("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0);
    (layers, tr)
}

/// Lowers the process's peak resident set (`VmHWM`) to its current
/// resident set. Where `/proc` does not allow it the peak is not reset
/// and later readings give the peak since the process started.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 where `/proc`
/// does not provide it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_resets_to_the_current_resident_set() {
        let big = vec![1u8; 128 << 20];
        std::hint::black_box(&big);
        let peak = peak_rss_mb();
        drop(big);
        reset_peak_rss();
        // Other tests may hold memory meanwhile, but not 64 MiB of it.
        assert!(peak_rss_mb() < peak - 64.0, "peak {peak} MiB was not reset");
    }
}
