//! The reference kernel: a fixed piece of work that calls none of the
//! repository's code, timed right after every timed unit. On a shared
//! host the speed of a core drifts by a third and more over seconds to
//! minutes, as other tenants load it; the kernel slows with the host,
//! so the end-to-end times divide it out.
//!
//! The kernel formats a fixed set of floating-point numbers with `{:?}`
//! and parses them back, the shape of the JSONL codecs and of much of
//! the engines' arithmetic: integer multiplies, divides and branches
//! over data that stays in the core's caches. In ten-run studies on a
//! 2-vCPU Xeon VM it tracked every workload's unit time more closely
//! than the other kernels tried (pointer chases sized for L2, the
//! last-level cache and DRAM, a streaming sum, a heap-driven event loop
//! over a 4 MiB table, independent integer chains, and their sums).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Numbers formatted and parsed per pass.
const VALUES: usize = 2_000;
/// Passes per run; a run takes about 1.2 ms on a quiet host.
const PASSES: usize = 4;

/// The kernel's time on a quiet host: a 2-vCPU Intel Xeon VM at the
/// calm end of its range. End-to-end times are reported as seconds on a
/// host where the kernel takes this long.
pub const QUIET_S: f64 = 1.2e-3;

/// The kernel's inputs and its text buffer, made once so no run pays
/// for them.
pub struct Reference {
    values: Vec<f64>,
    text: String,
}

impl Reference {
    pub fn new() -> Self {
        let mut x = 0x5eed_u64;
        let values = (0..VALUES)
            .map(|_| {
                x = splitmix64(x);
                (x >> 11) as f64 / (1u64 << 53) as f64 * 1e6
            })
            .collect();
        Self { values, text: String::with_capacity(VALUES * 24) }
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut sum = 0.0;
        for _ in 0..PASSES {
            self.text.clear();
            for v in &self.values {
                let _ = write!(self.text, "{v:?},");
            }
            sum += self.text.split(',').filter_map(|t| t.parse::<f64>().ok()).sum::<f64>();
        }
        black_box(sum);
        t0.elapsed().as_secs_f64()
    }
}

/// One step of splitmix64, kept here so no change to the repository
/// changes the kernel.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `t` seconds measured next to a kernel run of `reference` seconds, as
/// seconds on a host where the kernel takes [`QUIET_S`].
pub fn on_quiet_host(t: f64, reference: f64) -> f64 {
    t * QUIET_S / reference
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_round_trips_its_numbers() {
        let mut r = Reference::new();
        assert!(r.time() > 0.0);
        let parsed: Vec<f64> = r.text.split(',').filter_map(|t| t.parse().ok()).collect();
        assert_eq!(parsed, r.values, "every number parses back to itself");
    }

    #[test]
    fn times_scale_by_the_kernel_s_slowdown() {
        assert_eq!(on_quiet_host(0.04, QUIET_S), 0.04);
        // On a host twice as slow as the quiet one, a unit that took
        // 0.04 s took 0.02 s of quiet-host time.
        assert!((on_quiet_host(0.04, 2.0 * QUIET_S) - 0.02).abs() < 1e-15);
    }
}
