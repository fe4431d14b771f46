//! Shared helpers for the experiment binaries.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use bcn::simulate::{fluid_trajectory, FluidOptions};
use bcn::{BcnFluid, BcnParams};
use dcesim::faults::splitmix64;
use plotkit::{Series, SvgPlot};
use telemetry::{fmt_num, Record, Scalar};

/// Where artifacts go: `$DCE_BCN_RESULTS` or `./results`.
#[must_use]
pub fn out_dir() -> PathBuf {
    std::env::var_os("DCE_BCN_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// A traced trajectory decomposed into plottable series.
#[derive(Debug, Clone, PartialEq)]
pub struct Traced {
    /// Times (s).
    pub ts: Vec<f64>,
    /// Queue deviation `x = q - q0` (bits).
    pub xs: Vec<f64>,
    /// Rate deviation `y = N r - C` (bit/s).
    pub ys: Vec<f64>,
    /// Number of region switches.
    pub switches: usize,
}

/// Integrates the switched fluid system and returns plottable arrays.
///
/// # Panics
///
/// Panics if the integration fails (experiment configurations are fixed
/// and known-good; a failure is a bug worth crashing on).
#[must_use]
pub fn trace(sys: &BcnFluid, p0: [f64; 2], t_end: f64, samples: usize) -> Traced {
    let opts = FluidOptions::default().with_t_end(t_end).with_record_dt(t_end / samples as f64);
    let sol = fluid_trajectory(sys, p0, &opts).expect("fluid integration");
    Traced {
        ts: sol.solution.times().to_vec(),
        xs: sol.solution.component(0),
        ys: sol.solution.component(1),
        switches: sol.switch_count(),
    }
}

/// Builds the standard phase-plane plot: trajectory series plus the
/// switching line `x + k y = 0` and the buffer walls `x = -q0`,
/// `x = B - q0`.
#[must_use]
pub fn phase_plot(title: &str, params: &BcnParams, series: Vec<Series>) -> SvgPlot {
    let mut plot = SvgPlot::new(title, "x = q - q0 (bits)", "y = N r - C (bit/s)");
    // The switching line across the y-range of the first series.
    let k = params.k();
    if let Some(s) = series.first() {
        let y_lo = s.ys.iter().copied().fold(f64::INFINITY, f64::min);
        let y_hi = s.ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if y_lo.is_finite() {
            let line =
                Series::line("switching line", &[-k * y_lo, -k * y_hi], &[y_lo, y_hi], "#999999");
            plot = plot.with_series(line);
        }
    }
    for s in series {
        plot = plot.with_series(s);
    }
    plot.with_vline(-params.q0, "#d62728").with_vline(params.buffer - params.q0, "#d62728")
}

/// Prints a section banner for the console output.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Folds `nums` into a 53-bit campaign digest (splitmix64 over the f64
/// bit patterns, masked so the value survives the flat-JSONL f64
/// funnel). Grid campaigns stamp their checkpoint with it so a resumed
/// sweep refuses points recorded under a different grid.
#[must_use]
pub fn grid_digest(nums: &[f64]) -> u64 {
    let h = nums.iter().fold(GOLDEN_GAMMA, |h, v| splitmix64(h ^ v.to_bits()));
    h & ((1 << 53) - 1)
}

/// The splitmix64 stream increment (2^64 / golden ratio).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Draws the next value of the splitmix64 stream whose state is
/// `*state`, advancing it: the bench binaries' deterministic PRNG.
pub fn splitmix_next(state: &mut u64) -> u64 {
    let z = splitmix64(*state);
    *state = state.wrapping_add(GOLDEN_GAMMA);
    z
}

/// Whether `DCE_BCN_QUICK` is set: CI smoke mode, in which the bench
/// binaries and experiments shrink their workloads and skip speed
/// gates.
#[must_use]
pub fn quick() -> bool {
    std::env::var_os("DCE_BCN_QUICK").is_some()
}

/// Crash-recoverable grid campaigns: an append-only flat-JSONL journal
/// of completed grid points.
///
/// A sweep opens the journal up front, skips every point the journal
/// already holds, and appends each freshly computed point with a
/// `sync_data` barrier — so a SIGKILL anywhere in the campaign loses at
/// most the in-flight point, and the next run resumes where it died
/// while producing byte-identical artifacts. A torn tail line (the
/// record the crash interrupted) fails to parse and is simply re-run.
///
/// The experiment binaries activate this when `DCE_BCN_CHECKPOINT_DIR`
/// is set; the file is `<campaign>.ckpt.jsonl` in that directory.
#[derive(Debug)]
pub struct GridCheckpoint {
    file: std::fs::File,
    /// Journal line of each completed point, by key.
    restored: BTreeMap<String, String>,
}

impl GridCheckpoint {
    /// Opens (creating if needed) `<dir>/<campaign>.ckpt.jsonl`.
    ///
    /// An existing journal must carry the same schema header and grid
    /// `digest`; its completed points load into memory for
    /// [`GridCheckpoint::restored`]. A fresh journal is stamped with
    /// both before any point lands.
    ///
    /// # Errors
    ///
    /// I/O failures, a stale schema header, or a digest mismatch (the
    /// grid changed under the checkpoint — clear the directory).
    pub fn open_in(dir: &Path, campaign: &str, digest: u64) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{campaign}.ckpt.jsonl"));
        let existing = std::fs::read_to_string(&path).ok().filter(|t| !t.is_empty());
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        let mut restored = BTreeMap::new();
        match existing {
            Some(text) => {
                let mut lines = text.lines();
                if lines.next().is_none_or(|l| telemetry::check_schema_header(l).is_err()) {
                    return Err(std::io::Error::other(format!(
                        "{}: missing or stale schema header",
                        path.display()
                    )));
                }
                let found = lines.next().and_then(|l| Record::parse(l).ok()?.u64("digest").ok());
                if found != Some(digest) {
                    return Err(std::io::Error::other(format!(
                        "{}: grid digest mismatch (expected {digest}, found {found:?}); \
                         the campaign changed — use a fresh checkpoint directory",
                        path.display()
                    )));
                }
                for line in lines {
                    // A torn tail line is the point the crash caught
                    // mid-write: skip it and it re-runs.
                    let Some(key) = Record::parse(line).ok().and_then(|r| r.str("key").ok()) else {
                        continue;
                    };
                    restored.insert(key.to_string(), line.to_string());
                }
            }
            None => {
                writeln!(file, "{}", telemetry::schema_header())?;
                writeln!(file, "{{\"type\":\"campaign\",\"digest\":{digest}}}")?;
                file.sync_data()?;
            }
        }
        Ok(Self { file, restored })
    }

    /// The recorded point for `key`, when that point already completed.
    #[must_use]
    pub fn restored(&self, key: &str) -> Option<Record<'_>> {
        self.restored.get(key).and_then(|line| Record::parse(line).ok())
    }

    /// How many completed points the journal restored.
    #[must_use]
    pub fn restored_len(&self) -> usize {
        self.restored.len()
    }

    /// Durably appends a completed grid point (one flat-JSONL line,
    /// `sync_data` before returning). `key` must be quote-free; numbers
    /// are written with the shortest-round-trip formatter so restored
    /// points reproduce artifacts bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn record(&mut self, key: &str, fields: &[(&str, Scalar<'_>)]) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut line = format!("{{\"type\":\"grid_point\",\"key\":\"{key}\"");
        for &(k, v) in fields {
            match v {
                Scalar::Num(x) => {
                    let _ = write!(line, ",\"{k}\":{}", fmt_num(x));
                }
                Scalar::Str(s) => {
                    let _ = write!(line, ",\"{k}\":\"{s}\"");
                }
                Scalar::Bool(b) => {
                    let _ = write!(line, ",\"{k}\":{b}");
                }
            }
        }
        line.push('}');
        writeln!(self.file, "{line}")?;
        self.file.sync_data()
    }
}

/// Saves an SVG plot and reports the path.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_plot(plot: &SvgPlot, out: &Path, name: &str) -> std::io::Result<()> {
    let path = out.join(name);
    plot.save(&path)?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dir_defaults_to_results() {
        if std::env::var_os("DCE_BCN_RESULTS").is_none() {
            assert_eq!(out_dir(), PathBuf::from("results"));
        }
    }

    #[test]
    fn trace_produces_matching_lengths() {
        let params = BcnParams::test_defaults();
        let sys = BcnFluid::linearized(params.clone());
        let tr = trace(&sys, params.initial_point(), 0.5, 100);
        assert_eq!(tr.ts.len(), tr.xs.len());
        assert_eq!(tr.ts.len(), tr.ys.len());
        assert!(tr.ts.len() >= 100);
    }

    #[test]
    fn grid_checkpoint_restores_recorded_points_and_rejects_other_grids() {
        let dir = std::env::temp_dir().join(format!("bench_grid_ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let digest = grid_digest(&[1.0, 2.5]);

        let mut ck = GridCheckpoint::open_in(&dir, "demo", digest).unwrap();
        assert_eq!(ck.restored_len(), 0);
        ck.record(
            "loss=0.2",
            &[("max_queue", Scalar::Num(1.25e6)), ("stable", Scalar::Bool(false))],
        )
        .unwrap();
        drop(ck);

        let ck = GridCheckpoint::open_in(&dir, "demo", digest).unwrap();
        assert_eq!(ck.restored_len(), 1);
        let point = ck.restored("loss=0.2").unwrap();
        assert_eq!(point.f64("max_queue").unwrap().to_bits(), 1.25e6_f64.to_bits());
        assert!(!point.bool("stable").unwrap());
        assert!(ck.restored("loss=0.5").is_none());
        drop(ck);

        // A torn tail line (crash mid-append) only loses that point.
        let path = dir.join("demo.ckpt.jsonl");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"type\":\"grid_point\",\"key\":\"loss=0.5\",\"max_q");
        std::fs::write(&path, &text).unwrap();
        let ck = GridCheckpoint::open_in(&dir, "demo", digest).unwrap();
        assert_eq!(ck.restored_len(), 1);
        drop(ck);

        // A different grid refuses the journal outright.
        assert!(GridCheckpoint::open_in(&dir, "demo", digest ^ 1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_digest_separates_grids_and_fits_53_bits() {
        let a = grid_digest(&[0.0, 0.05, 0.1]);
        let b = grid_digest(&[0.0, 0.05, 0.2]);
        assert_ne!(a, b);
        assert_eq!(a, 0x0009_5c1e_ec8d_efb8, "journals stamped earlier must still open");
        assert!(a < (1 << 53) && b < (1 << 53));
    }

    #[test]
    fn splitmix_stream_matches_the_reference_sequence() {
        let mut state = 0;
        let draws: Vec<u64> = (0..3).map(|_| splitmix_next(&mut state)).collect();
        assert_eq!(draws, [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]);
    }

    #[test]
    fn phase_plot_renders_with_walls() {
        let params = BcnParams::test_defaults();
        let s = Series::line("t", &[0.0, 1.0], &[0.0, 1.0], "#000000");
        let svg = phase_plot("demo", &params, vec![s]).render();
        assert!(svg.contains("switching line"));
        assert!(svg.contains("stroke-dasharray"));
    }
}
