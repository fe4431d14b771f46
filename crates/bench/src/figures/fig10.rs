//! Fig. 10: Case 4 (node/node) — generated through the shared per-case harness
//! (see [`crate::figures::case_fig`] for the panel layout).

use std::path::Path;

use bcn::CaseId;

use crate::figures::case_fig::run_case;
use crate::ExpResult;

/// Runs the generator; artifacts land under `out`.
///
/// # Errors
///
/// Propagates I/O failures while writing artifacts.
pub fn run(out: &Path) -> ExpResult {
    run_case(out, CaseId::Case4, "fig10_case", "Fig. 10: Case 4 (node/node)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("fig10_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        assert!(dir.join("fig10_case_phase.svg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
