//! Regenerates figure and experiment artifacts: `run_all [name ...]`
//! runs the named generators, or every one when no name is given. An
//! unknown name exits 2 and lists the valid names.

type Job = (&'static str, fn(&std::path::Path) -> bench::ExpResult);

const JOBS: [Job; 21] = [
    ("fig03", bench::figures::fig03::run),
    ("fig04", bench::figures::fig04::run),
    ("fig05", bench::figures::fig05::run),
    ("fig06", bench::figures::fig06::run),
    ("fig07", bench::figures::fig07::run),
    ("fig08", bench::figures::fig08::run),
    ("fig09", bench::figures::fig09::run),
    ("fig10", bench::figures::fig10::run),
    ("thm1", bench::figures::thm1::run),
    ("criterion_sweep", bench::experiments::criterion_sweep::run),
    ("fluid_vs_packet", bench::experiments::fluid_vs_packet::run),
    ("warmup", bench::experiments::warmup::run),
    ("w_pm_transients", bench::experiments::w_pm_transients::run),
    ("delay_ablation", bench::experiments::delay_ablation::run),
    ("bcn_vs_qcn", bench::experiments::bcn_vs_qcn::run),
    ("pause_hol", bench::experiments::pause_hol::run),
    ("hetero_fairness", bench::experiments::hetero_fairness::run),
    ("transient_frontier", bench::experiments::transient_frontier::run),
    ("incast", bench::experiments::incast::run),
    ("fb_quantization", bench::experiments::fb_quantization::run),
    ("feedback_degradation", bench::experiments::feedback_degradation::run),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names.iter().find(|n| JOBS.iter().all(|(job, _)| job != n)) {
        let valid: Vec<&str> = JOBS.iter().map(|(job, _)| *job).collect();
        telemetry::log_line!("unknown generator `{bad}`; valid names: {}", valid.join(" "));
        std::process::exit(2);
    }
    let out = bench::common::out_dir();
    let mut failures = 0;
    for (name, job) in
        JOBS.iter().filter(|(job, _)| names.is_empty() || names.iter().any(|n| n == job))
    {
        if let Err(e) = job(&out) {
            telemetry::log_line!("{name} FAILED: {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        telemetry::log_line!("{failures} generator(s) failed");
        std::process::exit(1);
    }
    println!("\nartifacts regenerated under {}", out.display());
}
