//! Hand-rolled `--flag value` parsing (the workspace's dependency policy
//! excludes an argument-parsing crate; the grammar here is a flat list
//! of `--key value` pairs, which this covers completely).

use std::collections::BTreeMap;

use bcn::{BcnParams, Engine};
use dcesim::faults::FaultConfig;
use dcesim::hybrid::HybridGuards;
use dcesim::sched::Scheduler;
use dcesim::time::Duration;
use dcesim::topo::{TopoSpec, Traffic};
use telemetry::TelemetryLevel;

use crate::CliError;

/// Parsed `--key value` pairs with typed accessors.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
}

impl Flags {
    /// Parses an argument list of `--key value` pairs.
    ///
    /// # Errors
    ///
    /// Rejects positional arguments, repeated keys, and keys without a
    /// value.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut values = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected positional argument `{arg}`")));
            };
            // Boolean flags: present without a value when the next token
            // is another flag or the list ends.
            let value = match it.clone().next() {
                Some(v) if !v.starts_with("--") => {
                    it.next();
                    v.clone()
                }
                _ => "true".to_string(),
            };
            if values.insert(key.to_string(), value).is_some() {
                return Err(CliError::Usage(format!("flag --{key} given twice")));
            }
        }
        Ok(Self { values })
    }

    /// A string flag.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A float flag (scientific notation accepted).
    ///
    /// # Errors
    ///
    /// Rejects unparsable numbers.
    pub fn get_f64(&self, key: &str) -> Result<Option<f64>, CliError> {
        self.values
            .get(key)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| CliError::Usage(format!("--{key} expects a number, got `{v}`")))
            })
            .transpose()
    }

    /// An integer flag.
    ///
    /// # Errors
    ///
    /// Rejects unparsable integers.
    pub fn get_usize(&self, key: &str) -> Result<Option<usize>, CliError> {
        self.values
            .get(key)
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| CliError::Usage(format!("--{key} expects an integer, got `{v}`")))
            })
            .transpose()
    }

    /// Whether a boolean flag is present and truthy.
    #[must_use]
    pub fn get_bool(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true" | "1" | "yes"))
    }

    /// Verifies every provided key is in the allowed set.
    ///
    /// # Errors
    ///
    /// Names the first unknown flag.
    pub fn ensure_known(&self, allowed: &[&str]) -> Result<(), CliError> {
        for key in self.values.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(CliError::Usage(format!("unknown flag --{key}")));
            }
        }
        Ok(())
    }
}

/// The parameter flags shared by every subcommand.
pub const PARAM_FLAGS: &[&str] =
    &["n", "capacity", "q0", "buffer", "gi", "gd", "ru", "w", "pm", "qsc"];

/// Resolves the global `--telemetry <off|summary|full>` flag, falling
/// back to `default` when absent.
///
/// # Errors
///
/// Rejects unknown level names.
pub fn telemetry_level(flags: &Flags, default: TelemetryLevel) -> Result<TelemetryLevel, CliError> {
    match flags.get("telemetry") {
        None => Ok(default),
        Some(v) => v.parse().map_err(CliError::Usage),
    }
}

/// Resolves the `--engine <analytic|dopri5>` flag for the fluid
/// integration commands, falling back to the library default
/// (the semi-analytic engine) when absent.
///
/// # Errors
///
/// Rejects unknown engine names.
pub fn engine_choice(flags: &Flags) -> Result<Engine, CliError> {
    match flags.get("engine") {
        None => Ok(Engine::default()),
        Some("analytic") => Ok(Engine::Analytic),
        Some("dopri5") => Ok(Engine::Dopri5),
        Some(v) => Err(CliError::Usage(format!("--engine expects analytic or dopri5, got `{v}`"))),
    }
}

/// The engine behind the packet-level commands: the pure packet engine
/// or the hybrid fluid–packet co-simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// Every event packet-simulated (the default).
    #[default]
    Packet,
    /// Epoch-switching co-simulation: quiescent stretches fast-forwarded
    /// with the closed-form fluid solution.
    Hybrid,
}

/// Resolves the `--engine <packet|hybrid>` flag for the packet-level
/// commands (`packet`, `batch`, `trace packet`), defaulting to the pure
/// packet engine when absent.
///
/// # Errors
///
/// Rejects fluid-integrator names and unknown engines, listing the
/// engines valid here.
pub fn sim_engine_choice(flags: &Flags) -> Result<SimEngine, CliError> {
    match flags.get("engine") {
        None | Some("packet") => Ok(SimEngine::Packet),
        Some("hybrid") => Ok(SimEngine::Hybrid),
        Some(v) => Err(CliError::Usage(format!(
            "--engine expects packet or hybrid for the packet-level commands, got `{v}` \
             (analytic and dopri5 apply to the fluid scenarios only)"
        ))),
    }
}

/// Parses the `--hybrid-guard key=value,key=value` specification into
/// the hybrid epoch-controller knobs, starting from the conservative
/// defaults.
///
/// Keys: `eq` (equilibrium-ball half-width, fraction), `margin` (queue
/// safety margin, fraction), `min-ff` (seconds), `max-ff` (seconds, 0 =
/// unlimited), `max-legs` (region switches per grid step),
/// `always-packet` (boolean; bare key means true).
///
/// # Errors
///
/// Rejects malformed items, unknown keys, unparsable values, and knob
/// combinations [`HybridGuards::validate`] refuses.
pub fn hybrid_guards_from(flags: &Flags) -> Result<HybridGuards, CliError> {
    let mut g = HybridGuards::default();
    let Some(spec) = flags.get("hybrid-guard") else {
        return Ok(g);
    };
    for item in spec.split(',').filter(|s| !s.is_empty()) {
        // `always-packet` may appear bare; every other key needs `=`.
        let (key, value) = item.split_once('=').unwrap_or((item, "true"));
        let num = || {
            value.parse::<f64>().map_err(|_| {
                CliError::Usage(format!("--hybrid-guard {key} expects a number, got `{value}`"))
            })
        };
        match key {
            "eq" => g.eq_frac = num()?,
            "margin" => g.q_margin_frac = num()?,
            "min-ff" => g.min_ff_secs = num()?,
            "max-ff" => g.max_ff_secs = num()?,
            "max-legs" => {
                g.max_legs = value.parse::<u32>().map_err(|_| {
                    CliError::Usage(format!(
                        "--hybrid-guard max-legs expects an integer, got `{value}`"
                    ))
                })?;
            }
            "always-packet" => g.always_packet = matches!(value, "true" | "1" | "yes"),
            other => {
                return Err(CliError::Usage(format!("unknown --hybrid-guard key `{other}`")));
            }
        }
    }
    g.validate()?;
    Ok(g)
}

/// Resolves the `--scheduler <wheel|heap>` flag for the packet-level
/// commands, falling back to the library default (the timing wheel)
/// when absent.
///
/// # Errors
///
/// Rejects unknown scheduler names.
pub fn scheduler_choice(flags: &Flags) -> Result<Scheduler, CliError> {
    match flags.get("scheduler") {
        None => Ok(Scheduler::default()),
        Some("wheel") => Ok(Scheduler::Wheel),
        Some("heap") => Ok(Scheduler::Heap),
        Some(v) => Err(CliError::Usage(format!("--scheduler expects wheel or heap, got `{v}`"))),
    }
}

/// Parses the `--faults key=value,key=value` specification into a
/// [`FaultConfig`] plus the `panic-seed` list (batch-only test hook).
///
/// Keys: `seed`, `feedback-loss`, `feedback-corrupt`, `feedback-delay`
/// (seconds), `feedback-reorder`, `reorder-window` (seconds),
/// `data-loss`, `data-burst`, `flap-period` (seconds), `flap-down`
/// (seconds), `pause-storm`, `pause-factor`, `panic-seed` (repeatable).
///
/// # Errors
///
/// Rejects malformed items, unknown keys, unparsable values, and
/// configurations [`FaultConfig::validate`] refuses.
pub fn faults_from(flags: &Flags) -> Result<(FaultConfig, Vec<u64>), CliError> {
    let mut cfg = FaultConfig::none();
    let mut panic_seeds = Vec::new();
    let Some(spec) = flags.get("faults") else {
        return Ok((cfg, panic_seeds));
    };
    for item in spec.split(',').filter(|s| !s.is_empty()) {
        let Some((key, value)) = item.split_once('=') else {
            return Err(CliError::Usage(format!(
                "--faults expects comma-separated key=value items, got `{item}`"
            )));
        };
        let num = || {
            value.parse::<f64>().map_err(|_| {
                CliError::Usage(format!("--faults {key} expects a number, got `{value}`"))
            })
        };
        let int = || {
            value.parse::<u64>().map_err(|_| {
                CliError::Usage(format!("--faults {key} expects an integer, got `{value}`"))
            })
        };
        let dur = || {
            let v = num()?;
            if !(v.is_finite() && v >= 0.0) {
                return Err(CliError::Usage(format!(
                    "--faults {key} expects a non-negative duration in seconds, got `{value}`"
                )));
            }
            Ok(Duration::from_secs(v))
        };
        match key {
            "seed" => cfg.seed = int()?,
            "feedback-loss" => cfg.feedback_loss = num()?,
            "feedback-corrupt" => cfg.feedback_corrupt = num()?,
            "feedback-delay" => cfg.feedback_extra_delay = dur()?,
            "feedback-reorder" => cfg.feedback_reorder = num()?,
            "reorder-window" => cfg.reorder_window = dur()?,
            "data-loss" => cfg.data_loss = num()?,
            "data-burst" => cfg.data_burst_len = int()?,
            "flap-period" => cfg.link_flap_period = dur()?,
            "flap-down" => cfg.link_flap_down = dur()?,
            "pause-storm" => cfg.pause_storm = num()?,
            "pause-factor" => cfg.pause_storm_factor = num()?,
            "panic-seed" => panic_seeds.push(int()?),
            other => {
                return Err(CliError::Usage(format!("unknown --faults key `{other}`")));
            }
        }
    }
    cfg.validate()?;
    Ok((cfg, panic_seeds))
}

/// Resolves `--topo` / `--traffic` into a fabric spec plus traffic
/// pattern for the multi-hop engine. Returns `None` when `--topo` is
/// absent (a bare `--traffic` is a usage error). Without `--traffic` —
/// or with an `incast` that omits `senders` — the pattern defaults to
/// every host fanning into the last one at 2× its access capacity.
///
/// # Errors
///
/// Propagates [`TopoSpec::parse`] / [`Traffic::parse`] rejections as
/// typed config errors.
pub fn topo_request(flags: &Flags) -> Result<Option<(TopoSpec, Traffic)>, CliError> {
    let Some(spec) = flags.get("topo") else {
        if flags.get("traffic").is_some() {
            return Err(CliError::Usage("--traffic requires --topo".into()));
        }
        return Ok(None);
    };
    let topo = TopoSpec::parse(spec)?;
    let mut traffic = match flags.get("traffic") {
        Some(t) => Traffic::parse(t)?,
        None => Traffic::Incast { senders: 0, dst: usize::MAX, load: 2.0 },
    };
    if let Traffic::Incast { senders, .. } = &mut traffic {
        if *senders == 0 {
            *senders = topo.hosts().saturating_sub(1);
        }
    }
    Ok(Some((topo, traffic)))
}

/// Builds a [`BcnParams`] from the paper defaults overridden by flags.
///
/// # Errors
///
/// Propagates flag-parse failures and parameter-validation failures.
pub fn params_from(flags: &Flags) -> Result<BcnParams, CliError> {
    let mut p = BcnParams::paper_defaults();
    if let Some(n) = flags.get_usize("n")? {
        p.n_flows =
            u32::try_from(n).map_err(|_| CliError::Usage(format!("--n {n} out of range")))?;
    }
    if let Some(v) = flags.get_f64("capacity")? {
        p.capacity = v;
    }
    if let Some(v) = flags.get_f64("q0")? {
        p.q0 = v;
    }
    if let Some(v) = flags.get_f64("buffer")? {
        p = p.with_buffer(v);
    }
    if let Some(v) = flags.get_f64("gi")? {
        p.gi = v;
    }
    if let Some(v) = flags.get_f64("gd")? {
        p.gd = v;
    }
    if let Some(v) = flags.get_f64("ru")? {
        p.ru = v;
    }
    if let Some(v) = flags.get_f64("w")? {
        p.w = v;
    }
    if let Some(v) = flags.get_f64("pm")? {
        p.pm = v;
    }
    if let Some(v) = flags.get_f64("qsc")? {
        p.qsc = v;
    }
    p.validate().map_err(|e| CliError::Analysis(e.to_string()))?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_key_value_pairs() {
        let f = Flags::parse(&argv("--n 10 --capacity 1e9 --nonlinear")).unwrap();
        assert_eq!(f.get_usize("n").unwrap(), Some(10));
        assert_eq!(f.get_f64("capacity").unwrap(), Some(1e9));
        assert!(f.get_bool("nonlinear"));
        assert!(!f.get_bool("absent"));
    }

    #[test]
    fn rejects_positional_and_duplicates() {
        assert!(Flags::parse(&argv("stray")).is_err());
        assert!(Flags::parse(&argv("--n 1 --n 2")).is_err());
    }

    #[test]
    fn rejects_bad_numbers() {
        let f = Flags::parse(&argv("--n abc")).unwrap();
        assert!(f.get_usize("n").is_err());
    }

    #[test]
    fn unknown_flags_are_caught() {
        let f = Flags::parse(&argv("--bogus 1")).unwrap();
        assert!(f.ensure_known(&["n"]).is_err());
        assert!(f.ensure_known(&["bogus"]).is_ok());
    }

    #[test]
    fn params_default_to_paper_and_override() {
        let f = Flags::parse(&argv("--n 100 --buffer 2e7")).unwrap();
        let p = params_from(&f).unwrap();
        assert_eq!(p.n_flows, 100);
        assert_eq!(p.buffer, 2e7);
        assert_eq!(p.capacity, 10e9); // untouched default
    }

    #[test]
    fn telemetry_level_parses_and_defaults() {
        let f = Flags::parse(&argv("--telemetry summary")).unwrap();
        assert_eq!(telemetry_level(&f, TelemetryLevel::Off).unwrap(), TelemetryLevel::Summary);
        let f = Flags::parse(&argv("")).unwrap();
        assert_eq!(telemetry_level(&f, TelemetryLevel::Full).unwrap(), TelemetryLevel::Full);
        let f = Flags::parse(&argv("--telemetry verbose")).unwrap();
        assert!(telemetry_level(&f, TelemetryLevel::Off).is_err());
    }

    #[test]
    fn engine_choice_parses_and_defaults() {
        let f = Flags::parse(&argv("--engine dopri5")).unwrap();
        assert_eq!(engine_choice(&f).unwrap(), Engine::Dopri5);
        let f = Flags::parse(&argv("--engine analytic")).unwrap();
        assert_eq!(engine_choice(&f).unwrap(), Engine::Analytic);
        let f = Flags::parse(&argv("")).unwrap();
        assert_eq!(engine_choice(&f).unwrap(), Engine::Analytic);
        let f = Flags::parse(&argv("--engine rk4")).unwrap();
        assert!(engine_choice(&f).is_err());
    }

    #[test]
    fn sim_engine_choice_parses_and_rejects_fluid_engines() {
        let f = Flags::parse(&argv("")).unwrap();
        assert_eq!(sim_engine_choice(&f).unwrap(), SimEngine::Packet);
        let f = Flags::parse(&argv("--engine packet")).unwrap();
        assert_eq!(sim_engine_choice(&f).unwrap(), SimEngine::Packet);
        let f = Flags::parse(&argv("--engine hybrid")).unwrap();
        assert_eq!(sim_engine_choice(&f).unwrap(), SimEngine::Hybrid);
        for fluid in ["analytic", "dopri5", "rk4"] {
            let f = Flags::parse(&argv(&format!("--engine {fluid}"))).unwrap();
            let err = sim_engine_choice(&f).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{fluid}");
            let msg = err.to_string();
            assert!(msg.contains("packet or hybrid"), "{fluid}: {msg}");
        }
    }

    #[test]
    fn hybrid_guard_spec_parses_every_key() {
        let f = Flags::parse(&argv(
            "--hybrid-guard eq=0.1,margin=0.2,min-ff=5e-4,max-ff=0.1,max-legs=8,always-packet",
        ))
        .unwrap();
        let g = hybrid_guards_from(&f).unwrap();
        assert_eq!(g.eq_frac, 0.1);
        assert_eq!(g.q_margin_frac, 0.2);
        assert_eq!(g.min_ff_secs, 5e-4);
        assert_eq!(g.max_ff_secs, 0.1);
        assert_eq!(g.max_legs, 8);
        assert!(g.always_packet);
        // Absent flag keeps the defaults.
        let f = Flags::parse(&argv("")).unwrap();
        assert_eq!(hybrid_guards_from(&f).unwrap(), HybridGuards::default());
    }

    #[test]
    fn hybrid_guard_spec_rejects_garbage() {
        for bad in [
            "--hybrid-guard bogus=1",      // unknown key
            "--hybrid-guard eq=often",     // not a number
            "--hybrid-guard eq=0.9",       // fraction outside (0, 0.5)
            "--hybrid-guard min-ff=-1",    // negative duration
            "--hybrid-guard max-legs=0",   // zero leg budget
            "--hybrid-guard max-legs=1.5", // not an integer
        ] {
            let f = Flags::parse(&argv(bad)).unwrap();
            assert!(hybrid_guards_from(&f).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn scheduler_choice_parses_and_defaults() {
        let f = Flags::parse(&argv("--scheduler heap")).unwrap();
        assert_eq!(scheduler_choice(&f).unwrap(), Scheduler::Heap);
        let f = Flags::parse(&argv("--scheduler wheel")).unwrap();
        assert_eq!(scheduler_choice(&f).unwrap(), Scheduler::Wheel);
        let f = Flags::parse(&argv("")).unwrap();
        assert_eq!(scheduler_choice(&f).unwrap(), Scheduler::Wheel);
        let f = Flags::parse(&argv("--scheduler calendar")).unwrap();
        assert!(scheduler_choice(&f).is_err());
    }

    #[test]
    fn invalid_params_are_reported() {
        let f = Flags::parse(&argv("--q0 1e9")).unwrap(); // q0 above buffer
        let err = params_from(&f).unwrap_err();
        assert!(err.to_string().contains("q0"));
    }

    #[test]
    fn faults_spec_parses_every_key() {
        let f = Flags::parse(&argv(
            "--faults seed=9,feedback-loss=0.1,feedback-corrupt=0.05,feedback-delay=1e-4,\
             feedback-reorder=0.2,reorder-window=2e-4,data-loss=0.01,data-burst=3,\
             flap-period=0.01,flap-down=0.001,pause-storm=0.5,pause-factor=4,panic-seed=2",
        ))
        .unwrap();
        let (cfg, panic_seeds) = faults_from(&f).unwrap();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.feedback_loss, 0.1);
        assert_eq!(cfg.data_burst_len, 3);
        assert_eq!(cfg.pause_storm_factor, 4.0);
        assert!(cfg.enabled());
        assert_eq!(panic_seeds, vec![2]);
    }

    #[test]
    fn absent_faults_flag_yields_the_inert_plan() {
        let f = Flags::parse(&argv("")).unwrap();
        let (cfg, panic_seeds) = faults_from(&f).unwrap();
        assert!(!cfg.enabled());
        assert!(panic_seeds.is_empty());
    }

    #[test]
    fn faults_spec_rejects_garbage() {
        for bad in [
            "--faults feedback-loss",              // no value
            "--faults bogus=1",                    // unknown key
            "--faults feedback-loss=often",        // not a number
            "--faults feedback-loss=1.5",          // out of [0, 1]
            "--faults feedback-delay=-1",          // negative duration
            "--faults data-loss=0.1,data-burst=0", // burst needs >= 1
        ] {
            let f = Flags::parse(&argv(bad)).unwrap();
            assert!(faults_from(&f).is_err(), "{bad} should be rejected");
        }
    }
}
