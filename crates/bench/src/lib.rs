//! The experiment harness: every committed `results/<name>.txt` comes
//! from one entry of the [`figures`] table, regenerated by the one
//! binary, `um-sweep`:
//!
//! ```text
//! cargo run --release -p um-bench -- fig14
//! cargo run --release -p um-bench -- --list
//! ```
//!
//! The driver honours four environment variables:
//!
//! - `UM_SCALE`: `quick` (seconds per figure, noisier) or `full`
//!   (default; the scale used for EXPERIMENTS.md). Anything else is
//!   refused.
//! - `UM_SEED`: master seed (default 42).
//! - `UM_THREADS`: sweep worker-pool size (default: all cores; `1`
//!   forces serial execution). Results are bit-identical at any value.
//! - `UM_SANITIZER`: set to `1` to require the runtime invariant
//!   checkers. The checkers only exist when the binary was built with
//!   `--features sim-sanitizer`; a binary built without it refuses to
//!   run rather than silently skipping the checks.

use umanycore::experiments::cluster::ClusterScale;
use umanycore::experiments::Scale;

use crate::scenario::Scenario;

pub mod benchjson;
pub mod engine;
pub mod figures;
pub mod scenario;

/// The run scale `UM_SCALE` and `UM_SEED` select. [`EnvScale::from_env`]
/// is the one place either variable is read; every figure and scenario
/// derives its scale from the value it returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnvScale {
    /// `UM_SCALE=quick`: reduced horizons (and, for the rack sweeps, a
    /// smaller rack). Unset or `full` selects the figure scale.
    pub quick: bool,
    /// `UM_SEED`: overrides the master seed (default 42).
    pub seed: Option<u64>,
}

impl EnvScale {
    /// Reads `UM_SCALE`/`UM_SEED` from the process environment.
    ///
    /// # Errors
    ///
    /// See [`EnvScale::from_values`].
    pub fn from_env() -> Result<Self, String> {
        Self::from_values(
            std::env::var("UM_SCALE").ok().as_deref(),
            std::env::var("UM_SEED").ok().as_deref(),
        )
    }

    /// [`EnvScale::from_env`] with the values passed explicitly, so tests
    /// can exercise the parsing without touching process-global state.
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable when `scale` is neither
    /// `quick` nor `full`, or `seed` is not an integer.
    pub fn from_values(scale: Option<&str>, seed: Option<&str>) -> Result<Self, String> {
        let quick = match scale {
            None | Some("full") => false,
            Some("quick") => true,
            Some(other) => return Err(format!("UM_SCALE must be quick|full, got `{other}`")),
        };
        let seed = seed
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("UM_SEED must be an integer, got `{s}`"))
            })
            .transpose()?;
        Ok(Self { quick, seed })
    }

    /// `quick` or `full`: the `scale` label of um-sweep's benchjson
    /// document.
    pub fn label(self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }

    /// The single-node experiment scale.
    pub fn scale(self) -> Scale {
        let base = if self.quick {
            Scale::quick()
        } else {
            Scale::default()
        };
        Scale {
            seed: self.seed.unwrap_or(base.seed),
            ..base
        }
    }

    /// The rack experiment scale.
    pub fn cluster(self) -> ClusterScale {
        let base = if self.quick {
            ClusterScale::quick()
        } else {
            ClusterScale::full()
        };
        ClusterScale {
            seed: self.seed.unwrap_or(base.seed),
            ..base
        }
    }

    /// Applies the selection to a scenario: `quick` takes the horizons
    /// of [`EnvScale::scale`] (a grid with a nodes axis: of
    /// [`EnvScale::cluster`]), and the seed replaces the master seed.
    pub fn apply(self, s: &mut Scenario) {
        if self.quick {
            let (horizon_us, warmup_us) = if s.runs_cluster() {
                let rack = self.cluster();
                (rack.horizon_us, rack.warmup_us)
            } else {
                let node = self.scale();
                (node.horizon_us, node.warmup_us)
            };
            s.scale.horizon_us = horizon_us;
            s.scale.warmup_us = warmup_us;
        }
        if let Some(seed) = self.seed {
            s.scale.seed = seed;
        }
    }
}

/// Honours `UM_SANITIZER`: announces the runtime checkers on stderr when
/// they are compiled in, and refuses to run when they are requested but
/// absent.
///
/// # Panics
///
/// Panics when `UM_SANITIZER` requests the runtime checkers but the
/// binary was built without the `sim-sanitizer` feature.
pub fn sanitizer_check() {
    match sanitizer_status(
        std::env::var("UM_SANITIZER").ok().as_deref(),
        cfg!(feature = "sim-sanitizer"),
    ) {
        Ok(true) => eprintln!("um-bench: sim-sanitizer active (runtime invariant checkers on)"),
        Ok(false) => {}
        Err(msg) => panic!("{msg}"),
    }
}

/// The standard figure header every result starts with.
pub fn header_text(figure: &str, caption: &str) -> String {
    format!("== {figure} ==\n{caption}\n\n")
}

/// Resolves the `UM_SANITIZER` request against the compiled feature set:
/// `Ok(true)` when the checkers are compiled in, `Ok(false)` when not
/// requested, `Err` when requested but unavailable.
///
/// # Errors
///
/// Returns the refusal message when `var` requests the checkers but the
/// binary was compiled without them.
pub fn sanitizer_status(var: Option<&str>, compiled: bool) -> Result<bool, String> {
    let requested = var.is_some_and(|v| !v.is_empty() && v != "0");
    if requested && !compiled {
        return Err(
            "UM_SANITIZER is set but this binary was built without the `sim-sanitizer` \
             feature; rebuild with `cargo run --release --features sim-sanitizer -p um-bench ...`"
                .to_string(),
        );
    }
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(scale: Option<&str>, seed: Option<&str>) -> EnvScale {
        EnvScale::from_values(scale, seed).expect("valid values")
    }

    #[test]
    fn default_scale_is_full() {
        let s = env(None, None);
        assert_eq!(s, env(Some("full"), None));
        assert_eq!(s.label(), "full");
        assert_eq!(s.scale(), Scale::default());
        assert!(s.scale().horizon_us >= Scale::quick().horizon_us);
    }

    #[test]
    fn quick_scale_selected_by_value() {
        assert_eq!(env(Some("quick"), None).scale(), Scale::quick());
        assert_eq!(env(Some("quick"), None).label(), "quick");
        // A typo must not silently run the (minutes-long) full scale.
        let err = EnvScale::from_values(Some("quik"), None).expect_err("unknown scale");
        assert!(err.contains("quick|full") && err.contains("quik"), "{err}");
    }

    #[test]
    fn seed_override_applies() {
        let s = env(None, Some("7")).scale();
        assert_eq!(s.seed, 7);
        assert_eq!(
            Scale { seed: 42, ..s },
            Scale::default(),
            "seed is the only field UM_SEED changes"
        );
    }

    #[test]
    fn non_integer_seed_rejected() {
        let err = EnvScale::from_values(None, Some("forty-two")).expect_err("bad seed");
        assert!(err.contains("UM_SEED must be an integer"), "{err}");
    }

    #[test]
    fn cluster_scale_parsing_mirrors_scale_parsing() {
        assert_eq!(env(None, None).cluster(), ClusterScale::full());
        assert_eq!(env(Some("quick"), None).cluster(), ClusterScale::quick());
        let s = env(Some("quick"), Some("9")).cluster();
        assert_eq!(s.seed, 9);
        assert_eq!(ClusterScale { seed: 42, ..s }, ClusterScale::quick());
    }

    #[test]
    fn sanitizer_request_without_feature_refused() {
        assert!(sanitizer_status(Some("1"), false).is_err());
        assert!(sanitizer_status(Some("yes"), false).is_err());
    }

    #[test]
    fn sanitizer_not_requested_reports_compile_state() {
        assert_eq!(sanitizer_status(None, false), Ok(false));
        assert_eq!(sanitizer_status(Some("0"), false), Ok(false));
        assert_eq!(sanitizer_status(Some(""), false), Ok(false));
        assert_eq!(sanitizer_status(None, true), Ok(true));
        assert_eq!(sanitizer_status(Some("1"), true), Ok(true));
    }
}
