//! The canonical, typed launch-policy specification.
//!
//! [`PolicySpec`] is the one place a policy name (`"spawn"`,
//! `"threshold:32"`, …) becomes a [`LaunchController`]. The CLI's
//! `--policy` flag, the `dynapar-server` request API, and the perf
//! harness all parse through [`PolicySpec::parse`] and build through
//! [`PolicySpec::controller`], so a `dynapar run` and a server `submit`
//! with the same policy string construct *byte-identical* controllers —
//! including the artifact-affecting rule that a metrics-collecting SPAWN
//! run logs its Eq. 1 predictions. [`PolicySpec::label`] round-trips
//! with `parse` and is the policy's canonical spelling inside
//! [`CanonicalConfig`](dynapar_gpu::CanonicalConfig), so the memo key
//! and the baseline gate agree with the builders by construction.

use dynapar_gpu::{GpuConfig, LaunchController, MetricsLevel};

use crate::{
    AdaptiveThreshold, AlwaysLaunch, BaselineDp, Dtbl, FixedThreshold, FreeLaunch, SpawnPolicy,
};

/// Which launch policy to run — the parsed form of a policy string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySpec {
    /// Flat (non-DP): inline every candidate in the parent thread.
    Flat,
    /// Baseline-DP (the application's own threshold).
    Baseline,
    /// SPAWN (the paper's contribution).
    Spawn,
    /// DTBL aggregation (ISCA'15).
    Dtbl,
    /// Launch every candidate.
    Always,
    /// Fixed threshold `N` (spelled `threshold:N`).
    Threshold(u32),
    /// Online hill-climbing threshold tuner.
    Adaptive,
    /// Free-Launch-style intra-warp redistribution (MICRO'15).
    FreeLaunch,
}

impl PolicySpec {
    /// Parses a policy spec string.
    ///
    /// Accepted forms: `flat`, `baseline`, `spawn`, `dtbl`, `always`,
    /// `adaptive`, `freelaunch` (or `free-launch`), `threshold:N`.
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted forms on unknown input.
    ///
    /// # Examples
    ///
    /// ```
    /// use dynapar_core::PolicySpec;
    /// assert_eq!(PolicySpec::parse("threshold:32"), Ok(PolicySpec::Threshold(32)));
    /// assert!(PolicySpec::parse("warp-speed").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "flat" => Ok(PolicySpec::Flat),
            "baseline" => Ok(PolicySpec::Baseline),
            "spawn" => Ok(PolicySpec::Spawn),
            "dtbl" => Ok(PolicySpec::Dtbl),
            "always" => Ok(PolicySpec::Always),
            "adaptive" => Ok(PolicySpec::Adaptive),
            "freelaunch" | "free-launch" => Ok(PolicySpec::FreeLaunch),
            other => {
                if let Some(t) = other.strip_prefix("threshold:") {
                    t.parse()
                        .map(PolicySpec::Threshold)
                        .map_err(|_| format!("bad threshold in {other:?}"))
                } else {
                    Err(format!(
                        "unknown policy {other:?}; expected flat|baseline|spawn|dtbl|always|adaptive|freelaunch|threshold:N"
                    ))
                }
            }
        }
    }

    /// The canonical spelling: `parse(label())` round-trips, and this
    /// string is the `policy` member of the canonical run identity.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Flat => "flat".into(),
            PolicySpec::Baseline => "baseline".into(),
            PolicySpec::Spawn => "spawn".into(),
            PolicySpec::Dtbl => "dtbl".into(),
            PolicySpec::Always => "always".into(),
            PolicySpec::Threshold(t) => format!("threshold:{t}"),
            PolicySpec::Adaptive => "adaptive".into(),
            PolicySpec::FreeLaunch => "free-launch".into(),
        }
    }

    /// Builds the controller for one run.
    ///
    /// `default_threshold` is the application's static `THRESHOLD`
    /// (seeds the adaptive tuner); `metrics` is the run's collection
    /// level. The metrics level matters because a metrics-collecting
    /// SPAWN run logs its Eq. 1 completion-time predictions (the
    /// artifact's `ccqs_samples` section needs estimate-vs-actual
    /// pairs), and the log changes artifact bytes — so the rule must
    /// live here, on the single shared path, or a CLI run and a server
    /// run of the same config would diverge.
    pub fn controller(
        &self,
        cfg: &GpuConfig,
        default_threshold: u32,
        metrics: MetricsLevel,
    ) -> Box<dyn LaunchController> {
        match self {
            PolicySpec::Flat => Box::new(dynapar_gpu::InlineAll),
            PolicySpec::Baseline => Box::new(BaselineDp::new()),
            PolicySpec::Spawn => {
                if metrics != MetricsLevel::Off {
                    Box::new(SpawnPolicy::from_config(cfg).with_prediction_log())
                } else {
                    Box::new(SpawnPolicy::from_config(cfg))
                }
            }
            PolicySpec::Dtbl => Box::new(Dtbl::new()),
            PolicySpec::Always => Box::new(AlwaysLaunch::new()),
            PolicySpec::Threshold(t) => Box::new(FixedThreshold::new(*t)),
            PolicySpec::Adaptive => {
                Box::new(AdaptiveThreshold::new(default_threshold.max(1), 1 << 14))
            }
            PolicySpec::FreeLaunch => Box::new(FreeLaunch::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_label_round_trip() {
        for s in [
            "flat",
            "baseline",
            "spawn",
            "dtbl",
            "always",
            "adaptive",
            "free-launch",
            "threshold:7",
        ] {
            let p = PolicySpec::parse(s).expect(s);
            assert_eq!(
                PolicySpec::parse(&p.label()),
                Ok(p.clone()),
                "label must re-parse: {s}"
            );
        }
        // The alias normalizes to the canonical spelling.
        assert_eq!(
            PolicySpec::parse("freelaunch").unwrap().label(),
            "free-launch"
        );
        assert!(PolicySpec::parse("threshold:x").is_err());
        assert!(PolicySpec::parse("nope").is_err());
    }

    #[test]
    fn controller_names_match_policies() {
        let cfg = GpuConfig::test_small();
        let cases = [
            (PolicySpec::Flat, "Flat"),
            (PolicySpec::Baseline, "Baseline-DP"),
            (PolicySpec::Spawn, "SPAWN"),
            (PolicySpec::Dtbl, "DTBL"),
        ];
        for (spec, want) in cases {
            let c = spec.controller(&cfg, 64, MetricsLevel::Off);
            assert_eq!(c.name(), want, "{spec:?}");
        }
    }

    #[test]
    fn spawn_logs_predictions_only_when_collecting_metrics() {
        // The rule is observable through the policy's prediction log:
        // present (possibly empty) when logging, absent when not.
        let cfg = GpuConfig::test_small();
        let on = PolicySpec::Spawn.controller(&cfg, 64, MetricsLevel::Full);
        assert!(on.predictions().is_some(), "metrics on => log enabled");
        let off = PolicySpec::Spawn.controller(&cfg, 64, MetricsLevel::Off);
        assert!(off.predictions().is_none(), "metrics off => no log");
    }
}
