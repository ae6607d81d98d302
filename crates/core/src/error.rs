//! Structured errors and degradation metadata for the scheduling pipeline.
//!
//! The seed scheduler treated every internal failure as a `panic!`: a
//! verifier rejection or a watchdog trip aborted the whole evaluation. This
//! module introduces the error hierarchy used by the fallible kernels
//! (`try_lower_region`, `try_schedule_with_ddg`) and by the robust
//! chain behind `Pipeline::run_set`:
//!
//! * [`SchedFailure`] — why one region could not be scheduled (verifier
//!   rejection, or a resource budget exceeded).
//! * [`Budgets`] — configurable op/step watchdog limits.
//! * [`VerifyMode`] / [`FallbackPolicy`] / [`FallbackLevel`] — the policy
//!   knobs exposed on the CLI (`--verify`, `--fallback`).
//! * [`DegradationEvent`] — one recovered (or tolerated) failure, recorded
//!   per region in the eval stats.
//! * [`PipelineError`] — terminal failure after the fallback chain is
//!   exhausted, carrying every attempt for post-mortem.

use crate::verify_sched::ScheduleError;
use crate::RegionKind;
use std::fmt;
use std::str::FromStr;
use treegion_ir::BlockId;

/// Why scheduling one region failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedFailure {
    /// The produced schedule was rejected by [`crate::verify_schedule`].
    Verification(ScheduleError),
    /// The lowered region had more ops than [`Budgets::max_region_ops`].
    OpBudgetExceeded {
        /// Number of ops in the lowered region.
        ops: usize,
        /// The configured budget that was exceeded.
        budget: usize,
    },
    /// The list scheduler ran more cycles than allowed without finishing —
    /// either the configured [`Budgets::max_schedule_cycles`], or the
    /// built-in progress watchdog.
    StepBudgetExceeded {
        /// Cycles the scheduler ran before giving up.
        steps: usize,
        /// The cycle cap that was exceeded.
        budget: usize,
    },
    /// The scheduling attempt ran past its wall-clock deadline
    /// ([`Budgets::max_wall_ms`]), checked at scheduler loop boundaries.
    /// Deadlines are per *attempt*: every rung of the degradation chain
    /// starts a fresh clock, so a timed-out primary schedule can still
    /// recover through a faster fallback shape.
    DeadlineExceeded {
        /// Wall-clock milliseconds the attempt had consumed when the
        /// deadline check tripped.
        elapsed_ms: u64,
        /// The configured deadline in milliseconds.
        budget_ms: u64,
    },
    /// The scheduling attempt panicked; the unwind was contained by the
    /// robust pipeline and converted into this structured failure so the
    /// degradation chain can treat a crash like any other per-region
    /// failure (one poisoned region costs one region, not the run).
    Panicked {
        /// Stringified panic payload.
        payload: String,
    },
    /// A finite register file is provably too small for the region: the
    /// list scheduler reached a cycle where nothing could issue, nothing
    /// died, and no op was waiting on a latency, with ready ops parked
    /// on the pressure ceiling — replaying that cycle forever. The
    /// robust pipeline reacts by inserting spill code (GPRs) or by
    /// degrading to smaller regions, which carry less speculative
    /// pressure.
    RegisterPressure {
        /// The register class whose file overflowed.
        class: treegion_ir::RegClass,
        /// Live ranges of that class at the blocking park.
        live: u32,
        /// The file's capacity.
        cap: u32,
    },
}

impl fmt::Display for SchedFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedFailure::Verification(e) => write!(f, "{e}"),
            SchedFailure::OpBudgetExceeded { ops, budget } => {
                write!(f, "region has {ops} ops, over the budget of {budget}")
            }
            SchedFailure::StepBudgetExceeded { steps, budget } => {
                write!(
                    f,
                    "scheduler ran {steps} cycles without finishing (cap {budget})"
                )
            }
            SchedFailure::DeadlineExceeded {
                elapsed_ms,
                budget_ms,
            } => {
                write!(
                    f,
                    "scheduling attempt ran {elapsed_ms} ms, past its {budget_ms} ms deadline"
                )
            }
            SchedFailure::Panicked { payload } => {
                write!(f, "scheduling attempt panicked: {payload}")
            }
            SchedFailure::RegisterPressure { class, live, cap } => {
                write!(
                    f,
                    "register pressure livelock: {live} live {class} ranges \
                     against a file of {cap}"
                )
            }
        }
    }
}

impl std::error::Error for SchedFailure {}

impl From<ScheduleError> for SchedFailure {
    fn from(e: ScheduleError) -> Self {
        SchedFailure::Verification(e)
    }
}

impl SchedFailure {
    /// Short machine-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SchedFailure::Verification(_) => "verification",
            SchedFailure::OpBudgetExceeded { .. } => "op-budget",
            SchedFailure::StepBudgetExceeded { .. } => "step-budget",
            SchedFailure::DeadlineExceeded { .. } => "deadline",
            SchedFailure::Panicked { .. } => "panic",
            SchedFailure::RegisterPressure { .. } => "reg-pressure",
        }
    }

    /// `true` for failures that were *contained* rather than produced by
    /// the scheduler's own logic: panics and wall-clock deadline trips.
    /// The CLI maps these to exit code 3 (contained failures present)
    /// instead of 2 (ordinary degradation).
    pub fn is_containment(&self) -> bool {
        matches!(
            self,
            SchedFailure::DeadlineExceeded { .. } | SchedFailure::Panicked { .. }
        )
    }
}

/// Resource budgets for the scheduling pipeline. `None` means unlimited
/// (beyond the scheduler's built-in progress watchdog).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Maximum number of lowered ops per region.
    pub max_region_ops: Option<usize>,
    /// Maximum number of schedule cycles per region.
    pub max_schedule_cycles: Option<usize>,
    /// Soft wall-clock deadline per scheduling *attempt*, in
    /// milliseconds. Checked at scheduler loop boundaries (once per
    /// schedule cycle), so a runaway region trips
    /// [`SchedFailure::DeadlineExceeded`] instead of stalling the run.
    /// `None` disables the wall clock entirely — the default, and the
    /// only mode the byte-determinism tests exercise (a wall-clock trip
    /// is inherently timing-dependent, so deterministic runs must not
    /// enable it unless the deadline is far above any real cell time, or
    /// zero for a guaranteed immediate trip in tests).
    pub max_wall_ms: Option<u64>,
}

impl Budgets {
    /// Unlimited budgets (only the built-in watchdog applies).
    pub const UNLIMITED: Budgets = Budgets {
        max_region_ops: None,
        max_schedule_cycles: None,
        max_wall_ms: None,
    };
}

/// What to do with a verifier rejection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyMode {
    /// Skip post-scheduling verification entirely.
    Off,
    /// Verify, record failures as [`DegradationEvent`]s, but keep the
    /// rejected schedule.
    Warn,
    /// Verify and degrade (or fail) on rejection.
    #[default]
    Strict,
}

impl FromStr for VerifyMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(VerifyMode::Off),
            "warn" => Ok(VerifyMode::Warn),
            "strict" => Ok(VerifyMode::Strict),
            other => Err(format!(
                "unknown verify mode '{other}' (expected off, warn, or strict)"
            )),
        }
    }
}

impl fmt::Display for VerifyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VerifyMode::Off => "off",
            VerifyMode::Warn => "warn",
            VerifyMode::Strict => "strict",
        })
    }
}

/// How far the degradation chain may fall back when a region fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// No fallback: a failed region is a pipeline error.
    None,
    /// Re-form the failed region as single-path linear regions (SLRs).
    Slr,
    /// Try SLRs first, then individual basic blocks.
    #[default]
    Bb,
}

impl FallbackPolicy {
    /// The fallback levels this policy permits, in order of preference.
    pub fn levels(&self) -> &'static [FallbackLevel] {
        match self {
            FallbackPolicy::None => &[],
            FallbackPolicy::Slr => &[FallbackLevel::Slr],
            FallbackPolicy::Bb => &[FallbackLevel::Slr, FallbackLevel::BasicBlock],
        }
    }
}

impl FromStr for FallbackPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(FallbackPolicy::None),
            "slr" => Ok(FallbackPolicy::Slr),
            "bb" => Ok(FallbackPolicy::Bb),
            other => Err(format!(
                "unknown fallback policy '{other}' (expected none, slr, or bb)"
            )),
        }
    }
}

impl fmt::Display for FallbackPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FallbackPolicy::None => "none",
            FallbackPolicy::Slr => "slr",
            FallbackPolicy::Bb => "bb",
        })
    }
}

/// Which rung of the degradation ladder a schedule came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FallbackLevel {
    /// The originally requested region shape.
    Primary,
    /// Single-path linear regions carved out of the failed region.
    Slr,
    /// Individual basic blocks.
    BasicBlock,
}

impl fmt::Display for FallbackLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FallbackLevel::Primary => "primary",
            FallbackLevel::Slr => "slr",
            FallbackLevel::BasicBlock => "bb",
        })
    }
}

/// One region-level failure that the pipeline survived, either by falling
/// back to a simpler region shape (`recovered == true`) or by tolerating
/// the failure under [`VerifyMode::Warn`] (`recovered == false`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradationEvent {
    /// Name of the function containing the failed region.
    pub function: String,
    /// Index of the region within its [`crate::RegionSet`].
    pub region_index: usize,
    /// Root block of the failed region.
    pub region_root: BlockId,
    /// Shape of the failed region.
    pub region_kind: RegionKind,
    /// Why the primary schedule was unusable.
    pub cause: SchedFailure,
    /// The rung that finally produced the accepted schedule.
    pub level: FallbackLevel,
    /// Whether a verified replacement schedule was produced.
    pub recovered: bool,
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: region #{} (root {}, {}) {}: {} -> {}",
            self.function,
            self.region_index,
            self.region_root,
            self.region_kind,
            if self.recovered {
                "degraded"
            } else {
                "kept unverified"
            },
            self.cause.label(),
            self.level,
        )
    }
}

/// Terminal failure: one region could not be scheduled even after the
/// entire fallback chain was tried. Carries every attempt for post-mortem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineError {
    /// Name of the function containing the failed region.
    pub function: String,
    /// Index of the region within its [`crate::RegionSet`].
    pub region_index: usize,
    /// Root block of the failed region.
    pub region_root: BlockId,
    /// Every (level, failure) pair in the order attempted.
    pub attempts: Vec<(FallbackLevel, SchedFailure)>,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: region #{} (root {}) failed at every fallback level:",
            self.function, self.region_index, self.region_root
        )?;
        for (level, failure) in &self.attempts {
            write!(f, "\n  [{level}] {failure}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_mode_parses() {
        assert_eq!("off".parse::<VerifyMode>().unwrap(), VerifyMode::Off);
        assert_eq!("warn".parse::<VerifyMode>().unwrap(), VerifyMode::Warn);
        assert_eq!("strict".parse::<VerifyMode>().unwrap(), VerifyMode::Strict);
        assert!("loose".parse::<VerifyMode>().is_err());
        assert_eq!(VerifyMode::default(), VerifyMode::Strict);
    }

    #[test]
    fn fallback_policy_parses_and_orders_levels() {
        assert_eq!(
            "none".parse::<FallbackPolicy>().unwrap().levels(),
            &[] as &[FallbackLevel]
        );
        assert_eq!(
            "slr".parse::<FallbackPolicy>().unwrap().levels(),
            &[FallbackLevel::Slr]
        );
        assert_eq!(
            "bb".parse::<FallbackPolicy>().unwrap().levels(),
            &[FallbackLevel::Slr, FallbackLevel::BasicBlock]
        );
        assert!("superblock".parse::<FallbackPolicy>().is_err());
    }

    #[test]
    fn failure_display_and_labels() {
        let f = SchedFailure::OpBudgetExceeded { ops: 10, budget: 5 };
        assert_eq!(f.label(), "op-budget");
        assert!(f.to_string().contains("10"));
        let f = SchedFailure::StepBudgetExceeded {
            steps: 99,
            budget: 64,
        };
        assert_eq!(f.label(), "step-budget");
        assert!(f.to_string().contains("99"));
        let f = SchedFailure::DeadlineExceeded {
            elapsed_ms: 120,
            budget_ms: 50,
        };
        assert_eq!(f.label(), "deadline");
        assert!(f.is_containment());
        assert!(f.to_string().contains("120"));
        let f = SchedFailure::Panicked {
            payload: "kaboom".into(),
        };
        assert_eq!(f.label(), "panic");
        assert!(f.is_containment());
        assert!(f.to_string().contains("kaboom"));
        assert!(!SchedFailure::OpBudgetExceeded { ops: 1, budget: 1 }.is_containment());
        let f = SchedFailure::RegisterPressure {
            class: treegion_ir::RegClass::Gpr,
            live: 32,
            cap: 32,
        };
        assert_eq!(f.label(), "reg-pressure");
        assert!(!f.is_containment());
        assert!(f.to_string().contains("32 live gpr ranges"), "{f}");
    }

    #[test]
    fn pipeline_error_lists_attempts() {
        let e = PipelineError {
            function: "f".into(),
            region_index: 0,
            region_root: BlockId::from_index(0),
            attempts: vec![
                (
                    FallbackLevel::Primary,
                    SchedFailure::OpBudgetExceeded { ops: 2, budget: 1 },
                ),
                (
                    FallbackLevel::Slr,
                    SchedFailure::StepBudgetExceeded {
                        steps: 3,
                        budget: 2,
                    },
                ),
            ],
        };
        let s = e.to_string();
        assert!(s.contains("[primary]"), "{s}");
        assert!(s.contains("[slr]"), "{s}");
    }
}
