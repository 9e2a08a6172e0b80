//! Rule ids and the finding record.
//!
//! One rule is left: `rng-label-registry` ([`crate::registry`]). The five
//! token-heuristic rules that used to live here moved to the mechanisms
//! that hold their invariants by construction — the root `clippy.toml`
//! (clock, environment, hash collections), the missing `Clone` on the frame
//! types, and the allocation gate's per-frame ceilings; the crate docs have
//! the table.

/// Rule id: RNG label extraction / registry problems.
pub const RNG_LABEL_REGISTRY: &str = "rng-label-registry";
/// Meta rule id: malformed, unknown-rule, or unused waivers.
pub const WAIVER: &str = "waiver";

/// Every real (waivable-in-principle) rule id, for waiver validation.
pub const RULES: &[&str] = &[RNG_LABEL_REGISTRY];

/// One lint finding at a source location.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired (one of the `pub const` ids above).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// The waiver reason, when an inline waiver suppressed this finding.
    pub waive_reason: Option<String>,
}

impl Finding {
    /// A fresh, unwaived finding.
    pub fn new(rule: &'static str, file: &str, line: u32, message: String) -> Finding {
        Finding { rule, file: file.to_string(), line, message, waive_reason: None }
    }
}
