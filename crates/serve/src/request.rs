//! Request and completion types of the serving layer.

use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::cache::KvDtype;
use keyformer_core::spec::PolicySpec;
use keyformer_core::CoreError;
use keyformer_model::generation::{GenerationConfig, GenerationOutput};
use serde::{Deserialize, Serialize};

/// Opaque identifier of one serving request, unique within an [`crate::Engine`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct RequestId(u64);

impl RequestId {
    /// Wraps a raw id.
    pub fn new(raw: u64) -> Self {
        RequestId(raw)
    }

    /// The raw numeric id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Per-request overrides of the server's default cache policy and budget,
/// validated when the request is submitted.
///
/// The plain default (`RequestOverrides::default()`) inherits everything from
/// the [`crate::ServerConfig`]; see [`Request::with_policy`],
/// [`Request::with_budget`] and [`Request::with_unbudgeted`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RequestOverrides {
    /// Cache policy to run instead of the server default.
    pub policy: Option<PolicySpec>,
    /// KV budget to apply instead of the server default.
    pub budget: Option<CacheBudgetSpec>,
    /// Forces the request to run unbudgeted (never evicted), overriding both
    /// the server default and `budget`. Mutually exclusive with `budget`.
    pub unbudgeted: bool,
}

impl RequestOverrides {
    /// `true` when every field inherits the server default.
    pub fn is_default(&self) -> bool {
        self.policy.is_none() && self.budget.is_none() && !self.unbudgeted
    }

    /// Validates the overrides (the check [`crate::Engine::submit`] runs).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if an overriding policy spec does
    /// not build, or if `budget` and `unbudgeted` are both set.
    pub fn validate(&self) -> Result<(), CoreError> {
        if let Some(policy) = self.policy {
            policy.build()?;
        }
        if self.unbudgeted && self.budget.is_some() {
            return Err(CoreError::InvalidConfig(
                "request cannot both override the budget and request unbudgeted decoding".into(),
            ));
        }
        Ok(())
    }
}

/// Scheduling options attached to one submission, orthogonal to the
/// [`Request`] payload: how urgent the work is and how long the caller is
/// willing to wait. See [`crate::Engine::submit_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SubmitOptions {
    /// Scheduling priority; higher values are admitted (and keep their blocks
    /// under preemption pressure) ahead of lower ones. Queued requests age:
    /// every [`crate::PRIORITY_AGING_STEPS`] scheduler steps spent waiting
    /// raise the *effective* priority by one level, so low-priority work can
    /// be delayed but never starved. Defaults to 0.
    pub priority: u8,
    /// Deadline in scheduler steps, measured from submission: a request that
    /// has not completed within this many steps is retired as
    /// [`FailureReason::DeadlineExceeded`], wherever it is (queued, prefilling
    /// or decoding), immediately releasing its blocks and reservations.
    /// `None` (the default) never expires.
    pub deadline_steps: Option<usize>,
    /// Per-submission KV storage precision. `None` (the default) inherits the
    /// engine's [`crate::ServerConfig::kv_dtype`]. An override may only
    /// *narrow* the dtype (fewer bytes per value than the engine pool was
    /// sized for); a wider override is rejected at
    /// [`crate::Engine::submit_with`].
    pub kv_dtype: Option<KvDtype>,
}

impl SubmitOptions {
    /// Default options: priority 0, no deadline, engine-default KV dtype.
    pub fn new() -> Self {
        SubmitOptions::default()
    }

    /// Sets the scheduling priority (higher = more urgent).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Retires the request as [`FailureReason::DeadlineExceeded`] unless it
    /// completes within `steps` scheduler steps of submission.
    pub fn with_deadline_steps(mut self, steps: usize) -> Self {
        self.deadline_steps = Some(steps);
        self
    }

    /// Stores this request's sealed KV blocks at `dtype` instead of the
    /// engine default; see [`SubmitOptions::kv_dtype`].
    pub fn with_kv_dtype(mut self, dtype: KvDtype) -> Self {
        self.kv_dtype = Some(dtype);
        self
    }
}

/// One generation request: a prompt plus its generation configuration and
/// optional per-request policy/budget overrides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Caller-chosen identifier; echoed back in the completion.
    pub id: RequestId,
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Sampling / length configuration, including the per-request seed.
    pub config: GenerationConfig,
    /// Per-request policy/budget overrides (defaults inherit the server config).
    pub overrides: RequestOverrides,
}

impl Request {
    /// Convenience constructor inheriting the server's policy and budget.
    pub fn new(id: u64, prompt: Vec<u32>, config: GenerationConfig) -> Self {
        Request {
            id: RequestId::new(id),
            prompt,
            config,
            overrides: RequestOverrides::default(),
        }
    }

    /// Runs this request under `policy` instead of the server default.
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        self.overrides.policy = Some(policy);
        self
    }

    /// Applies `budget` to this request instead of the server default.
    pub fn with_budget(mut self, budget: CacheBudgetSpec) -> Self {
        self.overrides.budget = Some(budget);
        self.overrides.unbudgeted = false;
        self
    }

    /// Runs this request unbudgeted (full attention footprint) even if the
    /// server default applies a budget.
    pub fn with_unbudgeted(mut self) -> Self {
        self.overrides.unbudgeted = true;
        self.overrides.budget = None;
        self
    }

    /// The policy this request runs under, given the server default.
    pub fn effective_policy(&self, default: PolicySpec) -> PolicySpec {
        self.overrides.policy.unwrap_or(default)
    }

    /// The budget this request runs under, given the server default.
    pub fn effective_budget(&self, default: Option<CacheBudgetSpec>) -> Option<CacheBudgetSpec> {
        if self.overrides.unbudgeted {
            None
        } else {
            self.overrides.budget.or(default)
        }
    }
}

/// A successfully finished request, with its scheduling telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// The request this completion answers.
    pub id: RequestId,
    /// The generation result (tokens, final/peak cache bytes).
    pub output: GenerationOutput,
    /// Scheduler step at which the request was submitted.
    pub submitted_step: usize,
    /// Scheduler step at which the request was admitted (prefill ran). A
    /// preempted-and-resumed request reports its *last* admission.
    pub admitted_step: usize,
    /// Scheduler step at which the final token was produced.
    pub completed_step: usize,
    /// Scheduler step at which the *first* token was surfaced (`None` only for
    /// zero-token generations). A preempted-and-resumed request keeps the step
    /// of the original surfacing — replayed tokens are not re-delivered.
    pub first_token_step: Option<usize>,
    /// Scheduler step at which each generated token was surfaced, in order.
    /// Consecutive differences are the request's inter-token latencies; gaps
    /// larger than 1 mark steps lost to queueing, chunked prefill of
    /// neighbours, stalls or preemption.
    pub token_steps: Vec<usize>,
    /// Prompt tokens served from shared prefix-cache blocks instead of being
    /// recomputed (0 without prefix sharing, or on a registry miss).
    pub prefix_tokens_reused: usize,
}

impl Completion {
    /// End-to-end latency in scheduler steps (queueing + decode).
    pub fn latency_steps(&self) -> usize {
        self.completed_step - self.submitted_step
    }

    /// Steps spent waiting in the admission queue.
    pub fn queue_steps(&self) -> usize {
        self.admitted_step - self.submitted_step
    }

    /// Time-to-first-token in scheduler steps (submission to first surfaced
    /// token); `None` for zero-token generations.
    pub fn ttft_steps(&self) -> Option<usize> {
        Some(self.first_token_step? - self.submitted_step)
    }

    /// Inter-token latencies in scheduler steps: the gap between each pair of
    /// consecutive surfaced tokens (empty for fewer than two tokens).
    pub fn inter_token_steps(&self) -> Vec<usize> {
        self.token_steps.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Mean inter-token latency in scheduler steps (0.0 for fewer than two
    /// tokens).
    pub fn mean_inter_token_steps(&self) -> f64 {
        let gaps = self.inter_token_steps();
        if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().sum::<usize>() as f64 / gaps.len() as f64
        }
    }
}

impl std::fmt::Display for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} tokens in {} steps (queued {}, ttft {})",
            self.id,
            self.output.generated.len(),
            self.latency_steps(),
            self.queue_steps(),
            match self.ttft_steps() {
                Some(t) => t.to_string(),
                None => "-".into(),
            }
        )
    }
}

/// A request the scheduler retired without completing.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedRequest {
    /// The failed request's id.
    pub id: RequestId,
    /// Why it failed.
    pub reason: FailureReason,
    /// Scheduler step at which it was retired.
    pub step: usize,
}

/// Why a request was retired without a completion.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureReason {
    /// The request's projected KV footprint exceeds the whole pool, so it could
    /// never be admitted.
    TooLargeForPool {
        /// The request's projected steady-state KV bytes.
        projected_bytes: usize,
        /// The server's pool size.
        pool_bytes: usize,
    },
    /// Prefill or decode returned an error (bad prompt, policy-contract
    /// violation, ...).
    Engine(CoreError),
    /// The caller cancelled the request ([`crate::Engine::cancel`]) before it
    /// completed.
    Cancelled,
    /// The request did not complete within its
    /// [`SubmitOptions::deadline_steps`] budget and was retired by the
    /// scheduler.
    DeadlineExceeded {
        /// The deadline the request was submitted with, in scheduler steps.
        deadline_steps: usize,
    },
}

/// Stable wire-level classification of a failure or rejection: a
/// machine-readable code plus the HTTP status a network front-end (such as the
/// `kf-serve` binary) maps it to. The `code` strings are a compatibility
/// surface — clients match on them, so they are never renamed, only added to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WireCode {
    /// Stable machine-readable identifier (snake_case).
    pub code: &'static str,
    /// HTTP status a wire front-end responds with for this class.
    pub status: u16,
}

impl std::fmt::Display for WireCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.code, self.status)
    }
}

/// Classifies a *submit-time* rejection — [`crate::Engine::submit_with`] or
/// [`crate::Engine::submit`] returning `Err` — into a stable [`WireCode`], so
/// a front-end can answer 4xx/5xx without string-matching error text.
///
/// Validation failures (a policy that does not build, contradictory overrides,
/// a widening dtype override) are the caller's fault (`400`); an exhausted
/// pool is a capacity condition worth retrying (`503`); a block-bookkeeping
/// error is an internal bug (`500`).
pub fn submit_rejection(error: &CoreError) -> WireCode {
    match error {
        CoreError::InvalidConfig(_) | CoreError::InvalidSelection(_) => WireCode {
            code: "invalid_request",
            status: 400,
        },
        CoreError::PoolExhausted { .. } => WireCode {
            code: "pool_exhausted",
            status: 503,
        },
        CoreError::InvalidBlock { .. } => WireCode {
            code: "internal",
            status: 500,
        },
    }
}

impl FailureReason {
    /// Stable machine-readable code for this failure (see [`WireCode::code`]).
    pub fn code(&self) -> &'static str {
        match self {
            FailureReason::TooLargeForPool { .. } => "too_large_for_pool",
            FailureReason::Engine(_) => "engine_error",
            FailureReason::Cancelled => "cancelled",
            FailureReason::DeadlineExceeded { .. } => "deadline_exceeded",
        }
    }

    /// HTTP status a wire front-end maps this failure to: `507` (insufficient
    /// storage) for a request that can never fit the pool, `500` for engine
    /// errors, `499` (the de-facto client-closed-request status) for
    /// cancellations, `504` for deadline expiry.
    pub fn http_status(&self) -> u16 {
        match self {
            FailureReason::TooLargeForPool { .. } => 507,
            FailureReason::Engine(_) => 500,
            FailureReason::Cancelled => 499,
            FailureReason::DeadlineExceeded { .. } => 504,
        }
    }

    /// Code and status together, for handing straight to a response writer.
    pub fn wire(&self) -> WireCode {
        WireCode {
            code: self.code(),
            status: self.http_status(),
        }
    }
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReason::TooLargeForPool {
                projected_bytes,
                pool_bytes,
            } => write!(
                f,
                "projected {projected_bytes} KV bytes exceed the {pool_bytes}-byte pool"
            ),
            FailureReason::Engine(e) => write!(f, "engine error: {e}"),
            FailureReason::Cancelled => write!(f, "cancelled by the caller"),
            FailureReason::DeadlineExceeded { deadline_steps } => {
                write!(f, "deadline of {deadline_steps} scheduler steps exceeded")
            }
        }
    }
}

impl std::fmt::Display for FailedRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failed at step {}: {}",
            self.id, self.step, self.reason
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_ordered_and_display() {
        assert!(RequestId::new(1) < RequestId::new(2));
        assert_eq!(RequestId::new(7).raw(), 7);
        assert_eq!(RequestId::new(7).to_string(), "req-7");
    }

    #[test]
    fn completion_latency_accounting() {
        let c = Completion {
            id: RequestId::new(0),
            output: GenerationOutput {
                generated: vec![1, 2, 3],
                prompt_len: 4,
                final_cache_slots: vec![4],
                final_cache_bytes: 64,
                peak_cache_bytes: 64,
            },
            submitted_step: 2,
            admitted_step: 5,
            completed_step: 9,
            first_token_step: Some(5),
            token_steps: vec![5, 6, 9],
            prefix_tokens_reused: 0,
        };
        assert_eq!(c.latency_steps(), 7);
        assert_eq!(c.queue_steps(), 3);
        assert_eq!(c.ttft_steps(), Some(3));
        assert_eq!(c.inter_token_steps(), vec![1, 3]);
        assert!((c.mean_inter_token_steps() - 2.0).abs() < 1e-12);
        assert!(c.to_string().contains("ttft 3"), "{c}");
    }

    #[test]
    fn zero_token_completion_has_no_first_token() {
        let c = Completion {
            id: RequestId::new(1),
            output: GenerationOutput {
                generated: vec![],
                prompt_len: 4,
                final_cache_slots: vec![4],
                final_cache_bytes: 64,
                peak_cache_bytes: 64,
            },
            submitted_step: 0,
            admitted_step: 1,
            completed_step: 1,
            first_token_step: None,
            token_steps: vec![],
            prefix_tokens_reused: 0,
        };
        assert_eq!(c.ttft_steps(), None);
        assert!(c.inter_token_steps().is_empty());
        assert_eq!(c.mean_inter_token_steps(), 0.0);
        assert!(c.to_string().contains("ttft -"), "{c}");
    }

    #[test]
    fn submit_options_build_and_default() {
        let plain = SubmitOptions::new();
        assert_eq!(plain, SubmitOptions::default());
        assert_eq!(plain.priority, 0);
        assert_eq!(plain.deadline_steps, None);
        assert_eq!(plain.kv_dtype, None);
        let tuned = SubmitOptions::new()
            .with_priority(3)
            .with_deadline_steps(40)
            .with_kv_dtype(KvDtype::U8);
        assert_eq!(tuned.priority, 3);
        assert_eq!(tuned.deadline_steps, Some(40));
        assert_eq!(tuned.kv_dtype, Some(KvDtype::U8));
    }

    #[test]
    fn overrides_validate_and_resolve() {
        let default_policy = PolicySpec::Full;
        let default_budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
        let plain = Request::new(1, vec![1, 2], GenerationConfig::new(2));
        assert!(plain.overrides.is_default());
        assert!(plain.overrides.validate().is_ok());
        assert_eq!(plain.effective_policy(default_policy), default_policy);
        assert_eq!(plain.effective_budget(default_budget), default_budget);

        let tuned = Request::new(2, vec![1, 2], GenerationConfig::new(2))
            .with_policy(PolicySpec::keyformer_default())
            .with_budget(CacheBudgetSpec::new(0.25, 0.3).unwrap());
        assert!(tuned.overrides.validate().is_ok());
        assert_eq!(
            tuned.effective_policy(default_policy),
            PolicySpec::keyformer_default()
        );
        assert_eq!(
            tuned
                .effective_budget(default_budget)
                .unwrap()
                .cache_fraction(),
            0.25
        );

        let unbudgeted = Request::new(3, vec![1, 2], GenerationConfig::new(2)).with_unbudgeted();
        assert_eq!(unbudgeted.effective_budget(default_budget), None);

        // An overriding policy that cannot build fails validation.
        let broken = Request::new(4, vec![1, 2], GenerationConfig::new(2))
            .with_policy(PolicySpec::Damped { alpha: 0.0 });
        assert!(broken.overrides.validate().is_err());
        // Budget + unbudgeted simultaneously is contradictory.
        let contradictory = RequestOverrides {
            policy: None,
            budget: default_budget,
            unbudgeted: true,
        };
        assert!(contradictory.validate().is_err());
        // The builders keep the pair consistent in either order.
        let rebudgeted = unbudgeted.with_budget(CacheBudgetSpec::new(0.5, 0.3).unwrap());
        assert!(rebudgeted.overrides.validate().is_ok());
    }

    #[test]
    fn failure_wire_codes_are_stable() {
        // These pairs are a wire compatibility surface: clients match on the
        // code strings, so changing any of them is a breaking API change.
        let cases = [
            (
                FailureReason::TooLargeForPool {
                    projected_bytes: 10,
                    pool_bytes: 5,
                },
                "too_large_for_pool",
                507,
            ),
            (
                FailureReason::Engine(CoreError::InvalidConfig("boom".into())),
                "engine_error",
                500,
            ),
            (FailureReason::Cancelled, "cancelled", 499),
            (
                FailureReason::DeadlineExceeded { deadline_steps: 3 },
                "deadline_exceeded",
                504,
            ),
        ];
        for (reason, code, status) in cases {
            assert_eq!(reason.code(), code);
            assert_eq!(reason.http_status(), status);
            assert_eq!(reason.wire(), WireCode { code, status });
        }
        assert_eq!(
            FailureReason::Cancelled.wire().to_string(),
            "cancelled (499)"
        );
    }

    #[test]
    fn submit_rejections_classify_by_fault() {
        assert_eq!(
            submit_rejection(&CoreError::InvalidConfig("bad".into())),
            WireCode {
                code: "invalid_request",
                status: 400
            }
        );
        assert_eq!(
            submit_rejection(&CoreError::InvalidSelection("bad".into())).status,
            400
        );
        assert_eq!(
            submit_rejection(&CoreError::PoolExhausted {
                in_use: 4,
                capacity: 4
            }),
            WireCode {
                code: "pool_exhausted",
                status: 503
            }
        );
        assert_eq!(
            submit_rejection(&CoreError::InvalidBlock {
                id: 1,
                op: "retain"
            })
            .status,
            500
        );
    }

    #[test]
    fn failure_reasons_render() {
        let too_large = FailureReason::TooLargeForPool {
            projected_bytes: 10,
            pool_bytes: 5,
        };
        assert!(too_large.to_string().contains("exceed"));
        let engine = FailureReason::Engine(CoreError::InvalidConfig("boom".into()));
        assert!(engine.to_string().contains("boom"));
        assert!(FailureReason::Cancelled.to_string().contains("cancelled"));
        let expired = FailureReason::DeadlineExceeded { deadline_steps: 12 };
        assert!(expired.to_string().contains("12"), "{expired}");
        let failed = FailedRequest {
            id: RequestId::new(9),
            reason: FailureReason::Cancelled,
            step: 4,
        };
        assert!(failed.to_string().contains("req-9"), "{failed}");
        assert!(failed.to_string().contains("step 4"), "{failed}");
    }
}
