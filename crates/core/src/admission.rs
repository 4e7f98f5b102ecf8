//! Admission control: size caps, deadlines, and typed rejection reasons.
//!
//! The harness originally grew these types inside `zac-bench` — a compile
//! cell either produced a result, exceeded the target's capacity
//! ([`Outcome::TooLarge`]), or failed outright. A serving layer needs the
//! same vocabulary *before* any compiler runs: a request can be turned away
//! because a circuit is too big, because a cap on gates or batch size would
//! be blown, because its deadline already passed in the queue, or because
//! the queue itself is full. All of those are [`RejectReason`]s carrying
//! typed payloads (never bare strings), so callers, protocols, and tests
//! can observe *why* without scraping messages.
//!
//! `zac-bench` re-exports [`Outcome`] as `RunOutcome<RunResult>` for
//! compatibility; `zac-serve` consumes [`AdmissionLimits`]/[`RejectReason`]
//! in its planner.

use std::fmt;
use zac_circuit::StagedCircuit;

use serde::{DeError, Deserialize, JsonWriter, ObjectView, Serialize, Value};

/// Outcome of attempting one unit of compile work — the typed replacement
/// for "`Option<T>` plus a stderr warning". Generic so the bench harness
/// (`T = RunResult`) and the serving layer (`T = CompileOutput`) share the
/// same three-way semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<T> {
    /// The work produced a result.
    Ok(T),
    /// The circuit does not fit the compiler's target hardware; figure
    /// sweeps leave these cells blank, services reject the entry.
    TooLarge {
        /// Qubits (or storage traps) the circuit needs.
        needed: usize,
        /// What the target provides.
        available: usize,
    },
    /// Any other pipeline failure — a compiler bug, not a capacity limit.
    Failed(String),
}

impl<T> Outcome<T> {
    /// The result, if the work succeeded (blank-cell semantics: both
    /// [`Outcome::TooLarge`] and [`Outcome::Failed`] yield `None`).
    pub fn into_result(self) -> Option<T> {
        match self {
            Self::Ok(r) => Some(r),
            Self::TooLarge { .. } | Self::Failed(_) => None,
        }
    }

    /// A shared reference to the result, if the work succeeded.
    pub fn result(&self) -> Option<&T> {
        match self {
            Self::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// Per-request (or per-sweep) size caps and deadline. `None` means
/// unlimited; [`AdmissionLimits::default`] admits everything.
///
/// Limits compose: a service merges its own policy with the caps a request
/// asks for via [`tightened`](AdmissionLimits::tightened), and the
/// strictest value wins — a client can never *widen* what the service
/// allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionLimits {
    /// Maximum qubits per circuit.
    pub max_qubits: Option<usize>,
    /// Maximum total (1Q + 2Q) gates per circuit.
    pub max_gates: Option<usize>,
    /// Maximum circuits per request.
    pub max_circuits: Option<usize>,
    /// Deadline budget for the whole request, in milliseconds from
    /// submission. Work still queued when it expires is rejected with
    /// [`RejectReason::DeadlineExpired`].
    pub deadline_ms: Option<u64>,
}

fn min_opt<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    }
}

impl AdmissionLimits {
    /// The element-wise strictest combination of `self` and `other`.
    #[must_use]
    pub fn tightened(&self, other: &Self) -> Self {
        Self {
            max_qubits: min_opt(self.max_qubits, other.max_qubits),
            max_gates: min_opt(self.max_gates, other.max_gates),
            max_circuits: min_opt(self.max_circuits, other.max_circuits),
            deadline_ms: min_opt(self.deadline_ms, other.deadline_ms),
        }
    }

    /// Checks one circuit against the per-circuit caps.
    ///
    /// # Errors
    ///
    /// The first violated cap as a typed [`RejectReason`].
    pub fn admit_circuit(&self, staged: &StagedCircuit) -> Result<(), RejectReason> {
        if let Some(cap) = self.max_qubits {
            if staged.num_qubits > cap {
                return Err(RejectReason::TooLarge { needed: staged.num_qubits, available: cap });
            }
        }
        if let Some(cap) = self.max_gates {
            let gates = staged.num_1q_gates() + staged.num_2q_gates();
            if gates > cap {
                return Err(RejectReason::TooManyGates { gates, cap });
            }
        }
        Ok(())
    }

    /// Checks a request's batch size against [`max_circuits`](Self::max_circuits).
    ///
    /// # Errors
    ///
    /// [`RejectReason::TooManyCircuits`] when the batch exceeds the cap.
    pub fn admit_batch(&self, circuits: usize) -> Result<(), RejectReason> {
        match self.max_circuits {
            Some(cap) if circuits > cap => Err(RejectReason::TooManyCircuits { circuits, cap }),
            _ => Ok(()),
        }
    }
}

/// Why admission control turned work away. Every variant carries the
/// numbers behind the decision, so protocols serialize them and tests
/// assert on them directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The circuit needs more qubits than the cap (or target) provides —
    /// the admission-time generalization of [`Outcome::TooLarge`].
    TooLarge {
        /// Qubits the circuit needs.
        needed: usize,
        /// The configured (or hardware) capacity.
        available: usize,
    },
    /// The circuit has more gates than the per-circuit cap.
    TooManyGates {
        /// Total (1Q + 2Q) gates in the circuit.
        gates: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The request batches more circuits than allowed.
    TooManyCircuits {
        /// Circuits in the request.
        circuits: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The request's deadline passed before this work ran.
    DeadlineExpired {
        /// The deadline budget the request carried.
        deadline_ms: u64,
        /// How long the work actually waited before being examined.
        waited_ms: u64,
    },
    /// The service queue is at capacity.
    QueueFull {
        /// Jobs already queued.
        depth: usize,
        /// The queue capacity.
        cap: usize,
    },
    /// The target compiler's circuit breaker is open: recent compiles
    /// panicked or timed out, and the service is refusing new work for that
    /// compiler until a half-open probe succeeds.
    BreakerOpen {
        /// Consecutive failures that tripped the breaker.
        failures: u32,
        /// How long the breaker stays open before probing, in milliseconds.
        cooldown_ms: u64,
    },
    /// The entry was shed from a saturated queue to make room for
    /// higher-priority work.
    Shed {
        /// Jobs queued when the shed decision was made.
        depth: usize,
        /// The queue capacity.
        cap: usize,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooLarge { needed, available } => {
                write!(f, "circuit needs {needed} qubits, cap is {available}")
            }
            Self::TooManyGates { gates, cap } => {
                write!(f, "circuit has {gates} gates, cap is {cap}")
            }
            Self::TooManyCircuits { circuits, cap } => {
                write!(f, "request batches {circuits} circuits, cap is {cap}")
            }
            Self::DeadlineExpired { deadline_ms, waited_ms } => {
                write!(f, "deadline of {deadline_ms} ms expired after waiting {waited_ms} ms")
            }
            Self::QueueFull { depth, cap } => {
                write!(f, "queue holds {depth} jobs, capacity is {cap}")
            }
            Self::BreakerOpen { failures, cooldown_ms } => {
                write!(
                    f,
                    "circuit breaker open after {failures} failures (cooldown {cooldown_ms} ms)"
                )
            }
            Self::Shed { depth, cap } => {
                write!(f, "shed from a saturated queue ({depth} jobs, capacity {cap})")
            }
        }
    }
}

impl std::error::Error for RejectReason {}

// JSON: a `kind`-tagged object so protocol consumers can dispatch without
// knowing every variant, with the typed payload alongside.
impl Serialize for RejectReason {
    fn serialize(&self, w: &mut JsonWriter) {
        let mut o = w.object();
        match *self {
            Self::TooLarge { needed, available } => {
                o.field("kind", "too_large").field("needed", &needed);
                o.field("available", &available);
            }
            Self::TooManyGates { gates, cap } => {
                o.field("kind", "too_many_gates").field("gates", &gates).field("cap", &cap);
            }
            Self::TooManyCircuits { circuits, cap } => {
                o.field("kind", "too_many_circuits").field("circuits", &circuits);
                o.field("cap", &cap);
            }
            Self::DeadlineExpired { deadline_ms, waited_ms } => {
                o.field("kind", "deadline_expired").field("deadline_ms", &deadline_ms);
                o.field("waited_ms", &waited_ms);
            }
            Self::QueueFull { depth, cap } => {
                o.field("kind", "queue_full").field("depth", &depth).field("cap", &cap);
            }
            Self::BreakerOpen { failures, cooldown_ms } => {
                o.field("kind", "breaker_open").field("failures", &failures);
                o.field("cooldown_ms", &cooldown_ms);
            }
            Self::Shed { depth, cap } => {
                o.field("kind", "shed").field("depth", &depth).field("cap", &cap);
            }
        }
        o.end();
    }
}

impl Deserialize for RejectReason {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = ObjectView::new(v)?;
        Ok(match obj.tag("kind")? {
            "too_large" => {
                Self::TooLarge { needed: obj.field("needed")?, available: obj.field("available")? }
            }
            "too_many_gates" => {
                Self::TooManyGates { gates: obj.field("gates")?, cap: obj.field("cap")? }
            }
            "too_many_circuits" => {
                Self::TooManyCircuits { circuits: obj.field("circuits")?, cap: obj.field("cap")? }
            }
            "deadline_expired" => Self::DeadlineExpired {
                deadline_ms: obj.field("deadline_ms")?,
                waited_ms: obj.field("waited_ms")?,
            },
            "queue_full" => Self::QueueFull { depth: obj.field("depth")?, cap: obj.field("cap")? },
            "breaker_open" => Self::BreakerOpen {
                failures: obj.field("failures")?,
                cooldown_ms: obj.field("cooldown_ms")?,
            },
            "shed" => Self::Shed { depth: obj.field("depth")?, cap: obj.field("cap")? },
            other => return Err(DeError::msg(format!("unknown reject kind `{other}`"))),
        })
    }
}

impl Serialize for AdmissionLimits {
    fn serialize(&self, w: &mut JsonWriter) {
        let mut o = w.object();
        o.field("max_qubits", &self.max_qubits).field("max_gates", &self.max_gates);
        o.field("max_circuits", &self.max_circuits).field("deadline_ms", &self.deadline_ms);
        o.end();
    }
}

impl Deserialize for AdmissionLimits {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = ObjectView::new(v)?;
        Ok(Self {
            max_qubits: obj.opt_field("max_qubits")?,
            max_gates: obj.opt_field("max_gates")?,
            max_circuits: obj.opt_field("max_circuits")?,
            deadline_ms: obj.opt_field("deadline_ms")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zac_circuit::{bench_circuits, preprocess};

    #[test]
    fn unlimited_limits_admit_everything() {
        let limits = AdmissionLimits::default();
        let staged = preprocess(&bench_circuits::ghz(40));
        assert_eq!(limits.admit_circuit(&staged), Ok(()));
        assert_eq!(limits.admit_batch(10_000), Ok(()));
    }

    /// The cap rejections carry the actual numbers, not a formatted string.
    #[test]
    fn cap_rejections_carry_typed_payloads() {
        let staged = preprocess(&bench_circuits::ghz(40));
        let limits = AdmissionLimits { max_qubits: Some(16), ..Default::default() };
        assert_eq!(
            limits.admit_circuit(&staged),
            Err(RejectReason::TooLarge { needed: 40, available: 16 })
        );

        let gates = staged.num_1q_gates() + staged.num_2q_gates();
        let limits = AdmissionLimits { max_gates: Some(3), ..Default::default() };
        assert_eq!(
            limits.admit_circuit(&staged),
            Err(RejectReason::TooManyGates { gates, cap: 3 })
        );

        let limits = AdmissionLimits { max_circuits: Some(2), ..Default::default() };
        assert_eq!(
            limits.admit_batch(5),
            Err(RejectReason::TooManyCircuits { circuits: 5, cap: 2 })
        );
    }

    #[test]
    fn deadline_and_queue_reasons_expose_their_numbers() {
        let d = RejectReason::DeadlineExpired { deadline_ms: 50, waited_ms: 75 };
        match d {
            RejectReason::DeadlineExpired { deadline_ms, waited_ms } => {
                assert_eq!((deadline_ms, waited_ms), (50, 75));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(d.to_string().contains("50 ms"));
        assert!(d.to_string().contains("75 ms"));
        let q = RejectReason::QueueFull { depth: 128, cap: 128 };
        assert!(q.to_string().contains("128"));
    }

    #[test]
    fn tightened_takes_the_strictest_of_each_cap() {
        let policy = AdmissionLimits {
            max_qubits: Some(100),
            max_gates: None,
            max_circuits: Some(64),
            deadline_ms: Some(10_000),
        };
        let request = AdmissionLimits {
            max_qubits: Some(200), // wider than policy: policy wins
            max_gates: Some(5_000),
            max_circuits: Some(8),
            deadline_ms: None,
        };
        assert_eq!(
            policy.tightened(&request),
            AdmissionLimits {
                max_qubits: Some(100),
                max_gates: Some(5_000),
                max_circuits: Some(8),
                deadline_ms: Some(10_000),
            }
        );
    }

    #[test]
    fn reject_reasons_roundtrip_through_json() {
        let reasons = [
            RejectReason::TooLarge { needed: 121, available: 100 },
            RejectReason::TooManyGates { gates: 9001, cap: 9000 },
            RejectReason::TooManyCircuits { circuits: 65, cap: 64 },
            RejectReason::DeadlineExpired { deadline_ms: 5, waited_ms: 9 },
            RejectReason::QueueFull { depth: 12, cap: 12 },
            RejectReason::BreakerOpen { failures: 3, cooldown_ms: 250 },
            RejectReason::Shed { depth: 12, cap: 12 },
        ];
        for reason in reasons {
            let json = serde_json::to_string(&reason).unwrap();
            let back: RejectReason = serde_json::from_str(&json).unwrap();
            assert_eq!(back, reason, "{json}");
            assert!(json.contains("\"kind\""));
        }
        assert!(serde_json::from_str::<RejectReason>("{\"kind\":\"martian\"}").is_err());
    }

    #[test]
    fn limits_roundtrip_and_tolerate_missing_fields() {
        let limits = AdmissionLimits {
            max_qubits: Some(30),
            max_gates: None,
            max_circuits: Some(4),
            deadline_ms: Some(250),
        };
        let json = serde_json::to_string(&limits).unwrap();
        assert_eq!(serde_json::from_str::<AdmissionLimits>(&json).unwrap(), limits);
        // An empty object is "no limits", so clients can omit the block.
        assert_eq!(
            serde_json::from_str::<AdmissionLimits>("{}").unwrap(),
            AdmissionLimits::default()
        );
    }

    /// The generic outcome keeps the bench harness's blank-cell semantics.
    #[test]
    fn outcome_result_accessors() {
        let ok: Outcome<u32> = Outcome::Ok(7);
        assert_eq!(ok.result(), Some(&7));
        assert_eq!(ok.into_result(), Some(7));
        let too_large: Outcome<u32> = Outcome::TooLarge { needed: 10, available: 5 };
        assert_eq!(too_large.result(), None);
        assert_eq!(too_large.into_result(), None);
        let failed: Outcome<u32> = Outcome::Failed("boom".into());
        assert_eq!(failed.into_result(), None);
    }
}
