//! A long-running batch-compile service over the compiler/cache/telemetry
//! seams.
//!
//! The stack has four layers, each its own module:
//!
//! * **session** ([`Service`]) — owns the stack; [`Service::submit`] is the
//!   in-process API, [`Service::submit_line`] the wire entry point, and the
//!   `zac-serve` binary the stdin/stdout session loop;
//! * **binder** ([`bind`]) — parses QASM, validates, resolves the compiler
//!   label (+ placement-engine override) to a fingerprint-faithful
//!   instance;
//! * **planner** ([`plan`]) — admission control: the service's
//!   [`AdmissionLimits`] tightened with the request's, batch caps rejecting
//!   whole requests, per-circuit caps rejecting single entries;
//! * **executor** ([`exec`]) — a worker pool draining a (priority,
//!   submission-order) queue through one shared
//!   [`CompileCache`](zac_cache::CompileCache), enforcing deadlines at
//!   dequeue and streaming each entry's [`EntryOutcome`] as it finishes.
//!
//! The wire format is line-delimited JSON ([`protocol`]); successful
//! entries embed the versioned `CompileOutput` envelope from
//! `zac_core::output_json`. The executor compiles through
//! [`CompileCache::get_or_compile`](zac_cache::CompileCache::get_or_compile),
//! the same call the bench harness makes, so responses are bit-identical to
//! direct `BatchRunner` runs — the serving layer never
//! changes compilation semantics (locked by `tests/serve.rs` at the
//! workspace root; see DESIGN.md §9).
//!
//! The service is hardened against faults (DESIGN.md §10): compiler panics
//! are isolated per entry (the worker respawns), compile deadlines cancel
//! runaway work cooperatively, a per-compiler circuit breaker sheds load
//! off crashing compilers, and overload sheds strictly-lower-priority
//! queued work first. Every submitted entry receives exactly one terminal
//! response, whatever faults fire — the crate denies `clippy::unwrap_used`
//! so no serving path can abort the process.
//!
//! # Example
//!
//! ```
//! use zac_circuit::{bench_circuits, qasm::to_qasm};
//! use zac_serve::{CircuitEntry, Request, Response, Service, ServiceConfig};
//!
//! let mut config = ServiceConfig::default();
//! config.zac_config.placement.sa_iterations = 50; // fast doc-test config
//! let service = Service::new(config);
//! let circuit = bench_circuits::ghz(4);
//! let request = Request::new(
//!     "r1",
//!     "Zoned-ZAC",
//!     vec![CircuitEntry { name: circuit.name().to_string(), qasm: to_qasm(&circuit) }],
//! );
//! let responses: Vec<Response> = service.submit(request).iter().collect();
//! assert!(matches!(responses.last(), Some(Response::Done(d)) if d.ok == 1));
//! ```

#![deny(clippy::unwrap_used)]

pub mod bind;
pub mod exec;
pub mod plan;
pub mod protocol;
mod service;

pub use protocol::{
    CircuitEntry, Done, EntryError, EntryOutcome, PhaseTotals, Request, Response, PROTOCOL_VERSION,
};
pub use service::{Service, ServiceConfig};
pub use zac_core::admission::{AdmissionLimits, Outcome, RejectReason};
