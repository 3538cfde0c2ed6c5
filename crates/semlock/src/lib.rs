//! # semlock — the semantic locking runtime
//!
//! Runtime support for *Automatic Scalable Atomicity via Semantic Locking*
//! (Golan-Gueta, Ramalingam, Sagiv, Yahav — PPoPP 2015).
//!
//! Atomic sections over shared linearizable ADTs are implemented with
//! **pessimistic, rollback-free locks on ADT operations**: a transaction may
//! invoke an operation only while holding a lock on it, and two transactions
//! may simultaneously hold locks only on *commuting* operations. This crate
//! provides everything the compiled output of the `synth` crate needs at
//! runtime:
//!
//! * [`value::Value`], [`schema::AdtSchema`] — runtime values and ADT
//!   interfaces;
//! * [`symbolic`] — concrete operations, symbolic operations and symbolic
//!   sets (the static parameter of `lock`, §2.2.1);
//! * [`spec::CommutSpec`] — per-ADT commutativity specifications (Fig. 3b);
//! * [`phi::Phi`] — the abstract-value hash φ (§5.1);
//! * [`mode::ModeTable`] — locking-mode generation, merging, the
//!   commutativity function `F_c` (Fig. 19) and lock partitioning (§5.2–5.3);
//! * [`mech::Mech`] — the per-partition counter mechanism of Fig. 20:
//!   one acquisition protocol (admit try → bounded probes → park) over
//!   three counter representations chosen from the partition's mode
//!   count ([`mech::AdmissionBackend`] forces one, for tests);
//! * [`manager::SemLock`] — the per-instance `lock` / `unlockAll` API;
//! * [`txn::Txn`] — transaction contexts (`LOCAL_SET`, `LV`, `LV2`,
//!   epilogue, early release);
//! * [`protocol::ProtocolChecker`] — a runtime validator for the S2PL /
//!   OS2PL protocol rules, used heavily by the test suites;
//! * [`error::LockError`], [`txn::Txn::try_lv`], [`txn::Txn::lv_deadline`] —
//!   bounded acquisition with structured failures;
//! * [`watchdog`] — the off-hot-path deadlock watchdog backing
//!   [`error::LockError::WouldDeadlock`];
//! * [`fault::FaultPlan`] — deterministic seeded fault injection for the
//!   chaos/soak harnesses;
//! * [`retry`] — the overload-control layer above the bounded API:
//!   deterministic-jitter abort-retry ([`retry::RetryPolicy`]),
//!   starvation escalation, and a token-based admission throttle with
//!   shed-on-saturation ([`retry::AdmissionThrottle`]);
//! * [`telemetry`] — opt-in contention telemetry: per-thread lock-site
//!   event rings, wait histograms, conflict-pair matrices, Chrome-trace
//!   and JSON exporters. Off by default; the disabled path costs one
//!   branch on a static flag.
//!
//! ## Quick example
//!
//! ```
//! use semlock::prelude::*;
//!
//! // A Set ADT (Fig. 3a) with its commutativity specification (Fig. 3b).
//! let schema = semlock::schema::set_schema();
//! let spec = CommutSpec::builder(schema.clone())
//!     .always("add", "add")
//!     .differ("add", 0, "remove", 0)
//!     .differ("add", 0, "contains", 0)
//!     .never("add", "size")
//!     .never("add", "clear")
//!     .always("remove", "remove")
//!     .differ("remove", 0, "contains", 0)
//!     .never("remove", "size")
//!     .never("remove", "clear")
//!     .always("contains", "contains")
//!     .always("contains", "size")
//!     .never("contains", "clear")
//!     .always("size", "size")
//!     .never("size", "clear")
//!     .always("clear", "clear")
//!     .build();
//!
//! // One lock site: lock({add(v0), remove(v0)}) keyed by a value.
//! let mut builder = ModeTable::builder(schema.clone(), spec, Phi::fib(64));
//! let site = builder.add_site(SymbolicSet::new(vec![
//!     SymOp::new(schema.method("add"), vec![SymArg::Var(0)]),
//!     SymOp::new(schema.method("remove"), vec![SymArg::Var(0)]),
//! ]));
//! let table = builder.build();
//!
//! // Per-instance lock; transactions acquire modes selected by key.
//! let lock = SemLock::new(table.clone());
//! let mut txn = Txn::new();
//! txn.lv(&lock, table.select(site, &[Value(7)]));
//! // ... invoke set.add(7), set.remove(7) ...
//! txn.unlock_all();
//! ```

#![warn(missing_docs)]

pub mod acquire;
pub mod commut;
pub mod dwcas;
pub mod error;
pub mod fault;
pub mod inline_vec;
pub mod manager;
pub mod mech;
pub mod mode;
pub mod partition;
pub mod phi;
pub mod protocol;
pub mod retry;
pub mod schema;
pub mod spec;
pub mod stack;
pub mod symbolic;
pub mod sync;
pub mod telemetry;
pub mod txn;
pub mod value;
pub mod watchdog;

// The acquisition surface at the crate root: exactly what a caller needs
// to take and release modes — the unified `acquire(&AcquireSpec)` path,
// its error types, and the counter-representation selector. Everything
// else (schema/spec/synthesis machinery, counter layouts, the retry/
// overload layer) stays behind its module: that surface is
// compiler-facing or policy-facing, not lock-caller-facing.
pub use crate::acquire::{AcquireSpec, WaitBudget};
pub use crate::error::{LockError, LockResult};
pub use crate::manager::{SemLock, SemLockBuilder};
pub use crate::mech::{AdmissionBackend, WaitStrategy};
pub use crate::mode::ModeId;
pub use crate::txn::Txn;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::acquire::{AcquireSpec, WaitBudget};
    pub use crate::error::{LockError, LockResult};
    pub use crate::fault::{FaultAction, FaultPlan, FaultPoint};
    pub use crate::manager::{SemLock, SemLockBuilder};
    pub use crate::mech::{AdmissionBackend, WaitStrategy};
    pub use crate::mode::{LockSiteId, Mode, ModeArg, ModeId, ModeOp, ModeTable};
    pub use crate::phi::{AbsVal, Phi};
    pub use crate::protocol::ProtocolChecker;
    pub use crate::retry::{
        AdmissionThrottle, RetryBudgets, RetryOutcome, RetryPolicy, RetryState, ThrottleDecision,
    };
    pub use crate::schema::{AdtSchema, MethodIdx};
    pub use crate::spec::{ArgRef, CommutSpec, Cond};
    pub use crate::symbolic::{Operation, SymArg, SymOp, SymbolicSet};
    pub use crate::telemetry::{self, CycleRecord, Event, EventKind, Metrics, WaitCause};
    pub use crate::txn::{atomic_section, next_txn_id, OpGuard, Txn};
    pub use crate::value::Value;
    pub use crate::watchdog::TxnId;
}
