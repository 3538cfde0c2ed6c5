//! # interp — the atomic-section interpreter
//!
//! Executes instrumented atomic-section IR (produced by the `synth`
//! compiler) against live linearizable ADT instances from the `adts`
//! crate, on real threads, under the paper's three synchronization
//! strategies (semantic locking / global lock / per-instance 2PL).
//! Integration tests use it with [`semlock::protocol::ProtocolChecker`] to
//! validate atomicity and deadlock freedom of compiled sections.

#![warn(missing_docs)]

pub mod compile;
pub mod env;
pub mod exec;
pub mod frame;

pub use baselines::BinaryLock;
pub use compile::CompiledSection;
pub use env::{Env, Registry, SharedAdt};
pub use exec::{Engine, Interp, RetryRun, Strategy};
pub use frame::Frame;
