//! # semantic-locking
//!
//! A complete Rust implementation of **Automatic Scalable Atomicity via
//! Semantic Locking** (Golan-Gueta, Ramalingam, Sagiv, Yahav — PPoPP
//! 2015): a compiler and runtime that implement atomic sections over
//! shared linearizable ADTs with pessimistic, rollback-free **locks on
//! ADT operations**, admitting concurrency exactly when operations
//! *commute*.
//!
//! The workspace is organized as:
//!
//! * [`semlock`] — the runtime: commutativity specifications, the
//!   abstract-value hash φ, locking modes and the commutativity function
//!   `F_c`, the Fig. 20 counter mechanism with lock partitioning,
//!   per-instance semantic locks, transaction contexts, and an OS2PL
//!   protocol checker;
//! * [`synth`] — the compiler: an atomic-section IR, the
//!   restrictions-graph, global-wrapper synthesis for cyclic programs,
//!   topological lock ordering and `LV`/`LV2` insertion, the Appendix-A
//!   optimizations, the §4 backward symbolic-set inference, and per-class
//!   mode-table generation;
//! * [`adts`] — linearizable Map/Set/Queue/Multimap/WeakMap substrates
//!   with their commutativity specifications;
//! * [`interp`] — a multi-threaded interpreter running compiled sections
//!   against live ADTs under semantic / global / 2PL synchronization;
//! * [`baselines`] — the Global, 2PL, Manual (lock striping), and V8
//!   comparison strategies of §6;
//! * [`workloads`] — the five evaluation benchmarks (ComputeIfAbsent,
//!   Graph, Cache, Intruder, GossipRouter).
//!
//! ## Quickstart
//!
//! ```
//! use semantic_locking::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. Describe the program: one atomic section over a shared Map.
//! let section = AtomicSection::new(
//!     "increment",
//!     [ptr("map", "Map"), scalar("k"), scalar("v")],
//!     Body::new()
//!         .call_into("v", "map", "get", vec![e::var("k")])
//!         .if_else(
//!             e::is_null(e::var("v")),
//!             Body::new().call("map", "put", vec![e::var("k"), e::konst(1)]),
//!             Body::new().call("map", "put", vec![e::var("k"), e::add(e::var("v"), e::konst(1))]),
//!         )
//!         .build(),
//! );
//!
//! // 2. Compile: the synthesizer inserts deadlock-free semantic locking.
//! let mut registry = ClassRegistry::new();
//! registry.register("Map", adts::schema_of("Map"), adts::spec_of("Map"));
//! let program = Arc::new(Synthesizer::new(registry).synthesize(&[section]));
//!
//! // 3. Execute concurrently — transactions on commuting keys overlap.
//! let env = Arc::new(Env::new(program));
//! let map = env.new_instance("Map");
//! let interp = Interp::new(env, Strategy::Semantic);
//! interp.run("increment", &[("map", map), ("k", Value(7))]);
//! ```

pub use adts;
pub use baselines;
pub use interp;
pub use semlock;
pub use synth;
pub use workloads;

/// One-stop imports for the quickstart path.
pub mod prelude {
    pub use adts;
    pub use interp::{Engine, Env, Frame, Interp, Strategy};
    pub use semlock::prelude::*;
    pub use synth::ir::{e, ptr, scalar, AtomicSection, Body};
    pub use synth::{ClassRegistry, SynthOutput, Synthesizer};
}
