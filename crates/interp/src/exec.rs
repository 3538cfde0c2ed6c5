//! The multi-threaded atomic-section interpreter.
//!
//! Executes (instrumented) IR sections against live ADT instances under one
//! of three synchronization strategies, mirroring the paper's evaluation
//! configurations:
//!
//! * [`Strategy::Semantic`] — the inserted semantic-locking statements
//!   ("Ours");
//! * [`Strategy::Global`] — one global lock around every section;
//! * [`Strategy::TwoPhase`] — the §3 output with a standard exclusive lock
//!   per ADT instance ("2PL").
//!
//! With [`Interp::with_checker`], every semantic lock, operation, and
//! unlock is recorded into a [`ProtocolChecker`] for post-hoc validation
//! of the OS2PL rules.
//!
//! ## Fault tolerance
//!
//! The executor is unwind-safe: a panic anywhere inside a section (an ADT
//! operation bug, or an injected chaos fault) releases every lock the
//! transaction holds before the unwind continues, and poisons any instance
//! the transaction had already mutated — mirroring the abort policy of the
//! `semlock` runtime (aborts are clean only *before* the first mutation).
//! [`Interp::with_lock_timeout`] switches semantic acquisitions to the
//! bounded, watchdog-armed [`semlock::manager::SemLock::lock_deadline`]
//! path, and [`Interp::try_run`] surfaces acquisition failures as
//! [`LockError`] instead of panicking. [`Interp::with_faults`] threads a
//! deterministic [`FaultPlan`] through every lock / unlock / operation
//! boundary.

use crate::compile::{self, CompiledSection};
use crate::env::{Env, SharedAdt};
use crate::frame::{Frame, InlineVec};
use baselines::BinaryLock;
use semlock::acquire::AcquireSpec;
use semlock::error::LockError;
use semlock::fault::{self, FaultAction, FaultPlan, FaultPoint};
use semlock::mode::{ModeId, ModeTable};
use semlock::protocol::ProtocolChecker;
use semlock::retry::{RetryOutcome, RetryPolicy, RetryState};
use semlock::schema::MethodIdx;
use semlock::symbolic::Operation;
use semlock::telemetry;
use semlock::value::Value;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use synth::ir::{AtomicSection, Expr, Stmt};

/// Synchronization strategy for executing atomic sections.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// The synthesized semantic locking ("Ours").
    Semantic,
    /// A single global lock.
    Global,
    /// Ordered two-phase locking with one exclusive lock per instance.
    TwoPhase,
}

/// Which execution engine drives a section run (see `DESIGN.md`,
/// "Section compilation").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// The recursive tree-walker over the IR — the reference oracle.
    #[default]
    TreeWalk,
    /// The flat op-tape dispatch loop over sections lowered by
    /// [`synth::lower`] and compiled by [`crate::compile`].
    Compiled,
}

/// Maximum statements executed per section run (runaway-loop backstop).
pub(crate) const FUEL: u64 = 10_000_000;

/// The interpreter.
pub struct Interp {
    pub(crate) env: Arc<Env>,
    pub(crate) strategy: Strategy,
    pub(crate) global: BinaryLock,
    pub(crate) checker: Option<Arc<ProtocolChecker>>,
    pub(crate) faults: Option<Arc<FaultPlan>>,
    pub(crate) lock_timeout: Option<Duration>,
    engine: Engine,
    /// Compiled sections in program order; looked up by linear scan (few
    /// sections, short names — cheaper than hashing on the hot path).
    compiled: Vec<(String, Arc<CompiledSection>)>,
    /// Local transaction-id allocator, if detached from the process-global
    /// one (see [`Interp::with_txn_ids`]).
    txn_ids: Option<Arc<AtomicU64>>,
}

/// Attempt ids a [`RetryRun`] keeps inline; a request that needs more
/// attempts than this has slept through backoffs that dwarf an allocation.
const INLINE_ATTEMPTS: usize = 4;

/// Outcome of a successful [`Interp::run_with_retry`]: the final frame
/// plus the retry trajectory that produced it (replay evidence for the
/// determinism tests, throughput accounting for the server harness).
///
/// `#[non_exhaustive]`: future retry runtimes may report more (e.g.
/// per-attempt wait breakdowns).
#[derive(Debug)]
#[non_exhaustive]
pub struct RetryRun<'a> {
    /// The completed attempt's final variable frame.
    pub frame: Frame<'a>,
    /// Total attempts, including the one that succeeded (1 = first try).
    pub attempts: u32,
    /// Did the transaction age into the escalated pessimistic path?
    pub escalated: bool,
    /// The jittered backoff slept before each non-escalated retry, in
    /// order. Deterministic given (policy seed, txn ids).
    pub backoffs: Vec<Duration>,
    /// The transaction id of every attempt, in order (a slice through
    /// `Deref`). Deterministic under [`Interp::with_txn_ids`].
    pub txns: InlineVec<u64, INLINE_ATTEMPTS>,
}

pub(crate) struct RunState {
    /// The tree-walker's name-keyed working frame (the compiled engine
    /// runs on its register file and leaves this empty).
    pub(crate) frame: HashMap<String, Value>,
    /// Held semantic locks as `(instance id, mode)`, in acquisition
    /// order. An instance's id is its lock's `unique()`, so this is also
    /// the held set a bounded acquisition lends the deadlock watchdog.
    pub(crate) held_sem: Vec<(u64, ModeId)>,
    /// Parallel to `held_sem`: the stable site id of the acquiring
    /// `LS(l)` statement (for telemetry attribution on release).
    pub(crate) held_sites: Vec<u32>,
    /// Instance ids whose plain (2PL) lock is held.
    pub(crate) held_plain: Vec<u64>,
    pub(crate) txn: u64,
    pub(crate) fuel: u64,
    /// Per-transaction injection-point ordinal (chaos determinism).
    pub(crate) step: u64,
    /// Instance ids this transaction has already invoked operations on.
    pub(crate) mutated: Vec<u64>,
    /// Instance whose operation is currently executing, if any.
    pub(crate) in_flight: Option<u64>,
    /// When set, this attempt runs *escalated*: every semantic acquisition
    /// waits up to this patience (far beyond any backoff) with the
    /// watchdog armed, overriding [`Interp::with_lock_timeout`]. Set by
    /// [`Interp::run_with_retry`] once a transaction ages past the
    /// policy's starvation threshold.
    pub(crate) escalate_patience: Option<Duration>,
    /// Reusable call-argument buffer (avoids a `Vec` allocation per call).
    pub(crate) scratch_argv: Vec<Value>,
    /// Reusable mode-selection key buffer.
    pub(crate) scratch_keys: Vec<Value>,
}

impl RunState {
    pub(crate) fn new(txn: u64) -> RunState {
        RunState {
            frame: HashMap::new(),
            held_sem: Vec::new(),
            held_sites: Vec::new(),
            held_plain: Vec::new(),
            txn,
            fuel: FUEL,
            step: 0,
            mutated: Vec::new(),
            in_flight: None,
            escalate_patience: None,
            scratch_argv: Vec::new(),
            scratch_keys: Vec::new(),
        }
    }

    /// Prepare a pooled `RunState` for a fresh transaction, keeping every
    /// buffer's capacity so a recycled state allocates nothing.
    pub(crate) fn reset(&mut self, txn: u64) {
        self.frame.clear();
        self.held_sem.clear();
        self.held_sites.clear();
        self.held_plain.clear();
        self.txn = txn;
        self.fuel = FUEL;
        self.step = 0;
        self.mutated.clear();
        self.in_flight = None;
        self.escalate_patience = None;
        self.scratch_argv.clear();
        self.scratch_keys.clear();
    }

    /// 2PL acquisition: take the instance's plain lock unless this
    /// transaction already holds it.
    pub(crate) fn lock_plain(&mut self, adt: &SharedAdt) {
        if !self.held_plain.contains(&adt.id) {
            adt.plain.lock();
            self.held_plain.push(adt.id);
        }
    }
}

impl Interp {
    /// Create an interpreter over an environment.
    pub fn new(env: Arc<Env>, strategy: Strategy) -> Interp {
        Interp {
            env,
            strategy,
            global: BinaryLock::new(),
            checker: None,
            faults: None,
            lock_timeout: None,
            engine: Engine::TreeWalk,
            compiled: Vec::new(),
            txn_ids: None,
        }
    }

    /// Select the execution engine. Switching to [`Engine::Compiled`]
    /// compiles every section of the program once, up front; sections are
    /// then driven by the flat-tape dispatch loop with identical observable
    /// behavior (results, lock/unlock sequences, fault boundaries, checker
    /// callbacks, poisoning, telemetry attribution).
    pub fn with_engine(mut self, engine: Engine) -> Interp {
        if engine == Engine::Compiled && self.compiled.is_empty() {
            self.compiled = compile::compile_program(&self.env);
        }
        self.engine = engine;
        self
    }

    /// The active engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Detach this interpreter from the process-global transaction-id
    /// allocator: runs draw sequential ids starting at `base` instead.
    /// Intended for deterministic replay (e.g. the tree-walk vs compiled
    /// equivalence tests, where fault-plan decisions hash the txn id).
    /// Callers must ensure id ranges don't collide with concurrent users of
    /// the deadlock watchdog — single-threaded test harnesses only.
    pub fn with_txn_ids(mut self, base: u64) -> Interp {
        self.txn_ids = Some(Arc::new(AtomicU64::new(base)));
        self
    }

    pub(crate) fn next_txn(&self) -> u64 {
        match &self.txn_ids {
            Some(ctr) => ctr.fetch_add(1, Ordering::Relaxed),
            None => semlock::txn::next_txn_id(),
        }
    }

    /// Attach a protocol checker (records semantic-strategy executions).
    pub fn with_checker(mut self, checker: Arc<ProtocolChecker>) -> Interp {
        self.checker = Some(checker);
        self
    }

    /// Attach a deterministic fault plan: every lock, unlock, and operation
    /// boundary consults it for injected delays, forced timeouts
    /// (semantic lock sites only), and panics.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Interp {
        self.faults = Some(plan);
        self
    }

    /// Bound every semantic acquisition: waits use
    /// [`semlock::manager::SemLock::lock_deadline`] with `now + timeout`,
    /// arming the deadlock watchdog, and failures surface as [`LockError`]
    /// through [`Interp::try_run`].
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Interp {
        self.lock_timeout = Some(timeout);
        self
    }

    /// The environment.
    pub fn env(&self) -> &Arc<Env> {
        &self.env
    }

    /// Run a section by name with the given variable bindings; returns the
    /// final frame. Panics on acquisition failure (see [`Interp::try_run`]
    /// for the fallible form).
    pub fn run(&self, section_name: &str, args: &[(&str, Value)]) -> Frame<'_> {
        match self.try_run(section_name, args) {
            Ok(frame) => frame,
            Err(e) => panic!("section {section_name} aborted: {e}"),
        }
    }

    /// Fallible [`Interp::run`]: a bounded acquisition that times out, hits
    /// a poisoned instance, or would deadlock aborts the section — every
    /// held lock is released (instances the transaction had already mutated
    /// are poisoned first) and the error is returned.
    pub fn try_run(
        &self,
        section_name: &str,
        args: &[(&str, Value)],
    ) -> Result<Frame<'_>, LockError> {
        self.try_run_as(section_name, args, self.next_txn(), None)
    }

    /// [`Interp::try_run`] with an explicit transaction id and optional
    /// escalation patience — the per-attempt entry point
    /// [`Interp::run_with_retry`] uses so every attempt draws a *fresh*
    /// id from the same allocator (deterministic under
    /// [`Interp::with_txn_ids`], yet never replaying the previous
    /// attempt's fault stream).
    fn try_run_as(
        &self,
        section_name: &str,
        args: &[(&str, Value)],
        txn: u64,
        escalate: Option<Duration>,
    ) -> Result<Frame<'_>, LockError> {
        if self.engine == Engine::Compiled {
            if let Some(cs) = self.compiled_section(section_name) {
                return compile::run_compiled_as(self, cs, args, txn, escalate);
            }
        }
        let section = self
            .env
            .program
            .sections
            .iter()
            .find(|s| s.name == section_name)
            .unwrap_or_else(|| panic!("no section named {section_name}"));
        self.try_run_section_as(section, args, txn, escalate)
    }

    /// [`Interp::run`] that insists on the compiled engine: panics on
    /// acquisition failure and if the section was not compiled (the engine
    /// is not [`Engine::Compiled`]).
    pub fn run_compiled(&self, section_name: &str, args: &[(&str, Value)]) -> Frame<'_> {
        match self.try_run_compiled(section_name, args) {
            Ok(f) => f,
            Err(e) => panic!("section {section_name} aborted: {e}"),
        }
    }

    /// Fallible [`Interp::run_compiled`].
    pub fn try_run_compiled(
        &self,
        section_name: &str,
        args: &[(&str, Value)],
    ) -> Result<Frame<'_>, LockError> {
        let cs = self.compiled_section(section_name).unwrap_or_else(|| {
            panic!(
                "no compiled section named {section_name} (engine: {:?})",
                self.engine
            )
        });
        compile::run_compiled_as(self, cs, args, self.next_txn(), None)
    }

    /// Run a section under an abort-retry loop governed by `policy`,
    /// re-executing on every retryable [`LockError`] until it completes,
    /// escalates-and-completes, or exhausts a per-kind budget.
    ///
    /// Each attempt is a *fresh* transaction: it draws a new id from the
    /// interpreter's allocator, so under [`Interp::with_txn_ids`] the whole
    /// retry trajectory — ids, injected faults, backoff durations — is a
    /// pure function of (allocator base, fault seed, policy seed) and
    /// replays exactly. Reusing the aborted id would replay the aborted
    /// attempt's fault stream too, turning any injected fault into a
    /// livelock; fresh ids keep determinism *across* runs while still
    /// making per-attempt progress possible.
    ///
    /// Abort cleanup between attempts is the same idempotent
    /// `Interp::abort_cleanup` path `try_run` uses: every held mode is
    /// released (mutated instances poisoned first) before the backoff
    /// sleep, so a retrying transaction never parks while holding modes.
    /// Injected panics are *not* retried — they unwind to the caller
    /// exactly as under [`Interp::run`], where chaos harnesses catch them.
    ///
    /// After `policy.escalate_after` aborts the transaction ages into the
    /// escalated pessimistic path: acquisitions wait up to the policy's
    /// patience with the deadlock watchdog armed (see
    /// [`semlock::retry::RetryPolicy::escalated_spec`] for why this is
    /// "forever with watchdog opt-in" rather than a true unbounded wait).
    pub fn run_with_retry(
        &self,
        section_name: &str,
        args: &[(&str, Value)],
        policy: &RetryPolicy,
    ) -> Result<RetryRun<'_>, LockError> {
        let mut st = RetryState::new();
        let mut backoffs = Vec::new();
        let mut txns = InlineVec::default();
        let mut escalation_counted = false;
        loop {
            let txn = self.next_txn();
            txns.push(txn);
            let escalate = st.escalated().then(|| policy.patience_budget());
            match self.try_run_as(section_name, args, txn, escalate) {
                Ok(frame) => {
                    return Ok(RetryRun {
                        frame,
                        attempts: txns.len() as u32,
                        escalated: st.escalated(),
                        backoffs,
                        txns,
                    })
                }
                Err(e) => match policy.on_abort(&mut st, txn, &e) {
                    RetryOutcome::RetryAfter(d) => {
                        telemetry::count_retry();
                        backoffs.push(d);
                        std::thread::sleep(d);
                    }
                    RetryOutcome::Escalate => {
                        telemetry::count_retry();
                        if !escalation_counted {
                            escalation_counted = true;
                            telemetry::count_escalation();
                        }
                    }
                    RetryOutcome::Exhausted => {
                        telemetry::count_exhausted();
                        return Err(e);
                    }
                    // Fatal, and any future outcome this build doesn't
                    // know: surface the error as-is.
                    _ => return Err(e),
                },
            }
        }
    }

    /// The compiled form of a section, if the compiled engine is active.
    #[inline]
    fn compiled_section(&self, name: &str) -> Option<&Arc<CompiledSection>> {
        self.compiled
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, cs)| cs)
    }

    /// Run a specific section with the given bindings. Panics on
    /// acquisition failure.
    pub fn run_section(&self, section: &AtomicSection, args: &[(&str, Value)]) -> Frame<'static> {
        match self.try_run_section(section, args) {
            Ok(frame) => frame,
            Err(e) => panic!("section {} aborted: {e}", section.name),
        }
    }

    /// Fallible [`Interp::run_section`].
    pub fn try_run_section(
        &self,
        section: &AtomicSection,
        args: &[(&str, Value)],
    ) -> Result<Frame<'static>, LockError> {
        self.try_run_section_as(section, args, self.next_txn(), None)
    }

    /// [`Interp::try_run_section`] with an explicit transaction id and
    /// optional escalation patience (see [`Interp::run_with_retry`]).
    fn try_run_section_as(
        &self,
        section: &AtomicSection,
        args: &[(&str, Value)],
        txn: u64,
        escalate: Option<Duration>,
    ) -> Result<Frame<'static>, LockError> {
        // Initialize the frame: pointers null, scalars zero, args override.
        let mut frame: HashMap<String, Value> = section
            .decls
            .iter()
            .map(|(name, ty)| {
                let v = match ty {
                    synth::ir::VarType::Ptr(_) => Value::NULL,
                    synth::ir::VarType::Scalar => Value(0),
                };
                (name.clone(), v)
            })
            .collect();
        for (name, v) in args {
            frame.insert(name.to_string(), *v);
        }
        // Wrapper pointers are bound to their global instances.
        for w in &self.env.program.wrappers {
            if section.decls.contains_key(&w.pointer) {
                frame.insert(w.pointer.clone(), self.env.wrapper_handle(&w.name));
            }
        }

        // Ids come from semlock's global allocator (unless detached via
        // `with_txn_ids`) so registrations with the process-global deadlock
        // watchdog never collide with other interpreters or native `Txn`s.
        let mut st = RunState::new(txn);
        st.frame = frame;
        st.escalate_patience = escalate;

        if self.strategy == Strategy::Global {
            self.global.lock();
        }
        // Unwind safety: a panic inside the section (an ADT bug or an
        // injected fault) must not leak locks or the global lock. The
        // normal-path epilogue runs *inside* the catch so an injected
        // unlock-boundary panic is also cleaned up.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            self.exec_block(section, &section.body, &mut st)?;
            // Release anything still held (sections without explicit
            // epilogue after optimization rely on trailing unlocks;
            // leftovers are a compiler bug for Semantic — but always
            // release defensively).
            self.release_all(&mut st);
            Ok(())
        }));
        let result = match outcome {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => {
                self.abort_cleanup(&mut st);
                Err(e)
            }
            Err(payload) => {
                self.abort_cleanup(&mut st);
                if self.strategy == Strategy::Global {
                    self.global.unlock();
                }
                panic::resume_unwind(payload);
            }
        };
        if self.strategy == Strategy::Global {
            self.global.unlock();
        }
        result.map(|()| Frame::owned(st.frame))
    }

    /// Abort path: poison every still-held instance the transaction already
    /// mutated (or whose operation was in flight), then release everything.
    /// Never consults the fault plan — injecting during cleanup of an abort
    /// could double-panic.
    pub(crate) fn abort_cleanup(&self, st: &mut RunState) {
        for ((id, mode), site) in st.held_sem.drain(..).zip(st.held_sites.drain(..)) {
            if st.mutated.contains(&id) || st.in_flight == Some(id) {
                self.instance(id).sem().poison();
            }
            self.unlock_sem(id, mode, site, st.txn);
        }
        for id in st.held_plain.drain(..) {
            self.instance(id).plain.unlock();
        }
    }

    /// The instance a held-set entry names.
    #[inline]
    fn instance(&self, id: u64) -> &SharedAdt {
        self.env.registry().get_ref(id)
    }

    /// Release one held semantic mode: telemetry attribution, the unlock,
    /// the checker callback.
    fn unlock_sem(&self, id: u64, mode: ModeId, site: u32, txn: u64) {
        if telemetry::enabled() {
            telemetry::set_context(txn, site);
        }
        self.instance(id).sem().unlock(mode);
        if let Some(c) = &self.checker {
            c.on_unlock(txn, id);
        }
    }

    /// Consult the fault plan at a boundary. Delays sleep in place; panics
    /// unwind with an [`semlock::fault::InjectedPanic`] payload; a forced
    /// `Timeout` decision is returned for the caller (only lock sites
    /// convert it — the plan never emits it elsewhere).
    pub(crate) fn fault_decision(
        &self,
        point: FaultPoint,
        st: &mut RunState,
        instance: u64,
    ) -> FaultAction {
        let Some(plan) = &self.faults else {
            return FaultAction::None;
        };
        st.step += 1;
        match plan.decide(point, st.txn, instance, st.step) {
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                FaultAction::None
            }
            FaultAction::Panic => fault::panic_now(point, st.txn, instance),
            other => other,
        }
    }

    fn eval(&self, e: &Expr, frame: &HashMap<String, Value>) -> Value {
        match e {
            Expr::Const(v) => *v,
            Expr::Null => Value::NULL,
            Expr::Var(v) => *frame
                .get(v)
                .unwrap_or_else(|| panic!("unbound variable {v}")),
            Expr::IsNull(x) => Value::from_bool(self.eval(x, frame).is_null()),
            Expr::Not(x) => Value::from_bool(!self.eval(x, frame).as_bool()),
            Expr::Eq(a, b) => Value::from_bool(self.eval(a, frame) == self.eval(b, frame)),
            Expr::Lt(a, b) => Value::from_bool(self.eval(a, frame).0 < self.eval(b, frame).0),
            Expr::Add(a, b) => Value(self.eval(a, frame).0.wrapping_add(self.eval(b, frame).0)),
        }
    }

    fn exec_block(
        &self,
        section: &AtomicSection,
        stmts: &[Stmt],
        st: &mut RunState,
    ) -> Result<(), LockError> {
        for s in stmts {
            st.fuel = st
                .fuel
                .checked_sub(1)
                .expect("atomic section exceeded its fuel (runaway loop?)");
            self.exec_stmt(section, s, st)?;
        }
        Ok(())
    }

    fn exec_stmt(
        &self,
        section: &AtomicSection,
        s: &Stmt,
        st: &mut RunState,
    ) -> Result<(), LockError> {
        match s {
            Stmt::Assign { var, expr, .. } => {
                let v = self.eval(expr, &st.frame);
                frame_set(&mut st.frame, var, v);
            }
            Stmt::New { var, class, .. } => {
                let handle = self.env.new_instance(class);
                self.register_with_checker(handle, class);
                frame_set(&mut st.frame, var, handle);
            }
            Stmt::Call {
                ret,
                recv,
                method,
                args,
                ..
            } => {
                let adt = self.env.resolve_ref(st.frame[recv]);
                // Reuse the run's argument buffer: it is taken out while
                // filled so `eval` can borrow the frame freely, and put
                // back afterwards (a fault-injected panic merely drops the
                // buffer's capacity).
                let mut argv = std::mem::take(&mut st.scratch_argv);
                argv.clear();
                for a in args {
                    argv.push(self.eval(a, &st.frame));
                }
                let midx = adt.obj.schema().method(method);
                let result = self.invoke_adt(adt, midx, &argv, st);
                st.scratch_argv = argv;
                if let Some(r) = ret {
                    frame_set(&mut st.frame, r, result);
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                if self.eval(cond, &st.frame).as_bool() {
                    self.exec_block(section, then_branch, st)?;
                } else {
                    self.exec_block(section, else_branch, st)?;
                }
            }
            Stmt::While { cond, body, .. } => {
                while self.eval(cond, &st.frame).as_bool() {
                    st.fuel = st
                        .fuel
                        .checked_sub(1)
                        .expect("atomic section exceeded its fuel (runaway loop?)");
                    self.exec_block(section, body, st)?;
                }
            }
            Stmt::Lv { recv, site, .. } | Stmt::LockDirect { recv, site, .. } => {
                let handle = st.frame[recv];
                if handle.is_null() {
                    return Ok(()); // LV / guarded lock skips null pointers
                }
                self.acquire(section, handle, *site, st)?;
            }
            Stmt::LvGroup { entries, .. } => {
                // Dynamic ordering by unique instance id (Fig. 12).
                let mut targets: Vec<(u64, Value, usize)> = entries
                    .iter()
                    .filter_map(|(v, site)| {
                        let handle = st.frame[v];
                        if handle.is_null() {
                            None
                        } else {
                            Some((self.env.resolve_ref(handle).id, handle, *site))
                        }
                    })
                    .collect();
                targets.sort_by_key(|&(id, _, _)| id);
                for (_, handle, site) in targets {
                    self.acquire(section, handle, site, st)?;
                }
            }
            Stmt::UnlockAllOf { recv, .. } => {
                let handle = st.frame[recv];
                if handle.is_null() {
                    return Ok(());
                }
                self.release_one(handle, st);
            }
            Stmt::EpilogueUnlockAll { .. } => {
                self.release_all(st);
            }
        }
        Ok(())
    }

    fn register_with_checker(&self, handle: Value, class: &str) {
        if let Some(c) = &self.checker {
            if self.env.program.tables.contains(class) {
                c.register_instance(handle.0, self.env.program.tables.table(class).clone());
            }
        }
    }

    /// Invoke one ADT operation with checker notification and the
    /// OpStart/OpEnd fault boundaries. Shared by both engines so injection
    /// points and poison bookkeeping stay in lockstep.
    ///
    /// The `Operation` record (and its argument clone) is only built when a
    /// checker is attached.
    pub(crate) fn invoke_adt(
        &self,
        adt: &SharedAdt,
        midx: MethodIdx,
        argv: &[Value],
        st: &mut RunState,
    ) -> Value {
        if self.strategy == Strategy::Semantic {
            if let Some(c) = &self.checker {
                c.on_op(st.txn, adt.id, Operation::new(midx, argv.to_vec()));
            }
        }
        // An OpStart panic aborts *before* the operation touches the
        // instance (clean unless earlier ops mutated); an OpEnd panic
        // lands after the mutation and must poison.
        self.fault_decision(FaultPoint::OpStart, st, adt.id);
        st.in_flight = Some(adt.id);
        let result = adt.obj.invoke(midx, argv);
        st.in_flight = None;
        if !st.mutated.contains(&adt.id) {
            st.mutated.push(adt.id);
        }
        self.fault_decision(FaultPoint::OpEnd, st, adt.id);
        result
    }

    /// One semantic acquisition, after the held-set dedup check and mode
    /// selection; shared by both engines. In order: checker registration,
    /// the Lock fault boundary, telemetry attribution, the (possibly
    /// bounded) wait, the checker callback, and the held-set push.
    pub(crate) fn acquire_semantic(
        &self,
        adt: &SharedAdt,
        table: &Arc<ModeTable>,
        mode: ModeId,
        stable_id: u32,
        st: &mut RunState,
    ) -> Result<(), LockError> {
        if let Some(c) = &self.checker {
            c.register_instance(adt.id, table.clone());
        }
        if self.fault_decision(FaultPoint::Lock, st, adt.id) == FaultAction::Timeout {
            return Err(LockError::Timeout {
                instance: adt.id,
                mode,
                waited: Duration::ZERO,
            });
        }
        if telemetry::enabled() {
            telemetry::set_context(st.txn, stable_id);
        }
        // The interpreter manages its own transaction state (ids, held
        // set), so it routes through the unified SemLock acquisition entry
        // points rather than `Txn::acquire`. An escalated attempt (see
        // `run_with_retry`) overrides the configured lock timeout with the
        // policy's far larger patience — still a bounded, watchdog-armed
        // wait, so cycle detection stays live while the elder waits out
        // its competitors. Building the bounded spec reads no clock, and
        // the held set is lent as it stands.
        let spec = AcquireSpec::new(mode);
        match st.escalate_patience.or(self.lock_timeout) {
            Some(timeout) => adt
                .sem()
                .acquire_as(&spec.timeout(timeout), st.txn, &st.held_sem)?,
            None => adt.sem().acquire(&spec)?,
        }
        if let Some(c) = &self.checker {
            c.on_lock(st.txn, adt.id, mode);
        }
        st.held_sem.push((adt.id, mode));
        st.held_sites.push(stable_id);
        Ok(())
    }

    /// Acquire per the active strategy, with LOCAL_SET skip semantics.
    fn acquire(
        &self,
        section: &AtomicSection,
        handle: Value,
        site: usize,
        st: &mut RunState,
    ) -> Result<(), LockError> {
        let adt = self.env.resolve_ref(handle);
        match self.strategy {
            Strategy::Global => {}
            Strategy::TwoPhase => st.lock_plain(adt),
            Strategy::Semantic => {
                if st.held_sem.iter().any(|&(id, _)| id == adt.id) {
                    return Ok(());
                }
                let decl = &section.sites[site];
                let table = self.env.program.tables.table(&decl.class);
                let rt_site = self.env.program.tables.site(&section.name, site);
                let mut keys = std::mem::take(&mut st.scratch_keys);
                keys.clear();
                keys.extend(decl.keys.iter().map(|k| st.frame[k]));
                let mode = table.select(rt_site, &keys);
                st.scratch_keys = keys;
                self.acquire_semantic(adt, table, mode, decl.stable_id, st)?;
            }
        }
        Ok(())
    }

    pub(crate) fn release_one(&self, handle: Value, st: &mut RunState) {
        match self.strategy {
            Strategy::Global => {}
            Strategy::TwoPhase => {
                if let Some(pos) = st.held_plain.iter().position(|&id| id == handle.0) {
                    st.held_plain.swap_remove(pos);
                    self.instance(handle.0).plain.unlock();
                }
            }
            Strategy::Semantic => {
                if let Some(pos) = st.held_sem.iter().position(|&(id, _)| id == handle.0) {
                    // Consult faults *before* removing the entry: an
                    // injected panic here must leave the lock in `held_sem`
                    // so `abort_cleanup` still releases it.
                    self.fault_decision(FaultPoint::Unlock, st, handle.0);
                    let (id, mode) = st.held_sem.swap_remove(pos);
                    let site = st.held_sites.swap_remove(pos);
                    self.unlock_sem(id, mode, site, st.txn);
                }
            }
        }
    }

    pub(crate) fn release_all(&self, st: &mut RunState) {
        while let Some(&(id, mode)) = st.held_sem.last() {
            // As in `release_one`: fault before popping, so an injected
            // panic cannot leak the about-to-be-released lock.
            self.fault_decision(FaultPoint::Unlock, st, id);
            st.held_sem.pop();
            let site = st.held_sites.pop().expect("parallel to held_sem");
            self.unlock_sem(id, mode, site, st.txn);
        }
        for id in st.held_plain.drain(..) {
            self.instance(id).plain.unlock();
        }
    }
}

/// Write `var = v` without cloning the name when the variable is already
/// present (decls pre-populate the frame, so this is the common case).
fn frame_set(frame: &mut HashMap<String, Value>, var: &str, v: Value) {
    match frame.get_mut(var) {
        Some(slot) => *slot = v,
        None => {
            frame.insert(var.to_string(), v);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use adts::{schema_of, spec_of};
    use synth::ir::{e::*, fig1_section, ptr, scalar, AtomicSection, Body};
    use synth::{ClassRegistry, Synthesizer};

    fn registry() -> ClassRegistry {
        let mut r = ClassRegistry::new();
        for class in ["Map", "Set", "Queue", "Multimap", "WeakMap"] {
            r.register(class, schema_of(class), spec_of(class));
        }
        r
    }

    pub(crate) fn compile(sections: Vec<AtomicSection>) -> Arc<synth::SynthOutput> {
        Arc::new(
            Synthesizer::new(registry())
                .phi(semlock::phi::Phi::fib(16))
                .synthesize(&sections),
        )
    }

    /// The ComputeIfAbsent-with-counter section used by atomicity tests:
    /// increments map[k] atomically.
    fn counter_section() -> AtomicSection {
        AtomicSection::new(
            "counter",
            [ptr("map", "Map"), scalar("k"), scalar("v")],
            Body::new()
                .call_into("v", "map", "get", vec![var("k")])
                .if_else(
                    is_null(var("v")),
                    Body::new().call("map", "put", vec![var("k"), konst(1)]),
                    Body::new().call("map", "put", vec![var("k"), add(var("v"), konst(1))]),
                )
                .build(),
        )
    }

    #[test]
    fn fig1_runs_end_to_end() {
        let program = compile(vec![fig1_section()]);
        let env = Arc::new(Env::new(program));
        let map = env.new_instance("Map");
        let queue = env.new_instance("Queue");
        let interp = Interp::new(env.clone(), Strategy::Semantic);
        let frame = interp.run(
            "fig1",
            &[
                ("map", map),
                ("queue", queue),
                ("id", Value(7)),
                ("x", Value(1)),
                ("y", Value(2)),
                ("flag", Value(1)),
            ],
        );
        // flag=1: the set was enqueued and removed from the map.
        let map_adt = env.resolve(map);
        let get = map_adt.obj.schema().method("get");
        assert_eq!(map_adt.obj.invoke(get, &[Value(7)]), Value::NULL);
        let q_adt = env.resolve(queue);
        let size = q_adt.obj.schema().method("size");
        assert_eq!(q_adt.obj.invoke(size, &[]), Value(1));
        // The set the section created contains x and y.
        let set_handle = frame["set"];
        let set_adt = env.resolve(set_handle);
        let contains = set_adt.obj.schema().method("contains");
        assert_eq!(set_adt.obj.invoke(contains, &[Value(1)]), Value::TRUE);
        assert_eq!(set_adt.obj.invoke(contains, &[Value(2)]), Value::TRUE);
    }

    #[test]
    fn fig1_flag_false_keeps_set_in_map() {
        let program = compile(vec![fig1_section()]);
        let env = Arc::new(Env::new(program));
        let map = env.new_instance("Map");
        let queue = env.new_instance("Queue");
        let interp = Interp::new(env.clone(), Strategy::Semantic);
        interp.run(
            "fig1",
            &[
                ("map", map),
                ("queue", queue),
                ("id", Value(3)),
                ("x", Value(9)),
                ("y", Value(9)),
                ("flag", Value(0)),
            ],
        );
        let map_adt = env.resolve(map);
        let get = map_adt.obj.schema().method("get");
        assert_ne!(map_adt.obj.invoke(get, &[Value(3)]), Value::NULL);
    }

    fn run_counter_stress(strategy: Strategy, check_protocol: bool) {
        let program = compile(vec![counter_section()]);
        let env = Arc::new(Env::new(program));
        let map = env.new_instance("Map");
        let checker = Arc::new(ProtocolChecker::new());
        let mut interp = Interp::new(env.clone(), strategy);
        if check_protocol {
            interp = interp.with_checker(checker.clone());
        }
        let interp = Arc::new(interp);

        let threads = 4;
        let iters = 250;
        let keys = 8u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let interp = interp.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..iters {
                    let k = (t * 31 + i) % keys;
                    interp.run("counter", &[("map", map), ("k", Value(k))]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Atomicity: total of all counters equals total increments.
        let map_adt = env.resolve(map);
        let get = map_adt.obj.schema().method("get");
        let total: u64 = (0..keys)
            .map(|k| {
                let v = map_adt.obj.invoke(get, &[Value(k)]);
                if v.is_null() {
                    0
                } else {
                    v.0
                }
            })
            .sum();
        assert_eq!(total, threads * iters, "lost updates under {strategy:?}");
        if check_protocol {
            checker.ensure_ok().unwrap();
        }
    }

    #[test]
    fn counter_atomic_under_semantic() {
        run_counter_stress(Strategy::Semantic, true);
    }

    #[test]
    fn counter_atomic_under_global() {
        run_counter_stress(Strategy::Global, false);
    }

    #[test]
    fn counter_atomic_under_two_phase() {
        run_counter_stress(Strategy::TwoPhase, false);
    }

    #[test]
    fn fig1_stress_with_protocol_checker() {
        let program = compile(vec![fig1_section()]);
        let env = Arc::new(Env::new(program));
        let map = env.new_instance("Map");
        let queue = env.new_instance("Queue");
        let checker = Arc::new(ProtocolChecker::new());
        let interp =
            Arc::new(Interp::new(env.clone(), Strategy::Semantic).with_checker(checker.clone()));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let interp = interp.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    interp.run(
                        "fig1",
                        &[
                            ("map", map),
                            ("queue", queue),
                            ("id", Value(i % 5)),
                            ("x", Value(t * 1000 + i)),
                            ("y", Value(t * 1000 + i + 1)),
                            ("flag", Value(i % 2)),
                        ],
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        checker.ensure_ok().unwrap();
    }

    #[test]
    fn fig9_wrapper_execution() {
        // The cyclic-graph section runs through its global wrapper.
        let program = compile(vec![synth::ir::fig9_section()]);
        assert_eq!(program.wrappers.len(), 1);
        let env = Arc::new(Env::new(program));
        let map = env.new_instance("Map");
        // Seed: map[0..3] → sets with sizes 1, 2, 3.
        let map_adt = env.resolve(map);
        let put = map_adt.obj.schema().method("put");
        for i in 0..3u64 {
            let set = env.new_instance("Set");
            let set_adt = env.resolve(set);
            let add = set_adt.obj.schema().method("add");
            for v in 0..=i {
                set_adt.obj.invoke(add, &[Value(v)]);
            }
            map_adt.obj.invoke(put, &[Value(i), set]);
        }
        let interp = Interp::new(env.clone(), Strategy::Semantic);
        let frame = interp.run("fig9", &[("map", map), ("n", Value(3))]);
        assert_eq!(frame["sum"], Value(1 + 2 + 3));
    }

    #[test]
    fn try_run_surfaces_timeout_and_leaves_no_residue() {
        let program = compile(vec![counter_section()]);
        let env = Arc::new(Env::new(program.clone()));
        let map = env.new_instance("Map");
        // Hold the exact mode the section will request, directly on the
        // instance's SemLock, so the bounded acquisition must time out.
        let table = program.tables.table("Map");
        let site = program.tables.site("counter", 0);
        let adt = env.resolve(map);
        let mode = {
            let keys = vec![Value(1)];
            table.select(site, &keys)
        };
        adt.sem().acquire(&AcquireSpec::new(mode)).unwrap();
        let interp = Arc::new(
            Interp::new(env.clone(), Strategy::Semantic)
                .with_lock_timeout(Duration::from_millis(25)),
        );
        let err = interp
            .try_run("counter", &[("map", map), ("k", Value(1))])
            .unwrap_err();
        assert!(matches!(err, LockError::Timeout { .. }), "{err}");
        // Nothing ran, nothing mutated: no poison, and the aborted txn
        // released everything it (briefly) held.
        assert!(!adt.sem().is_poisoned());
        adt.sem().unlock(mode);
        assert_eq!(adt.sem().total_holds(), 0);
        // With the conflict gone the same call succeeds.
        interp
            .try_run("counter", &[("map", map), ("k", Value(1))])
            .unwrap();
        assert_eq!(adt.sem().total_holds(), 0);
    }

    #[test]
    fn forced_timeouts_abort_before_first_mutation() {
        let program = compile(vec![counter_section()]);
        let env = Arc::new(Env::new(program));
        let map = env.new_instance("Map");
        let plan = Arc::new(semlock::fault::FaultPlan::new(11).with_timeouts(400_000));
        let interp =
            Arc::new(Interp::new(env.clone(), Strategy::Semantic).with_faults(plan.clone()));
        let mut timeouts = 0u64;
        let mut oks = 0u64;
        for i in 0..200u64 {
            match interp.try_run("counter", &[("map", map), ("k", Value(i % 4))]) {
                Ok(_) => oks += 1,
                Err(LockError::Timeout { .. }) => timeouts += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(timeouts > 0, "plan injected no timeouts");
        assert!(oks > 0, "every run timed out");
        let adt = env.resolve(map);
        // The section locks the map before its first operation, so a forced
        // timeout always lands pre-mutation: clean abort, no poison.
        assert!(!adt.sem().is_poisoned());
        assert_eq!(adt.sem().total_holds(), 0);
    }

    #[test]
    fn injected_panics_never_leak_locks() {
        let program = compile(vec![counter_section()]);
        let env = Arc::new(Env::new(program));
        let map = env.new_instance("Map");
        let plan = Arc::new(semlock::fault::FaultPlan::new(5).with_panics(150_000));
        let interp =
            Arc::new(Interp::new(env.clone(), Strategy::Semantic).with_faults(plan.clone()));
        let adt = env.resolve(map);
        let mut panics = 0u64;
        let mut poisonings = 0u64;
        for i in 0..300u64 {
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                interp.run("counter", &[("map", map), ("k", Value(i % 4))])
            }));
            if let Err(payload) = r {
                assert!(
                    fault::injected(&*payload).is_some(),
                    "a genuine (non-injected) panic escaped the executor"
                );
                panics += 1;
            }
            // Invariant: whatever happened, the transaction is gone and its
            // modes are released.
            assert_eq!(adt.sem().total_holds(), 0, "mode leak after run {i}");
            if adt.sem().is_poisoned() {
                poisonings += 1;
                adt.sem().clear_poison();
            }
        }
        assert!(panics > 0, "plan injected no panics");
        // Panics after the first mutation must have poisoned the instance
        // at least once across 300 runs.
        assert!(poisonings > 0, "no injected panic landed post-mutation");
        assert_eq!(
            plan.stats()
                .panics
                .load(std::sync::atomic::Ordering::Relaxed),
            panics
        );
    }

    #[test]
    fn run_with_retry_completes_under_forced_timeouts_on_both_engines() {
        use semlock::retry::RetryPolicy;
        for engine in [Engine::TreeWalk, Engine::Compiled] {
            let program = compile(vec![counter_section()]);
            let env = Arc::new(Env::new(program));
            let map = env.new_instance("Map");
            // Heavy forced-timeout rate: most logical transactions abort at
            // least once, so the retry loop does real work.
            let plan = Arc::new(semlock::fault::FaultPlan::new(21).with_timeouts(400_000));
            let interp = Interp::new(env.clone(), Strategy::Semantic)
                .with_engine(engine)
                .with_faults(plan)
                .with_txn_ids(1000);
            let policy = RetryPolicy::new(9)
                .backoff_base(Duration::from_micros(5))
                .backoff_cap(Duration::from_micros(50));
            let runs = 200u64;
            let mut retried = 0u64;
            for i in 0..runs {
                let r = interp
                    .run_with_retry("counter", &[("map", map), ("k", Value(i % 4))], &policy)
                    .unwrap_or_else(|e| panic!("{engine:?}: logical txn {i} failed: {e}"));
                assert_eq!(r.attempts as usize, r.txns.len());
                if r.attempts > 1 {
                    retried += 1;
                }
            }
            assert!(retried > 0, "{engine:?}: plan never forced a retry");
            // Exactly-once effects: each logical transaction applied its
            // increment exactly once despite the aborted attempts.
            let adt = env.resolve(map);
            let get = adt.obj.schema().method("get");
            let total: u64 = (0..4u64).map(|k| adt.obj.invoke(get, &[Value(k)]).0).sum();
            assert_eq!(total, runs, "{engine:?}: lost or duplicated updates");
            assert_eq!(adt.sem().total_holds(), 0, "{engine:?}: leaked holds");
        }
    }

    #[test]
    fn run_with_retry_trajectory_replays_exactly() {
        use semlock::retry::RetryPolicy;
        // Two interpreters over the *same* environment and instance (so
        // the fault plan sees identical instance ids), with identical
        // allocator bases, fault seeds and policy seeds, must produce
        // identical retry trajectories — txn ids and jittered backoffs
        // byte-for-byte — on both engines. Single-threaded, as the
        // `with_txn_ids` contract requires; map *state* carries over
        // between the two passes but fault decisions are a pure function
        // of (seed, point, txn, instance, step), so it cannot matter.
        for engine in [Engine::TreeWalk, Engine::Compiled] {
            let program = compile(vec![counter_section()]);
            let env = Arc::new(Env::new(program));
            let map = env.new_instance("Map");
            let mut trajectories = Vec::new();
            for _rep in 0..2 {
                let plan = Arc::new(semlock::fault::FaultPlan::new(77).with_timeouts(300_000));
                let interp = Interp::new(env.clone(), Strategy::Semantic)
                    .with_engine(engine)
                    .with_faults(plan)
                    .with_txn_ids(500);
                let policy = RetryPolicy::new(13)
                    .backoff_base(Duration::from_micros(1))
                    .backoff_cap(Duration::from_micros(8));
                let mut traj = Vec::new();
                for i in 0..60u64 {
                    let r = interp
                        .run_with_retry("counter", &[("map", map), ("k", Value(i % 4))], &policy)
                        .expect("retry exhausted under replay test");
                    traj.push((r.txns.clone(), r.backoffs.clone(), r.escalated));
                }
                trajectories.push(traj);
            }
            assert_eq!(
                trajectories[0], trajectories[1],
                "{engine:?}: retry trajectory diverged between identical replays"
            );
        }
    }

    #[test]
    fn abort_cleanup_is_idempotent_between_attempts() {
        let program = compile(vec![counter_section()]);
        let env = Arc::new(Env::new(program.clone()));
        let map = env.new_instance("Map");
        let interp = Interp::new(env.clone(), Strategy::Semantic);
        let table = program.tables.table("Map");
        let site = program.tables.site("counter", 0);
        let mode = table.select(site, &[Value(3)]);
        let adt = env.resolve(map);
        // Simulate a mid-section abort: one held mode, instance mutated.
        let mut st = RunState::new(interp.next_txn());
        adt.sem().acquire(&AcquireSpec::new(mode)).unwrap();
        st.held_sem.push((adt.id, mode));
        st.held_sites.push(0);
        st.mutated.push(adt.id);
        interp.abort_cleanup(&mut st);
        assert_eq!(adt.sem().total_holds(), 0);
        assert!(adt.sem().is_poisoned(), "mutated instance must poison");
        // Second cleanup on the same state is a no-op: the held vectors
        // were drained, so nothing is double-released or double-poisoned.
        adt.sem().clear_poison();
        interp.abort_cleanup(&mut st);
        assert_eq!(adt.sem().total_holds(), 0);
        assert!(!adt.sem().is_poisoned(), "idempotent cleanup re-poisoned");
    }

    #[test]
    fn two_phase_ordered_acquisition_no_deadlock() {
        // Two sections locking the same pair of maps in *source-reversed*
        // order: the synthesized ordering must prevent deadlock.
        let sec_a = AtomicSection::new(
            "a",
            [ptr("m1", "Map"), ptr("m2", "Map"), scalar("k")],
            Body::new()
                .call("m1", "put", vec![var("k"), konst(1)])
                .call("m2", "put", vec![var("k"), konst(2)])
                .build(),
        );
        let sec_b = AtomicSection::new(
            "b",
            [ptr("m1", "Map"), ptr("m2", "Map"), scalar("k")],
            Body::new()
                .call("m2", "put", vec![var("k"), konst(3)])
                .call("m1", "put", vec![var("k"), konst(4)])
                .build(),
        );
        let program = compile(vec![sec_a, sec_b]);
        let env = Arc::new(Env::new(program));
        let m1 = env.new_instance("Map");
        let m2 = env.new_instance("Map");
        for strategy in [Strategy::Semantic, Strategy::TwoPhase] {
            let interp = Arc::new(Interp::new(env.clone(), strategy));
            let mut handles = Vec::new();
            for t in 0..4 {
                let interp = interp.clone();
                let name = if t % 2 == 0 { "a" } else { "b" };
                handles.push(std::thread::spawn(move || {
                    for i in 0..200u64 {
                        interp.run(name, &[("m1", m1), ("m2", m2), ("k", Value(i % 4))]);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap(); // would hang on deadlock
            }
        }
    }
}
