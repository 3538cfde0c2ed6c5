//! 128-bit atomic word for the [`AdmissionBackend::Dwcas`] admission
//! layout: the only lock-free representation for partitions of 9–16
//! modes.
//!
//! Its worth is **unverified on the repo's benchmark**: the `gossip`
//! workload (one 9-mode partition) is the only traffic `Auto` routes
//! here, and `BENCHMARK.json` has no workload with a 9–16-mode partition,
//! so no end-to-end number says whether this word beats the wide counters
//! it displaces. It is kept until a benchmark workload on that side of the
//! choice can decide (ROADMAP item 3).
//!
//! `std` exposes no stable `AtomicU128`, and the `core::arch` cmpxchg16b
//! intrinsic does not lower to `lock cmpxchg16b` without a global
//! `-C target-feature` flag (it links against a missing
//! `__atomic_compare_exchange_16` helper otherwise). This module therefore
//! provides exactly the operations the admission protocol needs on top of
//! one primitive:
//!
//! * **native path** (`feature = "dwcas"` on `x86_64`, default): an inline
//!   `lock cmpxchg16b` with the RBX save/restore dance (LLVM reserves RBX).
//!   A `lock`-prefixed RMW is a full barrier on x86, so every ordering
//!   parameter is trivially honored; the parameters still matter — they are
//!   the contract the `model` crate checks the protocol against.
//! * **portable fallback** (feature off, or any other architecture): the
//!   same API over a spinlock-guarded `u128`. Not lock-free — it exists so
//!   the `Dwcas` layout stays *correct* everywhere (the `--no-default-
//!   features` CI job builds and tests it), while
//!   [`AdmissionBackend::Auto`] only ever selects `Dwcas` when
//!   [`AtomicU128::is_lock_free`] is true.
//!
//! [`AdmissionBackend::Dwcas`]: crate::mech::AdmissionBackend::Dwcas
//! [`AdmissionBackend::Auto`]: crate::mech::AdmissionBackend::Auto

#![allow(unsafe_code)]

use crate::sync::Ordering;

#[cfg(all(feature = "dwcas", target_arch = "x86_64"))]
mod imp {
    use super::Ordering;
    use core::arch::asm;
    use std::cell::UnsafeCell;
    use std::sync::atomic::{AtomicU8, Ordering as HostOrdering};

    /// Native 128-bit atomic backed by `lock cmpxchg16b`.
    #[repr(C, align(16))]
    pub struct AtomicU128 {
        v: UnsafeCell<u128>,
    }

    // `lock cmpxchg16b` serializes every access; the cell is never touched
    // non-atomically.
    unsafe impl Send for AtomicU128 {}
    unsafe impl Sync for AtomicU128 {}

    /// One hardware compare-exchange. Returns `(previous, swapped)`.
    ///
    /// # Safety
    /// `dst` must be 16-byte aligned and valid for reads and writes; the
    /// caller must only ever access it through this function.
    #[inline]
    unsafe fn cmpxchg16b(dst: *mut u128, old: u128, new: u128) -> (u128, bool) {
        let old_lo = old as u64;
        let old_hi = (old >> 64) as u64;
        let new_lo = new as u64;
        let new_hi = (new >> 64) as u64;
        let prev_lo: u64;
        let prev_hi: u64;
        let ok: u8;
        // LLVM reserves RBX, so the low half of the replacement value is
        // exchanged in and back out around the instruction. `dst` and the
        // flag are pinned to RDI and CL: left to the allocator, either may
        // land in RBX itself — the `xchg` would then replace the address
        // with `new_lo` before the `cmpxchg16b` dereferences it (seen as a
        // SIGSEGV in optimized builds), or the final `mov` would overwrite
        // the flag.
        asm!(
            "xchg {rbx_save}, rbx",
            "lock cmpxchg16b [rdi]",
            "sete cl",
            "mov rbx, {rbx_save}",
            rbx_save = inout(reg) new_lo => _,
            in("rdi") dst,
            inout("rax") old_lo => prev_lo,
            inout("rdx") old_hi => prev_hi,
            in("rcx") new_hi,
            lateout("cl") ok,
            options(nostack),
        );
        (((prev_hi as u128) << 64) | prev_lo as u128, ok != 0)
    }

    /// Which load instruction this host gets: 0 = unprobed, 1 = plain
    /// `movdqa` (AVX hosts), 2 = the locked cmpxchg16b idiom.
    static LOAD_PATH: AtomicU8 = AtomicU8::new(0);

    /// Whether an aligned 16-byte vector load is an atomic load here.
    ///
    /// Intel and AMD both document that on processors supporting AVX,
    /// 16-byte aligned SSE/AVX loads and stores execute atomically. On
    /// such hosts `load` is a single `movdqa` — no `lock` prefix, no
    /// cache-line ownership — which is what keeps the *uncontended* Dwcas
    /// admission within a small factor of the packed 64-bit word (a
    /// locked-RMW load would double the locked-instruction count per
    /// acquire/release cycle). Pre-AVX hardware makes no such promise, so
    /// it keeps the cmpxchg16b load idiom.
    #[inline]
    fn plain_load_is_atomic() -> bool {
        match LOAD_PATH.load(HostOrdering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let avx = std::arch::is_x86_feature_detected!("avx");
                LOAD_PATH.store(if avx { 1 } else { 2 }, HostOrdering::Relaxed);
                avx
            }
        }
    }

    /// One 16-byte aligned vector load (atomic on AVX hosts — see
    /// `plain_load_is_atomic`). x86-TSO gives every load acquire
    /// semantics, and the non-`pure` asm block is a compiler fence, so
    /// this honors any ordering the protocol ships for a load.
    ///
    /// # Safety
    /// `src` must be 16-byte aligned (`movdqa` faults otherwise) and only
    /// ever written through [`cmpxchg16b`]; the caller must have checked
    /// `plain_load_is_atomic`.
    #[inline]
    unsafe fn load_movdqa(src: *const u128) -> u128 {
        let lo: u64;
        let hi: u64;
        asm!(
            "movdqa {x}, [{src}]",
            "movq {lo}, {x}",
            "pextrq {hi}, {x}, 1",
            src = in(reg) src,
            x = out(xmm_reg) _,
            lo = out(reg) lo,
            hi = out(reg) hi,
            options(nostack, readonly),
        );
        ((hi as u128) << 64) | lo as u128
    }

    impl AtomicU128 {
        /// A fresh atomic holding `v`.
        pub const fn new(v: u128) -> AtomicU128 {
            AtomicU128 {
                v: UnsafeCell::new(v),
            }
        }

        /// Whether operations compile to a single hardware RMW.
        pub fn is_lock_free() -> bool {
            // Baked in at compile time for this path; cmpxchg16b has been
            // universal on x86_64 since early Core 2 parts, but probe
            // anyway so exotic VMs degrade loudly (panic on first use)
            // rather than corrupt.
            std::arch::is_x86_feature_detected!("cmpxchg16b")
        }

        /// Atomic load: a plain `movdqa` where the host guarantees aligned
        /// 16-byte loads are atomic (AVX — see `plain_load_is_atomic`),
        /// else a compare-exchange with an arbitrary expected value (the
        /// canonical cmpxchg16b load idiom; the write-back on a hit stores
        /// the value already present).
        #[inline]
        pub fn load(&self, _ord: Ordering) -> u128 {
            if plain_load_is_atomic() {
                unsafe { load_movdqa(self.v.get()) }
            } else {
                unsafe { cmpxchg16b(self.v.get(), 0, 0).0 }
            }
        }

        /// Atomic compare-exchange; `Ok(previous)` on success,
        /// `Err(actual)` on mismatch. Never fails spuriously.
        #[inline]
        pub fn compare_exchange(
            &self,
            expected: u128,
            new: u128,
            _ok: Ordering,
            _fail: Ordering,
        ) -> Result<u128, u128> {
            let (prev, swapped) = unsafe { cmpxchg16b(self.v.get(), expected, new) };
            if swapped {
                Ok(prev)
            } else {
                Err(prev)
            }
        }
    }
}

#[cfg(not(all(feature = "dwcas", target_arch = "x86_64")))]
mod imp {
    use super::Ordering;
    use std::cell::UnsafeCell;
    use std::sync::atomic::AtomicBool;

    /// Portable fallback: a spinlock-guarded `u128`. Correct everywhere,
    /// lock-free nowhere — [`crate::mech::AdmissionBackend::Auto`] never selects
    /// the Dwcas layout on this path.
    pub struct AtomicU128 {
        locked: AtomicBool,
        v: UnsafeCell<u128>,
    }

    unsafe impl Send for AtomicU128 {}
    unsafe impl Sync for AtomicU128 {}

    impl AtomicU128 {
        /// A fresh atomic holding `v`.
        pub const fn new(v: u128) -> AtomicU128 {
            AtomicU128 {
                locked: AtomicBool::new(false),
                v: UnsafeCell::new(v),
            }
        }

        /// Always false on the fallback.
        pub fn is_lock_free() -> bool {
            false
        }

        fn with<R>(&self, f: impl FnOnce(&mut u128) -> R) -> R {
            while self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                std::hint::spin_loop();
            }
            let r = f(unsafe { &mut *self.v.get() });
            self.locked.store(false, Ordering::Release);
            r
        }

        /// Atomic load.
        #[inline]
        pub fn load(&self, _ord: Ordering) -> u128 {
            self.with(|v| *v)
        }

        /// Atomic compare-exchange (never spuriously failing).
        #[inline]
        pub fn compare_exchange(
            &self,
            expected: u128,
            new: u128,
            _ok: Ordering,
            _fail: Ordering,
        ) -> Result<u128, u128> {
            self.with(|v| {
                let prev = *v;
                if prev == expected {
                    *v = new;
                    Ok(prev)
                } else {
                    Err(prev)
                }
            })
        }
    }
}

pub use imp::AtomicU128;

impl AtomicU128 {
    /// Weak compare-exchange — same as the strong form on both paths
    /// (provided so the protocol code reads identically to the `u64`
    /// packed path and to the model shim).
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        expected: u128,
        new: u128,
        ok: Ordering,
        fail: Ordering,
    ) -> Result<u128, u128> {
        self.compare_exchange(expected, new, ok, fail)
    }

    /// Atomic `fetch_or`, built on the CAS primitive.
    #[inline]
    pub fn fetch_or(&self, bits: u128, ord: Ordering) -> u128 {
        let mut cur = self.load(Ordering::Relaxed);
        loop {
            match self.compare_exchange_weak(cur, cur | bits, ord, Ordering::Relaxed) {
                Ok(prev) => return prev,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomic `fetch_and`, built on the CAS primitive.
    #[inline]
    pub fn fetch_and(&self, bits: u128, ord: Ordering) -> u128 {
        let mut cur = self.load(Ordering::Relaxed);
        loop {
            match self.compare_exchange_weak(cur, cur & bits, ord, Ordering::Relaxed) {
                Ok(prev) => return prev,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Whether the running machine serves [`AtomicU128`] with a single
/// hardware compare-exchange. [`crate::mech::AdmissionBackend::Auto`] consults
/// this before routing a 9–16-mode partition to the Dwcas layout.
pub fn dwcas_available() -> bool {
    AtomicU128::is_lock_free()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cas_load_roundtrip() {
        let a = AtomicU128::new(5);
        assert_eq!(a.load(Ordering::Relaxed), 5);
        assert_eq!(
            a.compare_exchange(5, (7u128 << 64) | 3, Ordering::AcqRel, Ordering::Relaxed),
            Ok(5)
        );
        assert_eq!(a.load(Ordering::Relaxed), (7u128 << 64) | 3);
        assert_eq!(
            a.compare_exchange(5, 9, Ordering::AcqRel, Ordering::Relaxed),
            Err((7u128 << 64) | 3)
        );
    }

    #[test]
    fn fetch_or_and_cover_both_halves() {
        let a = AtomicU128::new(1);
        assert_eq!(a.fetch_or(1u128 << 127, Ordering::Release), 1);
        assert_eq!(a.load(Ordering::Relaxed), 1 | (1u128 << 127));
        assert_eq!(
            a.fetch_and(!(1u128 << 127), Ordering::Acquire),
            1 | (1u128 << 127)
        );
        assert_eq!(a.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn contended_cas_increments_are_exact() {
        use std::sync::Arc;
        let a = Arc::new(AtomicU128::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let a = a.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        // Increment both halves so torn updates would show.
                        let mut cur = a.load(Ordering::Relaxed);
                        loop {
                            let new = cur + 1 + (1u128 << 64);
                            match a.compare_exchange_weak(
                                cur,
                                new,
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            ) {
                                Ok(_) => break,
                                Err(actual) => cur = actual,
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let v = a.load(Ordering::Relaxed);
        assert_eq!(v as u64, 40_000);
        assert_eq!((v >> 64) as u64, 40_000);
    }
}
