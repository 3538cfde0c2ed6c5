//! Identity shim for the deleted tape optimiser (EXPERIMENTS.md "Why
//! there is no tape optimiser": its passes fired on no program the repo
//! has). The one caller is `benchmark/src/layers.rs` (`setup_stages`,
//! behind `synth.tape_opt_ms` / `synth.fused` / `synth.batches` /
//! `synth.hoisted`), which the PR that deleted the optimiser could not
//! edit; the next `benchmark` PR drops those four metrics and this file.
//! Nothing under `crates/`, `src/` or `tests/` may call it.

use crate::lower::Tape;

/// Pass counts of the deleted optimiser: always zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TapeOptStats {
    /// Always 0.
    pub fused: u32,
    /// Always 0.
    pub batches: u32,
    /// Always 0.
    pub hoisted: u32,
}

/// The tape, unchanged, with zero counts.
pub fn optimize(tape: &Tape) -> (Tape, TapeOptStats) {
    (tape.clone(), TapeOptStats::default())
}
