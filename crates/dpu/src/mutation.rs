//! Fault-injection hooks for mutation self-checks (feature-gated).
//!
//! A conformance fuzzer is only trustworthy if it demonstrably catches the
//! class of bug it exists for. This module provides a single seeded bug —
//! dropping the even/odd register-file structural hazard in the compiled
//! scheduler step — behind a process-global switch that `pim-fuzz
//! --mutate` flips before running a campaign. With the bug armed, the step
//! under-counts issue slots for same-bank source pairs, so any program
//! with an RF hazard diverges from the naive reference loop in cycle
//! counts and stall attribution.
//!
//! The switch defaults to off; builds with `mutation-hooks` enabled but
//! the switch untouched behave identically to builds without the feature
//! (the flag is read once per launch, outside the hot loop).

use std::sync::atomic::{AtomicBool, Ordering};

static SCOREBOARD_BUG: AtomicBool = AtomicBool::new(false);

/// Arms (or disarms) the seeded scoreboard bug: while armed, the
/// optimized scalar loop treats every instruction's register-file hazard
/// cost as zero, as if the even/odd bank conflict check were lost in the
/// pre-decode refactor.
pub fn set_scoreboard_bug(on: bool) {
    SCOREBOARD_BUG.store(on, Ordering::SeqCst);
}

/// Whether the seeded scoreboard bug is currently armed.
#[must_use]
pub fn scoreboard_bug() -> bool {
    SCOREBOARD_BUG.load(Ordering::SeqCst)
}
