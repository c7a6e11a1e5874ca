//! Rank-scale batched execution: many same-program DPUs launched together
//! through one shared compiled kernel and one scheduler step.
//!
//! The fast executors are layered:
//!
//! 1. the compiled kernel (`crate::compiled::CompiledKernel`) — the
//!    threaded-code op table, cached on the [`Dpu`] across relaunches;
//! 2. the scheduler step (`crate::sched::SchedState::step`) — one
//!    scheduling event of one DPU's revolver pipeline, written once;
//! 3. the per-DPU compiled loop (`Dpu::run_scalar_compiled`) — the step
//!    run to completion on one DPU;
//! 4. this module — N same-program DPUs stepped together, each with its
//!    own `SchedState`, all executing the leader's compiled kernel (no
//!    per-batch program clone or re-decode).
//!
//! DPUs share no architectural state during a kernel, so each batch member
//! keeps its own event-driven timeline; a sweep advances every *active*
//! member by one step of its own schedule, and a member that finishes (or
//! faults) drops out of the active set. Because every member runs the same
//! step as the per-DPU loop, batched execution is byte-identical to
//! per-DPU execution: same `DpuRunStats`, same memory end-state, regardless
//! of batch size or membership. The differential tests
//! (`tests/loop_differential.rs`) and the pim-fuzz gauntlet's `batch`
//! invariant pin this.
//!
//! Before the sweep comes the **lockstep** prefix: same-program DPUs whose
//! inputs differ only in *data* make identical scheduling decisions (loop
//! trips, DMA shapes and branch directions usually depend on staged sizes,
//! not values), so while the batch is *timing-convergent* the scheduler,
//! the scoreboard, the memory engine and the statistics run **once** — on
//! the leader — and the followers replay only the functional execution of
//! each issued instruction. The step's execution hook checks convergence
//! per instruction by comparing every member's `Effect` against the
//! leader's (branch direction, DMA address/length, acquire outcome and
//! stop are all visible there — in scratchpad mode those are the only
//! data-dependent timing inputs). On the first disagreement the leader's
//! `SchedState` is cloned into every member, each member finishes the
//! divergent cycle with its own effect through `SchedState::resume`, and
//! the batch falls back to the sweep. Lockstep is therefore a pure prefix
//! optimization: byte-identical by construction, with the fully-convergent
//! case (the rank-scale sweep, `pim-fuzz` batch cases) never leaving the
//! shared schedule.
//!
//! Configurations the step does not model (SIMT front-end, the naive
//! reference loop, event tracing) fall back to [`Dpu::launch`] per member,
//! so [`run_batch`] is total over any population.

use pim_trace::NullSink;

use crate::compiled::CompiledOp;
use crate::config::ExecTier;
use crate::dpu::Dpu;
use crate::error::SimError;
use crate::exec::{ArchState, Effect};
use crate::sched::{Exec, SchedCtx, SchedState, Solo, Step};
use crate::stats::DpuRunStats;

/// Whether a DPU's configuration is modeled by the batch executor.
///
/// SIMT front-ends, the naive reference loop, and event-traced runs keep
/// their dedicated loops; [`run_batch`] launches such DPUs individually.
#[must_use]
pub fn soa_eligible(dpu: &Dpu) -> bool {
    dpu.program.is_some()
        && dpu.cfg.simt.is_none()
        && dpu.cfg.exec_tier != ExecTier::Naive
        && dpu.cfg.event_trace_capacity == 0
}

/// Whether two DPUs can share one batch: both eligible, identical
/// configuration, identical instruction stream. (Data images, entry points
/// and tasklet-id bases may differ — they live in per-DPU state.)
fn compatible(a: &Dpu, b: &Dpu) -> bool {
    soa_eligible(a)
        && soa_eligible(b)
        && a.cfg == b.cfg
        && a.program.as_ref().map(|p| &p.instrs) == b.program.as_ref().map(|p| &p.instrs)
}

/// Launches every DPU in the slice, batching maximal contiguous runs of
/// same-program, same-configuration DPUs and falling back to
/// [`Dpu::launch`] for the rest.
///
/// Returns one result per DPU, in slice order. Timing, statistics, and
/// memory end-state are byte-identical to calling [`Dpu::launch`] on each
/// DPU individually.
pub fn run_batch(dpus: &mut [Dpu]) -> Vec<Result<DpuRunStats, SimError>> {
    let mut results: Vec<Option<Result<DpuRunStats, SimError>>> =
        (0..dpus.len()).map(|_| None).collect();
    let mut i = 0;
    while i < dpus.len() {
        if !soa_eligible(&dpus[i]) {
            results[i] = Some(dpus[i].launch());
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < dpus.len() && compatible(&dpus[i], &dpus[j]) {
            j += 1;
        }
        let (group, out) = (&mut dpus[i..j], &mut results[i..j]);
        run_group(group, out);
        i = j;
    }
    results.into_iter().map(|r| r.expect("every DPU got a result")).collect()
}

type Slot = Option<Result<DpuRunStats, SimError>>;

/// Runs one compatible group to completion.
fn run_group(group: &mut [Dpu], out: &mut [Slot]) {
    // Reset every member before stepping any of them, exactly as a
    // sequence of individual launches would (the oracle snapshot must see
    // the post-reset, pre-run state).
    let mut sched = Vec::with_capacity(group.len());
    let mut oracles = Vec::with_capacity(group.len());
    for dpu in group.iter_mut() {
        let mem = dpu.reset_launch_state();
        oracles.push(dpu.build_oracle());
        sched.push(SchedState::new(dpu, mem));
    }
    let kernel = group[0].kernel_artifacts();
    let ctx = SchedCtx::new(&group[0], &kernel);

    // Lockstep prefix (scratchpad mode, uniform entry points). Cached mode
    // stays on the sweep — cache-fill timing depends on per-DPU load/store
    // addresses, which the `Effect` comparison alone does not witness.
    let lockstep = group.len() > 1
        && !ctx.cached
        && group
            .split_first()
            .is_some_and(|(leader, rest)| rest.iter().all(|x| x.state.pc == leader.state.pc));
    let mut active = if lockstep {
        run_lockstep(group, &mut sched, &mut oracles, &ctx, out)
    } else {
        (0..group.len()).collect()
    };

    // Sweep all active members; retire them as they finish or fault.
    while !active.is_empty() {
        active.retain(|&d| {
            match sched[d].step(&ctx, &mut group[d].state, &mut Solo, &mut NullSink) {
                Ok(Step::Running) => true,
                Ok(Step::Done) => {
                    out[d] = Some(validate(&group[d], oracles[d].take(), sched[d].finish()));
                    false
                }
                Ok(Step::Diverged(_)) => unreachable!("a solo step cannot diverge"),
                Err(e) => {
                    out[d] = Some(Err(e));
                    false
                }
            }
        });
    }
}

/// A finished member's result: its statistics once its end state passes the
/// functional oracle (when the oracle check is on).
fn validate(
    dpu: &Dpu,
    oracle: Option<pim_ref::RefInterpreter>,
    stats: DpuRunStats,
) -> Result<DpuRunStats, SimError> {
    match oracle {
        Some(oracle) => dpu.check_against_oracle(oracle).map(|()| stats),
        None => Ok(stats),
    }
}

/// The lockstep execution hook: executes each issued instruction on the
/// leader's state and every follower's, and reports a divergence unless all
/// members produced the same [`Effect`]. On convergence the followers' PCs
/// follow the leader's.
struct Lockstep<'a> {
    followers: &'a mut [Dpu],
    /// Every member's result for the last executed instruction, leader
    /// first.
    effects: Vec<Result<Effect, SimError>>,
}

impl Exec for Lockstep<'_> {
    fn exec(
        &mut self,
        state: &mut ArchState,
        t: u32,
        pc: u32,
        op: &CompiledOp,
    ) -> Result<Option<Effect>, SimError> {
        self.effects.clear();
        self.effects.push((op.exec)(state, t, pc, op));
        for dpu in self.followers.iter_mut() {
            self.effects.push((op.exec)(&mut dpu.state, t, pc, op));
        }
        let effect = match &self.effects[0] {
            Ok(e0) if self.effects[1..].iter().all(|r| matches!(r, Ok(e) if e == e0)) => *e0,
            _ => return Ok(None),
        };
        let next_pc = match effect {
            Effect::Advance | Effect::Dma { .. } => pc + 1,
            Effect::Jump(target) => target,
            Effect::AcquireRetry | Effect::Stop => pc,
        };
        for dpu in self.followers.iter_mut() {
            dpu.state.pc[t as usize] = next_pc;
        }
        Ok(Some(effect))
    }
}

/// Runs a timing-convergent batch on the leader's schedule (`sched[0]`)
/// until every member finishes or their effects disagree. On disagreement
/// the leader's state is cloned into every member and each finishes the
/// divergent cycle with its own effect; members whose execution faulted
/// retire with their error, per the per-DPU loop's semantics.
///
/// Returns the members that continue under the sweep (none when the batch
/// finished in lockstep; `out` then holds every result).
fn run_lockstep(
    group: &mut [Dpu],
    sched: &mut [SchedState],
    oracles: &mut [Option<pim_ref::RefInterpreter>],
    ctx: &SchedCtx,
    out: &mut [Slot],
) -> Vec<usize> {
    let (leader, followers) = group.split_first_mut().expect("non-empty batch");
    let mut hook = Lockstep { followers, effects: Vec::with_capacity(out.len()) };
    let at = loop {
        match sched[0].step(ctx, &mut leader.state, &mut hook, &mut NullSink) {
            Ok(Step::Running) => {}
            Ok(Step::Done) => {
                // The whole batch ran one schedule: identical timing
                // statistics for every member, individually-validated
                // functional state.
                let stats = sched[0].finish();
                for (d, slot) in out.iter_mut().enumerate() {
                    *slot = Some(validate(&group[d], oracles[d].take(), stats.clone()));
                }
                return Vec::new();
            }
            Ok(Step::Diverged(at)) => break at,
            Err(e) => {
                for slot in out.iter_mut() {
                    *slot = Some(Err(e.clone()));
                }
                return Vec::new();
            }
        }
    };
    let effects = hook.effects;
    for d in 1..sched.len() {
        sched[d] = sched[0].clone();
    }
    let mut survivors = Vec::with_capacity(out.len());
    for (d, effect) in effects.into_iter().enumerate() {
        let resumed =
            effect.and_then(|e| sched[d].resume(ctx, &mut group[d].state, &mut NullSink, at, e));
        match resumed {
            Ok(_) => survivors.push(d),
            Err(e) => out[d] = Some(Err(e)),
        }
    }
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DpuConfig, IlpFeatures};
    use pim_asm::assemble;

    fn kernel(imm: i32) -> pim_asm::DpuProgram {
        assemble(&format!(".text\n movi r0, {imm}\n add r0, r0, 1\n stop\n")).unwrap()
    }

    #[test]
    fn batch_matches_individual_launches() {
        let cfg = DpuConfig::paper_baseline(4);
        let program = kernel(41);
        let mut batched: Vec<Dpu> = (0..5).map(|_| Dpu::new(cfg.clone())).collect();
        let mut solo: Vec<Dpu> = (0..5).map(|_| Dpu::new(cfg.clone())).collect();
        for dpu in batched.iter_mut().chain(solo.iter_mut()) {
            dpu.load_program(&program).unwrap();
        }
        let batch_stats = run_batch(&mut batched);
        for (b, s) in batch_stats.iter().zip(solo.iter_mut()) {
            let want = s.launch().unwrap();
            assert_eq!(format!("{:?}", b.as_ref().unwrap()), format!("{want:?}"));
        }
    }

    #[test]
    fn mixed_programs_partition_into_runs() {
        let cfg = DpuConfig::paper_baseline(2);
        let (pa, pb) = (kernel(1), kernel(2));
        let mut dpus: Vec<Dpu> = (0..4).map(|_| Dpu::new(cfg.clone())).collect();
        dpus[0].load_program(&pa).unwrap();
        dpus[1].load_program(&pa).unwrap();
        dpus[2].load_program(&pb).unwrap();
        dpus[3].load_program(&pa).unwrap();
        let results = run_batch(&mut dpus);
        assert_eq!(results.len(), 4);
        for r in &results {
            // 3 instructions × 2 tasklets on every DPU, whichever program.
            assert_eq!(r.as_ref().unwrap().instructions, 3 * 2);
        }
    }

    /// Branches on the word the host staged at WRAM 1024, so members with
    /// different inputs leave lockstep mid-kernel and must each get their
    /// own scheduler state without losing a cycle of timing fidelity.
    fn divergent_kernel() -> pim_asm::DpuProgram {
        assemble(
            r#"
            .text
            movi r0, 0
            movi r1, 1024
            lw   r2, 0(r1)
            bne  r2, 0, odd
            movi r3, 100
            add  r3, r3, r2
            sw   r3, 4(r1)
            sdma r1, r0, 8
            stop
        odd:
            movi r3, 100
        spin:
            sub  r3, r3, 1
            bne  r3, 0, spin
            sw   r2, 4(r1)
            sdma r1, r0, 8
            stop
        "#,
        )
        .unwrap()
    }

    /// Loads the word staged at WRAM 1024 and loads again *through* it, so
    /// a member staged with an address past WRAM faults on an instruction
    /// every other member executes cleanly.
    fn faulting_kernel() -> pim_asm::DpuProgram {
        assemble(
            r#"
            .text
            movi r0, 0
            movi r1, 1024
            lw   r2, 0(r1)
            lw   r3, 0(r2)
            add  r3, r3, 1
            sw   r3, 4(r1)
            sdma r1, r0, 8
            stop
        "#,
        )
        .unwrap()
    }

    /// Runs `program` as one batch and as individual launches, member `i`
    /// staged with `inputs[i]` at WRAM 1024, and asserts every member's
    /// result (stats or error) and MRAM image match. Returns the batch
    /// results.
    fn assert_batch_matches_solo(
        cfg: &DpuConfig,
        program: &pim_asm::DpuProgram,
        inputs: &[u32],
    ) -> Vec<Result<DpuRunStats, SimError>> {
        let fresh = || -> Vec<Dpu> {
            inputs
                .iter()
                .map(|input| {
                    let mut dpu = Dpu::new(cfg.clone());
                    dpu.load_program(program).unwrap();
                    dpu.write_wram(1024, &input.to_le_bytes());
                    dpu
                })
                .collect()
        };
        let (mut batched, mut solo) = (fresh(), fresh());
        let batch_results = run_batch(&mut batched);
        for (i, (b, s)) in batch_results.iter().zip(solo.iter_mut()).enumerate() {
            let want = s.launch();
            assert_eq!(format!("{b:?}"), format!("{want:?}"), "member {i}");
            assert_eq!(batched[i].read_mram(0, 8), s.read_mram(0, 8), "member {i}");
        }
        batch_results
    }

    #[test]
    fn mid_kernel_divergence_matches_individual_launches() {
        // Members 0-1 take the even path, 2-3 spin on the odd path: the
        // batch starts convergent (identical pcs) and splits at the `bne`.
        // Under the ILP features several tasklets issue per cycle, so the
        // split lands mid-cycle and each member finishes the cycle's
        // remaining candidates on its own.
        let program = divergent_kernel();
        let baseline = DpuConfig::paper_baseline(4);
        for cfg in [baseline.clone(), baseline.clone().with_ilp(IlpFeatures::all())] {
            let stats = assert_batch_matches_solo(&cfg, &program, &[0, 0, 5, 9]);
            // The two paths really do take different time.
            let c0 = stats[0].as_ref().unwrap().cycles;
            let c2 = stats[2].as_ref().unwrap().cycles;
            assert_ne!(c0, c2, "odd path must cost different cycles");
        }
        // Member 2's divergent instruction faults: it retires with the
        // error an individual launch reports, the others run to the end.
        let stats = assert_batch_matches_solo(&baseline, &faulting_kernel(), &[0, 4, 1 << 20, 8]);
        assert!(matches!(stats[2], Err(SimError::OutOfBounds { .. })), "{:?}", stats[2]);
        assert!(stats.iter().enumerate().all(|(i, r)| i == 2 || r.is_ok()));
    }

    #[test]
    fn unloaded_dpu_reports_no_program() {
        let mut dpus = vec![Dpu::new(DpuConfig::paper_baseline(1))];
        let results = run_batch(&mut dpus);
        assert!(matches!(results[0], Err(SimError::NoProgram)));
    }
}
