//! The optimized scalar scheduler, written once.
//!
//! [`SchedState::step`] advances one DPU by one scheduling event of the
//! revolver pipeline over the block-compiled op table: memory completions,
//! the issuable set, the register-file block, the idle fast-forward, and
//! the round-robin issue loop with its I-cache / D-cache branches. Every
//! fast executor calls it:
//!
//! - the per-DPU compiled loop (`Dpu::run_scalar_compiled`) loops around it
//!   with the [`Solo`] hook;
//! - the batch sweep (`crate::batch`) steps each member with [`Solo`];
//! - the batch lockstep leader steps the shared schedule with a hook that
//!   executes every member and reports their divergence, after which each
//!   member finishes the divergent cycle through [`SchedState::resume`].
//!
//! Relative to the naive reference loop (`Dpu::run_scalar_naive`), the
//! step changes nothing about simulated time; it only avoids work:
//!
//! 1. the program is lowered once per load into a [`CompiledKernel`] — a
//!    flat table of monomorphic op functions with operands, scheduling
//!    facts and the instruction-class index pre-extracted — so issuing is
//!    one indexed load plus one indirect call;
//! 2. event-driven wakeup: `ready_at[t]` caches each tasklet's earliest
//!    issue cycle (`max(next_issue, operand forwarding)`, `u64::MAX` while
//!    blocked or stopped) and `wake` holds a lower bound on their minimum,
//!    so the issuable scan is skipped outright while `now < wake`;
//! 3. the issuable set is a bitmask (`n_tasklets <= 24`): round-robin
//!    selection walks set bits with `trailing_zeros`;
//! 4. the steady state performs no heap allocation, and
//!    `MemEngine::advance` is skipped while the engine is provably inert.

use pim_cache::Cache;
use pim_isa::{InstrClass, Instruction};
use pim_trace::{StallCause, TraceEvent, TraceSink};

use crate::compiled::{CompiledKernel, CompiledOp, F_LOAD, F_STORE};
use crate::config::MemoryMode;
use crate::dpu::{Dpu, TaskletStatus};
use crate::error::SimError;
use crate::exec::{ArchState, Effect};
use crate::mem::{MemEngine, Segment};
use crate::stats::DpuRunStats;

const NREGS: usize = pim_isa::NUM_GP_REGS as usize;

/// Launch-wide constants of one schedule: the compiled kernel and every
/// configuration-derived value the step reads. One context serves every
/// member of a batch.
pub(crate) struct SchedCtx<'k> {
    kernel: &'k CompiledKernel,
    /// `kernel.ops`, held as its own slice so the issue loop keeps it in
    /// registers across the op functions' indirect calls.
    ops: &'k [CompiledOp],
    fwd: bool,
    unified_rf: bool,
    ways: usize,
    gap: u64,
    fwd_alu: u64,
    fwd_load: u64,
    pub(crate) cached: bool,
    iram_base: u32,
    max_cycles: u64,
    trace_limit: usize,
    /// Seeded bug for the mutation self-check, sampled once per launch (or
    /// batch) so the hot loop stays branch-predictable.
    #[cfg(feature = "mutation-hooks")]
    drop_rf_hazard: bool,
}

impl<'k> SchedCtx<'k> {
    /// The context for launching `kernel`, compiled from `dpu`'s loaded
    /// program.
    pub(crate) fn new(dpu: &Dpu, kernel: &'k CompiledKernel) -> Self {
        let cfg = &dpu.cfg;
        let fwd = cfg.ilp.data_forwarding;
        SchedCtx {
            fwd,
            unified_rf: cfg.ilp.unified_rf,
            ways: cfg.issue_ways() as usize,
            gap: if fwd { 1 } else { u64::from(cfg.revolver_cycles) },
            fwd_alu: u64::from(cfg.forward_alu_latency),
            fwd_load: u64::from(cfg.forward_load_latency),
            cached: matches!(cfg.memory_mode, MemoryMode::Cached { .. }),
            iram_base: dpu.iram_backing_base(),
            max_cycles: cfg.max_cycles,
            trace_limit: cfg.trace_limit,
            #[cfg(feature = "mutation-hooks")]
            drop_rf_hazard: crate::mutation::scoreboard_bug(),
            kernel,
            ops: &kernel.ops,
        }
    }

    /// Cycle at which every operand of the instruction at `pc` is
    /// forwardable, given one tasklet's scoreboard row (0 without the
    /// data-forwarding feature).
    #[inline(always)]
    fn deps_ready_at(&self, pc: u32, row: &[u64]) -> u64 {
        if !self.fwd {
            return 0;
        }
        match self.ops.get(pc as usize) {
            Some(op) => {
                let mut mask = op.src_mask;
                let mut latest = 0u64;
                while mask != 0 {
                    latest = latest.max(row[mask.trailing_zeros() as usize]);
                    mask &= mask - 1;
                }
                latest
            }
            None => 0,
        }
    }

    /// Issue slots the even/odd register file blocks after `op`.
    #[inline(always)]
    fn hazard(&self, op: &CompiledOp) -> u64 {
        #[cfg(feature = "mutation-hooks")]
        if self.drop_rf_hazard {
            return 0;
        }
        if self.unified_rf {
            0
        } else {
            u64::from(op.rf_hazard)
        }
    }
}

/// Executes the functional part of one issued instruction.
pub(crate) trait Exec {
    /// Runs `op` for tasklet `t` at `pc` on `state`. `Ok(None)` reports a
    /// divergence: the caller stops the cycle where it is and returns
    /// [`Step::Diverged`].
    fn exec(
        &mut self,
        state: &mut ArchState,
        t: u32,
        pc: u32,
        op: &CompiledOp,
    ) -> Result<Option<Effect>, SimError>;
}

/// One DPU executing on its own state.
pub(crate) struct Solo;

impl Exec for Solo {
    #[inline(always)]
    fn exec(
        &mut self,
        state: &mut ArchState,
        t: u32,
        pc: u32,
        op: &CompiledOp,
    ) -> Result<Option<Effect>, SimError> {
        (op.exec)(state, t, pc, op).map(Some)
    }
}

/// What one [`SchedState::step`] did.
pub(crate) enum Step {
    /// Simulated time advanced; keep stepping.
    Running,
    /// Every tasklet has stopped.
    Done,
    /// The hook reported a divergence mid-cycle.
    Diverged(Resume),
}

/// The round-robin cursor of one issue cycle: candidates still to visit
/// (set bits at or above `rr` first, then the wrapped low bits) and the
/// instructions issued so far.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    hi: u32,
    lo: u32,
    issued: usize,
}

/// Where a diverged issue cycle stopped: the divergent instruction, whose
/// functional effect has been applied but none of its bookkeeping, and the
/// cursor after it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resume {
    t: usize,
    pc: u32,
    cursor: Cursor,
}

/// Everything one DPU's run mutates besides its architectural state: the
/// per-tasklet scheduler tables and timeline, plus the memory engine,
/// caches and statistics they drive. Cloning it materializes an identical
/// copy of the run.
#[derive(Clone)]
pub(crate) struct SchedState {
    status: Vec<TaskletStatus>,
    next_issue: Vec<u64>,
    /// Forwarding scoreboard: register `r` of tasklet `t` is ready at
    /// `reg_ready[t*NREGS + r]`.
    reg_ready: Vec<u64>,
    skip_dcache: Vec<bool>,
    /// Exact for Ready tasklets, `u64::MAX` otherwise.
    ready_at: Vec<u64>,
    /// Lower bound on `min(ready_at)`, re-tightened whenever an idle span
    /// is computed.
    wake: u64,
    live: usize,
    now: u64,
    rf_block: u64,
    rr: usize,
    window_acc: (u64, u64),
    mem: MemEngine,
    icache: Option<Cache>,
    dcache: Option<Cache>,
    stats: DpuRunStats,
    done_buf: Vec<(u64, u64)>,
}

impl SchedState {
    /// A fresh run of `dpu` (already reset for launch) on `mem`.
    pub(crate) fn new(dpu: &Dpu, mem: MemEngine) -> Self {
        let n = dpu.cfg.n_tasklets as usize;
        let (icache, dcache) = match dpu.cfg.memory_mode {
            MemoryMode::Scratchpad => (None, None),
            MemoryMode::Cached { icache, dcache } => {
                (Some(Cache::new(icache)), Some(Cache::new(dcache)))
            }
        };
        SchedState {
            status: vec![TaskletStatus::Ready; n],
            next_issue: vec![0; n],
            reg_ready: vec![0; n * NREGS],
            skip_dcache: vec![false; n],
            ready_at: vec![0; n],
            wake: 0,
            live: n,
            now: 0,
            rf_block: 0,
            rr: 0,
            window_acc: (0, 0),
            mem,
            icache,
            dcache,
            stats: dpu.new_stats(),
            done_buf: Vec::with_capacity(n),
        }
    }

    /// The run's statistics, completed with the memory-side counters. Call
    /// once, after [`Step::Done`].
    pub(crate) fn finish(&mut self) -> DpuRunStats {
        let mut stats = std::mem::take(&mut self.stats);
        stats.cycles = self.now;
        stats.dram = *self.mem.bank().stats();
        stats.mmu = self.mem.mmu().map(|m| *m.stats());
        stats.icache = self.icache.take().map(|c| *c.stats());
        stats.dcache = self.dcache.take().map(|c| *c.stats());
        stats.dma_requests = self.mem.requests_issued;
        stats
    }

    /// Recomputes tasklet `t`'s wakeup entry for its (new) `pc`.
    #[inline(always)]
    fn refresh(&mut self, ctx: &SchedCtx, t: usize, pc: u32) {
        if self.status[t] == TaskletStatus::Ready {
            let row = &self.reg_ready[t * NREGS..(t + 1) * NREGS];
            self.ready_at[t] = self.next_issue[t].max(ctx.deps_ready_at(pc, row));
            self.wake = self.wake.min(self.ready_at[t]);
        } else {
            self.ready_at[t] = u64::MAX;
        }
    }

    /// Advances the run by one scheduling event: a single issue cycle, a
    /// register-file stall cycle, or an idle span fast-forwarded to the
    /// next event.
    #[inline(always)]
    pub(crate) fn step<H: Exec, S: TraceSink>(
        &mut self,
        ctx: &SchedCtx,
        state: &mut ArchState,
        hook: &mut H,
        sink: &mut S,
    ) -> Result<Step, SimError> {
        if self.live == 0 {
            return Ok(Step::Done);
        }
        let now = self.now;
        if now >= ctx.max_cycles {
            return Err(SimError::CycleLimit { limit: ctx.max_cycles });
        }
        // 1. Memory completions (skipped while the engine holds no
        // outstanding request — `advance` would be a no-op).
        if self.mem.is_active() {
            self.mem.advance(now);
            if sink.enabled() {
                self.mem.drain_row_events(sink);
            }
            self.mem.drain_done_into(&mut self.done_buf);
            for i in 0..self.done_buf.len() {
                let (token, at) = self.done_buf[i];
                let t = token as usize;
                self.status[t] = TaskletStatus::Ready;
                self.next_issue[t] = self.next_issue[t].max(at + 1);
                self.refresh(ctx, t, state.pc[t]);
                if sink.enabled() {
                    sink.emit(TraceEvent::DmaEnd { cycle: at, tasklet: t as u32 });
                }
            }
        }
        // 2. Issuable set as a bitmask (bit `t` = tasklet `t` can issue);
        // while `now < wake` it is provably empty and the scan skipped.
        let mut issuable: u32 = 0;
        if now >= self.wake {
            for (t, &at) in self.ready_at.iter().enumerate() {
                if now >= at {
                    issuable |= 1 << t;
                }
            }
        }
        let n_issuable = issuable.count_ones() as usize;
        // 3. Register-file structural block.
        if self.rf_block > 0 {
            self.stats.record_tlp_span(n_issuable, 1, &mut self.window_acc);
            self.stats.idle_rf += 1.0;
            if sink.enabled() {
                sink.emit(TraceEvent::Stall {
                    cycle: now,
                    cycles: 1,
                    cause: StallCause::RegisterFile,
                });
            }
            self.rf_block -= 1;
            self.now = now + 1;
            return Ok(Step::Running);
        }
        // 4. Nothing to issue: attribute the idle span across the
        // per-tasklet wait reasons (paper Fig 6 categorizes by thread
        // status), then fast-forward to the next possible event.
        if issuable == 0 {
            self.idle(ctx, sink);
            return Ok(Step::Running);
        }
        self.stats.record_tlp_span(n_issuable, 1, &mut self.window_acc);
        // 5. Issue up to `ways` instructions, round-robin from `rr`.
        let lo_mask = (1u32 << self.rr) - 1;
        let cursor = Cursor { hi: issuable & !lo_mask, lo: issuable & lo_mask, issued: 0 };
        self.issue(ctx, state, hook, sink, cursor)
    }

    /// The idle fast-forward of [`SchedState::step`].
    fn idle<S: TraceSink>(&mut self, ctx: &SchedCtx, sink: &mut S) {
        let now = self.now;
        let n_sched = self.status.iter().filter(|s| **s == TaskletStatus::Ready).count() as f64;
        let n_mem = self.status.iter().filter(|s| **s == TaskletStatus::Blocked).count() as f64;
        // Blocked/stopped tasklets sit at u64::MAX, so the plain minimum
        // is the Ready minimum — and the exact `wake`.
        let mut next = self.ready_at.iter().copied().min().unwrap_or(u64::MAX);
        self.wake = next;
        if let Some(e) = self.mem.next_event(now) {
            next = next.min(e);
        }
        let next = if next == u64::MAX || next <= now { now + 1 } else { next };
        let span = (next - now).min(ctx.max_cycles - now);
        self.stats.record_tlp_span(0, span, &mut self.window_acc);
        let tot = (n_sched + n_mem).max(1.0);
        self.stats.idle_memory += span as f64 * n_mem / tot;
        self.stats.idle_revolver += span as f64 * n_sched / tot;
        if sink.enabled() {
            sink.emit(TraceEvent::Stall {
                cycle: now,
                cycles: span,
                cause: if n_mem >= n_sched { StallCause::Memory } else { StallCause::Revolver },
            });
        }
        self.now = now + span;
    }

    /// Blocks tasklet `t` on a memory-engine request for `segs`.
    #[inline]
    fn block_on<S: TraceSink>(&mut self, t: usize, segs: &[Segment], sink: &mut S) {
        self.status[t] = TaskletStatus::Blocked;
        self.ready_at[t] = u64::MAX;
        if sink.enabled() {
            sink.emit(TraceEvent::DmaBegin {
                cycle: self.now,
                tasklet: t as u32,
                mram: segs[0].addr,
                bytes: segs.iter().map(|s| s.bytes).sum(),
                write: false,
            });
        }
        self.mem.issue(t as u64, segs, self.now);
    }

    /// The round-robin issue loop from `cursor` to the end of the cycle.
    #[inline(always)]
    fn issue<H: Exec, S: TraceSink>(
        &mut self,
        ctx: &SchedCtx,
        state: &mut ArchState,
        hook: &mut H,
        sink: &mut S,
        mut cursor: Cursor,
    ) -> Result<Step, SimError> {
        let now = self.now;
        while cursor.issued < ctx.ways {
            let t = if cursor.hi != 0 {
                let t = cursor.hi.trailing_zeros() as usize;
                cursor.hi &= cursor.hi - 1;
                t
            } else if cursor.lo != 0 {
                let t = cursor.lo.trailing_zeros() as usize;
                cursor.lo &= cursor.lo - 1;
                t
            } else {
                break;
            };
            if self.status[t] != TaskletStatus::Ready {
                continue;
            }
            let pc = state.pc[t];
            let Some(op) = ctx.ops.get(pc as usize) else {
                return Err(SimError::PcOutOfRange { pc, tasklet: t as u32 });
            };
            // Instruction fetch through the I-cache (cache-centric mode).
            if let Some(ic) = self.icache.as_mut() {
                let out = ic.access(ctx.iram_base + pc * pim_isa::layout::IRAM_INSTR_BYTES, false);
                if !out.hit {
                    let line = out.fill_line.expect("miss has a fill");
                    let bytes = ic.config().line_bytes;
                    self.block_on(t, &[Segment { addr: line, bytes, write: false }], sink);
                    continue;
                }
            }
            // The op table is laid out block-by-block; every entry must
            // carry the block id its pc belongs to.
            debug_assert_eq!(op.block, ctx.kernel.blocks.block_of(pc));
            if ctx.cached && op.is_dma() {
                return Err(SimError::DmaInCachedMode { pc, tasklet: t as u32 });
            }
            // Data access through the D-cache (cache-centric mode). The
            // effective address comes from the pre-extracted base/offset
            // (identical to `ArchState::ls_addr` on the instruction).
            if let Some(dc) = self.dcache.as_mut() {
                if op.flags & (F_LOAD | F_STORE) != 0 {
                    if self.skip_dcache[t] {
                        self.skip_dcache[t] = false;
                    } else {
                        let addr = state.regs[t][op.b as usize].wrapping_add(op.imm as u32);
                        let out = dc.access(addr, op.flags & F_STORE != 0);
                        if !out.hit {
                            let line_bytes = dc.config().line_bytes;
                            let fill = Segment {
                                addr: out.fill_line.expect("miss has a fill"),
                                bytes: line_bytes,
                                write: false,
                            };
                            let mut segs = [fill, fill];
                            let mut n_segs = 1;
                            if let Some(wb) = out.writeback_line {
                                segs[1] = Segment { addr: wb, bytes: line_bytes, write: true };
                                n_segs = 2;
                            }
                            self.skip_dcache[t] = true;
                            self.block_on(t, &segs[..n_segs], sink);
                            continue;
                        }
                    }
                }
            }
            if self.stats.trace.len() < ctx.trace_limit {
                self.stats.trace.push(crate::stats::TraceEntry {
                    cycle: now,
                    tasklet: t as u32,
                    pc,
                    text: ctx.kernel.instrs[pc as usize].to_string(),
                });
            }
            let Some(effect) = hook.exec(state, t as u32, pc, op)? else {
                return Ok(Step::Diverged(Resume { t, pc, cursor }));
            };
            if self.retire(ctx, state, sink, t, pc, op, effect, &mut cursor) {
                break;
            }
        }
        if cursor.issued > 0 {
            self.stats.active_cycles += 1;
        } else {
            // Every candidate stalled on a cache fill this cycle.
            self.stats.idle_memory += 1.0;
            if sink.enabled() {
                sink.emit(TraceEvent::Stall { cycle: now, cycles: 1, cause: StallCause::Memory });
            }
        }
        self.now = now + 1;
        Ok(Step::Running)
    }

    /// The bookkeeping of one executed instruction: statistics, events,
    /// scoreboard, the PC/status transition its `effect` asks for, and the
    /// tasklet's wakeup entry. Returns `true` when the instruction's
    /// register-file hazard blocks the rest of the issue cycle.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn retire<S: TraceSink>(
        &mut self,
        ctx: &SchedCtx,
        state: &mut ArchState,
        sink: &mut S,
        t: usize,
        pc: u32,
        op: &CompiledOp,
        effect: Effect,
        cursor: &mut Cursor,
    ) -> bool {
        let now = self.now;
        self.stats.count_instruction_idx(op.class_idx as usize, t as u32);
        if sink.enabled() {
            sink.emit(TraceEvent::InstrRetire {
                cycle: now,
                tasklet: t as u32,
                pc,
                class: InstrClass::ALL[op.class_idx as usize],
            });
            match ctx.kernel.instrs[pc as usize] {
                Instruction::Acquire { bit } => sink.emit(TraceEvent::BarrierAcquire {
                    cycle: now,
                    tasklet: t as u32,
                    bit: state.operand(t as u32, bit),
                    acquired: effect != Effect::AcquireRetry,
                }),
                Instruction::Release { bit } => sink.emit(TraceEvent::BarrierRelease {
                    cycle: now,
                    tasklet: t as u32,
                    bit: state.operand(t as u32, bit),
                }),
                _ => {}
            }
        }
        self.next_issue[t] = now + ctx.gap;
        if ctx.fwd {
            if let Some(rd) = op.dst() {
                let lat = if op.is_load() { ctx.fwd_load } else { ctx.fwd_alu };
                self.reg_ready[t * NREGS + rd as usize] = now + lat;
            }
        }
        match effect {
            Effect::Advance => state.pc[t] = pc + 1,
            Effect::Jump(target) => state.pc[t] = target,
            Effect::AcquireRetry => {}
            Effect::Stop => {
                self.status[t] = TaskletStatus::Stopped;
                self.stats.tasklet_stop_cycle[t] = now;
                self.live -= 1;
            }
            Effect::Dma { mram, len, write } => {
                state.pc[t] = pc + 1;
                self.status[t] = TaskletStatus::Blocked;
                if sink.enabled() {
                    sink.emit(TraceEvent::DmaBegin {
                        cycle: now,
                        tasklet: t as u32,
                        mram,
                        bytes: len,
                        write,
                    });
                }
                self.mem.issue(t as u64, &[Segment { addr: mram, bytes: len, write }], now);
            }
        }
        self.refresh(ctx, t, state.pc[t]);
        cursor.issued += 1;
        self.rr = t + 1;
        let hazard = ctx.hazard(op);
        if hazard > 0 {
            // The split register file blocks the issue stage.
            self.rf_block = hazard;
        }
        hazard > 0
    }

    /// Finishes a diverged issue cycle on this run: retires the divergent
    /// instruction with `effect` (this DPU's own), then issues the cycle's
    /// remaining round-robin candidates on `state`.
    pub(crate) fn resume<S: TraceSink>(
        &mut self,
        ctx: &SchedCtx,
        state: &mut ArchState,
        sink: &mut S,
        at: Resume,
        effect: Effect,
    ) -> Result<Step, SimError> {
        let mut cursor = at.cursor;
        let op = &ctx.ops[at.pc as usize];
        if self.retire(ctx, state, sink, at.t, at.pc, op, effect, &mut cursor) {
            cursor.hi = 0;
            cursor.lo = 0;
        }
        self.issue(ctx, state, &mut Solo, sink, cursor)
    }
}
