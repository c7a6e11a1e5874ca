//! The two single-DPU workloads: lists of independent kernel runs mapped
//! over a `JobRunner` with at most `nproc` workers.
//!
//! - `dense-issue`: kernels near 1 cycle per instruction, where the
//!   scheduler, scoreboard and compiled-op issue path do the work.
//! - `cycle-bound`: kernels whose host cost tracks simulated cycles (memory
//!   engine, DRAM stepping, event skipping, `pim-cache`).

use pimulator::experiments::baseline;
use pimulator::jobs::{JobRunner, SimJob};
use pimulator::pim_asm::{BuildError, DpuProgram, KernelBuilder};
use pimulator::pim_dpu::{Dpu, DpuConfig, DpuRunStats};
use pimulator::pim_dram::DramStats;
use pimulator::pim_isa::Cond;

use crate::common::{
    catch, dpu_metrics, job_metrics, ratio, timed, Ctx, Metrics, Probes, Size, Work,
};
use crate::Workload;

/// The dense kernels of `dense-issue`, in `pimsim exp fig05` order.
const DENSE: [&str; 16] = [
    "GEMV", "HST-L", "HST-S", "MLP", "NW", "RED", "SEL", "TRNS", "TS", "UNI", "VA", "SCAN-RSS",
    "BFS", "SpMM-BSR", "MLP-Q", "ATTN",
];

/// A synthetic stress kernel, built with `KernelBuilder` here.
#[derive(Debug, Clone, Copy)]
enum Synth {
    /// Every tasklet streams 2 KB `ldma`/`sdma` blocks: ~400 cycles/instr.
    DmaHeavy,
    /// Every tasklet contends for one atomic bit around a tiny critical
    /// section: acquire-retry issue slots dominate.
    BarrierHeavy,
}

const DMA_BLOCK: i32 = 2048;

impl Synth {
    fn label(self) -> &'static str {
        match self {
            Synth::DmaHeavy => "DMA-HEAVY",
            Synth::BarrierHeavy => "BARRIER-HEAVY",
        }
    }

    fn iterations(self, size: Size) -> i32 {
        match (self, size) {
            (Synth::DmaHeavy, Size::Full) => 64,
            (Synth::DmaHeavy, Size::Tiny) => 4,
            (Synth::BarrierHeavy, Size::Full) => 512,
            (Synth::BarrierHeavy, Size::Tiny) => 32,
        }
    }

    fn build(self, size: Size, n_tasklets: u32) -> Result<DpuProgram, BuildError> {
        let iters = self.iterations(size);
        let mut k = KernelBuilder::new();
        match self {
            Synth::DmaHeavy => {
                let buf = k.alloc_wram(DMA_BLOCK as u32 * n_tasklets, 8);
                let [t, w, m, i] = k.regs(["t", "w", "m", "i"]);
                k.tid(t);
                k.mul(w, t, DMA_BLOCK);
                k.add(w, w, buf as i32);
                k.mul(m, t, iters * DMA_BLOCK);
                k.movi(i, iters);
                let top = k.label_here("stream");
                k.ldma(w, m, DMA_BLOCK);
                k.sdma(w, m, DMA_BLOCK);
                k.add(m, m, DMA_BLOCK);
                k.sub(i, i, 1);
                k.branch(Cond::Ne, i, 0, &top);
                k.stop();
            }
            Synth::BarrierHeavy => {
                let bit = k.alloc_atomic_bit();
                let ctr = k.global_zeroed("counter", 4);
                let [i, a, v] = k.regs(["i", "a", "v"]);
                k.movi(a, ctr as i32);
                k.movi(i, iters);
                let top = k.label_here("contend");
                k.acquire(bit as i32);
                k.lw(v, a, 0);
                k.add(v, v, 1);
                k.sw(v, a, 0);
                k.release(bit as i32);
                k.sub(i, i, 1);
                k.branch(Cond::Ne, i, 0, &top);
                k.stop();
            }
        }
        k.build()
    }
}

/// One job of the list.
enum Kind {
    Prim(SimJob),
    Synth { which: Synth, program: DpuProgram, cfg: DpuConfig },
}

struct Item {
    label: String,
    kind: Kind,
}

/// What one job produced.
struct ItemOut {
    outcome: Result<DpuRunStats, String>,
    secs: f64,
}

fn run_item(item: &Item) -> ItemOut {
    let (outcome, secs) = timed(|| {
        catch(|| match &item.kind {
            Kind::Prim(job) => job.execute().map(|o| o.stats).map_err(|e| e.to_string()),
            Kind::Synth { program, cfg, .. } => {
                let mut dpu = Dpu::new(cfg.clone());
                dpu.load_program(program).map_err(|e| e.to_string())?;
                dpu.launch().map_err(|e| e.to_string())
            }
        })
    });
    ItemOut { outcome, secs }
}

/// A single-DPU workload: a fixed list of kernel runs.
pub struct Scalar {
    name: &'static str,
    items: Vec<Item>,
    runner: JobRunner,
    size: Size,
}

impl Scalar {
    /// `dense-issue`: the dense kernels at 16 tasklets plus BARRIER-HEAVY.
    pub fn dense_issue(size: Size) -> Result<Self, String> {
        let mut items: Vec<Item> =
            DENSE.iter().map(|w| prim(w, SimJob::single(w, size.single(), baseline(16)))).collect();
        items.push(synth(Synth::BarrierHeavy, size, baseline(16))?);
        Ok(Scalar::new("dense-issue", items, size))
    }

    /// `cycle-bound`: high cycles-per-instruction kernels, the cached
    /// §V-D runs and single-tasklet runs.
    pub fn cycle_bound(size: Size) -> Result<Self, String> {
        let d = size.single();
        let items = vec![
            prim("BS", SimJob::single("BS", d, baseline(16))),
            prim("SpMV", SimJob::single("SpMV", d, baseline(16))),
            prim("SCAN-SSA", SimJob::single("SCAN-SSA", d, baseline(16))),
            synth(Synth::DmaHeavy, size, baseline(16))?,
            prim("VA-cached", SimJob::single("VA", d, baseline(16).with_paper_caches())),
            prim("RED-cached", SimJob::single("RED", d, baseline(16).with_paper_caches())),
            prim("GEMV-1t", SimJob::single("GEMV", d, baseline(1))),
            prim("VA-1t", SimJob::single("VA", d, baseline(1))),
        ];
        Ok(Scalar::new("cycle-bound", items, size))
    }

    fn new(name: &'static str, items: Vec<Item>, size: Size) -> Self {
        Scalar { name, items, runner: JobRunner::new(None), size }
    }
}

fn prim(label: &str, job: SimJob) -> Item {
    Item { label: label.to_string(), kind: Kind::Prim(job) }
}

fn synth(which: Synth, size: Size, cfg: DpuConfig) -> Result<Item, String> {
    let program =
        which.build(size, cfg.n_tasklets).map_err(|e| format!("{}: {e}", which.label()))?;
    Ok(Item { label: which.label().to_string(), kind: Kind::Synth { which, program, cfg } })
}

impl Workload for Scalar {
    fn pass(&mut self, ctx: &mut Ctx, layers: Option<&mut Metrics>) -> Work {
        let (outs, map_s) = timed(|| self.runner.map(&self.items, |_, item| run_item(item)));
        let mut work = Work { op_s: outs.iter().map(|o| o.secs).collect(), ..Work::default() };
        let mut merged = DpuRunStats::default();
        let mut dram = DramStats::default();
        let (mut dc_hits, mut dc_accesses) = (0u64, 0u64);
        for (item, out) in self.items.iter().zip(&outs) {
            let outcome = out.outcome.as_ref().map_err(Clone::clone).and_then(|s| {
                ctx.check_counts(&format!("{}/{}", self.name, item.label), s.instructions, s.cycles)
            });
            ctx.op(&item.label, outcome);
            if let Ok(s) = &out.outcome {
                work.instructions += s.instructions;
                work.cycles += s.cycles;
                work.requests += 1;
                merged.merge(s);
                dram.merge(&s.dram);
                if let Some(dc) = &s.dcache {
                    dc_hits += dc.hits;
                    dc_accesses += dc.accesses();
                }
            }
        }
        if let Some(m) = layers {
            job_metrics(m, self.name, &work.op_s, self.runner.workers(), map_s);
            for (item, s) in self.items.iter().zip(&work.op_s) {
                m.put(format!("prim.run_s.{}", item.label), *s, "s");
            }
            dpu_metrics(m, self.name, &merged, work.op_s.iter().sum());
            if self.name == "cycle-bound" {
                let cycles = merged.cycles as f64;
                m.put("dram.accesses", dram.accesses() as f64, "count");
                m.put(
                    "dram.accesses_per_kcycle",
                    ratio(dram.accesses() as f64 * 1e3, cycles),
                    "ratio",
                );
                m.put("dram.row_hit_rate", dram.row_hit_rate(), "ratio");
                m.put("dram.bytes_read", dram.bytes_read as f64, "B");
                m.put("dpu.dma_requests", merged.dma_requests as f64, "count");
                m.put("cache.dcache_accesses", dc_accesses as f64, "count");
                m.put("cache.dcache_hit_rate", ratio(dc_hits as f64, dc_accesses as f64), "ratio");
            }
        }
        work
    }

    fn probe(&mut self, ctx: &mut Ctx, probes: &mut Probes, _layers: &mut Metrics) {
        for item in &self.items {
            let Kind::Synth { which, cfg, .. } = &item.kind else { continue };
            let build = || which.build(self.size, cfg.n_tasklets).map_err(|e| e.to_string());
            let outcome = catch(|| probes.launch(cfg, build, |dpu, p| dpu.load_program(p)));
            ctx.op(&format!("{} probe", item.label), outcome);
        }
    }
}
