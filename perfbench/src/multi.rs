//! `multi-dpu`: the only multi-DPU use of `pim-dpu` and `pim-host`.
//!
//! Part one is the `exp_rank_scale` population shape: whole ranks staged
//! with `rank_population` in 64-DPU shards, each launched through the SoA
//! batch executor, shards mapped over a serial `JobRunner`. Every DPU's sum
//! is checked against a host reference computed from its pulled input
//! window. Part two is fig10's largest strong-scaling points, VA and SEL at
//! 64 DPUs. Every operation runs alone, pinned to one CPU, so `launch_all`
//! inside it simulates on that one thread: each is timed without another
//! competing for the host, and peak memory is one operation's, not however
//! much of two happened to overlap.

use pimulator::experiments::{baseline, rank_population, DEFAULT_RANK_BATCH, DPUS_PER_RANK};
use pimulator::jobs::{JobRunner, SimJob};

use crate::common::{catch, job_metrics, on_one_cpu, ratio, timed, Ctx, Metrics, Size, Work};
use crate::Workload;

/// Bytes of each rank-sweep DPU's input window (1024 words at address 0).
const WINDOW_BYTES: u32 = 4096;

/// One 64-DPU shard of a rank-count point.
#[derive(Debug, Clone, Copy)]
struct Shard {
    lo: u32,
    n: u32,
}

/// What one shard did, with its host-side timings.
#[derive(Debug, Default)]
struct ShardOut {
    instructions: u64,
    cycles: u64,
    stage_s: f64,
    pull_s: f64,
    push_s: f64,
    launch_s: f64,
    bytes: u64,
}

/// Stages, gathers, scatters back, launches and checks one shard.
fn run_shard(s: Shard) -> Result<ShardOut, String> {
    let mut out = ShardOut::default();
    let (sys, t) = timed(|| rank_population(s.lo, s.n, DEFAULT_RANK_BATCH));
    out.stage_s = t;
    let mut sys = sys.map_err(|e| e.to_string())?;
    let (windows, t) = timed(|| sys.pull_from_mram(0, WINDOW_BYTES));
    out.pull_s += t;
    let chunks: Vec<&[u8]> = windows.iter().map(Vec::as_slice).collect();
    let ((), t) = timed(|| sys.push_to_mram(0, &chunks));
    out.push_s = t;
    let (report, t) = timed(|| sys.launch_all());
    out.launch_s = t;
    let report = report.map_err(|e| e.to_string())?;
    let (sums, t) = timed(|| sys.pull_from_symbol("sum"));
    out.pull_s += t;
    out.bytes = windows.iter().chain(&sums).map(|w| w.len() as u64).sum();
    for (j, (window, sum)) in windows.iter().zip(&sums).enumerate() {
        let want = window
            .chunks_exact(4)
            .map(|w| i32::from_le_bytes(w.try_into().expect("4-byte word")))
            .fold(0i32, i32::wrapping_add);
        let got = sum.as_slice().try_into().map(i32::from_le_bytes).map_err(|_| "short sum")?;
        if got != want {
            return Err(format!("DPU {} summed {got}, host reference {want}", s.lo + j as u32));
        }
    }
    out.instructions = report.total_instructions();
    out.cycles = report.per_dpu.iter().map(|d| d.cycles).sum();
    Ok(out)
}

pub struct Multi {
    /// `(ranks, shards)` per population point.
    points: Vec<(u32, Vec<Shard>)>,
    scaling: Vec<(String, SimJob)>,
    runner: JobRunner,
    passes: usize,
}

impl Multi {
    pub fn new(size: Size) -> Self {
        let (ranks, dpus): (&[u32], u32) = match size {
            Size::Full => (&[1, 4, 8, 20], 64),
            Size::Tiny => (&[1], 4),
        };
        let points = ranks
            .iter()
            .map(|&r| {
                let n = r * DPUS_PER_RANK;
                let shards = (0..n)
                    .step_by(DEFAULT_RANK_BATCH as usize)
                    .map(|lo| Shard { lo, n: DEFAULT_RANK_BATCH.min(n - lo) })
                    .collect();
                (r, shards)
            })
            .collect();
        let scaling = ["VA", "SEL"]
            .iter()
            .map(|w| (format!("{w}-multi"), SimJob::multi(w, size.multi(), dpus, baseline(16))))
            .collect();
        Multi { points, scaling, runner: JobRunner::serial(), passes: 0 }
    }
}

impl Workload for Multi {
    fn pass(&mut self, ctx: &mut Ctx, layers: Option<&mut Metrics>) -> Work {
        // Each pass runs on the next CPU, so every operation's fastest time
        // is taken over every CPU.
        let pass = self.passes;
        self.passes += 1;
        let mut work = Work::default();
        let mut totals = ShardOut::default();
        let mut map_s = 0.0;
        for (ranks, shards) in &self.points {
            let (outs, t) = timed(|| {
                self.runner
                    .map(shards, |_, &s| on_one_cpu(pass, || timed(|| catch(|| run_shard(s)))))
            });
            map_s += t;
            let (mut instructions, mut cycles, mut failed) = (0, 0, 0);
            for (out, s) in &outs {
                work.op_s.push(*s);
                match out {
                    Ok(o) => {
                        instructions += o.instructions;
                        cycles += o.cycles;
                        totals.stage_s += o.stage_s;
                        totals.pull_s += o.pull_s;
                        totals.push_s += o.push_s;
                        totals.launch_s += o.launch_s;
                        totals.bytes += o.bytes;
                        totals.cycles += o.cycles;
                    }
                    Err(e) => {
                        eprintln!("FAILED rank-{ranks} shard: {e}");
                        failed += 1;
                    }
                }
            }
            // The counts are checked per population point; a mismatch
            // fails every shard of the point, since it cannot say which.
            let n = outs.len() as u64;
            if let Err(e) =
                ctx.check_counts(&format!("multi-dpu/rank-{ranks}"), instructions, cycles)
            {
                eprintln!("FAILED rank-{ranks}: {e}");
                failed = n;
            }
            ctx.ops(n, failed);
            work.instructions += instructions;
            work.cycles += cycles;
            work.requests += n;
        }
        let (mut xfer_ns, mut total_ns) = (0.0, 0.0);
        let shards = work.op_s.len();
        for (label, job) in &self.scaling {
            let (out, s) =
                on_one_cpu(pass, || timed(|| catch(|| job.execute().map_err(|e| e.to_string()))));
            work.op_s.push(s);
            let outcome = out.map(|o| {
                work.instructions += o.stats.instructions;
                work.cycles += o.stats.cycles;
                work.requests += 1;
                xfer_ns += o.timeline.to_dpu_ns + o.timeline.from_dpu_ns;
                total_ns += o.timeline.total_ns();
                (o.stats.instructions, o.stats.cycles)
            });
            let outcome =
                outcome.and_then(|(i, c)| ctx.check_counts(&format!("multi-dpu/{label}"), i, c));
            ctx.op(label, outcome);
        }
        if let Some(m) = layers {
            job_metrics(m, "multi-dpu", &work.op_s[..shards], self.runner.workers(), map_s);
            for ((label, _), s) in self.scaling.iter().zip(&work.op_s[shards..]) {
                m.put(format!("prim.run_s.{label}"), *s, "s");
            }
            m.put("host.stage_s", totals.stage_s, "s");
            m.put("batch.launch_s", totals.launch_s, "s");
            m.put("batch.dpu_steps_per_s", ratio(totals.cycles as f64, totals.launch_s), "1/s");
            m.put("host.pull_s", totals.pull_s, "s");
            m.put("host.push_s", totals.push_s, "s");
            // The push moves the windows only; the pull moves windows + sums.
            let windows = self.points.iter().flat_map(|(_, s)| s).map(|s| s.n).sum::<u32>();
            let pushed = f64::from(windows) * f64::from(WINDOW_BYTES);
            m.put("host.push_gbps", ratio(pushed, totals.push_s) / 1e9, "GB/s");
            m.put("host.pull_gbps", ratio(totals.bytes as f64, totals.pull_s) / 1e9, "GB/s");
            m.put("host.sim_transfer_frac", ratio(xfer_ns, total_ns), "ratio");
        }
        work
    }
}
