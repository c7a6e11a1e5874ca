//! `serve-steady`: the `demo` scenario (4 DPUs, 3 tenants) with its default
//! policy and blocking channel, for 20 s of simulated time, traffic seeded
//! by the benchmark's `--seed`. The only workload that runs the serve event
//! loop, the admission queue, the scheduling policy and the composition
//! cache; its cold profiling co-locates 4-tenant images.

use pim_serve::kernels::{
    class_index, colocate_composition, profile_composition, EMPTY_SLOT, SLOTS_PER_DPU,
    TASKLETS_PER_SLOT,
};
use pim_serve::{outcome_json, run_scenario, scenario_by_name, Scenario, ServeOptions};
use pimulator::jobs::JobRunner;
use pimulator::pim_dpu::{Dpu, DpuConfig};
use pimulator::report::Json;

use crate::common::{catch, digest, job_metrics, ratio, timed, Ctx, Metrics, Probes, Size, Work};
use crate::Workload;

pub struct Serve {
    scenario: &'static Scenario,
    opts: ServeOptions,
    /// Distinct compositions of the run, recovered once by [`Serve::account`].
    comps: Vec<Vec<u16>>,
    /// Rounds and host seconds of the last pass.
    rounds: u64,
    run_s: f64,
}

impl Serve {
    pub fn new(size: Size, seed: u64) -> Result<Self, String> {
        let scenario = scenario_by_name("demo").ok_or("no demo scenario")?;
        let duration_ms = match size {
            Size::Full => 20_000,
            Size::Tiny => 20,
        };
        // One profiling thread: the run is then one serial chain, which is
        // what lets the traced run split it into profiling and loop time.
        let opts = ServeOptions { seed, duration_ms, threads: Some(1), ..ServeOptions::default() };
        Ok(Serve { scenario, opts, comps: Vec::new(), rounds: 0, run_s: 0.0 })
    }

    /// The DPU configuration the serve loop profiles compositions under.
    fn dpu_config(&self) -> DpuConfig {
        let cfg = DpuConfig::paper_baseline(SLOTS_PER_DPU as u32 * TASKLETS_PER_SLOT);
        if self.scenario.mmu {
            cfg.with_paper_mmu()
        } else {
            cfg
        }
    }

    /// One `run_scenario`, with its conservation and digest checks.
    /// Returns the completed requests and the rounds.
    fn run(&self, ctx: &mut Ctx, render_s: &mut f64) -> Option<(u64, u64)> {
        let out = catch(|| run_scenario(self.scenario, &self.opts).map_err(|e| e.to_string()));
        let outcome = out.as_ref().map_err(Clone::clone).and_then(|out| {
            let (doc, t) = timed(|| outcome_json(out).render_pretty());
            *render_s += t;
            if out.offered() != out.admitted() + out.rejected() {
                return Err("offered != admitted + rejected".to_string());
            }
            if out.admitted() != out.completed() + out.failed() {
                return Err("admitted != completed + failed".to_string());
            }
            if ctx.seed == ctx.default_seed {
                ctx.check("serve-steady/digest", Json::from(digest(doc.as_bytes())))?;
            }
            Ok(())
        });
        ctx.op("serve run", outcome);
        out.ok().map(|o| (o.completed(), o.rounds))
    }
}

/// Parses a composition label (`"BS+TS+--+VA"`) back into class indices.
fn parse_label(label: &str) -> Option<Vec<u16>> {
    label.split('+').map(|w| if w == "--" { Some(EMPTY_SLOT) } else { class_index(w) }).collect()
}

impl Workload for Serve {
    fn pass(&mut self, ctx: &mut Ctx, layers: Option<&mut Metrics>) -> Work {
        let mut render_s = 0.0;
        let (ran, run_s) = timed(|| self.run(ctx, &mut render_s));
        let Some((completed, rounds)) = ran else { return Work::default() };
        (self.rounds, self.run_s) = (rounds, run_s);
        if let Some(m) = layers {
            m.put("serve.run_s", run_s, "s");
            m.put("serve.rounds", rounds as f64, "count");
            m.put("report.render_s", render_s, "s");
        }
        Work { requests: completed, op_s: vec![run_s], ..Work::default() }
    }

    /// The serve loop does not report what it simulated, so the distinct
    /// compositions are recovered from the labels of a `trace_capacity = 1`
    /// run, and each is launched once here to count its instructions and
    /// cycles: that is the simulated work of one pass.
    fn account(&mut self, ctx: &mut Ctx, work: Work) -> Work {
        let opts = ServeOptions { trace_capacity: 1, ..self.opts.clone() };
        let out = catch(|| run_scenario(self.scenario, &opts).map_err(|e| e.to_string()));
        let comps = out.and_then(|out| {
            let comps: Option<Vec<Vec<u16>>> =
                out.traces.iter().map(|t| parse_label(&t.label)).collect();
            let comps = comps.ok_or("unparsable composition label")?;
            if comps.len() == out.distinct_compositions {
                Ok(comps)
            } else {
                Err(format!(
                    "{} labels for {} compositions",
                    comps.len(),
                    out.distinct_compositions
                ))
            }
        });
        let comps = match comps {
            Ok(c) => c,
            Err(e) => {
                ctx.op("serve composition recovery", Err(e));
                return work;
            }
        };
        let cfg = self.dpu_config();
        let sim = catch(|| {
            comps.iter().try_fold((0u64, 0u64), |(i, c), comp| {
                let mut dpu = Dpu::new(cfg.clone());
                dpu.load_colocated(&colocate_composition(comp)).map_err(|e| e.to_string())?;
                let s = dpu.launch().map_err(|e| e.to_string())?;
                Ok((i + s.instructions, c + s.cycles))
            })
        });
        self.comps = comps;
        match sim {
            Ok((instructions, cycles)) => Work { instructions, cycles, ..work },
            Err(e) => {
                ctx.op("serve composition launch", Err(e));
                work
            }
        }
    }

    /// Re-profiles every distinct composition through `profile_composition`
    /// (the cold-profiling share of `serve.run_s`), and builds, loads,
    /// launches and relaunches each co-located image on a fresh DPU.
    fn probe(&mut self, ctx: &mut Ctx, probes: &mut Probes, m: &mut Metrics) {
        let cfg = self.dpu_config();
        let runner = JobRunner::serial();
        let (profiled, profile_s) =
            timed(|| runner.map(&self.comps, |_, c| timed(|| profile_composition(c, &cfg, 0))));
        let item_secs: Vec<f64> = profiled.iter().map(|(_, s)| *s).collect();
        let failed = profiled.iter().filter(|(r, _)| r.is_err()).count() as u64;
        ctx.ops(profiled.len() as u64, failed);
        let profile_sum: f64 = item_secs.iter().sum();
        job_metrics(m, "serve-steady", &item_secs, runner.workers(), profile_s);
        let loop_s = self.run_s - profile_sum;
        m.put("serve.profile_s", profile_sum, "s");
        m.put("serve.profile_calls", self.comps.len() as f64, "count");
        m.put("serve.loop_self_s", loop_s, "s");
        m.put("serve.loop_ns_per_round", ratio(loop_s * 1e9, self.rounds as f64), "ns");
        let slots = self.rounds as f64 * f64::from(self.scenario.n_dpus);
        m.put("serve.cache_hit_ratio", 1.0 - ratio(self.comps.len() as f64, slots), "ratio");
        for comp in &self.comps {
            let build = || Ok(colocate_composition(comp));
            let outcome =
                catch(|| probes.launch(&cfg, build, |dpu, image| dpu.load_colocated(image)));
            ctx.op("serve composition probe", outcome);
        }
    }
}
