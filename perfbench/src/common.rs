//! What every workload shares: the run context (size, seed, operation
//! tally, expected-values checks), the per-layer metric recorder, and small
//! measurement helpers.

use std::collections::BTreeMap;
use std::time::Instant;

use pimulator::pim_dpu::{Dpu, DpuConfig, DpuRunStats, SimError};
use pimulator::prim_suite::DatasetSize;
use pimulator::report::Json;

/// The expected-values file, compiled in so a run never depends on the
/// working directory.
const EXPECTED: &str = include_str!("../expected.json");

/// Where `--record` writes the expected values back.
pub const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

/// How big one pass of each workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes (`SingleDpu`/`MultiDpu` datasets, 20 s of serving).
    Full,
    /// Seconds-long smoke sizes for the benchmark's own tests.
    Tiny,
}

impl Size {
    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    /// The dataset of the single-DPU kernels.
    pub fn single(self) -> DatasetSize {
        match self {
            Size::Full => DatasetSize::SingleDpu,
            Size::Tiny => DatasetSize::Tiny,
        }
    }

    /// The dataset of the strong-scaling kernels.
    pub fn multi(self) -> DatasetSize {
        match self {
            Size::Full => DatasetSize::MultiDpu,
            Size::Tiny => DatasetSize::Tiny,
        }
    }
}

/// Simulated work one pass did, and the host seconds of its operations.
#[derive(Debug, Clone, Default)]
pub struct Work {
    /// Instructions, summed over DPUs.
    pub instructions: u64,
    /// DPU cycles, summed over DPUs.
    pub cycles: u64,
    /// Completed requests: serve requests, or operations elsewhere.
    pub requests: u64,
    /// Host seconds of each operation of the pass, in a fixed order.
    pub op_s: Vec<f64>,
}

/// Keeps, per operation, the fastest host time seen so far.
pub fn fold_min(best: &mut Vec<f64>, op_s: &[f64]) {
    if best.is_empty() {
        *best = op_s.to_vec();
    } else {
        best.iter_mut().zip(op_s).for_each(|(b, &s)| *b = b.min(s));
    }
}

/// The run context: size, seed, the operation tally that feeds
/// `attempted`/`failed`, and the expected values every simulated count is
/// checked against (or, with `--record`, written to).
pub struct Ctx {
    pub size: Size,
    pub seed: u64,
    pub default_seed: u64,
    held_out_seed: u64,
    expected: BTreeMap<String, Json>,
    recording: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl Ctx {
    pub fn new(size: Size, seed: u64, recording: bool) -> Result<Self, String> {
        let doc = Json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
        let seed_of = |k| field(&doc, k).and_then(as_u64).ok_or(format!("expected.json: no {k}"));
        let (default_seed, held_out_seed) = (seed_of("default_seed")?, seed_of("held_out_seed")?);
        let expected = match field(&doc, "values") {
            Some(Json::Obj(pairs)) => pairs.iter().cloned().collect(),
            _ => return Err("expected.json: no values object".to_string()),
        };
        Ok(Ctx {
            size,
            seed,
            default_seed,
            held_out_seed,
            expected,
            recording,
            attempted: 0,
            failed: 0,
        })
    }

    /// Counts `n` operations, `failed` of which failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts one operation with its outcome, reporting a failure on stderr.
    pub fn op(&mut self, label: &str, outcome: Result<(), String>) {
        self.ops(1, u64::from(outcome.is_err()));
        if let Err(e) = outcome {
            eprintln!("FAILED {label}: {e}");
        }
    }

    fn key(&self, what: &str) -> String {
        format!("{}/{what}", self.size.label())
    }

    /// Checks simulated `[instructions, cycles]` against the recorded values.
    pub fn check_counts(
        &mut self,
        what: &str,
        instructions: u64,
        cycles: u64,
    ) -> Result<(), String> {
        let got = Json::arr([Json::UInt(instructions), Json::UInt(cycles)]);
        self.check(what, got)
    }

    /// Checks any recorded value (counts, digests) for exact equality.
    pub fn check(&mut self, what: &str, got: Json) -> Result<(), String> {
        let key = self.key(what);
        if self.recording {
            self.expected.insert(key, got);
            return Ok(());
        }
        match self.expected.get(&key) {
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!("{key}: got {}, expected {}", got.render(), want.render())),
            None => Err(format!("{key}: no expected value recorded")),
        }
    }

    /// Writes the expected values back (with `--record`).
    pub fn save(&self) -> std::io::Result<()> {
        let doc = Json::obj([
            ("schema", Json::from("pim-perfbench-expected/1")),
            ("default_seed", Json::UInt(self.default_seed)),
            ("held_out_seed", Json::UInt(self.held_out_seed)),
            ("values", Json::Obj(self.expected.clone().into_iter().collect())),
        ]);
        std::fs::write(EXPECTED_PATH, doc.render_pretty() + "\n")
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Collects metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0.push(Metric { name: name.into(), value, unit: unit.to_string() });
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|m| {
                    let v = Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::from(m.unit.as_str())),
                    ]);
                    (m.name.clone(), v)
                })
                .collect(),
        )
    }
}

/// Build/load/launch timings the traced run takes at the call boundary,
/// summed over every image it probes.
#[derive(Debug, Default)]
pub struct Probes {
    pub build_s: f64,
    pub load_s: f64,
    pub launch_s: f64,
    pub relaunch_s: f64,
}

impl Probes {
    /// Builds an image, loads it on a fresh DPU, launches it and launches
    /// it again, timing each step. The relaunch reuses the compiled kernel,
    /// so `launch_s - relaunch_s` bounds the compile cost. Fails if the two
    /// launches simulate different work.
    pub fn launch<I>(
        &mut self,
        cfg: &DpuConfig,
        build: impl FnOnce() -> Result<I, String>,
        load: impl FnOnce(&mut Dpu, &I) -> Result<(), SimError>,
    ) -> Result<(), String> {
        let (image, s) = timed(build);
        self.build_s += s;
        let image = image?;
        let mut dpu = Dpu::new(cfg.clone());
        let (loaded, s) = timed(|| load(&mut dpu, &image));
        self.load_s += s;
        loaded.map_err(|e| e.to_string())?;
        let (first, s) = timed(|| dpu.launch());
        self.launch_s += s;
        let (again, s) = timed(|| dpu.launch());
        self.relaunch_s += s;
        let (first, again) = (first.map_err(|e| e.to_string())?, again.map_err(|e| e.to_string())?);
        if (first.instructions, first.cycles) == (again.instructions, again.cycles) {
            Ok(())
        } else {
            Err("relaunch simulated different work".to_string())
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `f` with the calling thread pinned to one CPU of its mask, the
/// `turn`-th modulo their count, then restores the mask.
/// `std::thread::available_parallelism` counts that mask, so a
/// `launch_all` inside `f` simulates on this one thread; a caller that
/// passes its pass number runs each operation on every CPU in turn.
#[cfg(target_os = "linux")]
pub fn on_one_cpu<R>(turn: usize, f: impl FnOnce() -> R) -> R {
    /// Words of glibc's and musl's 1024-bit `cpu_set_t`.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut saved = [0u64; WORDS];
    let size = std::mem::size_of_val(&saved);
    // SAFETY: the call writes at most `size` bytes into a live local array.
    if unsafe { sched_getaffinity(0, size, saved.as_mut_ptr()) } != 0 {
        return f();
    }
    let cpus: Vec<usize> =
        (0..WORDS * 64).filter(|&c| saved[c / 64] >> (c % 64) & 1 == 1).collect();
    let cpu = cpus[turn % cpus.len()];
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: each call reads `size` bytes of a live local array.
    let pinned = unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0;
    let r = f();
    if pinned {
        // SAFETY: as above.
        unsafe { sched_setaffinity(0, size, saved.as_ptr()) };
    }
    r
}

#[cfg(not(target_os = "linux"))]
pub fn on_one_cpu<R>(_turn: usize, f: impl FnOnce() -> R) -> R {
    f()
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Ratio that reads 0 instead of NaN on an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host-cost and stall-attribution metrics of a set of DPU runs, suffixed
/// with the workload that ran them.
pub fn dpu_metrics(m: &mut Metrics, workload: &str, merged: &DpuRunStats, busy_s: f64) {
    let (instr, cycles) = (merged.instructions as f64, merged.cycles as f64);
    m.put(format!("dpu.host_ns_per_instr.{workload}"), ratio(busy_s * 1e9, instr), "ns");
    m.put(format!("dpu.host_ns_per_cycle.{workload}"), ratio(busy_s * 1e9, cycles), "ns");
    m.put(format!("dpu.instructions.{workload}"), instr, "count");
    m.put(format!("dpu.cycles.{workload}"), cycles, "count");
    m.put(format!("dpu.cycles_per_instr.{workload}"), ratio(cycles, instr), "ratio");
    m.put(format!("dpu.idle_memory_frac.{workload}"), ratio(merged.idle_memory, cycles), "ratio");
    m.put(
        format!("dpu.idle_revolver_frac.{workload}"),
        ratio(merged.idle_revolver, cycles),
        "ratio",
    );
    m.put(format!("dpu.idle_rf_frac.{workload}"), ratio(merged.idle_rf, cycles), "ratio");
}

/// `jobs.*` metrics of one `JobRunner::map` call.
pub fn job_metrics(m: &mut Metrics, workload: &str, item_secs: &[f64], workers: usize, map_s: f64) {
    let busy: f64 = item_secs.iter().sum();
    let slots = workers.min(item_secs.len()).max(1) as f64;
    m.put(format!("jobs.busy_s.{workload}"), busy, "s");
    m.put(format!("jobs.idle_frac.{workload}"), 1.0 - ratio(busy, slots * map_s), "ratio");
    m.put(format!("jobs.max_job_s.{workload}"), item_secs.iter().copied().fold(0.0, f64::max), "s");
}

/// FNV-1a over `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let h = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    format!("{h:016x}")
}

/// Object field lookup on a parsed document.
pub fn field<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(j: &Json) -> Option<u64> {
    match *j {
        Json::UInt(v) => Some(v),
        Json::Int(v) => u64::try_from(v).ok(),
        _ => None,
    }
}

/// Runs `f`, turning a panic into an error message (a workload that fails
/// validation panics inside `SimJob::execute`; that is a failed operation,
/// not a crashed benchmark).
pub fn catch<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}
