//! The PIMulator-RS benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--record]
//! ```
//!
//! `--trace 0` sets each workload up several times, then repeats its pass
//! until `--seconds` have passed and prints the end-to-end metrics.
//! `--trace 1` is a separate invocation that runs every workload once
//! untraced and once traced, timing each layer at its public call boundary,
//! and prints the per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod common;
mod multi;
mod scalar;
mod serve;

use std::process::ExitCode;
use std::time::Instant;

use pimulator::report::Json;

use common::{fold_min, median, peak_rss_mb, ratio, secs, Ctx, Metrics, Probes, Size, Work};

/// The benchmark's workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["dense-issue", "cycle-bound", "multi-dpu", "serve-steady"];

/// How many times `--trace 0` sets a workload up; `setup_s` is the median.
/// Each set-up runs one pass, so this is also the fewest passes a run takes.
const SETUPS: usize = 5;

/// One workload, driven through the simulator's public API.
pub trait Workload {
    /// One measured unit of work. Every simulated output is checked and
    /// tallied in `ctx`; with `layers`, per-layer metrics are recorded.
    fn pass(&mut self, ctx: &mut Ctx, layers: Option<&mut Metrics>) -> Work;

    /// The simulated work of one pass, for workloads whose pass cannot see
    /// it itself. Runs after the measured passes.
    fn account(&mut self, _ctx: &mut Ctx, work: Work) -> Work {
        work
    }

    /// Traced-run probes outside the pass (build/load/launch timings).
    fn probe(&mut self, _ctx: &mut Ctx, _probes: &mut Probes, _layers: &mut Metrics) {}
}

fn build(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "dense-issue" => Box::new(scalar::Scalar::dense_issue(ctx.size)?),
        "cycle-bound" => Box::new(scalar::Scalar::cycle_bound(ctx.size)?),
        "multi-dpu" => Box::new(multi::Multi::new(ctx.size)),
        "serve-steady" => Box::new(serve::Serve::new(ctx.size, ctx.seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    record: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <dense-issue|cycle-bound|multi-dpu|serve-steady|all> \
--seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--record]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        record: false,
    };
    let mut seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{v}`");
        match flag.as_str() {
            "--workload" => args.workload = v.clone(),
            "--seed" => seed = Some(v.parse().map_err(|_| bad())?),
            "--seconds" => args.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                args.size = match v.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    args.seed = seed.ok_or("--seed is required")?;
    if args.record && !args.trace {
        // Only the traced run passes over every workload, so only it can
        // rewrite the whole file.
        return Err("--record needs --trace 1".to_string());
    }
    Ok(args)
}

/// `--trace 0` for one workload: set up [`SETUPS`] times, then repeat the
/// pass until `seconds` have passed since the first set-up began.
///
/// `best_pass_s` sums, over the pass's operations, each one's fastest time
/// in any pass of the run. The host this was sized on slows single vCPUs
/// by up to 1.8x for seconds at a time; the fastest time of each operation
/// over many passes stays put from run to run, where a pass median does
/// not.
fn end_to_end(name: &str, ctx: &mut Ctx, seconds: f64) -> Result<Metrics, String> {
    let start = Instant::now();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut best = Vec::new();
    let mut work = Work::default();
    let mut wl = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut w = build(name, ctx)?;
        work = w.pass(ctx, None);
        setups.push(secs(t));
        fold_min(&mut best, &work.op_s);
        wl = Some(w);
    }
    let mut wl = wl.expect("at least one setup");
    let mut passes = SETUPS;
    while secs(start) < seconds {
        work = wl.pass(ctx, None);
        fold_min(&mut best, &work.op_s);
        passes += 1;
    }
    let work = wl.account(ctx, work);
    let pass: f64 = best.iter().sum();
    eprintln!("{name}: {passes} passes, best pass {pass:.3} s, setups {setups:.3?}");
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("best_pass_s", pass, "s");
    m.put("sim_minstr_per_s", ratio(work.instructions as f64, pass) / 1e6, "M/s");
    m.put("sim_mcycles_per_s", ratio(work.cycles as f64, pass) / 1e6, "M/s");
    m.put("sim_requests_per_s", ratio(work.requests as f64, pass), "1/s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(m)
}

/// `--trace 1`: every workload, warm-up + untraced + traced pass, then
/// the probes outside the pass.
fn traced(ctx: &mut Ctx) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let mut probes = Probes::default();
    for name in WORKLOADS {
        let mut wl = build(name, ctx)?;
        wl.pass(ctx, None);
        let t = Instant::now();
        wl.pass(ctx, None);
        let plain = secs(t);
        let t = Instant::now();
        let work = wl.pass(ctx, Some(&mut m));
        let traced = secs(t);
        m.put(format!("trace.overhead_frac.{name}"), traced / plain - 1.0, "ratio");
        wl.account(ctx, work);
        wl.probe(ctx, &mut probes, &mut m);
    }
    m.put("asm.build_s", probes.build_s, "s");
    m.put("dpu.load_s", probes.load_s, "s");
    m.put("dpu.launch_s", probes.launch_s, "s");
    m.put("dpu.relaunch_s", probes.relaunch_s, "s");
    Ok(m)
}

/// `--workload all`: each workload in its own child process (so each
/// `peak_rss_mb` is its own), one after the other; metrics are suffixed
/// with the workload name.
fn all(args: &[String]) -> Result<(Metrics, u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    for name in WORKLOADS {
        let mut child_args = args.to_vec();
        let i = child_args.iter().position(|a| a == "--workload").expect("parsed");
        child_args[i + 1] = name.to_string();
        let out = std::process::Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().ok_or_else(|| format!("{name}: no output"))?;
        let doc = Json::parse(last).map_err(|e| format!("{name}: {e}"))?;
        let count = |k| match common::field(&doc, k) {
            Some(Json::UInt(v)) => *v,
            _ => 0,
        };
        attempted += count("attempted");
        failed += count("failed");
        if let Some(Json::Obj(metrics)) = common::field(&doc, "metrics") {
            for (k, v) in metrics {
                let value = match common::field(v, "value") {
                    Some(Json::Num(x)) => *x,
                    _ => f64::NAN,
                };
                let unit = match common::field(v, "unit") {
                    Some(Json::Str(u)) => u.as_str(),
                    _ => "",
                };
                m.put(format!("{k}.{name}"), value, unit);
            }
        }
        if !out.status.success() {
            return Err(format!("{name} exited with {}", out.status));
        }
    }
    Ok((m, attempted, failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = match Ctx::new(args.size, args.seed, args.record) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.trace {
        traced(&mut ctx)
    } else if args.workload == "all" {
        all(&std::env::args().skip(1).collect::<Vec<_>>()).map(|(m, a, f)| {
            ctx.ops(a, f);
            m
        })
    } else {
        end_to_end(&args.workload, &mut ctx, args.seconds)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.record {
        if let Err(e) = ctx.save() {
            eprintln!("perfbench: cannot write {}: {e}", common::EXPECTED_PATH);
            return ExitCode::FAILURE;
        }
    }
    for x in &metrics.0 {
        println!("{:<40} {:>16.6} {}", x.name, x.value, x.unit);
    }
    let doc = Json::obj([
        ("correct", Json::Bool(ctx.failed == 0)),
        ("attempted", Json::UInt(ctx.attempted)),
        ("failed", Json::UInt(ctx.failed)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{}", doc.render());
    ExitCode::SUCCESS
}
