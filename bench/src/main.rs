//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//! cargo run --release --manifest-path bench/Cargo.toml -- --all [--trace]
//! cargo run --release --manifest-path bench/Cargo.toml -- --smoke
//! cargo run --release --manifest-path bench/Cargo.toml -- --selfcheck
//! cargo run --release --manifest-path bench/Cargo.toml -- --compare A.json B.json
//! ```
//!
//! One process runs one pass of one workload: the *untraced* pass prints
//! the end-to-end metrics, the *traced* pass repeats the workload with
//! spans around every call into a layer and prints the per-layer
//! metrics. `--all`, `--smoke` and `--selfcheck` fan out over child
//! processes of this binary (so `host_peak_rss_mb` is one workload's).
//! See `bench/README.md`.

mod layers;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::Values;
use report::{Context, PassResult};
use stats::Summary;
use trace::Tracer;
use workloads::{LayerCtx, Rep, Workload, WorkloadInfo, WORKLOADS};

/// Default `--seconds`, and `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;
/// Set-ups timed per untraced pass (`setup_s` is their median): one
/// before the repetitions and the rest after, when the host is warm.
const SETUPS: usize = 5;
/// Untimed repetitions run for this long before anything is measured:
/// a host whose idle cores take about a second of load to reach full
/// speed (the reference sandbox does) would otherwise put its slowest
/// repetitions at the start of every pass.
const WARMUP_SECONDS: f64 = 1.5;
/// Repetitions of a smoke pass.
const SMOKE_REPS: usize = 3;
/// Share of `--seconds` the traced pass spends on paired repetitions;
/// the rest of its time goes to replays, ladders and probes.
const TRACED_REP_SHARE: f64 = 0.4;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    selfcheck: bool,
    compare: Option<(PathBuf, PathBuf)>,
    seed: u64,
    seconds: u64,
    /// `None` without `--trace`; bare `--trace` means `Some(true)`.
    trace: Option<bool>,
    out: PathBuf,
}

const USAGE: &str = "usage: bench (--workload <name> | --all | --smoke | --selfcheck | \
--compare <a.json> <b.json>) [--seed <n>] [--seconds <1..60>] [--trace [0|1]] [--out <dir>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        smoke: false,
        selfcheck: false,
        compare: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        out: default_out_dir(),
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                if workloads::find(&name).is_none() {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload `{name}` (known: {known:?})"));
                }
                args.workload = Some(name);
            }
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value(&mut it, flag)?),
                    PathBuf::from(value(&mut it, flag)?),
                ));
            }
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must lie in 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--out" => args.out = PathBuf::from(value(&mut it, flag)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // `--smoke` alone means a smoke run of everything; with `--workload`
    // or `--all` it shortens that mode's passes.
    let modes = usize::from(args.workload.is_some())
        + usize::from(args.all)
        + usize::from(args.selfcheck)
        + usize::from(args.compare.is_some());
    if modes == 0 && args.smoke {
        args.all = true;
    } else if modes != 1 {
        return Err("choose exactly one mode".into());
    } else if args.smoke && args.selfcheck {
        // Three cold repetitions say nothing about repeatability.
        return Err("--selfcheck compares full runs; it cannot be combined with --smoke".into());
    }
    Ok(args)
}

/// `out/` inside this package's directory.
fn default_out_dir() -> PathBuf {
    report::package_dir().join("out")
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repetitions of one pass, with the cross-repetition checks.
#[derive(Default)]
struct Reps {
    walls: Vec<f64>,
    first: Option<Rep>,
    attempted: u64,
    failed: u64,
}

impl Reps {
    fn push(&mut self, rep: Rep) {
        self.walls.push(rep.wall_s);
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        match &self.first {
            None => self.first = Some(rep),
            Some(first) => {
                // Every simulated value must repeat bit for bit.
                let same = first.sim.len() == rep.sim.len()
                    && first
                        .sim
                        .iter()
                        .zip(&rep.sim)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
                let drift = !same
                    || first.msgs != rep.msgs
                    || first.sim_instr.to_bits() != rep.sim_instr.to_bits();
                if drift {
                    eprintln!("a repetition's simulated values differ from the first one's");
                    self.failed += 1;
                }
            }
        }
    }

    fn first(&self) -> &Rep {
        self.first
            .as_ref()
            .expect("a pass runs at least one repetition")
    }
}

/// Discard repetitions until the host is warm (none in a smoke run,
/// which trades steadiness for speed).
fn warm_up(w: &mut dyn Workload, tr: &mut Tracer, smoke: bool) {
    let started = Instant::now();
    while !smoke && started.elapsed().as_secs_f64() < WARMUP_SECONDS {
        w.rep(tr);
    }
}

/// Has a repetition loop run long enough? At least [`SMOKE_REPS`]
/// repetitions — exactly that many in a smoke run — and `seconds`.
fn enough(smoke: bool, reps: usize, started: Instant, seconds: f64) -> bool {
    reps >= SMOKE_REPS && (smoke || started.elapsed().as_secs_f64() >= seconds)
}

fn timed_setup(info: &WorkloadInfo, seed: u64, tr: &mut Tracer) -> (Box<dyn Workload>, f64) {
    let t = Instant::now();
    let w = (info.setup)(seed, tr);
    (w, t.elapsed().as_secs_f64())
}

/// The untraced pass: timed set-ups, then repetitions back to back for
/// `seconds`, tracing off.
fn untraced_pass(info: &'static WorkloadInfo, seed: u64, seconds: u64, smoke: bool) -> PassResult {
    let mut tr = Tracer::new(false);
    let mut setups = Vec::new();
    let (mut w, s) = timed_setup(info, seed, &mut tr);
    setups.push(s);
    warm_up(w.as_mut(), &mut tr, smoke);

    let mut reps = Reps::default();
    let started = Instant::now();
    loop {
        reps.push(w.rep(&mut tr));
        if enough(smoke, reps.walls.len(), started, seconds as f64) {
            break;
        }
    }
    drop(w);
    // The remaining set-ups run on a warm host: the first one of a
    // process pays for cold caches and sleeping cores, which `setup_s`
    // as a median must not be hostage to.
    for _ in 1..if smoke { 1 } else { SETUPS } {
        setups.push(timed_setup(info, seed, &mut tr).1);
    }

    let wall = Summary::of(&reps.walls);
    let first = reps.first();
    let mut values = Values::default();
    values.set("setup_s", stats::median(&setups));
    values.set("host_msgs_per_s", first.msgs as f64 / wall.quiet());
    values.set("host_sim_instr_per_s", first.sim_instr / wall.quiet());
    values.set("host_peak_rss_mb", peak_rss_mb());
    for (name, v) in &first.sim {
        if metrics::END_TO_END.iter().any(|d| d.name == *name) {
            values.set(name, *v);
        }
    }
    println!(
        "   repetitions: {} × {} msgs, wall ms q1 {:.3} median {:.3} q3 {:.3} p90 {:.3} \
         (iqr {:.2} % of median; highest percentile with ≥10 samples beyond: {}); {} set-ups",
        wall.n,
        first.msgs,
        wall.q1 * 1e3,
        wall.median * 1e3,
        wall.q3 * 1e3,
        wall.p90 * 1e3,
        wall.iqr_share() * 100.0,
        wall.tail.map_or("none".to_string(), |(q, v)| format!(
            "p{q} = {:.3} ms",
            v * 1e3
        )),
        setups.len()
    );
    for (name, v) in &first.sim {
        if let Some(d) = metrics::PER_LAYER.iter().find(|d| d.name == *name) {
            println!("   (also observed) {:<30} {:>16.4} {}", d.name, v, d.unit);
        }
    }
    PassResult {
        workload: info.name,
        traced: false,
        attempted: reps.attempted,
        failed: reps.failed,
        values,
    }
}

/// The traced pass: repetitions alternate tracer-off and tracer-on (the
/// difference prices the tracer), then the workload replays its layers.
fn traced_pass(
    info: &'static WorkloadInfo,
    seed: u64,
    seconds: u64,
    smoke: bool,
    out: &Path,
) -> Result<PassResult, String> {
    let mut tr = Tracer::new(true);
    let mut w = tr.span("bench.setup", |tr| (info.setup)(seed, tr));
    tr.set_enabled(false);
    warm_up(w.as_mut(), &mut tr, smoke);

    let (mut off, mut on) = (Reps::default(), Reps::default());
    let started = Instant::now();
    loop {
        tr.set_enabled(false);
        off.push(w.rep(&mut tr));
        tr.set_enabled(true);
        tr.set_rep(on.walls.len() as u32 + 1);
        on.push(tr.span("bench.rep", |tr| w.rep(tr)));
        if enough(
            smoke,
            on.walls.len(),
            started,
            seconds as f64 * TRACED_REP_SHARE,
        ) {
            break;
        }
    }
    tr.set_rep(0);

    let off_wall = Summary::of(&off.walls);
    let on_wall = Summary::of(&on.walls);
    let mut values = Values::default();
    for (name, v) in &on.first().sim {
        if metrics::PER_LAYER.iter().any(|d| d.name == *name) {
            values.set(name, *v);
        }
    }
    let ctx = LayerCtx {
        rep_wall_s: off_wall.quiet(),
        quick: smoke,
    };
    values.extend(w.layers(&mut tr, &ctx));
    values.set(
        "simt_sim.timing.host_ns_per_replayed_op",
        layers::timing_probe(&mut tr, smoke),
    );
    values.set("obs.span.host_ns_per_record", layers::span_record_probe());

    // Budget: self time of every layer span inside a repetition, against
    // the repetitions' own duration. What is missing is the benchmark's
    // glue between layer calls.
    let (mut layer_self_ns, mut rep_ns) = (0u64, 0u64);
    for (s, self_ns) in tr.spans().iter().zip(tr.self_ns()) {
        match (s.rep, s.name) {
            (0, _) => {}
            (_, "bench.rep") => rep_ns += s.end_ns - s.start_ns,
            _ => layer_self_ns += self_ns,
        }
    }
    let coverage = layer_self_ns as f64 / rep_ns.max(1) as f64;

    values.set(
        "bench.trace_overhead_share",
        (on_wall.quiet() - off_wall.quiet()) / off_wall.quiet(),
    );
    values.set("bench.budget_coverage", coverage);
    values.set("bench.rep_wall_iqr_share", off_wall.iqr_share());
    values.set("bench.rep_wall_p90_ms", off_wall.p90 * 1e3);
    values.set("bench.reps", off_wall.n as f64);
    let (attempted, failed) = (off.attempted + on.attempted, off.failed + on.failed);
    values.set("failed_ops_share", failed as f64 / attempted.max(1) as f64);

    println!("   layer self times over the traced pass (spans recorded from bench/ only):");
    println!(
        "   {:<34} {:>8} {:>14} {:>14}",
        "span", "calls", "total ms", "self ms"
    );
    for (name, t) in &tr.layer_times() {
        println!(
            "   {:<34} {:>8} {:>14.3} {:>14.3}",
            name,
            t.calls,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6
        );
    }
    if !(0.9..=1.1).contains(&coverage) {
        println!(
            "   note: bench.budget_coverage {coverage:.3} is outside 0.9–1.1: the benchmark's own \
             glue between layer calls is a visible share of the repetition (see bench/README.md)"
        );
    }

    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("trace-{}.json", info.name));
    std::fs::write(&path, tr.to_perfetto(info.name))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("   trace: {} ({} spans)", path.display(), tr.spans().len());

    Ok(PassResult {
        workload: info.name,
        traced: true,
        attempted,
        failed,
        values,
    })
}

/// Run one pass of one workload in this process.
fn run_pass(args: &Args, name: &str) -> Result<bool, String> {
    let info = workloads::find(name).expect("validated while parsing");
    let traced = args.trace.unwrap_or(false);
    let ctx = Context::gather(info.name, &(info.constants)(), args.seed);
    ctx.print(info.name, traced);
    println!("   why: {}", info.why);
    let result = if traced {
        traced_pass(info, args.seed, args.seconds, args.smoke, &args.out)?
    } else {
        untraced_pass(info, args.seed, args.seconds, args.smoke)
    };
    result.print();

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!(
        "result-{}-trace{}.json",
        info.name,
        u8::from(traced)
    ));
    std::fs::write(&path, result.to_json(&ctx)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", result.contract_line());
    Ok(result.correct())
}

/// Run every workload (and, with `--trace`, its traced pass) as child
/// processes of this binary, results under `out`.
fn run_all(args: &Args, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let passes: &[bool] = match (args.smoke, args.trace) {
        // A smoke run stays under ten seconds: untraced passes only.
        (true, _) | (false, None) | (false, Some(false)) => &[false],
        (false, Some(true)) => &[false, true],
    };
    let mut ok = true;
    for info in WORKLOADS {
        for &traced in passes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", info.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(out);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // `status()` waits for the child; its output goes straight
            // to ours.
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                eprintln!(
                    "{} ({} pass) failed: {status}",
                    info.name,
                    report::pass_name(traced)
                );
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// Run the full set twice on this commit and compare the two: every
/// bounded `host_*` metric within its bound, every `sim_*` metric and
/// stall share equal.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let args = Args {
        // The stall shares and most `sim_*` values live in the traced pass.
        trace: Some(true),
        ..args.clone()
    };
    let dirs = [args.out.join("selfcheck-a"), args.out.join("selfcheck-b")];
    let mut ok = true;
    for dir in &dirs {
        ok &= run_all(&args, dir)?;
    }
    let mut violations = 0;
    for info in WORKLOADS {
        for traced in [false, true] {
            let file = format!("result-{}-trace{}.json", info.name, u8::from(traced));
            let (a, b) = (dirs[0].join(&file), dirs[1].join(&file));
            if a.exists() || b.exists() {
                violations += report::compare_files(&a, &b)?;
            }
        }
    }
    println!("selfcheck: {violations} metric(s) out of tolerance");
    Ok(ok && violations == 0)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let violations = report::compare_files(a, b)?;
        println!("{violations} metric(s) out of tolerance");
        return Ok(violations == 0);
    }
    if args.selfcheck {
        return selfcheck(args);
    }
    if args.all {
        return run_all(args, &args.out);
    }
    let name = args.workload.as_deref().expect("one mode was chosen");
    run_pass(args, name)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload svc-hash --seed 42 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("svc-hash"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10, Some(false)));
        let a = parse("--workload svc-hash --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.trace, Some(true));
    }

    #[test]
    fn bare_trace_means_traced_and_does_not_eat_the_next_flag() {
        let a = parse("--workload match-unexpected --trace --seed 3").unwrap();
        assert_eq!((a.trace, a.seed), (Some(true), 3));
        let a = parse("--all --trace").unwrap();
        assert!(a.all && a.trace == Some(true));
        assert_eq!(parse("--all").unwrap().seconds, RUN_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload svc-hash --all").is_err());
        assert!(parse("--all --seconds 0").is_err());
        assert!(parse("--all --seconds 61").is_err());
        assert!(parse("--all --seed x").is_err());
        assert!(parse("--compare only-one.json").is_err());
        assert!(parse("--all --frobnicate").is_err());
        assert!(parse("--smoke --selfcheck").is_err());
        assert!(parse("--smoke").unwrap().all);
        assert!(parse("--workload svc-hash --smoke").is_ok());
    }

    #[test]
    fn drift_in_a_simulated_value_fails_the_pass() {
        let rep = |sim: f64| Rep {
            wall_s: 0.1,
            msgs: 10,
            attempted: 10,
            failed: 0,
            sim_instr: 5.0,
            sim: vec![("sim_msgs_per_s", sim)],
        };
        let mut reps = Reps::default();
        reps.push(rep(1.0));
        reps.push(rep(1.0));
        assert_eq!((reps.attempted, reps.failed), (20, 0));
        reps.push(rep(1.0 + f64::EPSILON));
        assert_eq!(reps.failed, 1);
    }
}
