//! Host-cost benchmark of the hcs simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <knee|datacenter|catalog> --seed <n> --seconds <s> --trace <0|1>
//! cargo run ... -- repeat --workload <name|all> --runs <n> [--seconds <s>] [--seed <first>]
//! cargo run ... -- selftest
//! ```
//!
//! A run repeats whole passes of its workload for `--seconds` seconds
//! and prints the medians of the end-to-end metrics (`--trace 0`), or
//! makes one traced pass on one worker and prints the per-layer metrics
//! (`--trace 1`). The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.

mod checks;
mod layers;
mod repeat;
mod selftest;
mod stats;
mod workloads;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use workloads::Kind;

/// Setups timed per pass; `setup_s` is the median over all of them.
const SETUP_REPS: usize = 25;

/// One named metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite f64 in JSON, every digit kept (Rust's shortest round-trip
/// form).
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        runs: 10,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds takes a positive number".to_string())?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--runs" => {
                args.runs = value()?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| "--runs takes a positive integer".to_string())?
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Pins the deck executor's worker pool to one worker. With two, the
/// peak RSS of a run depended on how the workers' allocations happened
/// to overlap (34 or 40 MB on `datacenter`); with one it is a property
/// of the work, and CPU seconds are about the same.
fn pin_one_worker() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds this process has used, all threads together.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call; the clock id is the
    // process CPU-time clock, which always exists on Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's resident-set high-water mark, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The seed of pass `pass` of a run seeded `seed`: SplitMix64 over both,
/// cut to 32 bits like the shipped decks' seeds (result JSON carries
/// numbers as f64, so a seed above 2^53 would not round-trip). Each
/// pass draws fresh inputs, so a run's medians cover a sample of inputs
/// rather than one, while the same `seed` still gives the same inputs.
pub fn pass_seed(seed: u64, pass: u32) -> u64 {
    let mut z = seed ^ u64::from(pass).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xFFFF_FFFF
}

/// Runs passes of a workload for `seconds` and reports the medians of
/// the end-to-end metrics. Times are CPU seconds of this process (all
/// threads): the kernel leaves out time the hypervisor stole from the
/// VM, which elapsed time on a shared host does not.
fn measure(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    pin_one_worker();
    let start = Instant::now();
    let (mut setups, mut runs, mut walls, mut elapsed) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed, mut passes) = (0u64, 0u64, 0u32);
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let pass_seed = pass_seed(seed, passes);
        passes += 1;
        let mut prepared = None;
        let mut first_setup = 0.0;
        for i in 0..SETUP_REPS {
            let c = cpu_seconds();
            let p = workloads::setup(kind, pass_seed)?;
            let dt = cpu_seconds() - c;
            setups.push(dt);
            if i == 0 {
                first_setup = dt;
                prepared = Some(p);
            } else {
                black_box(p);
            }
        }
        let prepared = prepared.expect("at least one setup");
        let ops = checks::operations(&prepared);
        let pass = catch_unwind(AssertUnwindSafe(|| {
            let (t, c) = (Instant::now(), cpu_seconds());
            let out = workloads::run(&prepared)?;
            let (run_elapsed, run_s) = (t.elapsed().as_secs_f64(), cpu_seconds() - c);
            let c = cpu_seconds();
            let trip = workloads::round_trip(out.report())?;
            let report_s = cpu_seconds() - c;
            Ok::<_, String>((out, trip, run_s, report_s, run_elapsed))
        }));
        let (out, trip, run_s, report_s, run_elapsed) = match pass {
            Ok(r) => r?,
            Err(_) => {
                // A panicking pass fails every operation it attempted.
                attempted += ops;
                failed += ops;
                continue;
            }
        };
        runs.push(run_s);
        walls.push(first_setup + run_s + report_s);
        elapsed.push(run_elapsed);
        let verdict = checks::check(&prepared, &out, &trip);
        for note in &verdict.notes {
            eprintln!("check failed: {note}");
        }
        attempted += verdict.attempted;
        failed += verdict.failed;
        if let Some(info) = verdict.info {
            eprintln!("{info}");
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: every pass panicked", kind.name()));
    }
    eprintln!(
        "{}: {} passes; run CPU s per pass {:?}; run elapsed s per pass {:?}",
        kind.name(),
        runs.len(),
        runs,
        elapsed
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", stats::median(&setups), "s"),
            Metric::new("run_s", stats::median(&runs), "s"),
            Metric::new("wall_s", stats::median(&walls), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
        ],
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("repeat") => ("repeat", &argv[1..]),
        Some("selftest") => ("selftest", &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let result = parse_args(rest).and_then(|args| match command {
        "repeat" => repeat::main(&args).map(|()| None),
        "selftest" => selftest::main().map(|()| None),
        _ => {
            let kind = Kind::parse(&args.workload).ok_or_else(|| {
                format!(
                    "--workload must be one of: {}",
                    Kind::ALL.map(Kind::name).join(", ")
                )
            })?;
            if args.trace {
                layers::traced(kind, args.seed).map(Some)
            } else {
                measure(kind, args.seed, args.seconds).map(Some)
            }
        }
    });
    match result {
        Ok(Some(outcome)) => {
            for m in &outcome.metrics {
                println!("{} {} {}", m.name, json_number(m.value), m.unit);
            }
            println!(
                "attempted {} failed {} correct {}",
                outcome.attempted, outcome.failed, outcome.correct
            );
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
