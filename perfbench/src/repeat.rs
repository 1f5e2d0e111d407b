//! The repeat command: runs a workload N times, each in its own process
//! with its own seed, and prints each metric's median, quartiles and
//! spread (interquartile range over the median) — the figures the
//! bounds in `BENCHMARK.json` are set from.

use std::collections::BTreeMap;
use std::process::Command;

use crate::workloads::Kind;
use crate::{stats, Args};

/// One run's printed metrics and operation counts.
struct Run {
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
}

/// Runs the benchmark binary once and reads its `name value unit` and
/// `attempted … failed …` lines.
fn run_once(kind: Kind, seed: u64, args: &Args) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            kind.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    for line in String::from_utf8_lossy(&out.stderr).lines() {
        if line.starts_with("check failed") {
            eprintln!("{} seed {seed}: {line}", kind.name());
        }
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut run = Run {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["attempted", a, "failed", f, "correct", _] => {
                run.attempted = a.parse().map_err(|_| format!("bad line '{line}'"))?;
                run.failed = f.parse().map_err(|_| format!("bad line '{line}'"))?;
            }
            [name, value, unit] => {
                if let Ok(v) = value.parse::<f64>() {
                    run.metrics.push((name.to_string(), v, unit.to_string()));
                }
            }
            _ => {}
        }
    }
    Ok(run)
}

pub fn main(args: &Args) -> Result<(), String> {
    let kinds: Vec<Kind> = if args.workload == "all" {
        Kind::ALL.to_vec()
    } else {
        args.workload
            .split(',')
            .map(|w| Kind::parse(w).ok_or_else(|| format!("unknown workload '{w}'")))
            .collect::<Result<_, _>>()?
    };
    for kind in kinds {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let (mut attempted, mut failed) = (0, 0);
        for i in 0..args.runs {
            // Timed runs take a new seed each; traced runs repeat one
            // seed, whose counters must then repeat exactly.
            let seed = if args.trace {
                args.seed
            } else {
                args.seed + i as u64
            };
            let run = run_once(kind, seed, args)?;
            eprintln!(
                "{} seed {seed}: {}",
                kind.name(),
                run.metrics
                    .iter()
                    .map(|(n, v, u)| format!("{n}={v} {u}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            attempted += run.attempted;
            failed += run.failed;
            for (name, v, unit) in run.metrics {
                values.entry(name).or_insert((unit, Vec::new())).1.push(v);
            }
        }
        let last_seed = if args.trace {
            args.seed
        } else {
            args.seed + args.runs as u64 - 1
        };
        println!(
            "{} ({} runs, seeds {}..={last_seed}, --seconds {}, --trace {}): attempted {attempted} \
             failed {failed}",
            kind.name(),
            args.runs,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        println!(
            "  {:<24} {:>14} {:>14} {:>14} {:>9}  unit",
            "metric", "median", "q1", "q3", "spread"
        );
        for (name, (unit, v)) in &values {
            let median = stats::median(v);
            let (q1, q3) = stats::quartiles(v);
            let spread = if median != 0.0 {
                (q3 - q1) / median
            } else {
                0.0
            };
            let exact = v.iter().all(|x| x == &v[0]);
            println!(
                "  {name:<24} {median:>14.6} {q1:>14.6} {q3:>14.6} {:>8.2}%  {unit}{}",
                spread * 100.0,
                if exact {
                    "  (identical in every run)"
                } else {
                    ""
                }
            );
        }
    }
    Ok(())
}
