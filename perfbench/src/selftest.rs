//! The self-test: every output check must pass on a real result and
//! reject a deliberately corrupted copy of it.

use hcs_core::Scenario;
use hcs_experiments::deck::build_system;

use crate::checks::{self, JITTER_SIGMAS};
use crate::layers;
use crate::workloads::{self, Kind, Output};

/// Runs a workload once and checks its real output, returning it with
/// its round trip.
fn clean(kind: Kind) -> Result<(workloads::Prepared, Output, workloads::RoundTrip), String> {
    let prepared = workloads::setup(kind, 1)?;
    let out = workloads::run(&prepared)?;
    let trip = workloads::round_trip(out.report())?;
    let v = checks::check(&prepared, &out, &trip);
    if v.failed != 0 {
        return Err(format!(
            "{}: the real output fails: {:?}",
            kind.name(),
            v.notes
        ));
    }
    println!("pass: {} checks accept the real output", kind.name());
    Ok((prepared, out, trip))
}

/// Expects `notes` to be non-empty: the check rejected the corruption.
fn rejected(what: &str, notes: &[String]) -> Result<(), String> {
    match notes.first() {
        Some(first) => {
            println!("pass: {what} is rejected ({first})");
            Ok(())
        }
        None => Err(format!("{what} was accepted")),
    }
}

fn knee() -> Result<(), String> {
    let (prepared, out, trip) = clean(Kind::Knee)?;
    let Output::Deck(result) = &out else {
        unreachable!("knee runs a deck")
    };

    let mut dropped = result.clone();
    let prov = dropped.points[0]
        .metrics
        .as_mut()
        .and_then(|m| m.provenance.as_mut());
    prov.ok_or("knee point without provenance")?.ops -= 1;
    let v = checks::check(&prepared, &Output::Deck(dropped), &trip);
    rejected(
        "a dropped op (provenance op count one below the histogram's)",
        &v.notes,
    )?;

    let scenario: &Scenario = &result.points[0].scenario;
    let (log, count) = layers::provenance_log(scenario)?;
    let clean_notes = checks::op_decomposition(&scenario.name, &log, count);
    if !clean_notes.is_empty() {
        return Err(format!(
            "the real per-op decomposition fails: {clean_notes:?}"
        ));
    }
    println!("pass: {} per-op decompositions are exact", log.ops.len());
    let mut ulp = log.clone();
    let op = ulp.ops.last_mut().ok_or("empty provenance log")?;
    op.ideal = f64::from_bits(op.ideal.to_bits() + 1);
    rejected(
        "a decomposition off by one ulp",
        &checks::op_decomposition(&scenario.name, &ulp, count),
    )?;
    let mut short = log;
    short.ops.pop();
    rejected(
        "a dropped op in the per-op log",
        &checks::op_decomposition(&scenario.name, &short, count),
    )
}

fn datacenter() -> Result<(), String> {
    let (prepared, out, trip) = clean(Kind::Datacenter)?;
    let Output::Deck(result) = &out else {
        unreachable!("datacenter runs a deck")
    };
    let mut above = result.clone();
    let m = above.points[0]
        .metrics
        .as_mut()
        .ok_or("datacenter point without metrics")?;
    m.system_throughput = checks::cut_bandwidth(&result.points[0]) * (1.0 + 1e-9);
    let v = checks::check(&prepared, &Output::Deck(above), &trip);
    rejected("noise-free bandwidth above the cut", &v.notes)?;

    let mut above = result.clone();
    let p = &mut above.points[0];
    let sigma = build_system(&p.scenario).0.noise_sigma();
    let factor = ((JITTER_SIGMAS + 1.0) * sigma).exp();
    let outcome = &mut p.outcome;
    if let hcs_experiments::WorkloadOutcome::Ior(report) = outcome {
        for b in &mut report.outcome.bandwidths {
            *b *= factor;
        }
        report.outcome.summary.mean *= factor;
    }
    let v = checks::check(&prepared, &Output::Deck(above), &trip);
    rejected(
        "mean bandwidth above the cut, past the jitter band",
        &v.notes,
    )
}

fn catalog() -> Result<(), String> {
    let (prepared, out, trip) = clean(Kind::Catalog)?;
    let Output::Catalog(c) = out else {
        unreachable!("catalog runs the catalog")
    };
    let mut flipped = c;
    let t = &mut flipped.takeaways;
    std::mem::swap(&mut t.gpfs_seq_read, &mut t.gpfs_rand_read);
    let v = checks::check(&prepared, &Output::Catalog(flipped), &trip);
    rejected("a takeaway with its direction flipped", &v.notes)
}

pub fn main() -> Result<(), String> {
    crate::pin_one_worker();
    knee()?;
    datacenter()?;
    catalog()?;
    println!("selftest: every check rejects its corruption");
    Ok(())
}
