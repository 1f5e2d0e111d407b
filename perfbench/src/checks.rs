//! Output checks. Each is computed apart from the program or tests a
//! property the method must have; none compares against a stored copy
//! of an earlier output.

use hcs_core::{
    Arrival, Capacity, ChaosInvariant, ChaosReport, LatencyHistogram, StageScope, StorageSystem,
};
use hcs_experiments::figures::takeaways::TakeawayReport;
use hcs_experiments::{deck::build_system, shapes, DeckResult, Figure, PointResult};
use hcs_simkit::ProvenanceLog;

use crate::workloads::{Catalog, Kind, Output, Prepared, RoundTrip};

/// Poisson bound on an open-loop point's op count, in standard
/// deviations of the offered count.
const POISSON_SIGMAS: f64 = 6.0;
/// Well under the knee, the median latency stays within this factor of
/// one transfer's ideal service time.
const MEDIAN_FACTOR: f64 = 3.0;
/// "Well under the knee": offered load at most this share of the
/// point's capacity (an M/D/1 queue at this load responds in 1.5x its
/// service time on average).
const UNDER_KNEE_UTILIZATION: f64 = 0.5;
/// The datacenter jitter band, in multiples of the system's noise sigma
/// (the mean of three lognormal draws stays inside it with overwhelming
/// probability).
pub const JITTER_SIGMAS: f64 = 4.0;
/// Once the cut saturates, more clients leave every repetition's
/// bandwidth unchanged up to per-op start-up effects (measured below
/// 1e-4 relative from 10^5 to 10^6 clients).
const SATURATED_REL: f64 = 1e-3;

/// The result of checking one pass.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
    /// Informational output (takeaway errors, computed cuts).
    pub info: Option<String>,
}

/// Operations one pass attempts: deck points, chaos timelines,
/// takeaways and the report round trip.
pub fn operations(p: &Prepared) -> u64 {
    let round_trip = 1;
    match p.kind {
        Kind::Knee | Kind::Datacenter => p.points as u64 + round_trip,
        Kind::Catalog => {
            let campaign = p.campaign.as_ref().expect("catalog carries a campaign");
            let fig_points: usize = p.decks.iter().map(|d| d.expand().len()).sum();
            let timelines = campaign.base.expand().len() as u64 * campaign.population as u64;
            fig_points as u64 + timelines + TAKEAWAYS as u64 + round_trip
        }
    }
}

/// Checks one pass's outputs.
pub fn check(p: &Prepared, out: &Output, trip: &RoundTrip) -> Verdict {
    let mut v = Verdict {
        attempted: operations(p),
        ..Verdict::default()
    };
    match out {
        Output::Deck(r) if p.kind == Kind::Knee => knee(r, &mut v),
        Output::Deck(r) => datacenter(r, &mut v),
        Output::Catalog(c) => catalog(c, &mut v),
    }
    if !trip.identical {
        v.fail("report round trip: the parsed-back result differs from the original");
    } else if trip.markdown_bytes == 0 {
        v.fail("report round trip: the report rendered to nothing");
    }
    v.failed = v.failed.min(v.attempted);
    v
}

impl Verdict {
    fn fail(&mut self, note: impl Into<String>) {
        self.failed += 1;
        self.notes.push(note.into());
    }
}

fn histogram(p: &PointResult) -> Option<&LatencyHistogram> {
    Some(&p.metrics.as_ref()?.latency.first()?.histogram)
}

fn system_of(p: &PointResult) -> Box<dyn StorageSystem> {
    build_system(&p.scenario).0
}

/// The ideal service time of one transfer: transfer size over the
/// plan's per-stream bandwidth.
fn ideal_transfer_s(p: &PointResult) -> f64 {
    let phase = p.outcome.ior().config.phase();
    let graph = system_of(p).plan(p.nodes, p.ppn, &phase);
    phase.transfer_size / graph.per_stream_bw
}

/// One knee point's own checks; returns its p99 when the point has a
/// latency histogram.
fn knee_point(p: &PointResult) -> Result<f64, String> {
    let name = &p.scenario.name;
    let Arrival::Open { rate, duration, .. } = p.scenario.arrival else {
        return Err(format!("{name}: not an open-loop point"));
    };
    let hist = histogram(p).ok_or_else(|| format!("{name}: no latency histogram"))?;
    let count = hist.count() as f64;
    let offered = rate * duration;
    let slack = POISSON_SIGMAS * offered.sqrt() + 1.0;
    if (count - offered).abs() > slack {
        return Err(format!(
            "{name}: {count} ops completed, outside {offered} ± {slack:.1} (Poisson bound)"
        ));
    }
    let prov = p.metrics.as_ref().and_then(|m| m.provenance.as_ref());
    let prov = prov.ok_or_else(|| format!("{name}: no provenance record"))?;
    if prov.ops != hist.count() {
        return Err(format!(
            "{name}: provenance decomposed {} ops, the histogram holds {}",
            prov.ops,
            hist.count()
        ));
    }
    // Point totals are sums over ops in completion order, so they
    // reassemble only up to rounding; the traced run checks each op's
    // decomposition exactly.
    let reassembled =
        prov.queueing_seconds + prov.stall_seconds + prov.blame_seconds + prov.ideal_seconds;
    if (reassembled - prov.latency_seconds).abs() > 1e-9 * prov.latency_seconds {
        return Err(format!(
            "{name}: provenance terms sum to {reassembled}, the latency is {}",
            prov.latency_seconds
        ));
    }
    hist.p99().ok_or_else(|| format!("{name}: empty histogram"))
}

fn knee(r: &DeckResult, v: &mut Verdict) {
    let knees = r
        .metrics
        .as_ref()
        .map(|m| m.knees.as_slice())
        .unwrap_or(&[]);
    for (system, points) in r.by_system() {
        if !knees
            .iter()
            .any(|k| k.system == system && k.knee_rate.is_some())
        {
            v.fail(format!("{system}: no knee found inside the sweep"));
        }
        let mut last_p99 = 0.0;
        let mut under_knee = 0;
        for p in points {
            let p99 = match knee_point(p) {
                Ok(p99) => p99,
                Err(e) => {
                    v.fail(e);
                    continue;
                }
            };
            if p99 < last_p99 {
                v.fail(format!(
                    "{}: p99 {p99} s fell below the lower load's {last_p99} s",
                    p.scenario.name
                ));
            }
            last_p99 = p99;
            let Arrival::Open { rate, .. } = p.scenario.arrival else {
                continue;
            };
            if utilization(p, rate) > UNDER_KNEE_UTILIZATION {
                continue;
            }
            under_knee += 1;
            let ideal = ideal_transfer_s(p);
            let p50 = histogram(p).and_then(|h| h.p50()).unwrap_or(0.0);
            if !(p50 >= ideal && p50 <= MEDIAN_FACTOR * ideal) {
                v.fail(format!(
                    "{}: median latency {p50} s well under the knee is outside [{ideal}, {}] s",
                    p.scenario.name,
                    MEDIAN_FACTOR * ideal
                ));
            }
        }
        if under_knee == 0 {
            v.fail(format!("{system}: no point offered well under the knee"));
        }
    }
}

/// The narrowest stage of a point's plan, bytes/s: the minimum over
/// stages of count × capacity. Per-node stages count once per client
/// node when `per_node` is set and are skipped otherwise.
fn narrowest_stage(p: &PointResult, per_node: bool) -> f64 {
    let phase = p.outcome.ior().config.phase();
    let graph = system_of(p).plan(p.nodes, p.ppn, &phase);
    graph
        .stages
        .iter()
        .filter_map(|s| {
            let count = match s.scope {
                StageScope::Shared => 1.0,
                StageScope::Sharded { count } => f64::from(count),
                StageScope::PerNode if per_node => f64::from(p.nodes),
                StageScope::PerNode => return None,
            };
            let capacity = match s.capacity {
                Capacity::Bandwidth(b) => b,
                Capacity::OpsRate(r) => r / phase.ops_per_byte(),
            };
            Some(count * capacity)
        })
        .fold(f64::INFINITY, f64::min)
}

/// The narrowest stage the plan shares across nodes (the cut a
/// saturated datacenter point runs at), bytes/s.
pub fn cut_bandwidth(p: &PointResult) -> f64 {
    narrowest_stage(p, false)
}

/// An open-loop point's utilization: offered bytes/s over the smaller of
/// its narrowest stage and its ranks' combined stream bandwidth.
fn utilization(p: &PointResult, rate: f64) -> f64 {
    let phase = p.outcome.ior().config.phase();
    let graph = system_of(p).plan(p.nodes, p.ppn, &phase);
    let streams = f64::from(p.nodes * p.ppn) * graph.per_stream_bw;
    rate * phase.transfer_size / narrowest_stage(p, true).min(streams)
}

/// Checks one datacenter point against its cut: the noise-free run's
/// throughput may not exceed the cut and, saturated, sits just under
/// it; the mean over jittered repetitions stays inside the jitter band
/// around the cut.
pub fn against_cut(p: &PointResult) -> Result<(), String> {
    let name = &p.scenario.name;
    let cut = cut_bandwidth(p);
    let base = p.metrics.as_ref().map(|m| m.system_throughput);
    let base = base.ok_or_else(|| format!("{name}: no metrics"))?;
    if !(base <= cut * (1.0 + 1e-12) && base >= cut * (1.0 - SATURATED_REL)) {
        return Err(format!(
            "{name}: noise-free throughput {base} B/s is not within {SATURATED_REL} below the \
             {cut} B/s cut"
        ));
    }
    let sigma = system_of(p).noise_sigma();
    let mean = p.outcome.ior().outcome.summary.mean;
    let band = JITTER_SIGMAS * sigma;
    let off = (mean / cut).ln();
    // Written so that a NaN bandwidth fails too.
    let inside = off.abs() <= band;
    if !inside {
        return Err(format!(
            "{name}: mean bandwidth {:.4} GB/s is {:+.2}% off the {:.4} GB/s cut, outside the \
             ±{:.1}% jitter band",
            mean / 1e9,
            off * 100.0,
            cut / 1e9,
            band * 100.0
        ));
    }
    Ok(())
}

/// Equal length, and every pair within `rel` of each other.
fn same_within(a: &[f64], b: &[f64], rel: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= rel * y.abs())
}

fn datacenter(r: &DeckResult, v: &mut Verdict) {
    let mut cuts = Vec::new();
    for (system, points) in r.by_system() {
        cuts.push(format!(
            "{system} {:.1} GB/s",
            cut_bandwidth(points[0]) / 1e9
        ));
        let first = &points[0].outcome.ior().outcome.bandwidths;
        for p in points.iter() {
            if let Err(e) = against_cut(p) {
                v.fail(e);
            } else if !same_within(&p.outcome.ior().outcome.bandwidths, first, SATURATED_REL) {
                v.fail(format!(
                    "{}: saturated bandwidths {:?} differ from {}'s {:?}",
                    p.scenario.name,
                    p.outcome.ior().outcome.bandwidths,
                    points[0].scenario.name,
                    first
                ));
            }
        }
    }
    v.info = Some(format!("datacenter cuts: {}", cuts.join(", ")));
}

/// The §VII takeaways checked for direction.
const TAKEAWAYS: usize = 4;

/// One takeaway: its name, simulated value, the paper's value, and
/// whether the simulation points the same way as the paper.
pub struct Takeaway {
    pub name: &'static str,
    pub simulated: f64,
    pub paper: f64,
    pub same_direction: bool,
}

impl Takeaway {
    /// Relative error against the paper's number.
    pub fn error(&self) -> f64 {
        self.simulated / self.paper - 1.0
    }
}

/// The paper's numbers: "up to 8x" RDMA over TCP, ~90 % GPFS
/// sequential-to-random read drop, ~5x VAST over NVMe on fsync writes,
/// ~97 % compute time for ResNet-50.
pub fn takeaways(t: &TakeawayReport) -> [Takeaway; TAKEAWAYS] {
    [
        Takeaway {
            name: "RDMA over TCP (x)",
            simulated: t.rdma_over_tcp,
            paper: 8.0,
            same_direction: t.rdma_over_tcp > 1.0,
        },
        Takeaway {
            name: "GPFS seq-to-random read drop",
            simulated: t.gpfs_drop,
            paper: 0.90,
            same_direction: t.gpfs_seq_read > t.gpfs_rand_read,
        },
        Takeaway {
            name: "VAST over NVMe, fsync writes (x)",
            simulated: t.vast_over_nvme,
            paper: 5.0,
            same_direction: t.vast_over_nvme > 1.0,
        },
        Takeaway {
            name: "ResNet-50 compute fraction",
            simulated: t.resnet_compute_fraction,
            paper: 0.97,
            same_direction: t.resnet_compute_fraction > 0.5,
        },
    ]
}

fn series<'a>(figs: &'a [Figure], id: &str, label: &str) -> Option<&'a hcs_experiments::Series> {
    figs.iter().find(|f| f.id == id)?.series_named(label)
}

/// The paper's qualitative shapes, as `hcs_experiments::shapes`
/// predicates over the regenerated figures.
pub fn shape_checks(figs: &[Figure]) -> Vec<(&'static str, bool)> {
    let s = |id, label| series(figs, id, label);
    let holds = |f: Option<bool>| f.unwrap_or(false);
    vec![
        (
            "fig2a.scientific: GPFS scales with every doubling (x1.6)",
            holds(s("fig2a.scientific", "GPFS").map(|g| shapes::scales_with_factor(g, 1.6))),
        ),
        (
            "fig2a.scientific: VAST flat from 32 nodes (gateway ceiling)",
            holds(s("fig2a.scientific", "VAST").map(|g| shapes::saturates_from(g, 32.0, 0.10))),
        ),
        (
            "fig2a.analytics: GPFS above VAST everywhere",
            holds(
                s("fig2a.analytics", "GPFS")
                    .zip(s("fig2a.analytics", "VAST"))
                    .map(|(g, w)| shapes::dominates(g, w)),
            ),
        ),
        (
            "fig2b.ml: VAST flat from 4 nodes",
            holds(s("fig2b.ml", "VAST").map(|g| shapes::saturates_from(g, 4.0, 0.10))),
        ),
        (
            "fig2b.ml: NVMe scales linearly (x1.95)",
            holds(s("fig2b.ml", "NVMe").map(|g| shapes::scales_with_factor(g, 1.95))),
        ),
        (
            "fig3b/3c.scientific: Lustre ramps (x1.5) on Quartz and Ruby",
            holds(s("fig3b.scientific", "Lustre").map(|g| shapes::scales_with_factor(g, 1.5)))
                && holds(
                    s("fig3c.scientific", "Lustre").map(|g| shapes::scales_with_factor(g, 1.5)),
                ),
        ),
        (
            "fig3d.scientific: VAST 3-8x NVMe at 32 procs",
            holds(
                s("fig3d.scientific", "VAST")
                    .zip(s("fig3d.scientific", "NVMe"))
                    .and_then(|(a, b)| shapes::ratio_at(a, b, 32.0))
                    .map(|r| (3.0..8.0).contains(&r)),
            ),
        ),
    ]
}

/// How many timelines an invariant must be checked on: the empty-timeline
/// identity on each point's empty timeline; subset monotonicity (jitter-
/// free timelines) and capacity recovery (timelines whose last window
/// closes before the run ends) on at least one faulted timeline; the
/// stall invariants on every faulted timeline.
fn invariant_coverage(invariant: ChaosInvariant, r: &ChaosReport) -> (usize, usize) {
    let faulted = r.timelines - r.points;
    match invariant {
        ChaosInvariant::EmptyTimelineIdentity => (r.points, r.points),
        ChaosInvariant::SubsetMonotonicity | ChaosInvariant::RecoveryRestoresCapacity => {
            (1, faulted)
        }
        ChaosInvariant::StallWithinOutageWindows | ChaosInvariant::NoUnexplainedStall => {
            (faulted, faulted)
        }
    }
}

fn catalog(c: &Catalog, v: &mut Verdict) {
    for t in takeaways(&c.takeaways) {
        if !t.same_direction {
            v.fail(format!("takeaway '{}' points against the paper", t.name));
        }
    }
    for (name, ok) in shape_checks(&c.figures) {
        if !ok {
            v.fail(format!("shape does not hold: {name}"));
        }
    }
    for violation in &c.chaos.violations {
        v.fail(format!("chaos violation: {violation:?}"));
    }
    for invariant in ChaosInvariant::all() {
        if !c.chaos.invariants.iter().any(|s| s.invariant == invariant) {
            v.fail(format!("chaos invariant {invariant:?} was never checked"));
        }
    }
    for stat in &c.chaos.invariants {
        let (lo, hi) = invariant_coverage(stat.invariant, &c.chaos);
        if !(lo..=hi).contains(&stat.checked) || stat.passed != stat.checked {
            v.fail(format!(
                "chaos invariant {:?}: {} timelines checked (expected {lo}..={hi}), {} passed",
                stat.invariant, stat.checked, stat.passed
            ));
        }
    }
    if c.rendered_bytes == 0 {
        v.fail("figures rendered to no text");
    }
    v.info = Some(
        takeaways(&c.takeaways)
            .iter()
            .map(|t| {
                format!(
                    "takeaway {}: simulated {:.3}, paper {}, error {:+.1}%",
                    t.name,
                    t.simulated,
                    t.paper,
                    t.error() * 100.0
                )
            })
            .collect::<Vec<_>>()
            .join("\n"),
    );
}

/// Checks every op of a provenance log exactly: its shares sum to its
/// latency bit for bit (the ideal share is the canonical subtraction
/// chain's remainder), and the decomposed ops, weighted by the groups
/// each stands for, equal the histogram's count.
pub fn op_decomposition(name: &str, log: &ProvenanceLog, histogram_count: u64) -> Vec<String> {
    let mut notes = Vec::new();
    for op in &log.ops {
        if op.remainder().to_bits() != op.ideal.to_bits() {
            notes.push(format!(
                "{name}: op {:?} shares sum to {} s, its ideal share is {} s",
                op.id,
                op.remainder(),
                op.ideal
            ));
        }
    }
    let ops: u64 = log.ops.iter().map(|op| u64::from(op.groups)).sum();
    if ops != histogram_count {
        notes.push(format!(
            "{name}: {ops} ops decomposed, the histogram holds {histogram_count}"
        ));
    }
    notes
}
