//! The traced run: one pass of a workload on one worker, timed layer by
//! layer from outside, through the layers' public functions.
//!
//! Every point is driven through its public per-point entry point
//! (`run_workload_on` or the `hcs_ior` open-loop runner) on a system
//! wrapped in [`Instrumented`], which times and counts the planner
//! calls the run makes and stacks a counting [`FlowRecorder`] onto the
//! network it is handed. Observer costs come from running the same
//! decks through the plain, metered and provenance executors. The
//! traced outcomes must equal the untraced executors' bit for bit.
//! Times are CPU seconds of the process, like the timed run's.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use hcs_core::graph::PlanOptions;
use hcs_core::scenario::Workload;
use hcs_core::{DeploymentGraph, MetadataProfile, PhaseSpec, Provisioned, Recorder, StorageSystem};
use hcs_experiments::deck::{build_system, run_workload_on, WorkloadOutcome};
use hcs_experiments::figures::{self, takeaways};
use hcs_experiments::{
    run_deck, run_deck_with_metrics, run_deck_with_provenance, DeckResult, PointResult, Scale,
};
use hcs_simkit::{EpochFlowSample, FlowId, FlowNet, FlowRecorder, ProvenanceHandle, ProvenanceLog};
use serde::Serialize;

use crate::workloads::{self, Catalog, Kind, Output, Prepared};
use crate::{checks, cpu_seconds, stats, Metric, Outcome};

/// Work counted at the planner and solver boundaries. Every field but
/// `plan_s` is deterministic.
#[derive(Clone, Copy, Default)]
struct Counters {
    plan_calls: u64,
    classes: u64,
    plan_s: f64,
    epochs: u64,
    flow_visits: u64,
    peak_backlog: u64,
    ops: u64,
}

impl Counters {
    fn merge(&mut self, o: &Counters) {
        self.plan_calls += o.plan_calls;
        self.classes += o.classes;
        self.plan_s += o.plan_s;
        self.epochs += o.epochs;
        self.flow_visits += o.flow_visits;
        self.peak_backlog = self.peak_backlog.max(o.peak_backlog);
        self.ops += o.ops;
    }
}

type Shared = Arc<Mutex<Counters>>;

fn snapshot(shared: &Shared) -> Counters {
    *shared.lock().expect("no counter holder panics")
}

/// Counts solver epochs, flow-visits (active flows summed over epochs),
/// peak backlog (most flows active in one epoch) and completed flows.
/// A pure listener; it folds its counts into the shared total when the
/// network drops it.
struct EpochCounter {
    local: Counters,
    shared: Shared,
}

impl FlowRecorder for EpochCounter {
    fn on_flow_end(&mut self, _now: f64, _id: FlowId, _tag: u64, completed: bool) {
        self.local.ops += u64::from(completed);
    }

    fn on_epoch_rates(
        &mut self,
        _now: f64,
        samples: &[EpochFlowSample],
        _allocated: &[f64],
        _capacity: &[f64],
    ) {
        let active = samples.len() as u64;
        self.local.epochs += 1;
        self.local.flow_visits += active;
        self.local.peak_backlog = self.local.peak_backlog.max(active);
    }
}

impl Drop for EpochCounter {
    fn drop(&mut self) {
        if let Ok(mut shared) = self.shared.lock() {
            shared.merge(&self.local);
        }
    }
}

thread_local! {
    /// Provenance probes the open-loop points attached, in attach
    /// order. The traced run drives every point on this one thread.
    static PROBES: RefCell<Vec<ProvenanceHandle>> = const { RefCell::new(Vec::new()) };
}

/// A registry system wrapped to time and count the planner calls a run
/// makes and to observe the network it provisions. Everything else
/// forwards, so the wrapped system simulates exactly like the original.
struct Instrumented {
    inner: Box<dyn StorageSystem>,
    counters: Shared,
    /// Stack the counting recorder onto each fresh network.
    observe: bool,
    /// Also stack a per-op provenance probe (open-loop points).
    provenance: bool,
}

impl Instrumented {
    /// Attaches the observers to a fresh network. A network provisioned
    /// a second time (the DLIO checkpoint path) keeps the first pass's
    /// observers, so nothing is counted twice.
    fn observe(&self, net: &mut FlowNet) {
        if !self.observe || net.resource_count() > 0 {
            return;
        }
        net.stack_recorder(Box::new(EpochCounter {
            local: Counters::default(),
            shared: Arc::clone(&self.counters),
        }));
        if self.provenance {
            PROBES.with(|p| p.borrow_mut().push(ProvenanceHandle::attach(net)));
        }
    }

    fn planned(&self, start: f64, prov: &Provisioned) {
        let dt = cpu_seconds() - start;
        let classes = if prov.classes.is_empty() {
            prov.node_paths.len()
        } else {
            prov.classes.len()
        };
        let mut c = self.counters.lock().expect("no counter holder panics");
        c.plan_calls += 1;
        c.classes += classes as u64;
        c.plan_s += dt;
    }
}

impl StorageSystem for Instrumented {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn description(&self) -> String {
        self.inner.description()
    }

    fn plan(&self, nodes: u32, ppn: u32, phase: &PhaseSpec) -> DeploymentGraph {
        self.inner.plan(nodes, ppn, phase)
    }

    fn provision(&self, net: &mut FlowNet, nodes: u32, ppn: u32, phase: &PhaseSpec) -> Provisioned {
        self.observe(net);
        let start = cpu_seconds();
        let prov = self.inner.provision(net, nodes, ppn, phase);
        self.planned(start, &prov);
        prov
    }

    fn provision_classed(
        &self,
        net: &mut FlowNet,
        nodes: u32,
        ppn: u32,
        phase: &PhaseSpec,
        opts: &PlanOptions<'_>,
    ) -> Provisioned {
        self.observe(net);
        let start = cpu_seconds();
        let prov = self.inner.provision_classed(net, nodes, ppn, phase, opts);
        self.planned(start, &prov);
        prov
    }

    fn noise_sigma(&self) -> f64 {
        self.inner.noise_sigma()
    }

    fn metadata_profile(&self) -> MetadataProfile {
        self.inner.metadata_profile()
    }
}

/// One span: a layer's wall interval, with the span that caused it.
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Spans kept in memory and written out when the run ends. Times are
/// CPU seconds of the process since the run began.
struct Spans {
    origin: f64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: cpu_seconds(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Times `f` as a span named `name`, nested under the innermost
    /// open span; returns its result and duration in seconds.
    fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_s: cpu_seconds() - self.origin,
            end_s: 0.0,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end = cpu_seconds() - self.origin;
        self.spans[idx].end_s = end;
        (r, end - self.spans[idx].start_s)
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {:?}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"args\": {{\"parent\": {:?}}}}}",
                    s.name,
                    s.start_s * 1e6,
                    (s.end_s - s.start_s) * 1e6,
                    s.parent.map(|p| self.spans[p].name.as_str()).unwrap_or("")
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Serializes to compact JSON, the form bit-parity is judged on.
fn json<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("outcomes serialize")
}

/// One drive of every point through its public entry point. A timing
/// drive wraps the systems only to time their planner calls; a counting
/// drive also attaches the counting recorder (and, on open-loop points,
/// a per-op provenance probe), whose own cost is the tracing overhead.
struct Drive {
    counters: Shared,
    observe: bool,
    point_s: Vec<f64>,
    solve_s: f64,
    dlio_s: f64,
    /// Points whose traced outcome differs from the untraced one, or
    /// whose per-op decomposition fails.
    notes: Vec<String>,
}

impl Drive {
    fn new(observe: bool) -> Self {
        Drive {
            counters: Arc::default(),
            observe,
            point_s: Vec::new(),
            solve_s: 0.0,
            dlio_s: 0.0,
            notes: Vec::new(),
        }
    }

    /// Drives one point on an instrumented system and compares the
    /// outcome with the untraced executor's.
    fn point(&mut self, s: &hcs_core::Scenario, reference: &PointResult) {
        let (system, full_ppn) = build_system(s);
        let open_loop = !s.arrival.is_closed();
        let sys = Instrumented {
            inner: system,
            counters: Arc::clone(&self.counters),
            observe: self.observe,
            provenance: self.observe && open_loop,
        };
        let workload = s.resolved_workload(full_ppn);
        workload.validate();
        let (nodes, ppn) = (s.run_nodes(), s.run_ppn(full_ppn));
        let plan_before = snapshot(&self.counters).plan_s;
        let start = cpu_seconds();
        let ran = match &workload {
            Workload::Ior(config) if open_loop => {
                let mut rec = Recorder::new();
                hcs_ior::run_ior_open_loop_observed(
                    &sys,
                    config,
                    &s.arrival,
                    &s.faults,
                    Some(&mut rec),
                )
                .map(|(report, open)| (WorkloadOutcome::Ior(report), Some(open)))
                .map_err(|e| e.to_string())
            }
            _ if open_loop => Err("open loop on a non-IOR workload".to_string()),
            _ => Ok((run_workload_on(&sys, &workload, nodes, ppn), None)),
        };
        let dt = cpu_seconds() - start;
        let plan_dt = snapshot(&self.counters).plan_s - plan_before;
        self.point_s.push(dt);
        if matches!(workload, Workload::Dlio(_)) {
            self.dlio_s += dt;
        } else {
            self.solve_s += dt - plan_dt;
        }
        let (outcome, open) = match ran {
            Ok(r) => r,
            Err(e) => {
                self.notes.push(format!("{}: {e}", s.name));
                return;
            }
        };
        let mut same = json(&outcome) == json(&reference.outcome);
        if let Some(open) = open {
            let metrics = reference.metrics.as_ref();
            let hist = metrics
                .and_then(|m| m.latency.first())
                .map(|l| json(&l.histogram));
            let prov = metrics.and_then(|m| m.provenance.as_ref()).map(json);
            same &=
                hist == Some(json(&open.histogram)) && prov == open.provenance.as_ref().map(json);
            if self.observe {
                match PROBES.with(|p| p.borrow_mut().pop()) {
                    Some(probe) => self.notes.extend(checks::op_decomposition(
                        &s.name,
                        &probe.snapshot(),
                        open.histogram.count(),
                    )),
                    None => self
                        .notes
                        .push(format!("{}: no provenance probe attached", s.name)),
                }
            }
        }
        if !same {
            self.notes.push(format!(
                "{}: traced outcome differs from the untraced run",
                s.name
            ));
        }
    }
}

/// Runs one open-loop point with a per-op provenance probe attached and
/// returns the probe's log and the point's histogram count.
pub fn provenance_log(s: &hcs_core::Scenario) -> Result<(ProvenanceLog, u64), String> {
    let (system, full_ppn) = build_system(s);
    let sys = Instrumented {
        inner: system,
        counters: Arc::default(),
        observe: true,
        provenance: true,
    };
    let Workload::Ior(config) = s.resolved_workload(full_ppn) else {
        return Err(format!("{}: not an IOR point", s.name));
    };
    let (_, open) = hcs_ior::run_ior_open_loop_observed(&sys, &config, &s.arrival, &s.faults, None)
        .map_err(|e| format!("{}: {e}", s.name))?;
    let probe = PROBES.with(|p| p.borrow_mut().pop());
    let probe = probe.ok_or_else(|| format!("{}: no provenance probe attached", s.name))?;
    Ok((probe.snapshot(), open.histogram.count()))
}

/// Times a deck executor over every deck of a workload.
fn executor(
    spans: &mut Spans,
    name: &str,
    decks: &[hcs_core::Deck],
    run: fn(&hcs_core::Deck) -> DeckResult,
) -> (Vec<DeckResult>, f64) {
    spans.time(name, |_| decks.iter().map(run).collect())
}

/// Runs one traced pass of a workload and returns its per-layer
/// metrics.
pub fn traced(kind: Kind, seed: u64) -> Result<Outcome, String> {
    crate::pin_one_worker();
    // The inputs of the untraced run's first pass.
    let inputs = crate::pass_seed(seed, 0);
    let mut spans = Spans::new();

    // Setup, stage by stage.
    let (loaded, _) = spans.time("scenario.load", |_| workloads::load(kind, inputs));
    let (decks, campaign) = loaded?;
    let all_decks: Vec<&hcs_core::Deck> = decks
        .iter()
        .chain(campaign.as_ref().map(|c| &c.base))
        .collect();
    let (expanded, expand_s) = spans.time("scenario.expand", |_| {
        all_decks.iter().map(|d| d.expand()).collect::<Vec<_>>()
    });
    let points: usize = expanded.iter().map(Vec::len).sum();
    let (valid, validate_s) = spans.time("scenario.validate", |_| {
        workloads::validate(kind, &decks, campaign.as_ref())
    });
    valid?;
    let prepared = Prepared {
        kind,
        decks,
        campaign,
        points,
    };

    // The untraced executors, on one worker: their outcomes are the
    // reference, their time differences the observers' overheads.
    let (mut telemetry_s, mut provenance_s, mut chaos_s, mut timelines) = (0.0, 0.0, 0.0, 0);
    // `untraced_s` is the executor the workload itself runs.
    let (reference, output, untraced_s) = match kind {
        Kind::Knee | Kind::Datacenter => {
            let (_, plain) = executor(&mut spans, "executor.plain", &prepared.decks, run_deck);
            let (metered, metered_s) = executor(
                &mut spans,
                "executor.metered",
                &prepared.decks,
                run_deck_with_metrics,
            );
            telemetry_s = metered_s - plain;
            let (reference, reference_s) = if kind == Kind::Knee {
                let (prov, prov_s) = executor(
                    &mut spans,
                    "executor.provenance",
                    &prepared.decks,
                    run_deck_with_provenance,
                );
                provenance_s = prov_s - metered_s;
                (prov, prov_s)
            } else {
                (metered, metered_s)
            };
            // The host wall-clock field is the result's only
            // non-deterministic one; zeroed, the report's size repeats.
            let mut result = reference[0].clone();
            for m in result.points.iter_mut().filter_map(|p| p.metrics.as_mut()) {
                m.wall_clock_seconds = 0.0;
            }
            (reference, Output::Deck(result), reference_s)
        }
        Kind::Catalog => {
            let (reference, plain) =
                executor(&mut spans, "executor.plain", &prepared.decks, run_deck);
            let (figures, _) = spans.time("figures.all_figures", |_| {
                figures::all_figures(Scale::Paper)
            });
            let rendered_bytes = workloads::render_figures(&figures);
            let (takeaways, _) =
                spans.time("takeaways.measure", |_| takeaways::measure(Scale::Paper));
            let campaign = prepared
                .campaign
                .as_ref()
                .expect("catalog carries a campaign");
            let (chaos, dt) = spans.time("chaos.run_chaos_campaign", |_| {
                hcs_experiments::run_chaos_campaign(campaign)
            });
            let chaos = chaos?;
            chaos_s = dt;
            timelines = chaos.timelines;
            let output = Output::Catalog(Catalog {
                figures,
                rendered_bytes,
                takeaways,
                chaos,
            });
            (reference, output, plain)
        }
    };

    // The instrumented drive.
    let mut timed = Drive::new(false);
    let mut counted = Drive::new(true);
    for drive in [&mut timed, &mut counted] {
        let name = if drive.observe {
            "drive.counted"
        } else {
            "drive.timed"
        };
        spans.time(name, |spans| {
            for (deck, result) in prepared.decks.iter().zip(&reference) {
                for (s, r) in deck.expand().iter().zip(&result.points) {
                    spans.time(format!("point {}", s.name), |_| drive.point(s, r));
                }
            }
        });
    }
    let times = snapshot(&timed.counters);
    let c = snapshot(&counted.counters);

    // The report round trip, stage by stage.
    let report = output.report();
    let (json_text, serialize_s) = spans.time("report.serialize", |_| workloads::serialize(report));
    let (parsed, parse_s) = spans.time("report.parse", |_| workloads::parse(report, &json_text));
    let parsed = parsed?;
    let (markdown, render_s) = spans.time("report.render", |_| workloads::render_report(&parsed));
    let trip = workloads::RoundTrip {
        bytes: json_text.len(),
        identical: workloads::identical(report, &parsed),
        markdown_bytes: markdown.len(),
    };

    let mut verdict = checks::check(&prepared, &output, &trip);
    for note in timed.notes.into_iter().chain(counted.notes) {
        verdict.failed += 1;
        verdict.notes.push(note);
    }
    verdict.failed = verdict.failed.min(verdict.attempted);
    for note in &verdict.notes {
        eprintln!("check failed: {note}");
    }
    if let Some(info) = &verdict.info {
        eprintln!("{info}");
    }
    // Point times only: the outcome comparisons are not part of either.
    let timed_s: f64 = timed.point_s.iter().sum();
    let counted_s: f64 = counted.point_s.iter().sum();
    eprintln!(
        "tracing overhead: untraced executor {untraced_s:.4} s, timing drive {timed_s:.4} s \
         ({:+.1}%), counting drive {counted_s:.4} s ({:+.1}%)",
        (timed_s / untraced_s - 1.0) * 100.0,
        (counted_s / untraced_s - 1.0) * 100.0
    );

    let (p50, max) = if timed.point_s.is_empty() {
        (0.0, 0.0)
    } else {
        (
            stats::median(&timed.point_s),
            timed.point_s.iter().copied().fold(0.0, f64::max),
        )
    };
    let metrics = vec![
        Metric::new("scenario.expand_s", expand_s, "s"),
        Metric::new("scenario.validate_s", validate_s, "s"),
        Metric::new("scenario.points", points as f64, "count"),
        Metric::new("graph.plan_calls", c.plan_calls as f64, "count"),
        Metric::new("graph.classes", c.classes as f64, "count"),
        Metric::new("graph.plan_s", times.plan_s, "s"),
        Metric::new("simkit.solve_s", timed.solve_s, "s"),
        Metric::new("simkit.epochs", c.epochs as f64, "count"),
        Metric::new("simkit.flow_visits", c.flow_visits as f64, "count"),
        Metric::new("simkit.peak_backlog", c.peak_backlog as f64, "count"),
        Metric::new("simkit.ops", c.ops as f64, "count"),
        Metric::new("deck.point_p50_s", p50, "s"),
        Metric::new("deck.point_max_s", max, "s"),
        Metric::new("dlio.run_s", timed.dlio_s, "s"),
        Metric::new("chaos.run_s", chaos_s, "s"),
        Metric::new("chaos.timelines", timelines as f64, "count"),
        Metric::new("telemetry.overhead_s", telemetry_s, "s"),
        Metric::new("provenance.overhead_s", provenance_s, "s"),
        Metric::new("report.serialize_s", serialize_s, "s"),
        Metric::new("report.parse_s", parse_s, "s"),
        Metric::new("report.render_s", render_s, "s"),
        Metric::new("report.bytes", trip.bytes as f64, "bytes"),
    ];
    let outcome = Outcome {
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
    };
    write_out(kind, seed, &outcome, &spans)?;
    Ok(outcome)
}

/// Writes the run's result line and its spans under the build directory
/// (`$CARGO_TARGET_DIR`, else `target`).
fn write_out(kind: Kind, seed: u64, outcome: &Outcome, spans: &Spans) -> Result<(), String> {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = std::path::Path::new(&base).join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{seed}", kind.name());
    let files = [
        (format!("{stem}.layers.json"), outcome.json() + "\n"),
        (format!("{stem}.trace.json"), spans.chrome_json()),
    ];
    for (name, text) in files {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
