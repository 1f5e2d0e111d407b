//! The three workloads: how each is set up from deck text, run, and
//! round-tripped through the report format.

use std::hint::black_box;

use hcs_core::scenario::Workload;
use hcs_core::{Arrival, ChaosCampaign, ChaosReport, Deck};
use hcs_experiments::figures::{self, consistency, fig2, fig3, fig4, fig5, fig6, takeaways};
use hcs_experiments::{deck::build_system, validate_deck, validate_provenance};
use hcs_experiments::{output, render, DeckResult, Figure, Scale};

const KNEE_DECK: &str = include_str!("../decks/knee.json");
const DATACENTER_DECK: &str = include_str!("../decks/datacenter.json");
const CHAOS_CAMPAIGN: &str = include_str!("../../examples/scenarios/chaos.vast-smoke.json");

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop IOR swept past each system's knee, metrics and
    /// provenance on.
    Knee,
    /// Closed-loop IOR at 10^5–10^6 clients, metrics on.
    Datacenter,
    /// Every paper figure at paper scale, the §VII takeaways and the
    /// shipped chaos campaign.
    Catalog,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Knee, Kind::Datacenter, Kind::Catalog];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Knee => "knee",
            Kind::Datacenter => "datacenter",
            Kind::Catalog => "catalog",
        }
    }
}

/// A workload ready to run: its decks parsed or constructed, seeded,
/// expanded, validated, and every point's system built once.
pub struct Prepared {
    pub kind: Kind,
    /// Knee and datacenter: the one generated deck. Catalog: the
    /// figure decks `figures::all_figures` executes.
    pub decks: Vec<Deck>,
    /// Catalog only: the seeded chaos campaign.
    pub campaign: Option<ChaosCampaign>,
    /// Expanded points across `decks`.
    pub points: usize,
}

/// What one run of a workload produced.
pub enum Output {
    Deck(DeckResult),
    Catalog(Catalog),
}

pub struct Catalog {
    pub figures: Vec<Figure>,
    /// Bytes of CSV and table text rendered from the figures.
    pub rendered_bytes: usize,
    pub takeaways: takeaways::TakeawayReport,
    pub chaos: ChaosReport,
}

/// The serialized, parsed-back and rendered form of a run's result —
/// what `hcs run … && hcs report …` does, minus disk I/O.
pub struct RoundTrip {
    pub bytes: usize,
    /// The parsed-back result equals the original.
    pub identical: bool,
    pub markdown_bytes: usize,
}

/// Writes the workload seed into an IOR workload's noise seed.
fn seed_ior(workload: &mut Workload, seed: u64) {
    if let Workload::Ior(c) = workload {
        c.seed = seed;
    }
}

/// Writes the workload seed into an open-loop arrival stream.
fn seed_arrival(arrival: &mut Arrival, seed: u64) {
    if let Arrival::Open { seed: s, .. } = arrival {
        *s = seed;
    }
}

fn parse_deck(text: &str) -> Result<Deck, String> {
    serde_json::from_str::<Deck>(text).map_err(|e| format!("deck text does not parse: {e:?}"))
}

/// The figure decks `figures::all_figures(Scale::Paper)` runs, in its
/// order.
pub fn figure_decks() -> Vec<Deck> {
    let mut decks = Vec::new();
    decks.extend(fig2::decks(Scale::Paper));
    decks.extend(fig3::decks(Scale::Paper));
    decks.extend(fig4::decks(Scale::Paper));
    decks.push(fig5::deck(Scale::Paper));
    decks.push(fig6::deck(Scale::Paper));
    decks.push(consistency::deck());
    decks
}

/// The setup stages, exposed separately so the traced run can time
/// each: parse or construct the decks and write the seed in.
pub fn load(kind: Kind, seed: u64) -> Result<(Vec<Deck>, Option<ChaosCampaign>), String> {
    match kind {
        Kind::Knee => {
            let mut deck = parse_deck(KNEE_DECK)?;
            seed_ior(&mut deck.base.workload, seed);
            seed_arrival(&mut deck.base.arrival, seed);
            Ok((vec![deck], None))
        }
        Kind::Datacenter => {
            let mut deck = parse_deck(DATACENTER_DECK)?;
            seed_ior(&mut deck.base.workload, seed);
            Ok((vec![deck], None))
        }
        Kind::Catalog => {
            let mut campaign = serde_json::from_str::<ChaosCampaign>(CHAOS_CAMPAIGN)
                .map_err(|e| format!("chaos campaign does not parse: {e:?}"))?;
            campaign.seed = seed;
            seed_ior(&mut campaign.base.base.workload, seed);
            Ok((figure_decks(), Some(campaign)))
        }
    }
}

/// Validates every deck of a workload (the chaos campaign's base deck
/// included) the way `hcs run` / `hcs chaos` do before executing.
pub fn validate(
    kind: Kind,
    decks: &[Deck],
    campaign: Option<&ChaosCampaign>,
) -> Result<(), String> {
    for deck in decks.iter().chain(campaign.map(|c| &c.base)) {
        validate_deck(deck)?;
        if kind == Kind::Knee {
            validate_provenance(deck)?;
        }
    }
    Ok(())
}

/// Sets a workload up from deck text to ready-to-run points.
pub fn setup(kind: Kind, seed: u64) -> Result<Prepared, String> {
    let (decks, campaign) = load(kind, seed)?;
    validate(kind, &decks, campaign.as_ref())?;
    let mut points = 0;
    for deck in decks.iter().chain(campaign.as_ref().map(|c| &c.base)) {
        for scenario in deck.expand() {
            black_box(build_system(&scenario));
            points += 1;
        }
    }
    Ok(Prepared {
        kind,
        decks,
        campaign,
        points,
    })
}

/// Renders every figure to CSV and to a table in memory, as `hcs
/// figures` does before writing them; returns the bytes rendered.
pub fn render_figures(figures: &[Figure]) -> usize {
    figures
        .iter()
        .map(|f| black_box(output::to_csv(f)).len() + black_box(render::to_table(f)).len())
        .sum()
}

/// Runs a prepared workload with the observers a user of that workload
/// switches on.
pub fn run(p: &Prepared) -> Result<Output, String> {
    match p.kind {
        Kind::Knee => Ok(Output::Deck(hcs_experiments::run_deck_with_provenance(
            &p.decks[0],
        ))),
        Kind::Datacenter => Ok(Output::Deck(hcs_experiments::run_deck_with_metrics(
            &p.decks[0],
        ))),
        Kind::Catalog => {
            let figures = figures::all_figures(Scale::Paper);
            let rendered_bytes = render_figures(&figures);
            let takeaways = takeaways::measure(Scale::Paper);
            let campaign = p.campaign.as_ref().expect("catalog carries a campaign");
            let chaos = hcs_experiments::run_chaos_campaign(campaign)?;
            Ok(Output::Catalog(Catalog {
                figures,
                rendered_bytes,
                takeaways,
                chaos,
            }))
        }
    }
}

/// The result a user would write out and report on: the deck result,
/// or the chaos report (what `hcs chaos` writes and `hcs report`
/// renders).
#[derive(Clone, Copy)]
pub enum Report<'a> {
    Deck(&'a DeckResult),
    Chaos(&'a ChaosReport),
}

impl Output {
    pub fn report(&self) -> Report<'_> {
        match self {
            Output::Deck(r) => Report::Deck(r),
            Output::Catalog(c) => Report::Chaos(&c.chaos),
        }
    }
}

pub enum Parsed {
    Deck(DeckResult),
    Chaos(ChaosReport),
}

/// The three report stages, exposed separately so the traced run can
/// time each.
pub fn serialize(report: Report<'_>) -> String {
    match report {
        Report::Deck(r) => serde_json::to_string_pretty(r),
        Report::Chaos(c) => serde_json::to_string_pretty(c),
    }
    .expect("results serialize")
}

pub fn parse(report: Report<'_>, json: &str) -> Result<Parsed, String> {
    match report {
        Report::Deck(_) => serde_json::from_str::<DeckResult>(json).map(Parsed::Deck),
        Report::Chaos(_) => serde_json::from_str::<ChaosReport>(json).map(Parsed::Chaos),
    }
    .map_err(|e| format!("result does not parse back: {e:?}"))
}

pub fn render_report(parsed: &Parsed) -> String {
    match parsed {
        Parsed::Deck(r) => hcs_experiments::render_markdown(r),
        Parsed::Chaos(c) => hcs_experiments::render_chaos_markdown(c),
    }
}

pub fn identical(report: Report<'_>, parsed: &Parsed) -> bool {
    match (report, parsed) {
        (Report::Deck(a), Parsed::Deck(b)) => a == b,
        (Report::Chaos(a), Parsed::Chaos(b)) => a == b,
        _ => false,
    }
}

/// Serializes a run's result, parses it back and renders markdown.
pub fn round_trip(report: Report<'_>) -> Result<RoundTrip, String> {
    let json = serialize(report);
    let parsed = parse(report, &json)?;
    let markdown = render_report(&parsed);
    Ok(RoundTrip {
        bytes: json.len(),
        identical: identical(report, &parsed),
        markdown_bytes: black_box(markdown).len(),
    })
}
