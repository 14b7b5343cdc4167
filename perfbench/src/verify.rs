//! The verification workload: the conformance catalogue and a seeded
//! fuzz corpus, enumerated by the PMC model checker and executed on the
//! simulator over every back-end, lock kind and topology, with outcome
//! membership and the consistency monitor as the gates.

use std::collections::BTreeSet;

use pmc::model::conformance::{self, lower};
use pmc::model::fuzz::{self, GenConfig, SplitMix64};
use pmc::model::interleave::{outcomes_counted, Limits, Outcome};
use pmc::model::litmus::Program;
use pmc::runtime::{monitor, BackendKind, LockKind, RunConfig};
use pmc::sim::telemetry::MetricsRegistry;
use pmc::sim::trace::TraceRecord;
use pmc::sim::Topology;

use crate::layers::{self, fnv, SimStats};
use crate::{guarded, median, percentile, setup_once, timed, timed_units, Args, Report, Setup};

/// Seeded fuzz programs added to the catalogue per pass.
const FUZZ_CASES: usize = 64;

/// The fuzz generator's budget: the default shapes (three threads, three
/// locations, DMA) cut to four lowered instructions per thread. At the
/// default six, about one program in twenty-five needs more than 200 k
/// states and seconds of enumeration, which would make the pass's cost a
/// lottery over the seed; at four the largest of 150 sampled programs
/// needed 17 k states.
fn fuzz_config() -> GenConfig {
    GenConfig { max_cost: 4, ..GenConfig::default() }
}

/// State budget of one fuzz enumeration; a program that exceeds it
/// counts as a failed operation.
const FUZZ_MAX_STATES: usize = 200_000;

const LOCKS: [LockKind; 2] = [LockKind::Sdram, LockKind::Distributed];

/// The three enumeration modes the catalogue must agree across.
fn modes() -> [(&'static str, Limits); 3] {
    [
        ("memoized", Limits::memoized()),
        ("por", Limits::reduced()),
        ("por_memoized", Limits::reduced_memoized()),
    ]
}

struct Case {
    name: String,
    program: Program,
    lowered: Program,
    /// Catalogue cases are enumerated in every mode; fuzz cases once,
    /// POR+memoized under [`FUZZ_MAX_STATES`].
    catalogue: bool,
}

/// The catalogue plus the fuzz corpus drawn from `seed` (the set-up).
fn corpus(seed: u64) -> Vec<Case> {
    let mut rng = SplitMix64::new(seed);
    let catalogue = conformance::cases().into_iter().map(|c| (c.name.to_string(), c.program, true));
    let fuzzed = (0..FUZZ_CASES).map(|_| {
        let s = rng.next_u64();
        (format!("fuzz-{s:#x}"), fuzz::generate(s, &fuzz_config()), false)
    });
    catalogue
        .chain(fuzzed)
        .map(|(name, program, catalogue)| Case {
            lowered: lower(&program),
            name,
            program,
            catalogue,
        })
        .collect()
}

/// Every machine shape a program runs on: back-end × lock × topology.
fn sessions(threads: usize) -> Vec<RunConfig> {
    let rows = threads.div_ceil(2).max(2);
    let topologies =
        [Topology::Ring, Topology::Mesh { cols: 2, rows }, Topology::Torus { cols: 2, rows }];
    let mut out = Vec::new();
    for backend in BackendKind::ALL {
        for lock in LOCKS {
            for topology in topologies {
                out.push(RunConfig::new(backend).lock(lock).topology(topology));
            }
        }
    }
    out
}

/// One pass's results and host-time breakdown.
#[derive(Default)]
struct Pass {
    /// States per enumeration mode over the catalogue.
    states: [usize; 3],
    fuzz_states: usize,
    /// Makespan of every simulator run, in run order.
    makespans: Vec<u64>,
    outcomes: Vec<Outcome>,
    sim: SimStats,
    /// The catalogue's runs alone: the modeled end-to-end metrics, which
    /// the seed therefore leaves unchanged.
    catalogue_makespans: Vec<u64>,
    catalogue_sim: SimStats,
    records: usize,
    t_enumerate: f64,
    t_litmus: f64,
    t_validate: f64,
    t_catalogue: f64,
    t_fuzz: f64,
}

impl Pass {
    fn wall(&self) -> f64 {
        self.t_catalogue + self.t_fuzz
    }

    fn fingerprint(&self) -> u64 {
        let text = format!(
            "{:?}{}{:?}{:?}{:?}",
            self.states, self.fuzz_states, self.makespans, self.outcomes, self.sim
        );
        fnv(text.as_bytes())
    }
}

/// Enumerate one case; the allowed outcome set, or `None` when the modes
/// disagree or the budget runs out (a failed operation either way).
fn enumerate(case: &Case, pass: &mut Pass, report: &mut Report) -> Option<BTreeSet<Outcome>> {
    let modes: Vec<(&str, Limits)> = if case.catalogue {
        modes().to_vec()
    } else {
        vec![("por_memoized", Limits { max_states: FUZZ_MAX_STATES, ..Limits::reduced_memoized() })]
    };
    let mut sets: Vec<BTreeSet<Outcome>> = Vec::new();
    for (i, (mode, limits)) in modes.iter().enumerate() {
        let (res, secs) = timed(|| outcomes_counted(&case.lowered, *limits));
        pass.t_enumerate += secs;
        let Ok((set, states)) = res else {
            report.tally(1, 1);
            report.problem(format!("{}: {mode} enumeration exhausted its budget", case.name));
            return None;
        };
        if case.catalogue {
            pass.states[i] += states;
        } else {
            pass.fuzz_states += states;
        }
        sets.push(set);
    }
    let agree = sets.windows(2).all(|w| w[0] == w[1]) && !sets[0].is_empty();
    report.tally(1, u64::from(!agree));
    if !agree {
        report.problem(format!("{}: enumeration modes disagree", case.name));
        return None;
    }
    sets.pop()
}

/// Run one case on every machine shape and check each run against the
/// model set and the monitor. With `telemetry`, the span records are
/// kept for the per-layer histograms.
fn simulate(
    case: &Case,
    allowed: &BTreeSet<Outcome>,
    telemetry: bool,
    pass: &mut Pass,
    spans: &mut Vec<TraceRecord>,
    report: &mut Report,
) {
    for cfg in sessions(case.program.threads.len().max(1)) {
        let session = cfg.telemetry(telemetry).session();
        let shape = format!(
            "{}/{}/{:?}/{}",
            case.name,
            session.backend().name(),
            session.lock(),
            session.topology().name()
        );
        let (run, secs) = timed(|| guarded(|| session.litmus(&case.program)));
        pass.t_litmus += secs;
        let Some(run) = run else {
            report.tally(1, 1);
            report.problem(format!("{shape}: simulator run panicked"));
            continue;
        };
        let (violations, secs) = timed(|| monitor::validate(&run.trace));
        pass.t_validate += secs;
        let inside = allowed.contains(&run.outcome);
        report.tally(1, u64::from(!inside || !violations.is_empty()));
        if !inside {
            report.problem(format!("{shape}: outcome {:?} outside the model set", run.outcome));
        }
        if let Some(v) = violations.first() {
            report.problem(format!("{shape}: monitor violation {v:?}"));
        }
        pass.sim.add_litmus(&run.report);
        pass.makespans.push(run.report.makespan);
        if case.catalogue {
            pass.catalogue_sim.add_litmus(&run.report);
            pass.catalogue_makespans.push(run.report.makespan);
        }
        pass.records += run.trace.len();
        pass.outcomes.push(run.outcome);
        if telemetry {
            spans.extend(run.trace.iter().filter(|r| r.is_span()));
        }
    }
}

fn run_pass(
    cases: &[Case],
    telemetry: bool,
    spans: &mut Vec<TraceRecord>,
    report: &mut Report,
) -> Pass {
    let mut pass = Pass::default();
    for case in cases {
        let (_, secs) = timed(|| {
            if let Some(allowed) = enumerate(case, &mut pass, report) {
                simulate(case, &allowed, telemetry, &mut pass, spans, report);
            }
        });
        if case.catalogue {
            pass.t_catalogue += secs;
        } else {
            pass.t_fuzz += secs;
        }
    }
    pass
}

pub fn end_to_end(args: &Args, report: &mut Report) {
    let cases = corpus(args.seed);
    let mut first = None;
    let setup = || setup_once(|| (), |_| corpus(args.seed));
    let walls = timed_units(args, report, 1, setup, |_, report| {
        let pass = run_pass(&cases, false, &mut Vec::new(), report);
        let out = (pass.wall(), pass.fingerprint());
        first.get_or_insert(pass);
        Some(out)
    });
    report.put("wall_s", median(walls.concat()));
    let Some(p) = first else { return };
    let kcycles = p.catalogue_sim.makespan.max(1) as f64 / 1000.0;
    report.put("makespan_cycles", p.catalogue_sim.makespan as f64);
    report.put("p50_cycles", percentile(&p.catalogue_makespans, 50.0) as f64);
    report.put("p99_cycles", percentile(&p.catalogue_makespans, 99.0) as f64);
    report.put("slo_rate_req_per_kcycle", p.catalogue_makespans.len() as f64 / kcycles);
    report.put("bytes_per_kcycle", p.catalogue_sim.dma_bytes as f64 / kcycles);
}

pub fn per_layer(args: &Args, report: &mut Report) {
    let setup = Setup::time(|| setup_once(|| (), |_| corpus(args.seed)));
    report.put("host.app_build_s", setup.build());
    let cases = corpus(args.seed);
    let plain = run_pass(&cases, false, &mut Vec::new(), report);
    let mut spans = Vec::new();
    let traced = run_pass(&cases, true, &mut spans, report);
    if (&plain.outcomes, &plain.makespans) != (&traced.outcomes, &traced.makespans) {
        report.problem("telemetry perturbed modeled time: outcomes or makespans differ".into());
    }
    let runs = plain.makespans.len();
    plain.sim.put_layers(report, runs as u64, plain.t_litmus);
    let total_states: usize = plain.states.iter().sum::<usize>() + plain.fuzz_states;
    for (i, (mode, _)) in modes().iter().enumerate() {
        report.put(&format!("interleave.states.{mode}"), plain.states[i] as f64);
    }
    report.put("interleave.states_per_s", total_states as f64 / plain.t_enumerate.max(1e-9));
    report.put("interleave.enumerate_s", plain.t_enumerate);
    report.put("litmus.runs", runs as f64);
    report.put("litmus.ms_per_run", plain.t_litmus * 1e3 / runs.max(1) as f64);
    report.put("verify.catalogue_s", plain.t_catalogue);
    report.put("verify.fuzz_s", plain.t_fuzz);
    report.put("monitor.validate_s", plain.t_validate);
    report.put("monitor.records_per_s", plain.records as f64 / plain.t_validate.max(1e-9));
    let (metrics, t_metrics) = timed(|| MetricsRegistry::from_trace(&spans));
    report.put("host.metrics_s", t_metrics);
    layers::put_spans(report, &metrics);
    // Litmus runs always record the protocol trace, so the overhead
    // measured here is that of the telemetry spans on top of it; the
    // litmus API exposes no engine counts, so no handoffs are compared.
    layers::put_trace_overhead(report, traced.records, (plain.t_litmus, traced.t_litmus), (0, 0));
}
