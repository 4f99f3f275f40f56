//! `paper_repro`: every distinct cell of `gwbench repro-all` plus the
//! `gwbench faults` campaign, run cold, one after another.
//!
//! Untraced passes call `engine::execute_spec`, the function the
//! experiment engine runs on a cache miss, except for the fuzz cell,
//! whose tester seeds they run and time one by one. The traced pass
//! makes the same public calls `execute_spec` makes for workload and
//! resilience cells, one span around each, runs the fuzz cell through
//! `execute_spec`, and must produce the same digests.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ghostwriter_core::fault::mix;
use ghostwriter_core::tester::{ProtocolTester, TesterConfig};
use ghostwriter_core::{BaseProtocol, FaultConfig, GiStorePolicy, Machine};
use ghostwriter_exp::engine::execute_spec;
use ghostwriter_exp::resilience::campaign_spec;
use ghostwriter_exp::{all_experiments, RunKind, RunRecord, RunSpec, Scale, WorkloadSpec};

use crate::expect::{record_digest, stats_text, Expected};
use crate::trace::Tracer;
use crate::{panic_text, PassOut, Prepared, Setup};

/// Stream ids for deriving per-cell seeds from the benchmark seed.
const WORKLOAD_STREAM: u64 = 0x5EED_0001;
const FAULT_STREAM: u64 = 0x5EED_0002;

struct Cell {
    /// `<experiment>/<run id>` of the cell's first occurrence.
    label: String,
    spec: RunSpec,
    /// Fingerprint of the cell's cache key after seeding: the unit name
    /// in the expectation file.
    key: String,
    /// For a fault-free resilience cell: the index of the plain
    /// workload cell that must give the same result.
    twin: Option<usize>,
}

pub struct PaperRepro {
    cells: Vec<Cell>,
    default_seed: bool,
}

fn reseed_workload(w: &WorkloadSpec, seed: u64) -> WorkloadSpec {
    let derive = |s: u64| mix(seed, WORKLOAD_STREAM, s);
    match w {
        WorkloadSpec::Registry {
            name,
            scale,
            seed: s,
        } => WorkloadSpec::Registry {
            name: name.clone(),
            scale: *scale,
            seed: derive(*s),
        },
        WorkloadSpec::BadDot {
            seed: s,
            n,
            approximate,
            work_per_point,
        } => WorkloadSpec::BadDot {
            seed: derive(*s),
            n: *n,
            approximate: *approximate,
            work_per_point: *work_per_point,
        },
        WorkloadSpec::GoodDot { seed: s, n } => WorkloadSpec::GoodDot {
            seed: derive(*s),
            n: *n,
        },
    }
}

/// The cell with its inputs drawn from `seed`. Seed 0 keeps every cell
/// exactly as the experiment registry declares it. Scenario and fuzz
/// cells have no input seed and never change.
fn reseed(spec: &RunSpec, seed: u64) -> RunSpec {
    if seed == crate::DEFAULT_SEED {
        return spec.clone();
    }
    let kind = match &spec.kind {
        RunKind::Workload {
            workload,
            config,
            threads,
            d,
        } => RunKind::Workload {
            workload: reseed_workload(workload, seed),
            config: config.clone(),
            threads: *threads,
            d: *d,
        },
        RunKind::Resilience {
            workload,
            config,
            threads,
            d,
            faults,
        } => RunKind::Resilience {
            workload: reseed_workload(workload, seed),
            config: config.clone(),
            threads: *threads,
            d: *d,
            // The all-off config stays all-off: it is the fault-free
            // anchor of each curve.
            faults: if faults.is_noop() {
                *faults
            } else {
                FaultConfig {
                    seed: mix(seed, FAULT_STREAM, faults.seed),
                    ..*faults
                }
            },
        },
        other => other.clone(),
    };
    RunSpec {
        id: spec.id.clone(),
        kind,
    }
}

/// Enumerates, deduplicates and seeds the cells.
pub fn prepare(setup: &Setup, tr: &mut Tracer) -> Box<dyn Prepared> {
    let scale = if setup.tiny {
        Scale::Smoke
    } else {
        Scale::Eval
    };
    let specs = tr.span("exp.specs", |_| {
        let mut all: Vec<(String, RunSpec)> = Vec::new();
        for e in all_experiments() {
            for run in e.spec(scale).runs {
                all.push((format!("{}/{}", e.name, run.id), run));
            }
        }
        for run in campaign_spec(scale).runs {
            all.push((run.id.clone(), run));
        }
        let mut seen = HashSet::new();
        all.retain(|(_, run)| seen.insert(run.fingerprint()));
        all
    });
    let mut cells: Vec<Cell> = specs
        .into_iter()
        .map(|(label, spec)| {
            let spec = reseed(&spec, setup.seed);
            Cell {
                label,
                key: spec.fingerprint().hex(),
                spec,
                twin: None,
            }
        })
        .collect();
    let index: HashMap<String, usize> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| (c.key.clone(), i))
        .collect();
    for cell in &mut cells {
        if let RunKind::Resilience {
            workload,
            config,
            threads,
            d,
            faults,
        } = &cell.spec.kind
        {
            if faults.is_noop() {
                let plain = RunSpec {
                    id: String::new(),
                    kind: RunKind::Workload {
                        workload: workload.clone(),
                        config: config.clone(),
                        threads: *threads,
                        d: *d,
                    },
                };
                cell.twin = index.get(&plain.fingerprint().hex()).copied();
            }
        }
    }
    Box::new(PaperRepro {
        cells,
        default_seed: setup.seed == crate::DEFAULT_SEED,
    })
}

/// One cell through the same public calls `execute_spec` makes, with a
/// span around each.
fn traced_cell(spec: &RunSpec, tr: &mut Tracer, out: &mut PassOut) -> RunRecord {
    let (workload, config, threads, d, faults) = match &spec.kind {
        RunKind::Workload {
            workload,
            config,
            threads,
            d,
        } => (workload, config, *threads, *d, None),
        RunKind::Resilience {
            workload,
            config,
            threads,
            d,
            faults,
        } => (workload, config, *threads, *d, Some(*faults)),
        RunKind::Fuzz { .. } => return tr.span("core.tester", |_| execute_spec(spec)),
        RunKind::Scenario { .. } => return tr.span("exp.scenario", |_| execute_spec(spec)),
    };
    let mut w = tr.span("workloads.generate", |_| workload.build());
    let mut m = tr.span("core.machine_new", |_| Machine::new(config.clone()));
    m.enable_profiling();
    if let Some(f) = faults {
        m.set_faults(f);
    }
    tr.span("workloads.populate", |_| w.build(&mut m, threads, d));
    let run = match tr.span("core.run", |_| m.try_run()) {
        Ok(run) => run,
        Err(abort) if faults.is_some() => {
            return RunRecord {
                cycles: abort.cycle,
                trace: vec![abort.to_string()],
                extra: vec![("completed".to_string(), 0.0)],
                ..Default::default()
            }
        }
        Err(abort) => panic!("{}: {abort}", spec.id),
    };
    if let Some(p) = &run.profile {
        out.add_profile(p);
    }
    let output = tr.span("workloads.output", |_| w.output(&run));
    let error_percent = tr.span("workloads.reference", |_| {
        w.metric().evaluate(&w.reference(), &output)
    });
    let report = tr.span("core.teardown", move |_| run.report);
    RunRecord {
        cycles: report.cycles,
        error_percent,
        stats: report.stats,
        trace: Vec::new(),
        extra: if faults.is_some() {
            vec![("completed".to_string(), 1.0)]
        } else {
            Vec::new()
        },
    }
}

/// The tester configuration of fuzz seed `seed`, as the experiment
/// engine's fuzz runner derives it.
fn fuzz_config(seed: u64, accesses: usize) -> TesterConfig {
    TesterConfig {
        cores: 2 + (seed % 7) as usize,
        blocks: 8 + (seed % 29) as usize,
        accesses,
        l1_sets: 1 << (seed % 3),
        l1_ways: 2,
        l2_sets: 2 << (seed % 2),
        l2_ways: 2,
        scribble_prob: if seed % 3 == 0 { 0.4 } else { 0.0 },
        gi_stores: if seed % 6 == 0 {
            GiStorePolicy::Capture
        } else {
            GiStorePolicy::Fallback
        },
        gi_timeout_prob: if seed % 5 == 0 { 0.02 } else { 0.0 },
        deliver_bias: 0.5 + (seed % 5) as f64 * 0.1,
        base: BaseProtocol::ALL[(seed % 5) as usize],
    }
}

/// The fuzz cell one tester seed at a time, each timed as a piece of
/// the cell: a ~1 s cell rarely runs undisturbed on a shared host, a
/// ~5 ms seed often does. Gives the record the engine gives, so the
/// cell's digest checks this against `execute_spec`.
fn fuzz_in_pieces(seeds: u64, accesses: usize, pieces: &mut Vec<f64>) -> RunRecord {
    let mut total_msgs = 0u64;
    for seed in 0..seeds {
        let t0 = Instant::now();
        let report = ProtocolTester::new(fuzz_config(seed, accesses), seed).run();
        pieces.push(t0.elapsed().as_secs_f64() * 1e3);
        total_msgs += report.messages as u64;
    }
    RunRecord {
        extra: vec![
            ("seeds".into(), seeds as f64),
            ("accesses".into(), accesses as f64),
            ("messages".into(), total_msgs as f64),
        ],
        ..Default::default()
    }
}

/// The seed-independent invariants of one cell.
fn invariant_failure(cell: &Cell, rec: &RunRecord) -> Option<String> {
    match &cell.spec.kind {
        RunKind::Workload { config, .. } | RunKind::Resilience { config, .. }
            if !config.protocol.is_ghostwriter() && rec.error_percent != 0.0 =>
        {
            Some(format!(
                "precise protocol gave {}% output error",
                rec.error_percent
            ))
        }
        _ => None,
    }
}

impl Prepared for PaperRepro {
    fn unit_names(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.label.clone()).collect()
    }

    fn describe(&self) -> String {
        let twins = self.cells.iter().filter(|c| c.twin.is_some()).count();
        format!(
            "{} cells; {twins} fault-free resilience cells checked against their fault-unaware twins",
            self.cells.len()
        )
    }

    fn pass(&self, tr: &mut Tracer, expected: &mut Expected, out: &mut PassOut) {
        // Per cell: the stats-only text, for the fault-free twin check.
        let mut plain: Vec<Option<String>> = vec![None; self.cells.len()];
        for (i, cell) in self.cells.iter().enumerate() {
            out.attempted += 1;
            let mut pieces = Vec::new();
            let t0 = Instant::now();
            let result = match &cell.spec.kind {
                _ if tr.enabled() => tr.unit(i as u32, |tr| {
                    catch_unwind(AssertUnwindSafe(|| traced_cell(&cell.spec, tr, out)))
                }),
                RunKind::Fuzz { seeds, accesses } => catch_unwind(AssertUnwindSafe(|| {
                    fuzz_in_pieces(*seeds, *accesses, &mut pieces)
                })),
                _ => catch_unwind(AssertUnwindSafe(|| execute_spec(&cell.spec))),
            };
            if pieces.is_empty() {
                pieces.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            out.unit_ms.push(pieces);
            let rec = match result {
                Ok(rec) => rec,
                Err(panic) => {
                    out.fail(&cell.label, format!("panicked: {}", panic_text(&panic)));
                    continue;
                }
            };
            out.counters.add_run(rec.cycles, &rec.stats);
            if rec.extra_value("completed") == Some(0.0) {
                out.counters.aborted_cells += 1;
            }
            if let Some(p) = invariant_failure(cell, &rec) {
                out.fail(&cell.label, p);
            }
            // Cells whose inputs the seed changed have no committed
            // digest; all others (every cell at the default seed) must
            // match theirs.
            if expected.has(&cell.key, "digest") || self.default_seed {
                if let Some(p) = expected.check(&cell.key, "digest", &record_digest(&rec)) {
                    out.fail(&cell.label, p);
                }
            }
            plain[i] = Some(stats_text(rec.cycles, rec.error_percent, &rec.stats));
        }
        for (i, cell) in self.cells.iter().enumerate() {
            let Some(twin) = cell.twin else { continue };
            // A cell that panicked has no result; it has failed already.
            if plain[i].is_some() && plain[twin].is_some() && plain[i] != plain[twin] {
                out.fail(
                    &cell.label,
                    format!(
                        "fault-free resilience cell differs from {}",
                        self.cells[twin].label
                    ),
                );
            }
        }
        out.work = out.counters.sim_ops;
    }
}
