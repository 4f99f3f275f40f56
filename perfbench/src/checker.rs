//! `checker_2c2b`: the model checker's sharded search —
//! `check::run_sweep` for MESI and Ghostwriter at 2 cores / 2 blocks /
//! 1 op per core, on one thread, with the shard cache off.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use ghostwriter_check::shard::{plan_shards, Space};
use ghostwriter_check::{run_sweep, ProtocolKind, ShardOptions, SweepOutcome, SweepSpec};
use ghostwriter_core::{Coverage, DirRowId, L1RowId};

use crate::expect::Expected;
use crate::trace::Tracer;
use crate::{panic_text, PassOut, Prepared, Setup};

pub struct Checker {
    sweeps: Vec<(&'static str, SweepSpec)>,
    opts: ShardOptions,
    default_seed: bool,
}

/// The sweeps of the workload: MESI and Ghostwriter at 2 cores,
/// 2 blocks and 1 op per core (1 block in the tiny self-test scale).
/// Each takes 20-40 ms, so a run repeats every sweep hundreds of times
/// and its fastest pass is a steady figure. Sweeps with more ops per
/// core take 0.1-5 s each, and the larger their visited-state sets,
/// the more their time swings with other tenants' load on the host.
pub fn sweeps(tiny: bool) -> Vec<(&'static str, SweepSpec)> {
    let blocks = if tiny { 1 } else { 2 };
    vec![
        ("mesi", SweepSpec::new(ProtocolKind::Mesi, 2, blocks, 1)),
        (
            "gw",
            SweepSpec::new(ProtocolKind::Ghostwriter, 2, blocks, 1),
        ),
    ]
}

pub fn prepare(setup: &Setup, _tr: &mut Tracer) -> Box<dyn Prepared> {
    Box::new(Checker {
        sweeps: sweeps(setup.tiny),
        opts: ShardOptions {
            jobs: 1,
            shard_depth: None,
            use_cache: false,
            // Never read or written with the cache off; pointed into
            // the benchmark's own output all the same.
            cache_dir: PathBuf::from(&setup.out_dir).join("check-cache"),
            progress: false,
        },
        default_seed: setup.seed == crate::DEFAULT_SEED,
    })
}

/// Names of the transition-table rows a sweep fired.
fn row_set(c: &Coverage) -> String {
    let l1 = L1RowId::all()
        .filter(|r| c.l1[*r as usize] > 0)
        .map(|r| r.name());
    let dir = DirRowId::all()
        .filter(|r| c.dir[*r as usize] > 0)
        .map(|r| r.name());
    l1.chain(dir).collect::<Vec<_>>().join(",")
}

fn check(
    name: &str,
    outcome: &SweepOutcome,
    default_seed: bool,
    expected: &mut Expected,
) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(cex) = &outcome.counterexample {
        problems.push(format!("counterexample: {}", cex.failure));
    }
    if outcome.truncated {
        problems.push("sweep truncated".to_string());
    }
    problems.extend(expected.check(name, "rows", &row_set(&outcome.coverage)));
    if default_seed {
        let digest = format!(
            "states={},transitions={},shards={},fingerprint={}",
            outcome.states,
            outcome.transitions,
            outcome.shards,
            outcome.fingerprint().hex()
        );
        problems.extend(expected.check(name, "digest", &digest));
    }
    problems
}

impl Prepared for Checker {
    fn unit_names(&self) -> Vec<String> {
        self.sweeps.iter().map(|(n, _)| n.to_string()).collect()
    }

    fn describe(&self) -> String {
        let labels: Vec<String> = self.sweeps.iter().map(|(_, s)| s.label()).collect();
        format!("sweeps {}", labels.join("; "))
    }

    fn pass(&self, tr: &mut Tracer, expected: &mut Expected, out: &mut PassOut) {
        for (i, (name, spec)) in self.sweeps.iter().enumerate() {
            out.attempted += 1;
            let t0 = Instant::now();
            let result = tr.unit(i as u32, |tr| {
                catch_unwind(AssertUnwindSafe(|| {
                    if tr.enabled() {
                        // `run_sweep` plans internally; the separate
                        // plan is timed so the search time is
                        // `check.run_sweep - check.plan`.
                        tr.span("check.plan", |_| drop(plan_shards(&Space::new(spec), None)));
                    }
                    tr.span("check.run_sweep", |_| run_sweep(spec, &self.opts).0)
                }))
            });
            out.unit_ms.push(vec![t0.elapsed().as_secs_f64() * 1e3]);
            let outcome = match result {
                Ok(o) => o,
                Err(panic) => {
                    out.fail(name, format!("panicked: {}", panic_text(&panic)));
                    continue;
                }
            };
            out.counters.states += outcome.states;
            out.counters.transitions += outcome.transitions;
            out.counters.shards += outcome.shards as u64;
            for p in check(name, &outcome, self.default_seed, expected) {
                out.fail(name, p);
            }
        }
        out.work = out.counters.states;
    }
}
