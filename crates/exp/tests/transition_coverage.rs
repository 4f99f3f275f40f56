//! Golden transition-coverage snapshot: which named rows of the shared
//! transition table (`crates/core/src/proto.rs`) the two tier-1 drivers
//! actually exercise. This is also the tier-1 clean-sweep gate: each
//! sweep below runs on `gwcheck`'s engine ([`run_sweep`]), must find no
//! violation (the counterexample is rendered on failure) and must be
//! exhaustive, so every cell is searched once per `cargo test` and
//! yields both its verdict and its coverage.
//!
//! * **sweep** — the union of the tier-1 `gwcheck` sweeps
//!   (MESI / MSI / Ghostwriter / GW-over-MOESI at 2 cores, 1 block,
//!   2 ops per core, the Ghostwriter sweep with GI-timeout
//!   interleavings, and MOESI / MOSI / MESIF at 2 cores, 2 blocks —
//!   the O/F regions need a second block);
//! * **smoke** — the union of every registered experiment's smoke-scale
//!   grid, run uncached through the real engine (the same cells
//!   `gwbench repro-all --smoke` simulates).
//!
//! The committed snapshot (`tests/golden/transition_coverage.txt`)
//! pins the y/n matrix per row; the assertions pin the contract each
//! [`Reach`] class promises: `check` rows must be sweep-covered,
//! `bench` rows covered by sweep or smoke, `never` rows by neither
//! (`unit` rows are carried by dedicated unit tests in `l1.rs` /
//! `dir.rs` and may legitimately show n/n here). A legitimate protocol
//! or grid change regenerates the snapshot with
//! `UPDATE_GOLDEN=1 cargo test -p ghostwriter-exp --test transition_coverage`.

use std::fs;
use std::path::PathBuf;

use ghostwriter_check::{run_sweep, ProtocolKind, ShardOptions, SweepSpec};
use ghostwriter_core::{Coverage, DirRowId, L1RowId, Reach};
use ghostwriter_exp::{all_experiments, Engine, Scale};

fn tier1_sweep_coverage() -> Coverage {
    let opts = ShardOptions {
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        use_cache: false,
        ..Default::default()
    };
    let mut cov = Coverage::default();
    for (kind, blocks, gi_timeouts) in [
        (ProtocolKind::Mesi, 1, false),
        (ProtocolKind::Msi, 1, false),
        (ProtocolKind::Ghostwriter, 1, false),
        (ProtocolKind::Ghostwriter, 1, true),
        (ProtocolKind::GhostwriterMoesi, 1, false),
        (ProtocolKind::Moesi, 2, false),
        (ProtocolKind::Mosi, 2, false),
        (ProtocolKind::Mesif, 2, false),
    ] {
        let spec = SweepSpec {
            gi_timeouts,
            ..SweepSpec::new(kind, 2, blocks, 2)
        };
        let label = spec.label();
        let (outcome, _) = run_sweep(&spec, &opts);
        if let Some(cex) = &outcome.counterexample {
            panic!("{label} sweep found a violation\n{}", cex.describe(&spec));
        }
        assert!(
            !outcome.truncated,
            "{label} sweep was truncated, not exhaustive"
        );
        assert!(outcome.shards > 0 && outcome.states > outcome.shards as u64);
        assert!(
            !outcome.coverage.is_empty(),
            "{label} sweep recorded no transition coverage"
        );
        cov.merge(&outcome.coverage);
    }
    cov
}

fn smoke_coverage() -> Coverage {
    let runs: Vec<_> = all_experiments()
        .iter()
        .flat_map(|e| e.spec(Scale::Smoke).runs)
        .collect();
    let mut engine = Engine::new(8);
    engine.use_cache = false; // cached records carry no coverage
    let (records, _) = engine.run(&runs);
    let mut cov = Coverage::default();
    for r in &records {
        cov.merge(&r.stats.coverage);
    }
    cov
}

fn yn(hit: bool) -> &'static str {
    if hit {
        "y"
    } else {
        "n"
    }
}

fn render(sweep_cov: &Coverage, smoke_cov: &Coverage) -> String {
    let mut out = String::from(
        "# Transition-coverage snapshot: row name, reach class, whether the\n\
         # tier-1 gwcheck sweeps (sweep=) and the smoke experiment grids\n\
         # (smoke=) exercised the row. Regenerate with UPDATE_GOLDEN=1.\n",
    );
    for id in L1RowId::all() {
        out.push_str(&format!(
            "l1  {:<22} {:<5} sweep={} smoke={}\n",
            id.name(),
            id.row().reach.label(),
            yn(sweep_cov.l1_hits(id) > 0),
            yn(smoke_cov.l1_hits(id) > 0),
        ));
    }
    for id in DirRowId::all() {
        out.push_str(&format!(
            "dir {:<22} {:<5} sweep={} smoke={}\n",
            id.name(),
            id.row().reach.label(),
            yn(sweep_cov.dir_hits(id) > 0),
            yn(smoke_cov.dir_hits(id) > 0),
        ));
    }
    out
}

#[test]
fn reach_classes_hold_and_snapshot_matches() {
    let sweep_cov = tier1_sweep_coverage();
    let smoke_cov = smoke_coverage();

    for id in L1RowId::all() {
        let (s, b) = (sweep_cov.l1_hits(id) > 0, smoke_cov.l1_hits(id) > 0);
        check_class(id.name(), id.row().reach, s, b);
    }
    for id in DirRowId::all() {
        let (s, b) = (sweep_cov.dir_hits(id) > 0, smoke_cov.dir_hits(id) > 0);
        check_class(id.name(), id.row().reach, s, b);
    }

    let payload = render(&sweep_cov, &smoke_cov);
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/transition_coverage.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &payload).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        payload, want,
        "transition coverage diverged from the committed snapshot; if the \
         protocol or grid change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

fn check_class(name: &str, reach: Reach, sweep_hit: bool, smoke_hit: bool) {
    match reach {
        Reach::Check => assert!(
            sweep_hit,
            "`{name}` is a check row but the tier-1 sweeps never reached it"
        ),
        Reach::Bench => assert!(
            sweep_hit || smoke_hit,
            "`{name}` is a bench row but neither sweeps nor smoke reached it"
        ),
        Reach::Never => assert!(
            !sweep_hit && !smoke_hit,
            "`{name}` is marked unreachable but fired"
        ),
        Reach::Unit => {} // carried by dedicated unit tests
    }
}
