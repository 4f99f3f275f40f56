//! Golden-stats determinism suite.
//!
//! Two guarantees, checked at smoke scale so the suite stays in CI
//! budget:
//!
//! 1. **Jobs-invariance** — for every registered experiment, the
//!    whole-sweep record fingerprint at `--jobs 1` equals the one at
//!    `--jobs 8`. The engine reassembles pool results in spec order, so
//!    scheduling must never leak into results.
//! 2. **Golden snapshots** — for the cheap fig01/fig02/fig04 grids, the
//!    canonical record JSON matches a committed snapshot byte for byte.
//!    A legitimate simulator change regenerates them with
//!    `UPDATE_GOLDEN=1 cargo test -p ghostwriter-exp --test golden_stats`.

use std::fs;
use std::path::PathBuf;

use ghostwriter_exp::experiments::{eval_csv, EVAL_DISTANCES, PAPER_APPS};
use ghostwriter_exp::record::records_fingerprint;
use ghostwriter_exp::{all_experiments, find_experiment, Engine, RunRecord, Scale};

/// Runs one spec without any cache (every cell simulates).
fn run_uncached(runs: &[ghostwriter_exp::RunSpec], jobs: usize) -> Vec<RunRecord> {
    let mut engine = Engine::new(jobs);
    engine.use_cache = false;
    engine.run(runs).0
}

#[test]
fn every_experiment_is_jobs_invariant() {
    for exp in all_experiments() {
        let spec = exp.spec(Scale::Smoke);
        if spec.runs.is_empty() {
            continue; // render-only tables
        }
        let seq = run_uncached(&spec.runs, 1);
        let par = run_uncached(&spec.runs, 8);
        assert_eq!(
            records_fingerprint(&seq),
            records_fingerprint(&par),
            "{}: records must not depend on --jobs",
            exp.name
        );
    }
}

#[test]
fn rendered_reports_are_jobs_invariant() {
    // One level up from record identity: the formatted reports (what
    // lands in results/) must also be byte-identical across jobs.
    for name in ["fig07", "repro_all"] {
        let exp = find_experiment(name).unwrap();
        let spec = exp.spec(Scale::Smoke);
        let a = exp.render(&spec, &run_uncached(&spec.runs, 1));
        let b = exp.render(&spec, &run_uncached(&spec.runs, 8));
        assert_eq!(a, b, "{name}: rendered report must not depend on --jobs");
    }
}

#[test]
fn eval_csv_has_header_and_rows() {
    // `eval.csv`, written next to the repro_all report: one row per
    // paper app × d-distance, each as wide as the header.
    let spec = find_experiment("repro_all").unwrap().spec(Scale::Smoke);
    let csv = eval_csv(&spec, &run_uncached(&spec.runs, 2));
    let lines: Vec<&str> = csv.lines().collect();
    assert!(lines[0].starts_with("app,d,"));
    assert_eq!(lines.len(), 1 + PAPER_APPS.len() * EVAL_DISTANCES.len());
    let width = lines[0].split(',').count();
    for (row, (app, d)) in lines[1..].iter().zip(
        PAPER_APPS
            .iter()
            .flat_map(|app| EVAL_DISTANCES.iter().map(move |d| (app, d))),
    ) {
        assert!(row.starts_with(&format!("{app},{d},")), "{row}");
        assert_eq!(row.split(',').count(), width, "{row}");
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The cheap experiments whose full smoke-scale record sets are
/// committed as golden JSON.
const GOLDEN_EXPERIMENTS: [&str; 4] = ["fig01", "fig02", "fig04", "protocol_ladder"];

fn golden_payload(records: &[RunRecord], ids: &[String]) -> String {
    // One concatenated document: stable id header + canonical record
    // text per cell. Any counter drift shows up as a readable diff.
    let mut out = String::new();
    for (id, rec) in ids.iter().zip(records) {
        out.push_str(&format!("// run: {id}\n"));
        out.push_str(&rec.canonical_text());
    }
    out
}

#[test]
fn golden_snapshots_match() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    for name in GOLDEN_EXPERIMENTS {
        let exp = find_experiment(name).unwrap();
        let spec = exp.spec(Scale::Smoke);
        let records = run_uncached(&spec.runs, 2);
        let ids: Vec<String> = spec.runs.iter().map(|r| r.id.clone()).collect();
        let payload = golden_payload(&records, &ids);
        let path = golden_dir().join(format!("{name}.smoke.json"));
        if update {
            fs::create_dir_all(golden_dir()).unwrap();
            fs::write(&path, &payload).unwrap();
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden snapshot {} ({e}); regenerate with \
                 UPDATE_GOLDEN=1 cargo test -p ghostwriter-exp --test golden_stats",
                path.display()
            )
        });
        assert_eq!(
            payload, want,
            "{name}: records diverged from the committed golden snapshot; if the \
             simulator change is intentional, regenerate with UPDATE_GOLDEN=1"
        );
    }
}
