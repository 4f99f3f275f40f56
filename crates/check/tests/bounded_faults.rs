//! Bounded-fault model checking (ISSUE PR 10).
//!
//! The contract under test: with `fault_budget = k`, message faults
//! (drop / duplicate / corrupt on the unreliable virtual channel) and
//! retry timeouts become explicit schedule actions, and the sweep
//! exhaustively proves that *every* interleaving with at most `k`
//! faults still completes — recovery is verified, not sampled. With the
//! retry row deleted, the same search must catch the resulting
//! wedged-forever state as a violation and shrink it to a short,
//! replayable trace. A budget of zero must leave the searched space,
//! the report, and every cache key exactly as they were before the
//! fault dimension existed.

use ghostwriter_check::shard::Space;
use ghostwriter_check::{run_sweep, Mutation, ProtocolKind, ShardOptions, SweepSpec};

fn no_cache(jobs: usize) -> ShardOptions {
    ShardOptions {
        jobs,
        use_cache: false,
        ..Default::default()
    }
}

fn faulty(kind: ProtocolKind, budget: usize) -> SweepSpec {
    SweepSpec {
        fault_budget: budget,
        ..SweepSpec::new(kind, 2, 1, 1)
    }
}

#[test]
fn bounded_fault_sweep_mesi_passes_exhaustively() {
    let (outcome, _) = run_sweep(&faulty(ProtocolKind::Mesi, 1), &no_cache(2));
    if let Some(cex) = &outcome.counterexample {
        panic!("recovery hole:\n{}", cex.describe(&outcome.spec));
    }
    assert!(!outcome.truncated, "budget-1 space must be exhausted");

    // The fault dimension strictly enlarges the space: every fault-free
    // interleaving is still in it (faults are optional actions).
    let (clean, _) = run_sweep(&faulty(ProtocolKind::Mesi, 0), &no_cache(2));
    assert!(outcome.states > clean.states);
}

#[test]
fn bounded_fault_sweep_ghostwriter_passes_exhaustively() {
    let (outcome, _) = run_sweep(&faulty(ProtocolKind::Ghostwriter, 1), &no_cache(2));
    if let Some(cex) = &outcome.counterexample {
        panic!("recovery hole:\n{}", cex.describe(&outcome.spec));
    }
    assert!(!outcome.truncated);
}

#[test]
fn budget_two_compound_faults_still_recover() {
    // Two faults can hit the same transaction (drop the request, then
    // drop the resent one; or drop the request and corrupt the eventual
    // fill) — the retry budget scales with the fault budget, so the
    // deeper space must still be failure-free.
    let (outcome, _) = run_sweep(&faulty(ProtocolKind::Mesi, 2), &no_cache(2));
    if let Some(cex) = &outcome.counterexample {
        panic!("recovery hole:\n{}", cex.describe(&outcome.spec));
    }
    assert!(!outcome.truncated);
    let (single, _) = run_sweep(&faulty(ProtocolKind::Mesi, 1), &no_cache(2));
    assert!(outcome.states > single.states);
}

#[test]
fn deleting_the_retry_row_is_a_caught_liveness_bug() {
    // The acceptance probe for the recovery rows: remove `retry_resend`
    // from the table and the ≤1-fault sweep must find the wedge (a
    // dropped request with no way to resend it), shrink it short, and
    // print a replay command that carries the fault budget.
    let spec = SweepSpec {
        mutation: Some(Mutation::DeleteRow("retry_resend")),
        ..faulty(ProtocolKind::Mesi, 1)
    };
    let (outcome, _) = run_sweep(&spec, &no_cache(2));
    let cex = outcome.counterexample.expect("retry-row deletion caught");
    assert!(
        cex.trace.len() <= 20,
        "shrunk trace too long: {} steps",
        cex.trace.len()
    );
    let described = cex.describe(&spec);
    assert!(described.contains("--fault-budget 1"), "{described}");
    assert!(described.contains("--mutation delete-row:retry_resend"));

    // The shrunk trace replays to a failure through the same space.
    let space = Space::new(&spec);
    assert!(space.replay(&cex.trace).is_some(), "shrunk trace replays");
}

#[test]
fn bounded_fault_sweep_is_jobs_invariant() {
    // The fault dimension must not leak scheduling into the report:
    // byte-identical outcomes across worker counts, like every other
    // sweep.
    let spec = faulty(ProtocolKind::Mesi, 1);
    let (seq, _) = run_sweep(&spec, &no_cache(1));
    let (par, _) = run_sweep(&spec, &no_cache(8));
    assert_eq!(seq.to_json().to_pretty(), par.to_json().to_pretty());
    assert_eq!(seq.fingerprint(), par.fingerprint());
}

#[test]
fn fault_free_keys_and_commands_are_unchanged() {
    // Budget 0 must not perturb cache keys (warm caches stay valid) or
    // replay commands; budget > 0 extends both.
    let clean = SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2);
    assert!(!clean.key().contains("faults="));
    assert!(!clean.replay_command(&[]).contains("--fault-budget"));
    assert!(!clean.label().contains("+faults"));

    let budgeted = SweepSpec {
        fault_budget: 3,
        ..clean.clone()
    };
    assert!(budgeted.key().ends_with("|faults=3"));
    assert!(budgeted.replay_command(&[]).contains("--fault-budget 3"));
    assert!(budgeted.label().ends_with("+faults(3)"));
}
