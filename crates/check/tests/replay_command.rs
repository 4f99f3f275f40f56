//! The replay command printed in a failure report must work verbatim
//! (ISSUE PR 6): this suite extracts the `replay: gwcheck …` line from
//! `Counterexample::describe`, runs the actual `gwcheck` binary with
//! exactly those arguments, and asserts the same failure reproduces.
//! It also pins how `gwcheck` rejects a sweep spec the search cannot
//! run: a usage error, never a panic.

use std::process::Command;

use ghostwriter_check::{run_sweep, Mutation, ProtocolKind, ShardOptions, SweepSpec};

fn opts() -> ShardOptions {
    ShardOptions {
        jobs: 2,
        use_cache: false,
        ..Default::default()
    }
}

/// Pulls the replay command out of a describe() report and splits it
/// into argv (the trace token contains no spaces, so whitespace
/// splitting is exact).
fn replay_argv(described: &str) -> Vec<String> {
    let line = described
        .lines()
        .find_map(|l| l.trim().strip_prefix("replay: "))
        .expect("describe() contains a replay line");
    let mut words = line.split_whitespace().map(str::to_string);
    assert_eq!(words.next().as_deref(), Some("gwcheck"));
    words.collect()
}

/// Runs `gwcheck` with `argv`: (exit code, stdout, stderr).
fn run_gwcheck(argv: &[String]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gwcheck"))
        .args(argv)
        .output()
        .expect("gwcheck runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (
        out.status.code().expect("gwcheck exits"),
        text(&out.stdout),
        text(&out.stderr),
    )
}

#[test]
fn printed_replay_command_reproduces_the_failure() {
    let spec = SweepSpec {
        mutation: Some(Mutation::SkipInvalidation),
        ..SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2)
    };
    let (outcome, _) = run_sweep(&spec, &opts());
    let cex = outcome.counterexample.expect("mutation caught");
    let described = cex.describe(&spec);
    let argv = replay_argv(&described);

    let (code, stdout, _) = run_gwcheck(&argv);
    assert_eq!(code, 1, "replay must reproduce the failure:\n{stdout}");
    assert!(stdout.contains("REPRODUCED"), "stdout: {stdout}");
    // The replayed failure is the same failure, verbatim.
    assert!(
        stdout.contains(&cex.failure.to_string()),
        "replay printed a different failure.\nwant: {}\ngot: {stdout}",
        cex.failure
    );
}

#[test]
fn raw_counterexample_replay_command_also_reproduces() {
    // The pre-shrink trace (with its shard prefix) must replay too —
    // it is what the search actually walked.
    let spec = SweepSpec {
        mutation: Some(Mutation::DropInvAck),
        ..SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2)
    };
    let (outcome, _) = run_sweep(&spec, &opts());
    let raw = outcome.raw_counterexample.expect("mutation caught");
    assert!(raw.prefix_len > 0, "raw trace keeps its shard prefix");
    let argv = replay_argv(&raw.describe(&spec));
    let (code, stdout, _) = run_gwcheck(&argv);
    assert_eq!(code, 1, "raw replay must reproduce:\n{stdout}");
    assert!(
        stdout.contains(&raw.failure.to_string()),
        "stdout: {stdout}"
    );
}

#[test]
fn clean_trace_replay_exits_zero() {
    let (code, stdout, _) = run_gwcheck(&[
        "--protocol".into(),
        "mesi".into(),
        "--cores".into(),
        "2".into(),
        "--blocks".into(),
        "1".into(),
        "--ops".into(),
        "2".into(),
        "--replay".into(),
        "i0:0s,d0>2".into(),
    ]);
    assert_eq!(code, 0, "stdout: {stdout}");
    assert!(stdout.contains("CLEAN"), "stdout: {stdout}");
}

#[test]
fn malformed_trace_is_a_usage_error() {
    let (code, _, _) = run_gwcheck(&[
        "--protocol".into(),
        "mesi".into(),
        "--replay".into(),
        "i0:0s,bogus".into(),
    ]);
    assert_eq!(code, 2);
}

#[test]
fn out_of_range_specs_are_usage_errors() {
    // Specs the search's state key cannot pack are rejected before any
    // search starts, in sweep and replay mode alike.
    for spec in [
        "--cores 17 --ops 1",
        "--ops 16",
        "--cores 16 --fault-budget 1 --ops 1",
    ] {
        for replay in ["", " --protocol mesi --replay i0:0s"] {
            let argv: Vec<String> = format!("{spec}{replay}")
                .split_whitespace()
                .map(str::to_string)
                .collect();
            let (code, stdout, stderr) = run_gwcheck(&argv);
            assert_eq!(code, 2, "{argv:?}: stderr: {stderr}");
            assert!(stderr.starts_with("gwcheck: "), "{argv:?}: {stderr}");
            assert!(stdout.is_empty(), "{argv:?}: stdout: {stdout}");
        }
    }
}
