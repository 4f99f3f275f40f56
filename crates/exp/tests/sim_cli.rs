//! `gwbench sim`: bad input exits 2 with a message (never a panic or a
//! silently truncated value), and a `--compare` run prints exactly the
//! cycle counts of a direct [`compare`] call.

use std::process::{Command, Output};

use ghostwriter_core::Protocol;
use ghostwriter_workloads::{compare, find_benchmark, ScaleClass};

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gwbench"))
        .arg("sim")
        .args(args)
        .output()
        .expect("gwbench runs")
}

#[test]
fn bad_input_exits_2() {
    let cases: &[&[&str]] = &[
        &["--d", "300"],
        &["--cores", "100"],
        &["--cores", "4", "--threads", "9"],
        &["--bound", "0"],
        &["--timeout", "0"],
        &["--switch", "0"],
        &["--protocol", "gw-foo"],
        &["--scale", "huge"],
        &["--cores"],
        &["--frobnicate"],
    ];
    for extra in cases {
        let mut args = vec!["linear_regression", "--scale", "test"];
        args.extend_from_slice(extra);
        let out = sim(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("gwbench: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
    }
    for args in [&[][..], &["nonesuch"], &["histogram", "jpeg"]] {
        assert_eq!(sim(args).status.code(), Some(2), "{args:?}");
    }
}

/// The number in front of `cycles` on the report line starting `label`.
fn cycles(report: &str, label: &str) -> u64 {
    let line = report
        .lines()
        .find(|l| l.trim_start().starts_with(label))
        .unwrap_or_else(|| panic!("no `{label}` line in:\n{report}"));
    let words: Vec<&str> = line.split_whitespace().collect();
    let at = words.iter().position(|w| *w == "cycles").expect("cycles");
    words[at - 1].parse().expect("numeric cycle count")
}

#[test]
fn compare_prints_the_runner_cycles() {
    let out = sim(&[
        "linear_regression",
        "--scale",
        "test",
        "--cores",
        "4",
        "--compare",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let report = String::from_utf8(out.stdout).unwrap();
    let entry = find_benchmark("linear_regression").unwrap();
    let cmp = compare(
        &|| entry.build(ScaleClass::Test),
        4,
        4,
        8,
        Protocol::ghostwriter(),
    );
    assert_eq!(cycles(&report, "baseline"), cmp.baseline.report.cycles);
    assert_eq!(
        cycles(&report, "ghostwriter"),
        cmp.ghostwriter.report.cycles
    );
}
