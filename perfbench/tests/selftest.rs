//! Self-tests of the benchmark at the tiny scale:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ghostwriter_core::Json;

const WORKLOADS: [&str; 3] = ["paper_repro", "coherence_storm", "checker_2c2b"];

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Runs the benchmark at the tiny scale from the repository root.
fn tiny(workload: &str, trace: u8, seed: u64, expected_dir: &Path) -> Output {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-out");
    Command::new(env!("CARGO_BIN_EXE_ghostwriter-perfbench"))
        .current_dir(manifest_dir().join(".."))
        .args(["--workload", workload, "--scale", "tiny", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--seed", &seed.to_string()])
        .arg("--expected-dir")
        .arg(expected_dir)
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("benchmark binary runs")
}

/// The JSON result: the last line of standard output.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    Json::parse(line).expect("the result line is JSON")
}

/// (name, unit) of every metric BENCHMARK.json declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.field(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.field("name").and_then(Json::as_str).unwrap().to_string(),
                m.field("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn metrics(res: &Json) -> Vec<(String, String, f64)> {
    match res.field("metrics").expect("metrics") {
        Json::Obj(fields) => fields
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.field("unit").and_then(Json::as_str).unwrap().to_string(),
                    m.field("value").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn tiny_runs_print_every_declared_metric_with_its_unit() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let want = declared(section);
        for w in WORKLOADS {
            let out = tiny(w, trace, 0, &manifest_dir().join("expected"));
            assert!(out.status.success(), "{w} trace={trace}: {out:?}");
            let res = result(&out);
            assert_eq!(res.field("correct").unwrap(), &Json::Bool(true));
            assert_eq!(res.field("failed").unwrap().as_u64().unwrap(), 0);
            assert!(res.field("attempted").unwrap().as_u64().unwrap() > 0);
            let got: Vec<(String, String)> =
                metrics(&res).into_iter().map(|(n, u, _)| (n, u)).collect();
            assert_eq!(got, want, "{w} trace={trace}");
        }
    }
}

#[test]
fn a_wrong_expected_digest_fails_loudly() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrong-expectations");
    std::fs::create_dir_all(&dir).unwrap();
    for w in WORKLOADS {
        let name = format!("{w}.tiny.txt");
        let text = std::fs::read_to_string(manifest_dir().join("expected").join(&name)).unwrap();
        // Flip the last hex digit of the first digest.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let i = lines
            .iter()
            .position(|l| l.contains(" digest "))
            .expect("a digest line");
        let last = lines[i].pop().unwrap();
        lines[i].push(if last == '0' { '1' } else { '0' });
        std::fs::write(dir.join(&name), lines.join("\n")).unwrap();

        let out = tiny(w, 0, 0, &dir);
        assert_eq!(out.status.code(), Some(1), "{w}: {out:?}");
        let res = result(&out);
        assert_eq!(res.field("correct").unwrap(), &Json::Bool(false));
        assert!(res.field("failed").unwrap().as_u64().unwrap() > 0, "{w}");
    }
}

#[test]
fn exact_counters_repeat_across_runs_and_other_seeds_pass() {
    let counters = |res: &Json| -> Vec<(String, f64)> {
        metrics(res)
            .into_iter()
            .filter(|(_, u, _)| u == "count" || u == "cycles" || u == "ratio")
            .filter(|(n, _, _)| !n.starts_with("core.phase."))
            .map(|(n, _, v)| (n, v))
            .collect()
    };
    for w in WORKLOADS {
        let expected = manifest_dir().join("expected");
        // Each run already fails unless its passes' counters agree.
        let a = tiny(w, 1, 7, &expected);
        let b = tiny(w, 1, 7, &expected);
        assert!(a.status.success() && b.status.success(), "{w}: {a:?} {b:?}");
        assert_eq!(counters(&result(&a)), counters(&result(&b)), "{w}");
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_ghostwriter-perfbench"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
