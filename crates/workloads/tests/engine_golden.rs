//! Per-workload engine golden: every registry workload, pinned.
//!
//! One line per cell of {paper, extended, micro} workloads × {MESI,
//! Ghostwriter} × every base protocol, at test scale with the default
//! seed, 4 threads and d = 8 — plus the contended `bad_dot_product`
//! cells at 8 threads and d = 4. Each line records the final cycle
//! count, the bits of the output error, a fingerprint of the output
//! vector's bits, and a fingerprint of the `Debug` form of the run's
//! [`Stats`](ghostwriter_core::Stats). The `Debug` form covers every
//! counter, including the ones the canonical stats JSON omits
//! (writeback elisions, clean forwards, recovery counters), so any
//! scheduling or protocol drift in the execution engine shows up here
//! as a one-line diff.
//!
//! A legitimate simulator change regenerates the file with
//! `UPDATE_GOLDEN=1 cargo test -p ghostwriter-workloads --test engine_golden`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use ghostwriter_core::{BaseProtocol, MachineConfig, Protocol};
use ghostwriter_workloads::{
    execute, extended_benchmarks, find_benchmark, micro_benchmarks, paper_benchmarks, ScaleClass,
    DEFAULT_SEED,
};

/// FNV-1a, 64-bit: a stable, dependency-free content fingerprint.
fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Simulates one cell and renders its golden line.
fn cell(name: &str, protocol: Protocol, base: BaseProtocol, threads: usize, d: u8) -> String {
    let entry = find_benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let cfg = MachineConfig {
        cores: threads,
        protocol,
        base_protocol: base,
        ..MachineConfig::default()
    };
    let mut w = entry.build_seeded(ScaleClass::Test, DEFAULT_SEED);
    let out = execute(w.as_mut(), cfg, threads, d);
    let label = if protocol.is_ghostwriter() {
        "gw"
    } else {
        "mesi"
    };
    format!(
        "{name} {label} {} t={threads} d={d} cycles={} err={:#018x} out={}:{:016x} stats={:016x}\n",
        base.name(),
        out.report.cycles,
        out.error_percent.to_bits(),
        out.output.len(),
        fnv64(out.output.iter().flat_map(|v| v.to_bits().to_le_bytes())),
        fnv64(format!("{:?}", out.report.stats).into_bytes()),
    )
}

/// Every golden cell, in a fixed order.
fn golden_payload() -> String {
    let protocols = [Protocol::Mesi, Protocol::ghostwriter()];
    let mut out = String::new();
    for entry in paper_benchmarks()
        .into_iter()
        .chain(extended_benchmarks())
        .chain(micro_benchmarks())
    {
        for protocol in protocols {
            for base in BaseProtocol::ALL {
                out.push_str(&cell(entry.name, protocol, base, 4, 8));
            }
        }
    }
    // The contended cells: barriers, GS/GI service and the NoC under the
    // heaviest false sharing.
    for protocol in protocols {
        out.push_str(&cell("bad_dot_product", protocol, BaseProtocol::Mesi, 8, 4));
    }
    out
}

#[test]
fn engine_matches_committed_golden() {
    let payload = golden_payload();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &payload).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing engine golden {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test -p ghostwriter-workloads --test engine_golden",
            path.display()
        )
    });
    let mut diff = String::new();
    for (got, want) in payload.lines().zip(want.lines()) {
        if got != want {
            let _ = writeln!(diff, "  got:  {got}\n  want: {want}");
        }
    }
    assert!(
        diff.is_empty() && payload.lines().count() == want.lines().count(),
        "engine output diverged from the committed golden; if the simulator \
         change is intentional, regenerate with UPDATE_GOLDEN=1\n{diff}"
    );
}
