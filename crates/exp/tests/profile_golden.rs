//! Kernel work-counter golden: the gate of `gwbench profile`.
//!
//! One line per smoke kernel of [`ghostwriter_exp::profile::KERNELS`]
//! with its simulated cycles, ops (loads + stores + scribbles +
//! barriers), per-phase `events/cycles` and drain `events/cycles`
//! (`ProfiledKernel::counters`). Every field is deterministic, so the
//! comparison is exact; a mismatch names the kernel and the field.
//! Wall time is not pinned — it is a trend in the `gwbench profile`
//! artifact, not a gate.
//!
//! A legitimate simulator change regenerates the file with
//! `UPDATE_GOLDEN=1 cargo test -p ghostwriter-exp --test profile_golden`.

use std::fs;
use std::path::PathBuf;

use ghostwriter_exp::profile::run_scale;

/// Field-by-field differences between rendered and committed counter
/// lines, each naming the kernel and the field.
fn diff(got: &str, want: &str) -> Vec<String> {
    let mut out = Vec::new();
    let (got, want): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    if got.len() != want.len() {
        out.push(format!("{} kernels, golden has {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(&want) {
        let (g, w): (Vec<_>, Vec<_>) = (g.split(' ').collect(), w.split(' ').collect());
        let kernel = g[0];
        if kernel != w[0] || g.len() != w.len() {
            out.push(format!(
                "kernel `{kernel}`: line shape differs from golden `{}`",
                w[0]
            ));
            continue;
        }
        for (gf, wf) in g[1..].iter().zip(&w[1..]) {
            if gf != wf {
                let field = wf.split('=').next().unwrap_or(wf);
                out.push(format!(
                    "kernel `{kernel}` field `{field}`: got {gf}, golden {wf}"
                ));
            }
        }
    }
    out
}

#[test]
fn smoke_kernel_counters_match_golden() {
    let kernels = run_scale(true);
    for k in &kernels {
        assert_eq!(
            k.profile.attributed_cycles(),
            k.cycles,
            "{}: attributed cycles do not reconcile",
            k.name
        );
    }
    let payload: String = kernels.iter().map(|k| k.counters() + "\n").collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/profile.smoke.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::write(&path, &payload).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing profile golden {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test -p ghostwriter-exp --test profile_golden",
            path.display()
        )
    });
    let diffs = diff(&payload, &want);
    assert!(
        diffs.is_empty(),
        "kernel work counters diverged from the committed golden; if the \
         simulator change is intentional, regenerate with UPDATE_GOLDEN=1\n  {}",
        diffs.join("\n  ")
    );
}

#[test]
fn diff_names_kernel_and_field() {
    let want = "storm cycles=10 ops=4 routing=3/7 drain=0/0\n";
    assert!(diff(want, want).is_empty());
    let got = "storm cycles=10 ops=4 routing=4/7 drain=0/0\n";
    assert_eq!(
        diff(got, want),
        ["kernel `storm` field `routing`: got routing=4/7, golden routing=3/7"]
    );
    assert_eq!(diff("", want), ["0 kernels, golden has 1"]);
}
