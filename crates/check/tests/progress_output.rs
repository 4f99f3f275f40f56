//! `gwcheck`'s shard progress line rewrites itself with `\r`, which only
//! a terminal renders. When stderr is captured (CI logs, pipes) the
//! binary must leave it out, or every progress update concatenates into
//! one unreadable line.

use std::process::Command;

#[test]
fn captured_stderr_has_no_carriage_returns() {
    let out = Command::new(env!("CARGO_BIN_EXE_gwcheck"))
        .args(["--cores", "2", "--blocks", "1", "--no-cache"])
        .output()
        .expect("gwcheck runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean sweep must pass:\n{stderr}"
    );
    assert!(
        !stderr.contains('\r'),
        "captured stderr carries terminal progress rewrites: {stderr:?}"
    );
}
