//! Output checking: result digests and the committed expectations.
//!
//! An expectation file holds one `<unit> <field> <value>` line per
//! checked fact (`#` starts a comment). Units are cell keys, machine
//! names or sweep names; a check whose expectation is missing or
//! different is a failure of that unit. `--record` rewrites the file
//! from the run instead of checking it (default seed only).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use ghostwriter_core::Stats;
use ghostwriter_exp::{Fingerprint, RunRecord};

/// Everything a run computes that the record JSON leaves out: the
/// protocol-family and fault/recovery counters (`core::stats_io` does
/// not serialise them).
fn unserialised_counters(s: &Stats) -> [(&'static str, u64); 17] {
    [
        ("wb_elisions", s.wb_elisions),
        ("clean_forwards", s.clean_forwards),
        ("retries", s.retries),
        ("nack_retries", s.nack_retries),
        ("stale_replies", s.stale_replies),
        ("dup_reqs_dropped", s.dup_reqs_dropped),
        ("grant_resends", s.grant_resends),
        ("conflict_nacks", s.conflict_nacks),
        ("corrupt_fills_absorbed", s.corrupt_fills_absorbed),
        ("corrupt_fills_refetched", s.corrupt_fills_refetched),
        ("corrupt_mem_refetches", s.corrupt_mem_refetches),
        ("faults_dropped", s.faults_dropped),
        ("faults_duplicated", s.faults_duplicated),
        ("faults_delayed", s.faults_delayed),
        ("faults_corrupted", s.faults_corrupted),
        ("faults_line_flips", s.faults_line_flips),
        ("gi_storms", s.gi_storms),
    ]
}

/// Canonical text of a run's cycles, output error and full `Stats`.
pub fn stats_text(cycles: u64, error_percent: f64, stats: &Stats) -> String {
    let mut s = format!(
        "cycles={cycles}\nerror_bits={:016x}\n{}\n",
        error_percent.to_bits(),
        stats.to_json().to_compact()
    );
    for (name, v) in unserialised_counters(stats) {
        let _ = writeln!(s, "{name}={v}");
    }
    s
}

/// Digest of one experiment cell: cycles, error, full stats, the trace
/// lines (scenario traces, abort descriptions) and the extras that are
/// not derived from the stats (completion flag, fuzz message counts).
pub fn record_digest(rec: &RunRecord) -> String {
    let mut s = stats_text(rec.cycles, rec.error_percent, &rec.stats);
    for line in &rec.trace {
        let _ = writeln!(s, "trace={line}");
    }
    for key in ["completed", "seeds", "accesses", "messages"] {
        if let Some(v) = rec.extra_value(key) {
            let _ = writeln!(s, "{key}={:016x}", v.to_bits());
        }
    }
    Fingerprint::of(s.as_bytes()).hex()
}

/// The committed expectations of one workload at one scale.
#[derive(Default)]
pub struct Expected {
    facts: BTreeMap<(String, String), String>,
    /// Facts observed this run, in order (for `--record`).
    observed: Vec<(String, String, String)>,
    /// Skip comparisons (recording a new file).
    recording: bool,
}

impl Expected {
    pub fn load(path: &Path, recording: bool) -> Result<Self, String> {
        let mut e = Expected {
            recording,
            ..Default::default()
        };
        if recording {
            return Ok(e);
        }
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.splitn(3, ' ');
            match (it.next(), it.next(), it.next()) {
                (Some(u), Some(f), Some(v)) => {
                    e.facts
                        .insert((u.to_string(), f.to_string()), v.to_string());
                }
                _ => return Err(format!("{}:{}: malformed line", path.display(), n + 1)),
            }
        }
        Ok(e)
    }

    /// Expectations that accept everything (the set-up's warm-up pass).
    pub fn unchecked() -> Self {
        Expected {
            recording: true,
            ..Default::default()
        }
    }

    /// Number of units the file names.
    pub fn units(&self) -> usize {
        let mut units: Vec<&str> = self.facts.keys().map(|(u, _)| u.as_str()).collect();
        units.dedup();
        units.len()
    }

    /// Checks `value` against the expectation for (`unit`, `field`).
    /// Returns a failure description, or `None` when it matches (or
    /// while recording).
    pub fn check(&mut self, unit: &str, field: &str, value: &str) -> Option<String> {
        if self.recording {
            if !self
                .observed
                .iter()
                .any(|(u, f, _)| u == unit && f == field)
            {
                self.observed
                    .push((unit.to_string(), field.to_string(), value.to_string()));
            }
            return None;
        }
        match self.facts.get(&(unit.to_string(), field.to_string())) {
            Some(want) if want == value => None,
            Some(want) => Some(format!("{unit}: {field} is {value}, expected {want}")),
            None => Some(format!("{unit}: no committed {field} to check against")),
        }
    }

    /// Whether the file has an expectation for (`unit`, `field`).
    pub fn has(&self, unit: &str, field: &str) -> bool {
        self.facts
            .contains_key(&(unit.to_string(), field.to_string()))
    }

    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut s = String::new();
        for line in header.lines() {
            let _ = writeln!(s, "# {line}");
        }
        for (u, f, v) in &self.observed {
            let _ = writeln!(s, "{u} {f} {v}");
        }
        std::fs::write(path, s)
    }
}
