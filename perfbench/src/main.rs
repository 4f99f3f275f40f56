//! The repository benchmark: three workloads through the crates' public
//! APIs, end-to-end metrics from untraced passes and per-layer metrics
//! from a separate traced run. See README.md.
//!
//! ```text
//! perfbench --workload <paper_repro|coherence_storm|checker_2c2b>
//!           [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]
//!           [--expected-dir DIR] [--out-dir DIR] [--record]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! when every unit passed its output check, 1 when one failed and 2 on
//! bad arguments or a missing expectation file.

mod checker;
mod expect;
mod kernels;
mod paper_repro;
mod storm;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ghostwriter_core::{Phase, Profile, Stats, ALL_PHASES};

use expect::Expected;
use trace::{Tracer, BENCH_PREFIX};

/// The seed at which every workload runs exactly the committed inputs
/// and its digests are compared with the expectation files.
pub const DEFAULT_SEED: u64 = 0;

/// Untraced passes per run, at least (more while `--seconds` lasts);
/// in a traced run, as many traced passes again.
const MIN_PASSES: usize = 3;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

const WORKLOADS: [&str; 3] = ["paper_repro", "coherence_storm", "checker_2c2b"];

/// End-to-end metrics, printed by `--trace 0` runs: (name, unit).
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Span names whose self time is reported as `<name>_ms`.
const SPANS: [&str; 11] = [
    "exp.specs",
    "workloads.generate",
    "workloads.populate",
    "core.machine_new",
    "core.run",
    "core.tester",
    "exp.scenario",
    "workloads.output",
    "workloads.reference",
    "core.teardown",
    "check.plan",
];

/// Kernel metric names (ns per call), in `kernels::run_all` order.
const KERNELS: [&str; 8] = [
    "sim.queue_ns",
    "mem.probe_ns",
    "mem.insert_ns",
    "noc.route_ns",
    "core.datapool_ns",
    "core.fault_draw_ns",
    "check.fingerprint_ns",
    "check.clone_ns",
];

/// Per-layer metrics, printed by `--trace 1` runs: (name, unit).
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        SPANS.iter().map(|s| (format!("{s}_ms"), "ms")).collect();
    v.push(("check.search_ms".into(), "ms"));
    v.push(("bench.unattributed_ms".into(), "ms"));
    v.push(("bench.span_coverage_pct".into(), "%"));
    v.push(("trace_overhead_pct".into(), "%"));
    for p in ALL_PHASES {
        v.push((format!("core.phase.{}_ms", p.name()), "ms"));
        v.push((format!("core.phase.{}_events", p.name()), "count"));
    }
    v.push(("core.host_ns_per_event".into(), "ns"));
    v.extend(KERNELS.iter().map(|k| (k.to_string(), "ns")));
    for (name, unit) in COUNTERS {
        v.push((name.to_string(), unit));
    }
    v
}

/// Exact work counters: (metric name, unit).
const COUNTERS: [(&str, &str); 11] = [
    ("core.sim_ops", "count"),
    ("core.sim_cycles", "cycles"),
    ("core.messages", "count"),
    ("core.l1_accesses", "count"),
    ("core.l1_hit_ratio", "ratio"),
    ("core.retries", "count"),
    ("exp.aborted_cells", "count"),
    ("check.states", "count"),
    ("check.transitions", "count"),
    ("check.shards", "count"),
    ("check.new_state_ratio", "ratio"),
];

/// What a workload's set-up is given.
pub struct Setup {
    pub seed: u64,
    pub tiny: bool,
    pub out_dir: PathBuf,
}

/// Deterministic work done in one pass. Identical in every pass of a
/// run (checked).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub sim_ops: u64,
    pub sim_cycles: u64,
    pub messages: u64,
    pub l1_accesses: u64,
    pub l1_hits: u64,
    pub retries: u64,
    pub aborted_cells: u64,
    pub states: u64,
    pub transitions: u64,
    pub shards: u64,
}

impl Counters {
    /// Adds one simulated run.
    pub fn add_run(&mut self, cycles: u64, s: &Stats) {
        self.sim_ops += s.loads + s.stores + s.scribbles + s.barriers;
        self.sim_cycles += cycles;
        self.messages += s.traffic.total();
        self.l1_accesses += s.l1_accesses();
        self.l1_hits += s.l1_accesses() - s.l1_misses();
        self.retries += s.retries + s.nack_retries;
    }

    fn values(&self) -> [f64; 11] {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        [
            self.sim_ops as f64,
            self.sim_cycles as f64,
            self.messages as f64,
            self.l1_accesses as f64,
            ratio(self.l1_hits, self.l1_accesses),
            self.retries as f64,
            self.aborted_cells as f64,
            self.states as f64,
            self.transitions as f64,
            self.shards as f64,
            ratio(self.states, self.transitions),
        ]
    }
}

/// One pass's results.
#[derive(Default)]
pub struct PassOut {
    /// Units (cells, machines, sweeps) run.
    pub attempted: u64,
    /// `unit: what went wrong`, one line per problem.
    pub failures: Vec<String>,
    /// Units with at least one problem.
    pub failed: BTreeSet<String>,
    /// Host ms of each timed piece of each unit. A unit is one piece,
    /// except the fuzz cell: one piece per tester seed.
    pub unit_ms: Vec<Vec<f64>>,
    pub counters: Counters,
    /// Work units of `work_per_s`: simulated ops, or checker states.
    pub work: u64,
    /// Profiler phases summed over the pass's machines: (events, est ns).
    pub phases: [(u64, u64); 6],
    pub wall_s: f64,
}

impl PassOut {
    /// Records that `unit` failed its output check.
    pub fn fail(&mut self, unit: &str, what: impl std::fmt::Display) {
        self.failures.push(format!("{unit}: {what}"));
        self.failed.insert(unit.to_string());
    }

    pub fn add_profile(&mut self, p: &Profile) {
        for (acc, c) in self.phases.iter_mut().zip(p.phases.iter()) {
            acc.0 += c.events;
            acc.1 += c.est_wall_ns();
        }
    }
}

/// A workload after set-up.
pub trait Prepared {
    /// Runs every unit once, one after another.
    fn pass(&self, tr: &mut Tracer, expected: &mut Expected, out: &mut PassOut);
    /// Unit names, indexed by the unit ids spans carry.
    fn unit_names(&self) -> Vec<String>;
    /// One line on what a pass runs and checks.
    fn describe(&self) -> String;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    expected_dir: PathBuf,
    out_dir: PathBuf,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        expected_dir: PathBuf::from("perfbench/expected"),
        out_dir: PathBuf::from("perfbench/out"),
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--scale" => {
                args.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(bad("scale")),
                }
            }
            "--expected-dir" => args.expected_dir = PathBuf::from(&value),
            "--out-dir" => args.out_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.record && args.seed != DEFAULT_SEED {
        return Err(format!("--record needs the default seed {DEFAULT_SEED}"));
    }
    Ok(args)
}

pub fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile (0 for an empty sample).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The traced passes' per-layer numbers.
struct TracedPass {
    wall_ms: f64,
    self_ms: BTreeMap<&'static str, f64>,
    phases: [(u64, u64); 6],
}

impl TracedPass {
    /// Self time inside the per-layer spans (all but `bench.*`).
    fn attributed_ms(&self) -> f64 {
        self.self_ms
            .iter()
            .filter(|(n, _)| !n.starts_with(BENCH_PREFIX))
            .map(|(_, v)| v)
            .sum()
    }
}

fn per_layer_metrics(
    untraced: &[PassOut],
    traced: &[TracedPass],
    specs_ms: &[f64],
    counters: &Counters,
    kernels: &[(&'static str, f64)],
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let span_median = |name: &str| {
        median(
            &traced
                .iter()
                .map(|t| t.self_ms.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    for s in SPANS {
        m.insert(format!("{s}_ms"), span_median(s));
    }
    m.insert("exp.specs_ms".into(), median(specs_ms));
    let search: Vec<f64> = traced
        .iter()
        .map(|t| {
            let get = |n| t.self_ms.get(n).copied().unwrap_or(0.0);
            (get("check.run_sweep") - get("check.plan")).max(0.0)
        })
        .collect();
    m.insert("check.search_ms".into(), median(&search));
    let unattributed: Vec<f64> = traced
        .iter()
        .map(|t| t.wall_ms - t.attributed_ms())
        .collect();
    let coverage: Vec<f64> = traced
        .iter()
        .map(|t| 100.0 * t.attributed_ms() / t.wall_ms)
        .collect();
    m.insert("bench.unattributed_ms".into(), median(&unattributed));
    m.insert("bench.span_coverage_pct".into(), median(&coverage));
    let overhead: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| 100.0 * (t.wall_ms / (u.wall_s * 1e3) - 1.0))
        .collect();
    m.insert("trace_overhead_pct".into(), median(&overhead));
    let mut popped = 0u64;
    for (i, p) in ALL_PHASES.iter().enumerate() {
        let ms: Vec<f64> = traced.iter().map(|t| t.phases[i].1 as f64 / 1e6).collect();
        let events = traced.first().map_or(0, |t| t.phases[i].0);
        if *p != Phase::Routing {
            popped += events;
        }
        m.insert(format!("core.phase.{}_ms", p.name()), median(&ms));
        m.insert(format!("core.phase.{}_events", p.name()), events as f64);
    }
    m.insert(
        "core.host_ns_per_event".into(),
        if popped == 0 {
            0.0
        } else {
            span_median("core.run") * 1e6 / popped as f64
        },
    );
    for (name, v) in kernels {
        m.insert(name.to_string(), *v);
    }
    for ((name, _), v) in COUNTERS.iter().zip(counters.values()) {
        m.insert(name.to_string(), v);
    }
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scale_name = if args.tiny { "tiny" } else { "full" };
    let expected_path = args
        .expected_dir
        .join(format!("{}.{scale_name}.txt", args.workload));
    let mut expected = match Expected::load(&expected_path, args.record) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let setup = Setup {
        seed: args.seed,
        tiny: args.tiny,
        out_dir: args.out_dir.clone(),
    };
    let prepare = match args.workload.as_str() {
        "paper_repro" => paper_repro::prepare,
        "coherence_storm" => storm::prepare,
        _ => checker::prepare,
    };

    // Set-up, SETUPS times (`setup_s` is the median): build the
    // workload's units from the seed, then warm up by running them once
    // at tiny scale, so lazy initialisation and cold caches are paid
    // before the timed passes. The last set-up's units are timed.
    let warm_setup = Setup {
        tiny: true,
        out_dir: args.out_dir.clone(),
        ..setup
    };
    let mut tr = Tracer::new(args.trace);
    let mut setup_s = Vec::new();
    let mut specs_ms = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let mark = tr.mark();
        let t0 = Instant::now();
        let p = prepare(&setup, &mut tr);
        prepare(&warm_setup, &mut Tracer::new(false)).pass(
            &mut Tracer::new(false),
            &mut Expected::unchecked(),
            &mut PassOut::default(),
        );
        setup_s.push(t0.elapsed().as_secs_f64());
        specs_ms.push(
            tr.self_ms_since(mark)
                .get("exp.specs")
                .copied()
                .unwrap_or(0.0),
        );
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");

    // Untraced passes give the end-to-end metrics. A traced run
    // follows each untraced pass with a traced one on the same units,
    // so each pair sees the same host speed (the tracing overhead is
    // taken pair by pair), then times the layer kernels. No pass starts
    // that would end past the budget, judged by the previous one.
    let mut untraced_tr = Tracer::new(false);
    let mut passes: Vec<PassOut> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut traced_outs: Vec<PassOut> = Vec::new();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let min_passes = if args.tiny { 2 } else { MIN_PASSES };
    let mut last = Duration::ZERO;
    while passes.len() < min_passes || started.elapsed() + last < budget {
        let round = Instant::now();
        let mut out = PassOut::default();
        let t0 = Instant::now();
        prepared.pass(&mut untraced_tr, &mut expected, &mut out);
        out.wall_s = t0.elapsed().as_secs_f64();
        passes.push(out);
        if args.trace {
            let mark = tr.mark();
            let mut out = PassOut::default();
            let t0 = Instant::now();
            prepared.pass(&mut tr, &mut expected, &mut out);
            out.wall_s = t0.elapsed().as_secs_f64();
            traced.push(TracedPass {
                wall_ms: out.wall_s * 1e3,
                self_ms: tr.self_ms_since(mark),
                phases: out.phases,
            });
            traced_outs.push(out);
        }
        last = round.elapsed();
    }
    let kernel_ns = if args.trace {
        kernels::run_all(args.seed, args.tiny)
    } else {
        Vec::new()
    };

    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let units = prepared.unit_names().len();
    if args.seed == DEFAULT_SEED && !args.record && expected.units() != units {
        failed += 1;
        failures.push(format!(
            "{} names {} units, the workload has {}",
            expected_path.display(),
            expected.units(),
            units
        ));
    }

    let counters = passes[0].counters.clone();
    for (i, p) in passes.iter().chain(traced_outs.iter()).enumerate() {
        attempted += p.attempted;
        failed += p.failed.len() as u64;
        failures.extend(p.failures.iter().map(|f| format!("pass {i}: {f}")));
        if p.counters != counters {
            failed += 1;
            failures.push(format!(
                "pass {i}: exact counters {:?} differ from pass 0's {counters:?}",
                p.counters
            ));
        }
    }

    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    if args.trace {
        let values = per_layer_metrics(&passes, &traced, &specs_ms, &counters, &kernel_ns);
        for (name, unit) in per_layer() {
            let v = values.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, unit, v));
        }
    } else {
        // Best of N per piece: interference on a shared host only ever
        // adds time, so each piece's fastest pass is its least disturbed
        // measurement. A unit's time is the sum of its pieces' times, a
        // pass's the sum of its units'.
        let best: Vec<f64> = (0..passes[0].unit_ms.len())
            .map(|i| {
                (0..passes[0].unit_ms[i].len())
                    .map(|j| {
                        passes
                            .iter()
                            .filter_map(|p| p.unit_ms.get(i).and_then(|u| u.get(j)))
                            .copied()
                            .fold(f64::INFINITY, f64::min)
                    })
                    .sum::<f64>()
            })
            .collect();
        let wall_s = best.iter().sum::<f64>() / 1e3;
        let values = [
            wall_s,
            passes[0].work as f64 / wall_s,
            quantile(&best, 0.5),
            quantile(&best, 0.9),
            median(&setup_s),
            peak_rss_mb(),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), unit, v));
        }
    }

    // Human-readable summary on stderr.
    eprintln!(
        "perfbench {} seed={} scale={scale_name} trace={}: {} untraced pass(es){}",
        args.workload,
        args.seed,
        args.trace as u8,
        passes.len(),
        if args.trace {
            format!(", {} traced", traced.len())
        } else {
            String::new()
        }
    );
    eprintln!("  {}", prepared.describe());
    for (i, p) in passes.iter().enumerate() {
        eprintln!("  pass {i}: {:.3} s", p.wall_s);
    }
    for (i, t) in traced.iter().enumerate() {
        let rest = t.wall_ms - t.attributed_ms();
        eprintln!(
            "  traced pass {i}: {:.1} ms, unattributed {rest:.1} ms ({:.2}%)",
            t.wall_ms,
            100.0 * rest / t.wall_ms
        );
    }
    for ((name, _), v) in COUNTERS.iter().zip(counters.values()) {
        eprintln!("  {name} = {v}");
    }
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    eprintln!("  fail_ratio = {fail_ratio} ({failed} of {attempted})");
    for f in failures.iter().take(20) {
        eprintln!("  FAIL {f}");
    }

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" },
            json_number(*v)
        );
    }
    line.push_str("}}");

    // Everything the run knows goes into its own output directory.
    let stem = format!(
        "{}-{scale_name}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let mut summary = format!("{line}\n");
    let _ = writeln!(summary, "fail_ratio {fail_ratio}");
    for f in &failures {
        let _ = writeln!(summary, "FAIL {f}");
    }
    let _ = std::fs::write(args.out_dir.join(format!("{stem}.txt")), summary);
    // Host ms of every unit in every untraced pass, one line per pass.
    let mut unit_times = format!("{}\n", prepared.unit_names().join("\t"));
    for p in &passes {
        let row: Vec<String> = p
            .unit_ms
            .iter()
            .map(|pieces| format!("{:.3}", pieces.iter().sum::<f64>()))
            .collect();
        let _ = writeln!(unit_times, "{}", row.join("\t"));
    }
    let _ = std::fs::write(args.out_dir.join(format!("{stem}.units.tsv")), unit_times);
    if args.trace {
        if let Err(e) = tr.write(
            &args.out_dir.join(format!("{stem}.spans.jsonl")),
            &prepared.unit_names(),
        ) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    if args.record {
        let header = format!(
            "Expected outputs of perfbench --workload {} --scale {scale_name} at seed {DEFAULT_SEED}.\n\
             Regenerate with --record (only after a deliberate change of results).",
            args.workload
        );
        if let Err(e) = expected.write(&expected_path, &header) {
            eprintln!("perfbench: cannot write {}: {e}", expected_path.display());
            std::process::exit(2);
        }
        eprintln!("perfbench: recorded {}", expected_path.display());
    }

    println!("{line}");
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
