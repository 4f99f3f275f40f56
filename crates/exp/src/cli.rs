//! The `gwbench` command line.
//!
//! ```text
//! gwbench list
//! gwbench run <experiment>... [options]
//! gwbench repro-all [options]
//! gwbench faults [options]
//! gwbench profile [--smoke] [--out FILE] [--quiet]
//! gwbench sim <app> [sim options]
//! gwbench clean
//!
//! options:
//!   --jobs N          worker threads (default: available parallelism)
//!   --no-cache        bypass the result cache (no lookups, no stores)
//!   --smoke           small inputs / 4-core machine, reports under
//!                     results/smoke/
//!   --expect-cached   exit 3 if any cell simulated (CI warm-pass check)
//!   --quiet           do not print reports to stdout (files only)
//! ```
//!
//! `profile` runs the simulator's kernels with the engine's cycle-
//! attribution profiler on (see [`crate::profile`]), prints each
//! kernel's ranked per-phase table with its ops and wall time, and
//! writes the JSON artifact; it exits 4 if any kernel's per-phase
//! cycles fail to reconcile with its simulated cycle count, or if
//! profiling perturbs the simulation's stats. The smoke kernels' work
//! counters are pinned exactly by the tier-1 golden
//! `crates/exp/tests/golden/profile.smoke.txt`.
//!
//! `sim` runs one application on a configurable machine and prints the
//! full report, or with `--compare` the baseline/Ghostwriter pair and
//! the paper's derived metrics. It calls the workload runner directly:
//! no cache, no report files. `--protocol` takes the token
//! [`ghostwriter_core::parse_protocol`] defines (the same one `gwcheck`
//! takes); under `--compare` only its base family matters.
//!
//! `faults` runs the resilience campaign (see [`crate::resilience`]):
//! the fault-rate × protocol × workload grid under seeded fault
//! injection, rendered as resilience curves in `RESILIENCE.txt`. It
//! shares the engine's cache, dedup and `--jobs`-invariance with `run`;
//! fault cells are addressed by their own keys (the fault configuration
//! is part of the identity), so campaigns never collide with — or
//! invalidate — fault-free results.
//!
//! `run` concatenates the selected experiments' run matrices into ONE
//! sweep, so the engine's fingerprint dedup works across experiments:
//! `gwbench repro-all` simulates each distinct cell exactly once even
//! though Figs. 7-11 and `repro_all` all declare the same grid. Each
//! report is written to `results/<name>.txt` (or `results/smoke/` with
//! `--smoke`), the evaluation CSV to `eval.csv` alongside, and the
//! structured sweep log to `results/cache/last_sweep.json`.

use std::path::PathBuf;
use std::str::FromStr;

use ghostwriter_core::config::{GiStorePolicy, GwConfig};
use ghostwriter_core::{parse_protocol, BaseProtocol, MachineConfig, Protocol};
use ghostwriter_workloads::{
    all_benchmarks, compare_on, execute, find_benchmark, BenchmarkEntry, ScaleClass,
};

use crate::engine::Engine;
use crate::experiments::{all_experiments, eval_csv, find_experiment, Experiment};
use crate::spec::Scale;

/// Parsed command line.
struct Options {
    jobs: usize,
    use_cache: bool,
    scale: Scale,
    expect_cached: bool,
    quiet: bool,
    names: Vec<String>,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn usage() -> String {
    let mut s = String::from(
        "usage: gwbench <list|run <experiment>...|repro-all|faults|clean>\n\
         \x20      [--jobs N] [--no-cache] [--smoke] [--expect-cached] [--quiet]\n\
         \x20      gwbench profile [--smoke] [--out FILE] [--quiet]\n\
         \x20      gwbench sim <app> [sim options]\n",
    );
    s.push_str("\nexperiments:\n");
    for e in all_experiments() {
        s.push_str(&format!("  {:<22} {}\n", e.name, e.title));
    }
    s.push_str(
        "\nsim options:\n\
         \x20 --cores N              cores, 1..=64 (default 24, paper Table 1)\n\
         \x20 --threads N            threads, 1..=cores (default = cores)\n\
         \x20 --d N                  d-distance for scribbles, 0..=255 (default 8)\n\
         \x20 --protocol P           <base>, gw or gw-<base>; base is mesi, msi, moesi,\n\
         \x20                        mosi or mesif (default gw = Ghostwriter over MESI)\n\
         \x20 --capture              Fig. 3-literal GI store policy\n\
         \x20 --timeout N            GI timeout in cycles (default 1024)\n\
         \x20 --bound N              §3.5 error bound (max hidden writes)\n\
         \x20 --contention           model per-link NoC contention\n\
         \x20 --switch N             context-switch period in cycles (§3.5 forfeit)\n\
         \x20 --scale test|eval      input scale (default eval)\n\
         \x20 --compare              run the baseline and Ghostwriter, derive Figs. 7-11\n",
    );
    s.push_str("\napps:\n");
    for e in all_benchmarks() {
        s.push_str(&format!(
            "  {:<22} {} ({})\n",
            e.name,
            e.domain,
            e.suite.label()
        ));
    }
    s
}

/// The value after `flag`, parsed as `T`.
fn flag_value<'a, T: FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} value `{v}`"))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        jobs: default_jobs(),
        use_cache: true,
        scale: Scale::Eval,
        expect_cached: false,
        quiet: false,
        names: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                opts.jobs = flag_value(&mut it, a)?;
                if opts.jobs == 0 {
                    return Err("--jobs must be >= 1".into());
                }
            }
            "--no-cache" => opts.use_cache = false,
            "--smoke" => opts.scale = Scale::Smoke,
            "--expect-cached" => opts.expect_cached = true,
            "--quiet" => opts.quiet = true,
            name if !name.starts_with('-') => opts.names.push(name.to_string()),
            flag => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(opts)
}

/// Parsed `gwbench sim` command line.
struct SimOptions {
    app: BenchmarkEntry,
    /// The machine with the baseline protocol; `gw` replaces it for the
    /// Ghostwriter run.
    machine: MachineConfig,
    gw: Protocol,
    /// Whether a single run uses `gw` (else the baseline).
    run_gw: bool,
    threads: usize,
    d: u8,
    scale: ScaleClass,
    compare: bool,
}

fn parse_sim(args: &[String]) -> Result<SimOptions, String> {
    let mut app = None;
    let mut cores = 24;
    let mut threads = None;
    let mut d = 8;
    let mut run_gw = true;
    let mut base_protocol = BaseProtocol::Mesi;
    let mut gw = GwConfig::default();
    let mut model_contention = false;
    let mut context_switch_period = None;
    let mut scale = ScaleClass::Eval;
    let mut compare = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cores" => cores = flag_value(&mut it, a)?,
            "--threads" => threads = Some(flag_value(&mut it, a)?),
            "--d" => d = flag_value(&mut it, a)?,
            "--protocol" => {
                let v: String = flag_value(&mut it, a)?;
                let (p, b) = parse_protocol(&v).ok_or_else(|| format!("unknown protocol `{v}`"))?;
                run_gw = p.is_ghostwriter();
                base_protocol = b;
            }
            "--capture" => gw.gi_stores = GiStorePolicy::Capture,
            "--timeout" => gw.gi_timeout = flag_value(&mut it, a)?,
            "--bound" => gw.max_hidden_writes = Some(flag_value(&mut it, a)?),
            "--contention" => model_contention = true,
            "--switch" => context_switch_period = Some(flag_value(&mut it, a)?),
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("test") => ScaleClass::Test,
                    Some("eval") => ScaleClass::Eval,
                    _ => return Err("--scale needs `test` or `eval`".into()),
                }
            }
            "--compare" => compare = true,
            name if !name.starts_with('-') && app.is_none() => {
                app = Some(
                    find_benchmark(name).ok_or_else(|| format!("unknown application `{name}`"))?,
                );
            }
            name if !name.starts_with('-') => return Err("sim takes one application".into()),
            flag => return Err(format!("unknown sim flag `{flag}`")),
        }
    }
    let app = app.ok_or("sim needs an application name")?;
    let machine = MachineConfig {
        cores,
        protocol: Protocol::Mesi,
        base_protocol,
        model_contention,
        context_switch_period,
        ..MachineConfig::default()
    };
    let gw = Protocol::Ghostwriter(gw);
    MachineConfig {
        protocol: gw,
        ..machine.clone()
    }
    .check()
    .map_err(|e| format!("invalid machine: {e}"))?;
    let threads = threads.unwrap_or(cores);
    if !(1..=cores).contains(&threads) {
        return Err(format!("--threads must be in 1..={cores}"));
    }
    Ok(SimOptions {
        app,
        machine,
        gw,
        run_gw,
        threads,
        d,
        scale,
        compare,
    })
}

/// `gwbench sim`: one uncached run (or `--compare` pair), printed.
fn run_sim(o: &SimOptions) {
    let entry = &o.app;
    let cores = o.machine.cores;
    if o.compare {
        let cmp = compare_on(&|| entry.build(o.scale), &o.machine, o.threads, o.d, o.gw);
        let (base, g) = (&cmp.baseline.report, &cmp.ghostwriter.report);
        println!(
            "{} @ {} cores, d={} ({})",
            entry.name,
            cores,
            o.d,
            entry.metric.label()
        );
        println!(
            "  baseline : {:>9} cycles  {:>8} messages",
            base.cycles,
            base.stats.traffic.total()
        );
        println!(
            "  ghostwriter: {:>7} cycles  {:>8} messages",
            g.cycles,
            g.stats.traffic.total()
        );
        println!(
            "  speedup {:.1}%  traffic {:.3}  energy saved {:.1}%  error {:.4}%",
            cmp.speedup_percent(),
            cmp.normalized_traffic(),
            cmp.energy_saved_percent(),
            cmp.output_error_percent()
        );
        println!(
            "  GS serviced {:.1}%  GI serviced {:.1}%  GS inv {}  GI timeouts {}",
            cmp.gs_serviced_percent(),
            cmp.gi_serviced_percent(),
            g.stats.gs_invalidations,
            g.stats.gi_timeouts
        );
        return;
    }

    let protocol = if o.run_gw { o.gw } else { Protocol::Mesi };
    let cfg = MachineConfig {
        protocol,
        ..o.machine.clone()
    };
    let mut w = entry.build(o.scale);
    let out = execute(w.as_mut(), cfg, o.threads, o.d);
    let s = &out.report.stats;
    println!("{} @ {} cores, {:?}", entry.name, cores, protocol);
    println!("  cycles           : {}", out.report.cycles);
    println!(
        "  instructions     : {} loads, {} stores, {} scribbles, {} barriers",
        s.loads, s.stores, s.scribbles, s.barriers
    );
    println!(
        "  L1               : {} hits, {} misses ({:.2}% miss rate)",
        s.l1_load_hits + s.l1_store_hits,
        s.l1_misses(),
        100.0 * s.l1_misses() as f64 / s.l1_accesses().max(1) as f64
    );
    println!(
        "  coherence        : {} messages, {} flit-hops",
        s.traffic.total(),
        s.traffic.flit_hops()
    );
    println!(
        "  approximate      : GS {} entries + {} hits, GI {} entries + {} hits, {} forfeits",
        s.serviced_by_gs,
        s.gs_hits,
        s.serviced_by_gi,
        s.gi_store_hits,
        s.gs_invalidations + s.gi_timeouts + s.approx_evictions
    );
    println!(
        "  DRAM             : {} reads, {} writes",
        s.dram_reads, s.dram_writes
    );
    println!(
        "  energy           : {:.1} nJ memory + {:.1} nJ network",
        out.report.energy.memory_pj / 1000.0,
        out.report.energy.network_pj / 1000.0
    );
    println!(
        "  output error     : {:.4}% ({})",
        out.error_percent,
        entry.metric.label()
    );
    println!(
        "  load imbalance   : {:.3} (max finish / mean finish)",
        out.report.imbalance()
    );
    println!("  per-core         : ops / hits / misses / approx-serviced / finish");
    for (c, pc) in out.report.per_core.iter().enumerate() {
        println!(
            "    core {c:<2}        : {:>7} {:>7} {:>6} {:>6} {:>9}",
            pc.ops, pc.l1_hits, pc.l1_misses, pc.approx_serviced, pc.finish_cycle
        );
    }
}

fn report_dir(scale: Scale) -> PathBuf {
    match scale {
        Scale::Eval => PathBuf::from("results"),
        Scale::Smoke => PathBuf::from("results/smoke"),
    }
}

/// Runs the selected experiments as one deduplicated sweep. Returns the
/// process exit code.
fn run_experiments(experiments: Vec<Experiment>, opts: &Options) -> i32 {
    let scale = opts.scale;
    let specs: Vec<_> = experiments.iter().map(|e| e.spec(scale)).collect();
    let all_runs: Vec<_> = specs.iter().flat_map(|s| s.runs.iter().cloned()).collect();

    let mut engine = Engine::new(opts.jobs);
    engine.use_cache = opts.use_cache;
    let (records, log) = engine.run(&all_runs);

    // Slice the flat record vector back per experiment and render.
    let out_dir = report_dir(scale);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("gwbench: cannot create {}: {e}", out_dir.display());
        return 1;
    }
    let mut offset = 0usize;
    for (exp, spec) in experiments.iter().zip(&specs) {
        let slice = &records[offset..offset + spec.runs.len()];
        offset += spec.runs.len();
        let report = exp.render(spec, slice);
        if !opts.quiet {
            print!("{report}");
            println!();
        }
        let path = out_dir.join(exp.output);
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("gwbench: cannot write {}: {e}", path.display());
            return 1;
        }
        if exp.name == "repro_all" {
            let csv_path = out_dir.join("eval.csv");
            if let Err(e) = std::fs::write(&csv_path, eval_csv(spec, slice)) {
                eprintln!("gwbench: cannot write {}: {e}", csv_path.display());
                return 1;
            }
        }
    }

    // Persist the structured sweep log next to the cache.
    let log_path = engine.cache.dir().join("last_sweep.json");
    if let Some(parent) = log_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&log_path, log.to_json().to_pretty()) {
        eprintln!("gwbench: cannot write {}: {e}", log_path.display());
    }

    eprintln!(
        "gwbench: {} spec cells -> {} distinct ({} deduped); {} cache hits, \
         {} executed ({} corrupt re-runs); {} sim cycles; {} ms",
        all_runs.len(),
        log.runs.len(),
        log.deduped,
        log.cache_hits,
        log.executed,
        log.corrupt,
        log.sim_cycles,
        log.wall_ms
    );

    // Transition-coverage over the cells that actually simulated this
    // invocation (cache-loaded records carry no coverage counters, so a
    // fully-warm run prints nothing).
    let mut coverage = ghostwriter_core::Coverage::default();
    for r in &records {
        coverage.merge(&r.stats.coverage);
    }
    if !coverage.is_empty() {
        let (l1_hit, l1_total) = coverage.l1_reached();
        let (dir_hit, dir_total) = coverage.dir_reached();
        eprintln!(
            "gwbench: transition coverage (freshly executed cells): \
             L1 {l1_hit}/{l1_total} rows, directory {dir_hit}/{dir_total} rows \
             (see docs/protocol-table.md)"
        );
    }

    if opts.expect_cached && log.executed > 0 {
        eprintln!(
            "gwbench: --expect-cached but {} cell(s) simulated",
            log.executed
        );
        return 3;
    }
    0
}

/// Entry point of the `gwbench` binary. `args` excludes the program
/// name. Returns the exit code.
pub fn main_with_args(args: Vec<String>) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{}", usage());
        return 2;
    };
    match cmd.as_str() {
        "list" => {
            for e in all_experiments() {
                println!("{:<22} {}", e.name, e.title);
            }
            0
        }
        "clean" => {
            let cache = crate::cache::ResultCache::new(crate::cache::ResultCache::default_dir());
            match cache.clean() {
                Ok(n) => {
                    println!("gwbench: removed {n} cache entries");
                    0
                }
                Err(e) => {
                    eprintln!("gwbench: clean failed: {e}");
                    1
                }
            }
        }
        "profile" => {
            let mut smoke = false;
            let mut quiet = false;
            let mut out = crate::profile::DEFAULT_OUT.to_string();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--smoke" => smoke = true,
                    "--quiet" => quiet = true,
                    "--out" => match flag_value(&mut it, a) {
                        Ok(v) => out = v,
                        Err(e) => {
                            eprintln!("gwbench: {e}");
                            return 2;
                        }
                    },
                    flag => {
                        eprintln!("gwbench: unknown profile flag `{flag}`\n\n{}", usage());
                        return 2;
                    }
                }
            }
            crate::profile::main_profile(smoke, &out, quiet)
        }
        "sim" => match parse_sim(rest) {
            Ok(o) => {
                run_sim(&o);
                0
            }
            Err(e) => {
                eprintln!("gwbench: {e}\n\n{}", usage());
                2
            }
        },
        "faults" => {
            let opts = match parse(rest) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("gwbench: {e}\n\n{}", usage());
                    return 2;
                }
            };
            if !opts.names.is_empty() {
                eprintln!("gwbench: faults takes no experiment names");
                return 2;
            }
            crate::resilience::main_faults(
                opts.jobs,
                opts.use_cache,
                opts.scale,
                opts.expect_cached,
                opts.quiet,
            )
        }
        "run" | "repro-all" => {
            let opts = match parse(rest) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("gwbench: {e}\n\n{}", usage());
                    return 2;
                }
            };
            let experiments: Vec<Experiment> = if cmd == "repro-all" {
                if !opts.names.is_empty() {
                    eprintln!("gwbench: repro-all takes no experiment names");
                    return 2;
                }
                all_experiments()
            } else {
                if opts.names.is_empty() {
                    eprintln!(
                        "gwbench: run needs at least one experiment name\n\n{}",
                        usage()
                    );
                    return 2;
                }
                let mut found = Vec::new();
                for name in &opts.names {
                    match find_experiment(name) {
                        Some(e) => found.push(e),
                        None => {
                            eprintln!("gwbench: unknown experiment `{name}`\n\n{}", usage());
                            return 2;
                        }
                    }
                }
                found
            };
            run_experiments(experiments, &opts)
        }
        other => {
            eprintln!("gwbench: unknown command `{other}`\n\n{}", usage());
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_flags() {
        let opts = parse(&[
            "fig01".into(),
            "--jobs".into(),
            "8".into(),
            "--no-cache".into(),
            "--smoke".into(),
            "--expect-cached".into(),
            "--quiet".into(),
        ])
        .unwrap();
        assert_eq!(opts.jobs, 8);
        assert!(!opts.use_cache);
        assert_eq!(opts.scale, Scale::Smoke);
        assert!(opts.expect_cached);
        assert!(opts.quiet);
        assert_eq!(opts.names, vec!["fig01".to_string()]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&["--jobs".into()]).is_err());
        assert!(parse(&["--jobs".into(), "0".into()]).is_err());
        assert!(parse(&["--frobnicate".into()]).is_err());
    }
}
