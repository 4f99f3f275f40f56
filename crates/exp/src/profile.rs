//! `gwbench profile` — the simulator's kernel harness.
//!
//! Runs a fixed set of kernels chosen to cover the simulator's hot
//! paths, with the engine's cycle-attribution profiler enabled
//! ([`ghostwriter_core::Machine::enable_profiling`]):
//!
//! * `noc_contention_storm` — an 8-core packed-block invalidation
//!   ping-pong with `model_contention = true`: every miss walks mesh
//!   links through the dense `link_free` table.
//! * `ladder_moesi` / `ladder_mesif` — the same sharing storm on the
//!   protocol-ladder families whose forwarding paths (Owned supplier,
//!   Forward supplier) the base MESI kernel never exercises.
//! * `mesh_storm_16c` — the storm on a 16-core machine: a larger mesh
//!   with longer routes and more directory banks.
//! * one registry workload per class (`histogram`, `kmeans`,
//!   `blackscholes`) under Ghostwriter — end-to-end simulation.
//!
//! Per kernel it prints a per-phase attribution table ranked by
//! estimated wall time and writes one JSON artifact for all kernels.
//! The profiler charges every simulated cycle to the phase whose event
//! advanced the clock, so each kernel's per-phase cycles sum to
//! *exactly* its simulated cycle count; every run verifies this
//! reconciliation. Every run also re-runs the storm withOUT profiling
//! and compares its stats JSON byte-for-byte against a profiled run's,
//! proving the profiler observes without perturbing the simulation.
//! Either failure exits 4.
//!
//! Wall time is reported (a trend, not a gate). The gate is on the
//! deterministic work counters of [`ProfiledKernel::counters`]: the
//! smoke kernels' lines are pinned exactly by
//! `crates/exp/tests/golden/profile.smoke.txt`.

use std::time::Instant;

use ghostwriter_core::{
    BaseProtocol, Json, Machine, MachineConfig, Phase, Profile, Protocol, ALL_PHASES,
};
use ghostwriter_workloads::{find_benchmark, ScaleClass, DEFAULT_SEED};

/// Default artifact path (under `results/`, not committed).
pub const DEFAULT_OUT: &str = "results/profile.json";

/// The kernels, in report order.
pub const KERNELS: [&str; 7] = [
    "noc_contention_storm",
    "ladder_moesi",
    "ladder_mesif",
    "mesh_storm_16c",
    "histogram",
    "kmeans",
    "blackscholes",
];

/// One profiled kernel run.
pub struct ProfiledKernel {
    /// Kernel name.
    pub name: String,
    /// `smoke` or `full`.
    pub scale: String,
    /// Simulated cycles from the report.
    pub cycles: u64,
    /// Simulated operations: loads + stores + scribbles + barriers.
    pub ops: u64,
    /// Wall-clock milliseconds of the profiled run.
    pub wall_ms: f64,
    /// The attribution report.
    pub profile: Profile,
}

impl ProfiledKernel {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("name", Json::Str(self.name.clone()));
        j.push("scale", Json::Str(self.scale.clone()));
        j.push("cycles", Json::U64(self.cycles));
        j.push("ops", Json::U64(self.ops));
        j.push("wall_ms", Json::F64(self.wall_ms));
        j.push("attribution", self.profile.to_json());
        j
    }

    /// The kernel's deterministic work counters as one line of
    /// `field=value` tokens after the name: simulated cycles, ops,
    /// `events/cycles` per phase, and the drain's `events/cycles`.
    pub fn counters(&self) -> String {
        let mut s = format!("{} cycles={} ops={}", self.name, self.cycles, self.ops);
        for p in ALL_PHASES {
            let c = &self.profile.phases[p as usize];
            s.push_str(&format!(" {}={}/{}", p.name(), c.events, c.cycles));
        }
        s.push_str(&format!(
            " drain={}/{}",
            self.profile.drain_events, self.profile.drain_cycles
        ));
        s
    }
}

/// Serializes a run to the artifact format.
pub fn to_json(kernels: &[ProfiledKernel]) -> Json {
    let mut j = Json::obj();
    j.push("format", Json::Str("gwbench-profile-v1".into()));
    j.push(
        "kernels",
        Json::Arr(kernels.iter().map(ProfiledKernel::to_json).collect()),
    );
    j
}

/// Builds the NoC contention storm machine: one packed block of
/// per-core `u32` slots, every core in a load/store ping-pong on its own
/// slot, with flit-level link contention modelled. `base` selects the
/// protocol-ladder family (MESI, MOESI, MESIF, ...).
fn storm_machine(cores: usize, base: BaseProtocol, iters_per_core: u64) -> Machine {
    let mut cfg = MachineConfig::small_base(cores, Protocol::Mesi, base);
    cfg.model_contention = true;
    let mut m = Machine::new(cfg);
    let block = m.alloc_padded(4 * cores as u64);
    for t in 0..cores {
        let slot = block.add(4 * t as u64);
        m.add_thread(move |ctx| async move {
            for i in 0..iters_per_core as u32 {
                let v = ctx.load_u32(slot).await;
                ctx.store_u32(slot, v.wrapping_add(i)).await;
            }
            ctx.barrier().await;
        });
    }
    m
}

/// A registry workload built onto a machine we keep control of, so
/// profiling can be switched on before the run.
fn workload_machine(name: &str, smoke: bool) -> Machine {
    let entry = find_benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let class = if smoke {
        ScaleClass::Test
    } else {
        ScaleClass::Eval
    };
    let mut w = entry.build_seeded(class, DEFAULT_SEED);
    let cfg = MachineConfig {
        cores: 8,
        protocol: Protocol::ghostwriter(),
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg);
    w.build(&mut m, 8, 8);
    m
}

/// The machine behind kernel `name` (one of [`KERNELS`]). Full-scale
/// storms run ten times the smoke iterations per core.
fn kernel_machine(name: &str, smoke: bool) -> Machine {
    let storm = |cores, base, smoke_iters: u64| {
        storm_machine(
            cores,
            base,
            if smoke { smoke_iters } else { 10 * smoke_iters },
        )
    };
    match name {
        "noc_contention_storm" => storm(8, BaseProtocol::Mesi, 3_000),
        "ladder_moesi" => storm(8, BaseProtocol::Moesi, 2_000),
        "ladder_mesif" => storm(8, BaseProtocol::Mesif, 2_000),
        "mesh_storm_16c" => storm(16, BaseProtocol::Mesi, 1_000),
        workload => workload_machine(workload, smoke),
    }
}

/// Runs `m` with profiling enabled and packages the attribution.
fn profiled_run(name: &str, smoke: bool, mut m: Machine) -> ProfiledKernel {
    m.enable_profiling();
    let started = Instant::now();
    let run = m.run();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let s = &run.report.stats;
    ProfiledKernel {
        name: name.into(),
        scale: if smoke { "smoke" } else { "full" }.into(),
        cycles: run.report.cycles,
        ops: s.loads + s.stores + s.scribbles + s.barriers,
        wall_ms,
        profile: run.profile.expect("profiling was enabled"),
    }
}

/// Profiles every kernel at one scale.
pub fn run_scale(smoke: bool) -> Vec<ProfiledKernel> {
    KERNELS
        .iter()
        .map(|name| profiled_run(name, smoke, kernel_machine(name, smoke)))
        .collect()
}

/// Renders the ranked per-phase table for one kernel.
pub fn render(k: &ProfiledKernel) -> String {
    let mut ranked: Vec<Phase> = ALL_PHASES.to_vec();
    ranked.sort_by_key(|p| std::cmp::Reverse(k.profile.phases[*p as usize].est_wall_ns()));
    let total_wall: u64 = ranked
        .iter()
        .map(|p| k.profile.phases[*p as usize].est_wall_ns())
        .sum();
    let mut s = format!(
        "{} ({}): {} cycles, {} ops, {:.1} ms wall\n\
         phase          events        cycles    est_wall_ms  wall%\n",
        k.name, k.scale, k.cycles, k.ops, k.wall_ms
    );
    for p in ranked {
        let c = &k.profile.phases[p as usize];
        let pct = if total_wall == 0 {
            0.0
        } else {
            100.0 * c.est_wall_ns() as f64 / total_wall as f64
        };
        s.push_str(&format!(
            "{:<12} {:>9} {:>13} {:>14.2} {:>6.1}\n",
            p.name(),
            c.events,
            c.cycles,
            c.est_wall_ns() as f64 / 1e6,
            pct
        ));
    }
    s.push_str(&format!(
        "attributed {} / simulated {} cycles; drain: {} cycles / {} events\n",
        k.profile.attributed_cycles(),
        k.cycles,
        k.profile.drain_cycles,
        k.profile.drain_events
    ));
    s
}

/// Runs the storm twice — profiler off, then on — and checks that the
/// stats JSON is byte-identical and the profiled run is not absurdly
/// slower. Returns an error description on failure.
fn overhead_check(smoke: bool) -> Result<String, String> {
    let storm = || kernel_machine("noc_contention_storm", smoke);
    let started = Instant::now();
    let off = storm().run();
    let off_secs = started.elapsed().as_secs_f64();

    let mut m = storm();
    m.enable_profiling();
    let started = Instant::now();
    let on = m.run();
    let on_secs = started.elapsed().as_secs_f64();

    let off_stats = off.report.stats.to_json().to_pretty();
    let on_stats = on.report.stats.to_json().to_pretty();
    if off_stats != on_stats {
        return Err("stats JSON differs between profiler-off and profiler-on runs".into());
    }
    if off.report.cycles != on.report.cycles {
        return Err(format!(
            "cycle count differs: {} off vs {} on",
            off.report.cycles, on.report.cycles
        ));
    }
    // Loose gate: sampled spans should keep the profiled run within a
    // small factor of the plain run even on a noisy CI box.
    if on_secs > off_secs * 3.0 + 0.05 {
        return Err(format!(
            "profiled run too slow: {on_secs:.3}s vs {off_secs:.3}s unprofiled"
        ));
    }
    Ok(format!(
        "overhead check: stats identical, {} cycles both runs; wall {:.3}s off vs {:.3}s on",
        off.report.cycles, off_secs, on_secs
    ))
}

/// `gwbench profile` entry point. Returns the process exit code.
pub fn main_profile(smoke: bool, out_path: &str, quiet: bool) -> i32 {
    let kernels = run_scale(smoke);

    let mut code = 0;
    for k in &kernels {
        if !quiet {
            print!("{}", render(k));
            println!();
        }
        if k.profile.attributed_cycles() != k.cycles {
            eprintln!(
                "gwbench profile: RECONCILIATION FAILURE {}: attributed {} != simulated {}",
                k.name,
                k.profile.attributed_cycles(),
                k.cycles
            );
            code = 4;
        }
    }

    match overhead_check(smoke) {
        Ok(msg) => eprintln!("gwbench profile: {msg}"),
        Err(e) => {
            eprintln!("gwbench profile: OVERHEAD CHECK FAILED: {e}");
            code = 4;
        }
    }

    if let Some(parent) = std::path::Path::new(out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(out_path, to_json(&kernels).to_pretty()) {
        eprintln!("gwbench profile: cannot write {out_path}: {e}");
        return 1;
    }
    eprintln!(
        "gwbench profile: wrote {} kernels to {out_path}",
        kernels.len()
    );
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_storm() -> ProfiledKernel {
        profiled_run("storm", true, kernel_machine("noc_contention_storm", true))
    }

    #[test]
    fn storm_attribution_reconciles_and_serializes() {
        let k = smoke_storm();
        assert_eq!(k.profile.attributed_cycles(), k.cycles);
        let text = to_json(&[k]).to_pretty();
        let back = Json::parse(&text).expect("artifact parses");
        let kernels = back.field("kernels").unwrap().as_arr().unwrap();
        assert_eq!(kernels.len(), 1);
        assert_eq!(
            kernels[0].field("cycles").unwrap().as_u64().unwrap(),
            kernels[0]
                .field("attribution")
                .unwrap()
                .field("attributed_cycles")
                .unwrap()
                .as_u64()
                .unwrap()
        );
    }

    #[test]
    fn overhead_check_passes_on_the_smoke_storm() {
        let msg = overhead_check(true).expect("profiler must not perturb the simulation");
        assert!(msg.contains("stats identical"), "{msg}");
    }

    #[test]
    fn render_mentions_every_phase() {
        let table = render(&smoke_storm());
        for p in ALL_PHASES {
            assert!(table.contains(p.name()), "missing {}", p.name());
        }
    }
}
