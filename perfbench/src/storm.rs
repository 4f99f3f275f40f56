//! `coherence_storm`: a false-sharing ping-pong through the public
//! `Machine` API, with link contention modelled.
//!
//! Every core owns one `u32` slot of a single padded block and runs
//! load → `work(100)` → store → `work(100)`. The think time lets other
//! cores steal the block between the load and the store, so almost
//! every access misses and the host time goes to L1/directory dispatch
//! and routing rather than to stepping the core.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ghostwriter_core::fault::mix;
use ghostwriter_core::{BaseProtocol, FinishedRun, Machine, MachineConfig, Protocol};

use crate::expect::{stats_text, Expected};
use crate::trace::Tracer;
use crate::{panic_text, PassOut, Prepared, Setup};

const THINK_CYCLES: u64 = 100;
const SCRIBBLE_D: u8 = 8;
const SLOT_STREAM: u64 = 0x5707_0001;

struct StormMachine {
    name: &'static str,
    cores: usize,
    base: BaseProtocol,
    /// Stores are scribbles inside `approx_begin(SCRIBBLE_D)`.
    scribble: bool,
    iters: u32,
}

pub struct Storm {
    machines: Vec<StormMachine>,
    seed: u64,
}

pub fn prepare(setup: &Setup, _tr: &mut Tracer) -> Box<dyn Prepared> {
    // Sized so each machine takes a similar share of the pass.
    let scale = |iters: u32| if setup.tiny { iters / 50 } else { iters };
    let m = |name, cores, base, scribble, iters| StormMachine {
        name,
        cores,
        base,
        scribble,
        iters: scale(iters),
    };
    Box::new(Storm {
        machines: vec![
            m("mesi_8c", 8, BaseProtocol::Mesi, false, 4_800),
            m("moesi_8c", 8, BaseProtocol::Moesi, false, 4_800),
            m("mesif_8c", 8, BaseProtocol::Mesif, false, 4_800),
            m("mesi_16c", 16, BaseProtocol::Mesi, false, 2_000),
            m("gw_scribble_16c", 16, BaseProtocol::Mesi, true, 2_000),
        ],
        seed: setup.seed,
    })
}

/// Initial value and per-iteration base increment of core `t`'s slot.
fn slot_inputs(seed: u64, t: usize) -> (u32, u32) {
    let r = mix(seed, SLOT_STREAM, t as u64);
    (r as u32, (r >> 40) as u32 & 0xff)
}

/// Closed form of the slot after `iters` precise increments: the
/// i-th store writes `v + inc + i`.
fn closed_form(init: u32, inc: u32, iters: u32) -> u32 {
    let n = iters as u64;
    let total = n * inc as u64 + n * (n - 1) / 2;
    init.wrapping_add(total as u32)
}

fn build(sm: &StormMachine, seed: u64, profile: bool) -> (Machine, ghostwriter_core::Addr) {
    let protocol = if sm.scribble {
        Protocol::ghostwriter()
    } else {
        Protocol::Mesi
    };
    let mut m = Machine::new(MachineConfig {
        cores: sm.cores,
        protocol,
        base_protocol: sm.base,
        model_contention: true,
        ..MachineConfig::default()
    });
    if profile {
        m.enable_profiling();
    }
    let block = m.alloc_padded(4 * sm.cores as u64);
    let inits: Vec<u32> = (0..sm.cores).map(|t| slot_inputs(seed, t).0).collect();
    m.backdoor_write_u32s(block, &inits);
    for t in 0..sm.cores {
        let slot = block.add(4 * t as u64);
        let inc = slot_inputs(seed, t).1;
        let (iters, scribble) = (sm.iters, sm.scribble);
        m.add_thread(move |ctx| async move {
            if scribble {
                ctx.approx_begin(SCRIBBLE_D).await;
            }
            for i in 0..iters {
                let v = ctx.load_u32(slot).await;
                ctx.work(THINK_CYCLES).await;
                let next = v.wrapping_add(inc).wrapping_add(i);
                if scribble {
                    ctx.scribble_u32(slot, next).await;
                } else {
                    ctx.store_u32(slot, next).await;
                }
                ctx.work(THINK_CYCLES).await;
            }
            if scribble {
                ctx.approx_end().await;
            }
        });
    }
    (m, block)
}

fn check(
    sm: &StormMachine,
    seed: u64,
    default_seed: bool,
    run: &FinishedRun,
    block: ghostwriter_core::Addr,
    expected: &mut Expected,
) -> Vec<String> {
    let mut problems = Vec::new();
    let slots = run.read_u32s(block, sm.cores);
    if !sm.scribble {
        for (t, &got) in slots.iter().enumerate() {
            let (init, inc) = slot_inputs(seed, t);
            let want = closed_form(init, inc, sm.iters);
            if got != want {
                problems.push(format!("slot {t} holds {got}, closed form gives {want}"));
            }
        }
    }
    if default_seed {
        let r = &run.report;
        let mut text = stats_text(r.cycles, 0.0, &r.stats);
        text.push_str(&format!("slots={slots:?}\n"));
        let digest = ghostwriter_exp::Fingerprint::of(text.as_bytes()).hex();
        problems.extend(expected.check(sm.name, "digest", &digest));
    }
    problems
}

impl Prepared for Storm {
    fn unit_names(&self) -> Vec<String> {
        self.machines.iter().map(|m| m.name.to_string()).collect()
    }

    fn describe(&self) -> String {
        let precise = self.machines.iter().filter(|m| !m.scribble).count();
        format!(
            "{} machines; slot sums checked on the {precise} precise ones",
            self.machines.len()
        )
    }

    fn pass(&self, tr: &mut Tracer, expected: &mut Expected, out: &mut PassOut) {
        let default_seed = self.seed == crate::DEFAULT_SEED;
        for (i, sm) in self.machines.iter().enumerate() {
            out.attempted += 1;
            let t0 = Instant::now();
            let result = tr.unit(i as u32, |tr| {
                catch_unwind(AssertUnwindSafe(|| {
                    let (m, block) =
                        tr.span("core.machine_new", |tr| build(sm, self.seed, tr.enabled()));
                    (tr.span("core.run", |_| m.run()), block)
                }))
            });
            out.unit_ms.push(vec![t0.elapsed().as_secs_f64() * 1e3]);
            let (run, block) = match result {
                Ok(r) => r,
                Err(panic) => {
                    out.fail(sm.name, format!("panicked: {}", panic_text(&panic)));
                    continue;
                }
            };
            out.counters.add_run(run.report.cycles, &run.report.stats);
            if let Some(p) = &run.profile {
                out.add_profile(p);
            }
            for p in check(sm, self.seed, default_seed, &run, block, expected) {
                out.fail(sm.name, p);
            }
            tr.span("core.teardown", move |_| drop(run));
        }
        out.work = out.counters.sim_ops;
    }
}
