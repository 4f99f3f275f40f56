//! Layer kernels: the hot public calls of each layer, timed in
//! isolation (traced run only). Inputs are drawn from the benchmark
//! seed; shapes come from the workloads — the Table 1 cache geometries,
//! the 16- and 24-node meshes, an in-flight window the size of the
//! 16-core storm's, and the frontier states of the 2c/2b checker plan.

use std::hint::black_box;
use std::time::Instant;

use ghostwriter_check::shard::{plan_shards, Space};
use ghostwriter_core::fault::mix;
use ghostwriter_core::msg::DataPool;
use ghostwriter_core::{FaultConfig, MachineConfig, RecoveryParams, System};
use ghostwriter_mem::{BlockAddr, BlockData, SetAssocCache, WayLookup};
use ghostwriter_noc::{Mesh, NodeId};
use ghostwriter_sim::EventQueue;

const REPS: usize = 5;
/// Events or data blocks in flight: one per core of the 16-core storm
/// plus its invalidations, acks and data replies.
const WINDOW: usize = 64;
const KERNEL_STREAM: u64 = 0x4B45_0000;

/// A reproducible stream of draws for kernel `k`.
fn draws(seed: u64, k: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| mix(seed, KERNEL_STREAM + k, i))
        .collect()
}

/// Median over [`REPS`] repetitions of `body`'s time per call, in ns.
/// `body` makes `calls` calls and returns a value kept alive through
/// `black_box`.
fn time_ns<T>(calls: usize, mut body: impl FnMut() -> T) -> f64 {
    let mut per_call: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(body());
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[REPS / 2]
}

fn queue_ns(seed: u64, scale: usize) -> f64 {
    let delays: Vec<u64> = draws(seed, 1, 4096).iter().map(|d| 1 + d % 300).collect();
    let calls = 400_000 / scale;
    time_ns(calls, || {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(WINDOW);
        for (i, d) in delays.iter().take(WINDOW).enumerate() {
            q.push(*d, i as u32);
        }
        let mut acc = 0u64;
        for k in 0..calls {
            let (t, e) = q.pop().expect("window never drains");
            acc = acc.wrapping_add(t ^ e as u64);
            q.push(t + delays[k % delays.len()], e);
        }
        acc
    })
}

/// The Table 1 L1 and L2-bank geometries.
fn table1_caches() -> [SetAssocCache<u8>; 2] {
    let cfg = MachineConfig::default();
    [
        SetAssocCache::from_capacity(cfg.l1_kb * 1024, cfg.l1_ways),
        SetAssocCache::from_capacity(cfg.l2_bank_kb * 1024, cfg.l2_ways),
    ]
}

fn insert(cache: &mut SetAssocCache<u8>, block: BlockAddr) {
    match cache.lookup_way(block) {
        WayLookup::Hit(w) => cache.touch_at(w),
        WayLookup::Free { way } => {
            cache.insert_at(way, block, 0, BlockData::zeroed());
        }
        WayLookup::Victim(w) => {
            cache.remove_at(w);
            cache.insert_at(w.way(), block, 0, BlockData::zeroed());
        }
    }
}

/// Block addresses over a footprint `footprint` times the cache's
/// capacity (1.0: everything fits after warm-up).
fn blocks(
    seed: u64,
    k: u64,
    cache: &SetAssocCache<u8>,
    footprint: f64,
    n: usize,
) -> Vec<BlockAddr> {
    let span = ((cache.sets() * cache.ways()) as f64 * footprint) as u64;
    draws(seed, k, n)
        .iter()
        .map(|d| BlockAddr(0x400 + d % span))
        .collect()
}

/// Probes of a warm cache; the footprint makes ~85% of them hit, the
/// L1 hit ratio of `paper_repro`.
fn probe_ns(seed: u64, scale: usize) -> f64 {
    let calls = 1_000_000 / scale;
    let mut total = 0.0;
    for (i, mut cache) in table1_caches().into_iter().enumerate() {
        let addrs = blocks(seed, 10 + i as u64, &cache, 1.15, 8192);
        for &b in &addrs {
            insert(&mut cache, b);
        }
        total += time_ns(calls, || {
            let mut hits = 0usize;
            for k in 0..calls {
                hits += cache.probe(addrs[k % addrs.len()]).is_some() as usize;
            }
            hits
        });
    }
    total / 2.0
}

/// Lookup-and-insert over a footprint twice the capacity, so most
/// calls evict.
fn insert_ns(seed: u64, scale: usize) -> f64 {
    let calls = 400_000 / scale;
    let mut total = 0.0;
    for (i, mut cache) in table1_caches().into_iter().enumerate() {
        let addrs = blocks(seed, 20 + i as u64, &cache, 2.0, 8192);
        total += time_ns(calls, || {
            for k in 0..calls {
                insert(&mut cache, addrs[k % addrs.len()]);
            }
            cache.occupancy()
        });
    }
    total / 2.0
}

fn route_ns(seed: u64, scale: usize) -> f64 {
    let calls = 400_000 / scale;
    let mut total = 0.0;
    for (i, nodes) in [16usize, 24].into_iter().enumerate() {
        let (w, h) = Mesh::dims_for(nodes);
        let mesh = Mesh::with_paper_timing(w, h);
        let pairs: Vec<(NodeId, NodeId)> = draws(seed, 30 + i as u64, 4096)
            .iter()
            .map(|d| {
                let src = (d % nodes as u64) as usize;
                let dst = ((d >> 32) % nodes as u64) as usize;
                (NodeId(src), NodeId(dst))
            })
            .collect();
        total += time_ns(calls, || {
            let mut acc = 0usize;
            for k in 0..calls {
                let (s, d) = pairs[k % pairs.len()];
                acc = acc.wrapping_add(mesh.route_links(s, d).sum::<usize>());
            }
            acc
        });
    }
    total / 2.0
}

/// Alloc + take with [`WINDOW`] blocks in flight, taken in a seeded
/// order.
fn datapool_ns(seed: u64, scale: usize) -> f64 {
    let picks: Vec<usize> = draws(seed, 40, 4096)
        .iter()
        .map(|d| (d % WINDOW as u64) as usize)
        .collect();
    let calls = 400_000 / scale;
    time_ns(calls, || {
        let mut pool = DataPool::default();
        let mut live: Vec<_> = (0..WINDOW)
            .map(|_| pool.alloc(BlockData::zeroed()))
            .collect();
        for k in 0..calls {
            let slot = picks[k % picks.len()];
            let data = pool.take(live[slot]);
            live[slot] = pool.alloc(data);
        }
        pool.capacity()
    })
}

/// `fate` + `corrupt_bit` at the campaign's hostile 200‰ rate.
fn fault_draw_ns(seed: u64, scale: usize) -> f64 {
    let faults = FaultConfig {
        seed,
        drop_permille: 200,
        dup_permille: 200,
        delay_permille: 200,
        delay_cycles: 64,
        corrupt_permille: 200,
        recovery: Some(RecoveryParams::default()),
        ..FaultConfig::default()
    };
    let calls = 1_000_000 / scale;
    time_ns(calls, || {
        let mut acc = 0u64;
        for n in 0..calls as u64 {
            let fate = black_box(faults.fate(n));
            acc = acc.wrapping_add(matches!(fate, ghostwriter_core::fault::Fate::Deliver) as u64);
            acc = acc.wrapping_add(faults.corrupt_bit(n).unwrap_or(0) as u64);
        }
        acc
    })
}

/// The frontier states of the `checker_2c2b` Ghostwriter sweep's plan.
fn frontier(tiny: bool) -> Vec<System> {
    let (_, spec) = crate::checker::sweeps(tiny)
        .into_iter()
        .find(|(name, _)| *name == "gw")
        .expect("the workload has a Ghostwriter sweep");
    plan_shards(&Space::new(&spec), None)
        .prefixes
        .into_iter()
        .map(|(_, sys, _)| sys)
        .collect()
}

/// Runs every kernel; returns (metric name, ns per call).
pub fn run_all(seed: u64, tiny: bool) -> Vec<(&'static str, f64)> {
    let scale = if tiny { 20 } else { 1 };
    let states = frontier(tiny);
    let calls = 20_000 / scale;
    let fingerprint = time_ns(calls, || {
        let mut acc = 0u128;
        for k in 0..calls {
            acc ^= states[k % states.len()].fingerprint();
        }
        acc
    });
    let clone = time_ns(calls, || {
        let mut acc = 0usize;
        for k in 0..calls {
            let sys = black_box(states[k % states.len()].clone());
            acc = acc.wrapping_add(std::mem::size_of_val(&sys));
        }
        acc
    });
    vec![
        ("sim.queue_ns", queue_ns(seed, scale)),
        ("mem.probe_ns", probe_ns(seed, scale)),
        ("mem.insert_ns", insert_ns(seed, scale)),
        ("noc.route_ns", route_ns(seed, scale)),
        ("core.datapool_ns", datapool_ns(seed, scale)),
        ("core.fault_draw_ns", fault_draw_ns(seed, scale)),
        ("check.fingerprint_ns", fingerprint),
        ("check.clone_ns", clone),
    ]
}
