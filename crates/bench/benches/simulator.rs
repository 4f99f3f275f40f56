//! Engine microbenchmarks: how fast the simulator itself runs — event
//! throughput, hit-path latency, coherence-transaction cost, and
//! whole-machine operations per second.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ghostwriter_core::{Machine, MachineConfig, Protocol};
use ghostwriter_sim::EventQueue;
use std::hint::black_box;

fn event_queue_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(i % 97, i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn l1_hit_path(c: &mut Criterion) {
    // Single core hammering one block: pure L1-hit round trips through
    // the resumable-core engine.
    let mut g = c.benchmark_group("machine");
    g.sample_size(10);
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("l1_hit_ops_10k", |b| {
        b.iter(|| {
            let mut m = Machine::new(MachineConfig {
                cores: 1,
                protocol: Protocol::Mesi,
                ..MachineConfig::default()
            });
            let a = m.alloc_padded(64);
            m.add_thread(move |ctx| async move {
                ctx.store_u32(a, 1).await;
                for _ in 0..9_999 {
                    black_box(ctx.load_u32(a).await);
                }
            });
            black_box(m.run().report.cycles)
        })
    });
    g.bench_function("coherence_pingpong_2k", |b| {
        // Two cores upgrading the same block alternately: stresses the
        // full GETX/UPGRADE/INV/DATA transaction path.
        b.iter(|| {
            let mut m = Machine::new(MachineConfig {
                cores: 2,
                protocol: Protocol::Mesi,
                ..MachineConfig::default()
            });
            let a = m.alloc_padded(64);
            for t in 0..2u64 {
                m.add_thread(move |ctx| async move {
                    let slot = a.add(4 * t);
                    for i in 0..1_000u32 {
                        let v = ctx.load_u32(slot).await;
                        ctx.store_u32(slot, v + i).await;
                    }
                });
            }
            black_box(m.run().report.stats.traffic.total())
        })
    });
    g.finish();
}

criterion_group!(simulator, event_queue_throughput, l1_hit_path);
criterion_main!(simulator);
