//! Criterion micro-benchmarks for the request-queue hot path: the
//! per-decision operations the scheduler loop performs millions of times
//! per run (pending-slice lookup, bank-occupancy iteration, per-thread
//! counting, positioned take). See `scripts/bench.sh` for the end-to-end
//! sweep timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tcm_dram::RequestQueue;
use tcm_types::{BankId, ChannelId, MemAddress, Request, RequestId, Row, ThreadId};

const NUM_BANKS: usize = 4;
const NUM_THREADS: usize = 24;
const CAPACITY: usize = 128;

/// A queue filled to `depth` with a deterministic request mix spread
/// over banks and threads (the steady-state shape of a loaded
/// controller).
fn filled_queue(depth: usize) -> RequestQueue {
    let mut q = RequestQueue::new(CAPACITY, NUM_BANKS);
    for i in 0..depth as u64 {
        let req = Request::new(
            RequestId::new(i),
            ThreadId::new((i % NUM_THREADS as u64) as usize),
            MemAddress::new(
                ChannelId::new(0),
                BankId::new((i % NUM_BANKS as u64) as usize),
                Row::new((i % 64) as usize),
            ),
            i,
        );
        q.push(req).expect("depth <= capacity");
    }
    q
}

fn bench_pending_for_bank(c: &mut Criterion) {
    let mut group = c.benchmark_group("pending_for_bank");
    for depth in [16usize, 64, 128] {
        let q = filled_queue(depth);
        group.bench_function(BenchmarkId::from_parameter(depth), |b| {
            let mut bank = 0usize;
            b.iter(|| {
                bank = (bank + 1) % NUM_BANKS;
                black_box(q.pending_for_bank(BankId::new(bank)).len())
            })
        });
    }
    group.finish();
}

fn bench_banks_with_pending(c: &mut Criterion) {
    let mut group = c.benchmark_group("banks_with_pending");
    for depth in [16usize, 64, 128] {
        let q = filled_queue(depth);
        group.bench_function(BenchmarkId::from_parameter(depth), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for bank in q.banks_with_pending() {
                    acc += bank.index();
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_count_for_thread(c: &mut Criterion) {
    let mut group = c.benchmark_group("count_for_thread");
    for depth in [16usize, 64, 128] {
        let q = filled_queue(depth);
        group.bench_function(BenchmarkId::from_parameter(depth), |b| {
            let mut t = 0usize;
            b.iter(|| {
                t = (t + 1) % NUM_THREADS;
                black_box(q.count_for_thread(ThreadId::new(t)))
            })
        });
    }
    group.finish();
}

fn bench_push_take_cycle(c: &mut Criterion) {
    // Steady state of the simulator: one request leaves a bank's lane,
    // another arrives — the queue stays at constant depth.
    let mut group = c.benchmark_group("push_take_cycle");
    for depth in [16usize, 64, 128] {
        let mut q = filled_queue(depth);
        group.bench_function(BenchmarkId::from_parameter(depth), |b| {
            let mut i = depth as u64;
            b.iter(|| {
                let bank = (i % NUM_BANKS as u64) as usize;
                let taken = q
                    .take_for_bank(BankId::new(bank), 0)
                    .expect("every bank stays populated");
                let req = Request::new(
                    RequestId::new(i),
                    ThreadId::new((i % NUM_THREADS as u64) as usize),
                    MemAddress::new(
                        ChannelId::new(0),
                        BankId::new(bank),
                        Row::new((i % 64) as usize),
                    ),
                    i,
                );
                i += 1;
                q.push(req).expect("constant depth");
                black_box(taken.id)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pending_for_bank,
    bench_banks_with_pending,
    bench_count_for_thread,
    bench_push_take_cycle
);
criterion_main!(benches);
