//! The bottom rungs of the per-layer ladder: `tpm-sync` primitives and the
//! empty parallel region of every model (the runtime-overhead rung, after
//! the microbenchmark method of Kulkarni and Lumsdaine's AMT comparison).

use std::hint::black_box;
use std::time::Instant;

use tpm_core::{Executor, Model};
use tpm_serve::engine::ReplyGate;
use tpm_sync::{chase_lev_deque, Barrier, CancelToken, MpscQueue};

use crate::report::{Better, Report};
use crate::{stats, sys, Scale};

/// Median over five repetitions of `op`'s time per iteration, in ns.
fn per_op_ns(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            op(iters);
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&reps)
}

/// Records the `sync.*` and `core.empty_region_us.*` metrics.
pub fn run(scale: Scale, report: &mut Report) {
    let iters = match scale {
        Scale::Full => 100_000,
        Scale::Smoke => 1_000,
    };
    let (worker, stealer) = chase_lev_deque::<usize>(1024);
    report.put(
        "sync.deque_pop_ns",
        per_op_ns(iters, |n| {
            for i in 0..n {
                worker.push(i);
            }
            while black_box(worker.pop()).is_some() {}
        }),
        "ns",
        Better::Lower,
    );
    report.put(
        "sync.deque_steal_ns",
        per_op_ns(iters, |n| {
            for i in 0..n {
                worker.push(i);
            }
            while black_box(stealer.steal().success()).is_some() {}
        }),
        "ns",
        Better::Lower,
    );
    let queue = MpscQueue::new();
    report.put(
        "sync.mpsc_ns",
        per_op_ns(iters, |n| {
            for i in 0..n {
                queue.push(i);
                black_box(queue.pop());
            }
        }),
        "ns",
        Better::Lower,
    );
    let rounds = iters / 10;
    report.put(
        "sync.barrier_ns",
        per_op_ns(rounds, |n| {
            let barrier = Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..n {
                        barrier.wait();
                    }
                });
                for _ in 0..n {
                    barrier.wait();
                }
            });
        }),
        "ns",
        Better::Lower,
    );
    let child = CancelToken::new().child();
    report.put(
        "sync.cancel_poll_ns",
        per_op_ns(iters, |n| {
            for _ in 0..n {
                black_box(black_box(&child).is_cancelled());
            }
        }),
        "ns",
        Better::Lower,
    );
    report.put(
        "sync.reply_gate_ns",
        per_op_ns(iters, |n| {
            for _ in 0..n {
                let gate = ReplyGate::new();
                black_box(gate.claim());
            }
        }),
        "ns",
        Better::Lower,
    );

    let exec = Executor::new(sys::nproc());
    let token = CancelToken::new();
    let calls = match scale {
        Scale::Full => 200,
        Scale::Smoke => 10,
    };
    for model in Model::ALL {
        let mut times = Vec::with_capacity(calls);
        for i in 0..calls + 20 {
            let t = Instant::now();
            let r = exec.try_parallel_for(model, 0..1024, &token, &|_| {});
            let d = t.elapsed().as_secs_f64() * 1e6;
            report.check(
                &format!("empty region under {model}"),
                r.map_err(|e| e.to_string()),
            );
            if i >= 20 {
                times.push(d);
            }
        }
        report.put(
            format!("core.empty_region_us.{}", model.name()),
            stats::median(&times),
            "us",
            Better::Lower,
        );
    }
}
