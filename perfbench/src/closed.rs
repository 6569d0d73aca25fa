//! The two closed-loop kernel workloads, `loops` and `tasks`: one caller
//! runs every item (kernel x model) once per pass, back to back.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpm_core::{Executor, Family, KernelVariant, Model, Pattern};
use tpm_kernels::util::random_vec;
use tpm_kernels::{Axpy, Fib, Matmul, Matvec, Sum};
use tpm_rodinia::{Bfs, HotSpot, Lud, Srad};
use tpm_sync::StatsSnapshot;

use crate::check::{self, Out};
use crate::report::{Better, Report};
use crate::{stats, sys, Scale, ROUNDS};

/// The kernel data path the benchmark runs: the default, paper-faithful one.
const VARIANT: KernelVariant = KernelVariant::Reference;

type RunFn = Box<dyn FnMut(&Executor) -> (Duration, Out)>;

/// One kernel under one model, with its inputs and its sequential reference.
pub struct Item {
    /// `kernel/model`, for failure reports.
    pub label: String,
    /// The model the kernel runs under.
    pub model: Model,
    /// Runs the kernel once; returns the time of the program call alone
    /// (input copies and result conversion excluded) and its result.
    run: RunFn,
    /// Computes the expected result sequentially.
    reference: Box<dyn Fn() -> Out>,
    /// Floating-point operations of one call, computed from the sizes.
    pub flops: f64,
    /// Bytes one call must move at least, computed from the sizes.
    pub bytes: f64,
}

fn item(
    kernel: &str,
    model: Model,
    (flops, bytes): (f64, f64),
    run: impl FnMut(&Executor) -> (Duration, Out) + 'static,
    reference: impl Fn() -> Out + 'static,
) -> Item {
    Item {
        label: format!("{kernel}/{}", model.name()),
        model,
        run: Box::new(run),
        reference: Box::new(reference),
        flops,
        bytes,
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

/// Input sizes of the kernel workloads.
struct Sizes {
    flat: usize,
    matvec: usize,
    matmul: usize,
    hotspot: (usize, usize),
    srad: (usize, usize),
    fib: u64,
    bfs: usize,
    lud: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                flat: 1 << 20,
                matvec: 512,
                matmul: 128,
                hotspot: (128, 10),
                srad: (96, 4),
                fib: 24,
                bfs: 50_000,
                lud: 96,
            },
            Scale::Smoke => Sizes {
                flat: 4096,
                matvec: 32,
                matmul: 16,
                hotspot: (16, 2),
                srad: (16, 1),
                fib: 15,
                bfs: 500,
                lud: 16,
            },
        }
    }
}

/// The `loops` items: the paper's flat-loop kernels (Figs 1-4, 7, 10) under
/// every registry model. Inputs come from `seed`; sizes do not.
pub fn loops_items(seed: u64, scale: Scale) -> Vec<Item> {
    let sz = Sizes::of(scale);
    let mut items = Vec::new();
    let n = sz.flat;
    let axpy = Axpy::native(n);
    let x = Arc::new(random_vec(n, seed ^ 0xA11));
    let y0 = Arc::new(random_vec(n, seed ^ 0xB22));
    let sum = Sum::native(n);
    let mv = Matvec::native(sz.matvec);
    let (mv_a, mv_x) = (
        Arc::new(random_vec(mv.n * mv.n, seed ^ 0x3A7)),
        Arc::new(random_vec(mv.n, seed ^ 0x9E1)),
    );
    let mm = Matmul::native(sz.matmul);
    let (mm_a, mm_b) = (
        Arc::new(random_vec(mm.n * mm.n, seed ^ 0xAB)),
        Arc::new(random_vec(mm.n * mm.n, seed ^ 0xCD)),
    );
    let hs = HotSpot {
        seed: seed ^ 0x407,
        ..HotSpot::native(sz.hotspot.0, sz.hotspot.1)
    };
    let (hs_t, hs_p) = hs.generate();
    let (hs_t, hs_p) = (Arc::new(hs_t), Arc::new(hs_p));
    let srad = Srad {
        seed: seed ^ 0x5AD,
        ..Srad::native(sz.srad.0, sz.srad.1)
    };
    let img = Arc::new(srad.generate());
    let (nf, mvn, mmn) = (n as f64, mv.n as f64, mm.n as f64);
    let hs_cells = (hs.n * hs.n * hs.steps) as f64;
    let srad_cells = (srad.n * srad.n * srad.iterations) as f64;
    for model in Model::ALL {
        let (xa, ya, mut y) = (Arc::clone(&x), Arc::clone(&y0), vec![0.0; n]);
        let (xr, yr) = (Arc::clone(&x), Arc::clone(&y0));
        items.push(item(
            "axpy",
            model,
            (2.0 * nf, 24.0 * nf),
            move |e| {
                y.copy_from_slice(&ya);
                let (d, ()) = timed(|| axpy.run_v(e, model, VARIANT, &xa, &mut y));
                (d, Out::Floats(y.clone()))
            },
            move || {
                let mut y = yr.to_vec();
                axpy.seq(&xr, &mut y);
                Out::Floats(y)
            },
        ));
        let (xa, xr) = (Arc::clone(&x), Arc::clone(&x));
        items.push(item(
            "sum",
            model,
            (2.0 * nf, 8.0 * nf),
            move |e| {
                let (d, s) = timed(|| sum.run_v(e, model, VARIANT, &xa));
                (d, Out::Scalar(s))
            },
            move || Out::Scalar(sum.seq(&xr)),
        ));
        let (a, xv) = (Arc::clone(&mv_a), Arc::clone(&mv_x));
        let (ar, xvr) = (Arc::clone(&mv_a), Arc::clone(&mv_x));
        items.push(item(
            "matvec",
            model,
            (2.0 * mvn * mvn, 8.0 * (mvn * mvn + 2.0 * mvn)),
            move |e| {
                let (d, r) = timed(|| mv.run_v(e, model, VARIANT, &a, &xv));
                (d, Out::Floats(r))
            },
            move || Out::Floats(mv.seq(&ar, &xvr)),
        ));
        let (a, b) = (Arc::clone(&mm_a), Arc::clone(&mm_b));
        let (ar, br) = (Arc::clone(&mm_a), Arc::clone(&mm_b));
        items.push(item(
            "matmul",
            model,
            (2.0 * mmn * mmn * mmn, 24.0 * mmn * mmn),
            move |e| {
                let (d, r) = timed(|| mm.run_v(e, model, VARIANT, &a, &b));
                (d, Out::Floats(r))
            },
            move || Out::Floats(mm.seq(&ar, &br)),
        ));
        let (t, p) = (Arc::clone(&hs_t), Arc::clone(&hs_p));
        let (tr, pr) = (Arc::clone(&hs_t), Arc::clone(&hs_p));
        items.push(item(
            "hotspot",
            model,
            // Five-point stencil plus the power term; read temp and power,
            // write the next grid.
            (10.0 * hs_cells, 24.0 * hs_cells),
            move |e| {
                let (d, r) = timed(|| hs.run_v(e, model, VARIANT, &t, &p));
                (d, Out::Floats(r))
            },
            move || Out::Floats(hs.seq(&tr, &pr)),
        ));
        let (im, imr) = (Arc::clone(&img), Arc::clone(&img));
        items.push(item(
            "srad",
            model,
            // Gradients, diffusion coefficient and update over two sweeps.
            (30.0 * srad_cells, 32.0 * srad_cells),
            move |e| {
                let (d, r) = timed(|| srad.run_v(e, model, VARIANT, &im));
                (d, Out::Floats(r))
            },
            move || Out::Floats(srad.seq(&imr)),
        ));
    }
    items
}

/// The `tasks` items: Fib under each task variant (Fig 5), BFS (Fig 6) and
/// LUD (Fig 8) under every registry model. Inputs come from `seed`.
pub fn tasks_items(seed: u64, scale: Scale) -> Vec<Item> {
    let sz = Sizes::of(scale);
    let mut items = Vec::new();
    let fib = Fib::native(sz.fib);
    for model in Model::ALL {
        if model.pattern() != Pattern::Task || !model.family().has_pooled_runtime() {
            continue;
        }
        items.push(item(
            "fib",
            model,
            (0.0, 0.0),
            move |e| {
                let (d, r) = timed(|| match model.family() {
                    Family::OpenMp => fib.run_omp_task(e.team()),
                    Family::CilkPlus => fib.run_cilk_spawn(e.worksteal()),
                    Family::Cxx11 => fib.run_cxx_async(),
                    Family::Actors => fib.run_actor_task(e.actors()),
                });
                (d, Out::Count(r))
            },
            move || Out::Count(Fib::seq(fib.n)),
        ));
    }
    let bfs = Bfs {
        seed: seed ^ 0xBF5,
        ..Bfs::native(sz.bfs)
    };
    let graph = Arc::new(bfs.generate());
    let lud = Lud {
        seed: seed ^ 0x14D,
        ..Lud::native(sz.lud)
    };
    let a = Arc::new(lud.generate());
    let ln = lud.n as f64;
    for model in Model::ALL {
        let (g, gr) = (Arc::clone(&graph), Arc::clone(&graph));
        items.push(item(
            "bfs",
            model,
            (0.0, 0.0),
            move |e| {
                let (d, (cost, _levels)) = timed(|| bfs.run(e, model, &g));
                (d, Out::Ints(cost))
            },
            move || Out::Ints(bfs.seq(&gr)),
        ));
        let (m, mr) = (Arc::clone(&a), Arc::clone(&a));
        items.push(item(
            "lud",
            model,
            (2.0 / 3.0 * ln * ln * ln, 8.0 * ln * ln),
            move |e| {
                let (d, r) = timed(|| lud.run(e, model, &m));
                (d, Out::Floats(r))
            },
            move || Out::Floats(lud.seq(&mr)),
        ));
    }
    items
}

/// Builds a workload's items.
pub type MakeItems = fn(u64, Scale) -> Vec<Item>;

/// A ready workload: the executor, its items and their expected results.
pub struct Ready {
    exec: Executor,
    items: Vec<Item>,
    expected: Vec<Out>,
}

/// Builds the executor and inputs and runs one unchecked warm-up pass.
fn set_up(make: MakeItems, seed: u64, scale: Scale) -> (Executor, Vec<Item>) {
    let exec = Executor::new(sys::nproc());
    let mut items = make(seed, scale);
    for it in &mut items {
        std::hint::black_box((it.run)(&exec));
    }
    (exec, items)
}

/// Sets the workload up once and computes the expected results.
pub fn prepare(make: MakeItems, seed: u64, scale: Scale) -> Ready {
    let (exec, items) = set_up(make, seed, scale);
    let expected = items.iter().map(|it| (it.reference)()).collect();
    Ready {
        exec,
        items,
        expected,
    }
}

/// The end-to-end run: [`ROUNDS`] rounds, each a fresh set-up (timed, the
/// first from `start`) followed by `seconds / ROUNDS` of passes.
pub fn run(
    make: MakeItems,
    seed: u64,
    scale: Scale,
    start: Instant,
    seconds: f64,
    report: &mut Report,
) {
    let mut setup = Vec::new();
    let mut rounds = Vec::new();
    let mut expected: Option<Vec<Out>> = None;
    let mut per_pass = 0;
    for i in 0..ROUNDS {
        let t = if i == 0 { start } else { Instant::now() };
        let (exec, items) = set_up(make, seed, scale);
        setup.push(t.elapsed().as_secs_f64());
        let want = expected
            .take()
            .unwrap_or_else(|| items.iter().map(|it| (it.reference)()).collect());
        let mut r = Ready {
            exec,
            items,
            expected: want,
        };
        per_pass = r.items.len();
        rounds.push(passes(&mut r, seconds / ROUNDS as f64, false, report));
        expected = Some(r.expected);
    }
    report_e2e(&setup, &rounds, per_pass as f64, report);
}

/// Per-family span time and scheduler-counter deltas of a traced segment.
#[derive(Default)]
pub struct Layers {
    /// Summed call time per family, in [`Family::ALL`] order.
    pub family_ns: [u64; 4],
    /// Scheduler counter deltas of each pooled family over the segment.
    pub pooled: Vec<(Family, StatsSnapshot)>,
    /// OS threads the no-pool family spawned over the segment.
    pub thread_spawns: u64,
}

/// The passes of one measured segment.
pub struct Passes {
    /// Program time of each pass (checks excluded), in seconds.
    pub times: Vec<f64>,
    /// Program time of each call, per item, in seconds.
    pub calls: Vec<Vec<f64>>,
    /// Process CPU time over the segment, minus the checker's own.
    pub cpu_s: f64,
    /// Per-layer figures, when the segment was traced.
    pub layers: Option<Layers>,
}

impl Passes {
    /// A pass's time built item by item from each item's `q`-quantile call
    /// time, in seconds (see [`report_e2e`]).
    pub fn itemwise(&self, q: f64) -> f64 {
        self.calls.iter().map(|c| stats::quantile(c, q)).sum()
    }
}

fn family_index(f: Family) -> usize {
    Family::ALL
        .iter()
        .position(|&g| g == f)
        .expect("family in registry")
}

/// Runs passes until `seconds` of wall time have gone (at least one),
/// checking every result. With `traced`, records a span per call and the
/// scheduler counters around the segment.
pub fn passes(r: &mut Ready, seconds: f64, traced: bool, report: &mut Report) -> Passes {
    let cpu0 = sys::cpu_time("self");
    let spawns0 = tpm_rawthreads::stats().threads_spawned.get();
    let pooled0 = traced.then(|| r.exec.pooled_stats());
    let mut spans: Vec<(Family, u64)> = Vec::new();
    let mut check_ns = 0u64;
    let mut times = Vec::new();
    let mut calls: Vec<Vec<f64>> = vec![Vec::new(); r.items.len()];
    let wall = Instant::now();
    while times.is_empty() || wall.elapsed().as_secs_f64() < seconds {
        let mut pass = Duration::ZERO;
        for ((it, want), call) in r.items.iter_mut().zip(&r.expected).zip(&mut calls) {
            let exec = &r.exec;
            let outcome = catch_unwind(AssertUnwindSafe(|| (it.run)(exec)));
            let c0 = sys::thread_cpu_ns();
            let verdict = match outcome {
                Ok((d, got)) => {
                    pass += d;
                    call.push(d.as_secs_f64());
                    if traced {
                        spans.push((it.model.family(), d.as_nanos() as u64));
                    }
                    check::matches(&got, want)
                }
                Err(p) => Err(format!("panicked: {}", tpm_core::panic_message(p))),
            };
            report.check(&it.label, verdict);
            check_ns += sys::thread_cpu_ns().saturating_sub(c0);
        }
        times.push(pass.as_secs_f64());
    }
    let cpu_s = match (cpu0, sys::cpu_time("self")) {
        (Ok(a), Ok(b)) => (b - a).as_secs_f64() - check_ns as f64 / 1e9,
        _ => f64::NAN,
    };
    let layers = pooled0.map(|before| {
        let mut family_ns = [0u64; 4];
        for (f, ns) in &spans {
            family_ns[family_index(*f)] += ns;
        }
        let pooled = r
            .exec
            .pooled_stats()
            .into_iter()
            .zip(before)
            .map(|((f, after), (_, before))| (f, after - before))
            .collect();
        Layers {
            family_ns,
            pooled,
            thread_spawns: tpm_rawthreads::stats().threads_spawned.get() - spawns0,
        }
    });
    Passes {
        times,
        calls,
        cpu_s,
        layers,
    }
}

/// Records the end-to-end metrics of a closed-loop run from its set-up
/// times and its rounds of passes, as medians over rounds.
///
/// Within a round the gated pass time is built item by item, from each
/// item's 25th-percentile call time (the 10th is printed too). The host this benchmark is sized for
/// preempts whole virtual CPUs for tens of milliseconds at a time, which
/// moves whole pass times by up to 2x between runs; a low percentile of
/// each item keeps the program's own cost and drops the host's. The median
/// over rounds, each with a fresh executor, evens out how a run's threads
/// happened to be placed. The median and tail of whole passes are printed.
pub fn report_e2e(setup: &[f64], rounds: &[Passes], ops_per_pass: f64, report: &mut Report) {
    let over_rounds =
        |f: &dyn Fn(&Passes) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    report.put("setup_s", stats::median(setup), "s", Better::Lower);
    report.put(
        "lat_p25_ms",
        over_rounds(&|p| p.itemwise(0.25)) * 1e3,
        "ms",
        Better::Lower,
    );
    report.put(
        "cpu_per_op_ms",
        over_rounds(&|p| p.cpu_s / p.times.len() as f64) * 1e3,
        "ms",
        Better::Lower,
    );
    report.put(
        "peak_rss_mb",
        sys::peak_rss_mib("self").unwrap_or(f64::NAN),
        "MiB",
        Better::Lower,
    );
    report.note(
        "lat_p10_ms",
        over_rounds(&|p| p.itemwise(0.10)) * 1e3,
        "ms",
        Better::Lower,
    );
    report.note(
        "ops_per_s",
        over_rounds(&|p| ops_per_pass / p.itemwise(0.10)),
        "1/s",
        Better::Higher,
    );
    let times: Vec<f64> = rounds
        .iter()
        .flat_map(|p| p.times.iter().copied())
        .collect();
    let n = times.len() as f64;
    let (pct, tail) = stats::tail(&times);
    report.note("pass_s", stats::median(&times), "s", Better::Lower);
    report.note(
        format!("pass_tail_s (p{pct:.0} of {n} passes)"),
        tail,
        "s",
        Better::Lower,
    );
}

/// Records the per-layer metrics of a traced closed-loop segment, per pass,
/// with the workload name as suffix.
pub fn report_layers(p: &Passes, workload: &str, threads: usize, report: &mut Report) {
    let Some(l) = &p.layers else { return };
    let passes = p.times.len() as f64;
    for (i, &fam) in Family::ALL.iter().enumerate() {
        let layer = fam.runtime_label();
        let span_s = l.family_ns[i] as f64 / 1e9;
        report.put(
            format!("{layer}.s.{workload}"),
            span_s / passes,
            "s",
            Better::Lower,
        );
        let Some((_, s)) = l.pooled.iter().find(|(f, _)| *f == fam) else {
            report.put(
                format!("{layer}.thread_spawns.{workload}"),
                l.thread_spawns as f64 / passes,
                "count",
                Better::Lower,
            );
            continue;
        };
        let per_pass = |v: u64| v as f64 / passes;
        let busy = s.busy_ns as f64 / 1e9 / (threads as f64 * span_s).max(f64::MIN_POSITIVE);
        let hit = s.steals as f64 / ((s.steals + s.failed_steals) as f64).max(1.0);
        let mut put = |name: &str, v: f64, unit: &'static str, better: Better| {
            report.put(format!("{layer}.{name}.{workload}"), v, unit, better);
        };
        match fam {
            Family::OpenMp => {
                put("busy_ratio", busy, "ratio", Better::Higher);
                put(
                    "barrier_wait_s",
                    s.barrier_wait_ns as f64 / 1e9 / passes,
                    "s",
                    Better::Lower,
                );
                put("chunks", per_pass(s.chunks), "count", Better::Lower);
                put(
                    "loop_claims",
                    per_pass(s.loop_claims),
                    "count",
                    Better::Lower,
                );
                put("parks", per_pass(s.parks), "count", Better::Lower);
            }
            Family::CilkPlus => {
                put("busy_ratio", busy, "ratio", Better::Higher);
                put("spawned", per_pass(s.spawned), "count", Better::Lower);
                put("steals", per_pass(s.steals), "count", Better::Lower);
                put("steal_hit_ratio", hit, "ratio", Better::Higher);
                put("parks", per_pass(s.parks), "count", Better::Lower);
            }
            Family::Actors => {
                put("executed", per_pass(s.executed), "count", Better::Lower);
                put("steal_hit_ratio", hit, "ratio", Better::Higher);
                put("parks", per_pass(s.parks), "count", Better::Lower);
            }
            Family::Cxx11 => {}
        }
    }
}

/// Kernel-layer figures of the `loops` items: the sequential reference time
/// of one pass's inputs, and computed flops and bytes of one pass.
pub fn report_kernels(r: &Ready, report: &mut Report) {
    let seq: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            // One reference per kernel: the inputs are shared across models.
            for it in r.items.iter().take(r.items.len() / Model::ALL.len()) {
                std::hint::black_box((it.reference)());
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    report.put("kernels.seq_s", stats::median(&seq), "s", Better::Lower);
    let flops: f64 = r.items.iter().map(|it| it.flops).sum();
    let bytes: f64 = r.items.iter().map(|it| it.bytes).sum();
    report.put("kernels.flops", flops, "count", Better::Lower);
    report.put("kernels.bytes", bytes, "bytes", Better::Lower);
}

impl Ready {
    /// The executor's thread count.
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }
}
