//! The `serve` workload: an open-loop generator against `tpm-harness serve`
//! started as a child process with default flags.
//!
//! One generator thread sends on a seeded Poisson schedule over exactly two
//! connections, one JSON lines and one binary, and reads both between
//! sends. Latency runs from each request's *intended* send time, so a stall
//! charges every request queued behind it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use tpm_core::{Family, JobSpec, KernelVariant, Model};
use tpm_kernels::{Matmul, Sum};
use tpm_metrics::text::Scrape;
use tpm_serve::frame::SUPPORTED_VERSION;
use tpm_serve::wire::{self, Protocol, ResponseDecoder, Step};
use tpm_serve::{Request, Response};
use tpm_sync::epoll::{Epoll, Event, EPOLLIN};
use tpm_sync::SplitMix64;

use crate::check::{self, Out, ServeTotals};
use crate::report::{Better, Report};
use crate::{stats, sys, Scale, ROUNDS};

/// The model every request runs under: the service's default.
const MODEL: Model = Model::OmpFor;
/// Share of requests that run the kernel-bound `matmul` job.
const MATMUL_SHARE: f64 = 0.1;
/// Job sizes: a short flat reduction and a kernel-bound product.
const SUM_SIZE: usize = 4096;
const MATMUL_SIZE: usize = 64;
/// A deadline that never fires at these rates.
const DEADLINE_MS: u64 = 10_000;
/// The p99 latency limit of the `rps_max` ladder.
const LIMIT_MS: f64 = 2.0;
/// A rung where the generator's own p99 lateness exceeds this is invalid.
const LATE_LIMIT_MS: f64 = 0.5;
/// Fixed request rates (req/s). Both sit far below the server's pipelined
/// capacity (tens of thousands of requests per second): the host this
/// benchmark is sized for stalls whole virtual CPUs for up to ~40 ms, and
/// the requests that arrive during a stall reach the 32-slot admission
/// queue at once. A trial run at 800 req/s shed a request; `hi` keeps a
/// margin below that.
/// The ladder climbs from `hi` in steps of [`RUNG_STEP`].
const LO_RPS: f64 = 200.0;
const HI_RPS: f64 = 600.0;
const RUNG_STEP: f64 = 1.25;
const MAX_RUNGS: usize = 4;
/// Requests in flight per connection in the pipelined phase: 16 in all,
/// half the 32-slot admission queue, so none is ever shed.
const WINDOW: usize = 8;
/// The pipelined phase's request budget is sized at this rate (the server
/// answers about 25k req/s pipelined on 2 virtual CPUs); the phase sends
/// that fixed count and takes as long as the server needs.
const PIPELINE_BUDGET_RPS: f64 = 10_000.0;
/// Warm-up requests per set-up, sent at the `lo` rate.
const WARMUP: usize = 150;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Job {
    Sum,
    Matmul,
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Slot {
    /// Intended send time, from the segment's start.
    at: Duration,
    /// 0 = JSON connection, 1 = binary connection.
    conn: usize,
    job: Job,
}

/// A seeded Poisson arrival schedule of `n` requests at `rps`.
fn schedule(rng: &mut SplitMix64, rps: f64, n: usize) -> Vec<Slot> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rps;
            draw(rng, Duration::from_secs_f64(t))
        })
        .collect()
}

/// `n` seeded requests with no schedule, for the pipelined phase.
fn mix(rng: &mut SplitMix64, n: usize) -> Vec<Slot> {
    (0..n).map(|_| draw(rng, Duration::ZERO)).collect()
}

/// One request due at `at`: a seeded connection and job.
fn draw(rng: &mut SplitMix64, at: Duration) -> Slot {
    Slot {
        at,
        conn: (rng.next_u64() & 1) as usize,
        job: if rng.next_f64() < MATMUL_SHARE {
            Job::Matmul
        } else {
            Job::Sum
        },
    }
}

fn spec(job: Job) -> JobSpec {
    let (kernel, size) = match job {
        Job::Sum => ("sum", SUM_SIZE),
        Job::Matmul => ("matmul", MATMUL_SIZE),
    };
    JobSpec {
        kernel: kernel.to_string(),
        model: MODEL,
        variant: KernelVariant::Reference,
        size,
        threads: 1,
    }
}

/// The values every `ok` reply must carry, computed sequentially on the
/// inputs the server's jobs generate.
#[derive(Clone, Copy)]
struct Expected {
    sum: f64,
    matmul: f64,
}

impl Expected {
    fn compute() -> Expected {
        let s = Sum::native(SUM_SIZE);
        let m = Matmul::native(MATMUL_SIZE);
        let (a, b) = m.alloc();
        Expected {
            sum: s.seq(&s.alloc()),
            matmul: m.seq(&a, &b).iter().sum(),
        }
    }

    fn of(&self, job: Job) -> f64 {
        match job {
            Job::Sum => self.sum,
            Job::Matmul => self.matmul,
        }
    }
}

/// One segment's requests and what their replies must hold.
struct Plan<'a> {
    slots: &'a [Slot],
    /// Id of the first request.
    base: u64,
    /// When each request's latency is timed from: its intended send time
    /// in the open loop, its actual send time in the pipelined phase.
    from: Vec<Instant>,
    expected: &'a Expected,
    traced: bool,
}

/// What one segment of the schedule produced.
#[derive(Default)]
struct Segment {
    /// Latency of each request from its intended send time, in ms; failed
    /// and unanswered requests are infinite (they miss every limit). NaN
    /// marks a request not yet answered while the segment runs.
    lat_ms: Vec<f64>,
    /// How late the generator sent each request, in ms.
    late_ms: Vec<f64>,
    /// Server-reported queue wait and execution time of `ok` replies, ms.
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    ok: u64,
    /// Error replies, wrong values and requests left unanswered.
    failures: Vec<String>,
    /// Requests sent but unanswered when the last one was sent.
    backlog_at_end: usize,
    /// Seconds from the first intended send to the last.
    span_s: f64,
    /// Per-message codec times (traced segments only), per protocol.
    encode_ns: [Vec<f64>; 2],
    decode_ns: [Vec<f64>; 2],
}

impl Segment {
    fn p(&self, q: f64) -> f64 {
        stats::quantile(&self.lat_ms, q)
    }

    fn late_p99(&self) -> f64 {
        stats::quantile(&self.late_ms, 0.99)
    }

    /// Marks requests still unanswered as failed (infinitely late).
    fn close_unanswered(&mut self) {
        let unanswered = self.lat_ms.iter().filter(|l| l.is_nan()).count();
        if unanswered > 0 {
            self.failures
                .push(format!("{unanswered} request(s) never answered"));
        }
        for l in &mut self.lat_ms {
            if l.is_nan() {
                *l = f64::INFINITY;
            }
        }
    }
}

/// The generator's two connections, their decoders, and an epoll set over
/// both for the pipelined phase.
struct Conns {
    streams: [TcpStream; 2],
    decoders: [ResponseDecoder; 2],
    poll: Epoll,
}

const PROTOCOLS: [Protocol; 2] = [Protocol::Json, Protocol::Binary];

impl Conns {
    fn open(addr: &str) -> Result<Conns, String> {
        let connect = || -> Result<TcpStream, String> {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(s)
        };
        let json = connect()?;
        let mut binary = connect()?;
        binary
            .write_all(&wire::client_preamble(SUPPORTED_VERSION))
            .map_err(|e| format!("binary preamble: {e}"))?;
        let mut accept = [0u8; 2];
        binary
            .read_exact(&mut accept)
            .map_err(|e| format!("binary preamble reply: {e}"))?;
        let poll = Epoll::new().map_err(|e| format!("epoll: {e}"))?;
        for (token, s) in [&json, &binary].into_iter().enumerate() {
            s.set_nonblocking(true).map_err(|e| e.to_string())?;
            poll.add(s.as_raw_fd(), token as u64, EPOLLIN)
                .map_err(|e| format!("epoll: {e}"))?;
        }
        Ok(Conns {
            streams: [json, binary],
            decoders: PROTOCOLS.map(ResponseDecoder::new),
            poll,
        })
    }

    /// Runs one segment from a single thread that never sleeps: it sends
    /// each request when due and reads both connections in between. A
    /// sleeping generator would measure the host's wake-up latency as
    /// much as the server (see the README).
    fn run(&mut self, slots: &[Slot], base: u64, expected: &Expected, traced: bool) -> Segment {
        let n = slots.len();
        let start = Instant::now() + Duration::from_millis(2);
        let plan = Plan {
            slots,
            base,
            from: slots.iter().map(|s| start + s.at).collect(),
            expected,
            traced,
        };
        let specs = [spec(Job::Sum), spec(Job::Matmul)];
        let mut seg = Segment {
            lat_ms: vec![f64::NAN; n],
            ..Segment::default()
        };
        let (mut next, mut answered) = (0usize, 0usize);
        let last_due = slots.last().map_or(Duration::ZERO, |s| s.at);
        let give_up = start + last_due + Duration::from_secs(5);
        let mut inbuf = vec![0u8; 64 << 10];
        let mut out = Vec::with_capacity(256);
        while answered < n {
            let now = Instant::now();
            if now >= give_up {
                break;
            }
            while next < n && plan.from[next] <= now {
                let slot = slots[next];
                seg.late_ms.push(
                    Instant::now()
                        .saturating_duration_since(plan.from[next])
                        .as_secs_f64()
                        * 1e3,
                );
                self.send(slot, base + next as u64, &specs, &mut out, &mut seg, traced);
                next += 1;
                if next == n {
                    // Replies still owed when the last request went out.
                    seg.backlog_at_end = n - answered;
                }
            }
            for c in 0..2 {
                answered += self.read(c, &mut inbuf, &plan, &mut seg);
            }
            std::hint::spin_loop();
        }
        seg.close_unanswered();
        seg.span_s = last_due.as_secs_f64();
        seg
    }

    /// Runs one pipelined segment: a closed loop that keeps [`WINDOW`]
    /// requests in flight on each connection and sends the next as soon as
    /// a reply frees a slot. The server never idles, so this latency is the
    /// request path's own cost (codec, reactor, admission, queue, kernel)
    /// and not the host's wake-up latency, which moves the open-loop
    /// figures at these low rates by tens of percent from one minute to
    /// the next. Unlike the open loop, the generator sleeps in `epoll_wait`
    /// while every slot is taken: the queued requests hide its wake-up,
    /// whereas a spinning generator would take one of the two CPUs from the
    /// server's reactor and workers (in trials it cut the throughput from
    /// about 25k to 17k req/s and widened the spread between rounds by
    /// half). Each request is timed from its actual send; `span_s` is the
    /// segment's wall time.
    fn pipelined(
        &mut self,
        slots: &[Slot],
        base: u64,
        expected: &Expected,
        traced: bool,
    ) -> Segment {
        let n = slots.len();
        let start = Instant::now();
        let mut plan = Plan {
            slots,
            base,
            from: vec![start; n],
            expected,
            traced,
        };
        let specs = [spec(Job::Sum), spec(Job::Matmul)];
        let mut seg = Segment {
            lat_ms: vec![f64::NAN; n],
            ..Segment::default()
        };
        let mut in_flight = [0usize; 2];
        let (mut next, mut answered) = (0usize, 0usize);
        let give_up = start + Duration::from_secs(30);
        let mut events = [Event::zeroed(); 2];
        let mut inbuf = vec![0u8; 64 << 10];
        let mut out = Vec::with_capacity(256);
        while answered < n && Instant::now() < give_up {
            while next < n && in_flight[slots[next].conn] < WINDOW {
                let slot = slots[next];
                plan.from[next] = Instant::now();
                self.send(slot, base + next as u64, &specs, &mut out, &mut seg, traced);
                in_flight[slot.conn] += 1;
                next += 1;
            }
            let mut got = 0;
            for (c, open) in in_flight.iter_mut().enumerate() {
                let k = self.read(c, &mut inbuf, &plan, &mut seg);
                *open -= k;
                answered += k;
                got += k;
            }
            if got == 0 {
                // Nothing can be sent until a reply comes: sleep, and leave
                // both CPUs to the server.
                if let Err(e) = self.poll.wait(&mut events, 100) {
                    if e.kind() != std::io::ErrorKind::Interrupted {
                        seg.failures.push(format!("epoll_wait: {e}"));
                        break;
                    }
                }
            }
        }
        seg.close_unanswered();
        seg.span_s = start.elapsed().as_secs_f64();
        seg
    }

    /// Encodes and writes request `id` on its slot's connection.
    fn send(
        &mut self,
        slot: Slot,
        id: u64,
        specs: &[JobSpec; 2],
        out: &mut Vec<u8>,
        seg: &mut Segment,
        traced: bool,
    ) {
        let req = Request::Run {
            id,
            spec: specs[usize::from(slot.job == Job::Matmul)].clone(),
            deadline_ms: Some(DEADLINE_MS),
            client: None,
        };
        out.clear();
        let t = Instant::now();
        wire::encode_request_into(PROTOCOLS[slot.conn], &req, out);
        if traced {
            seg.encode_ns[slot.conn].push(t.elapsed().as_nanos() as f64);
        }
        if let Err(e) = write_all(&mut self.streams[slot.conn], out) {
            seg.failures.push(format!("write: {e}"));
        }
    }

    /// Reads what connection `c` has and records every complete reply;
    /// returns how many requests it answered.
    fn read(&mut self, c: usize, buf: &mut [u8], plan: &Plan<'_>, seg: &mut Segment) -> usize {
        loop {
            match self.streams[c].read(buf) {
                Ok(0) => break,
                Ok(k) => self.decoders[c].feed(&buf[..k]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    seg.failures.push(format!("read: {e}"));
                    break;
                }
            }
        }
        let mut answered = 0;
        loop {
            let t = Instant::now();
            let step = self.decoders[c].next();
            if plan.traced && matches!(step, Step::Message(_)) {
                seg.decode_ns[c].push(t.elapsed().as_nanos() as f64);
            }
            let resp = match step {
                Step::NeedMore => break,
                Step::Preamble(_) => continue,
                Step::Message(Ok(r)) => r,
                Step::Message(Err(e)) => {
                    seg.failures.push(format!("malformed reply: {e}"));
                    continue;
                }
                Step::Corrupt(e) => {
                    seg.failures.push(format!("corrupt stream: {e:?}"));
                    break;
                }
            };
            let now = Instant::now();
            let (id, outcome) = match resp {
                Response::Ok {
                    id,
                    value,
                    elapsed_ms,
                    queue_ms,
                } => {
                    let Some(slot) = id
                        .checked_sub(plan.base)
                        .and_then(|i| plan.slots.get(i as usize))
                    else {
                        seg.failures.push(format!("reply to unknown id {id}"));
                        continue;
                    };
                    seg.queue_ms.push(queue_ms);
                    seg.exec_ms.push(elapsed_ms);
                    let want = plan.expected.of(slot.job);
                    (id, check::matches(&Out::Scalar(value), &Out::Scalar(want)))
                }
                Response::Error {
                    id: Some(id),
                    code,
                    message,
                } => (id, Err(format!("error reply {code}: {message}"))),
                other => {
                    seg.failures.push(format!("unexpected reply {other:?}"));
                    continue;
                }
            };
            let i = id.wrapping_sub(plan.base) as usize;
            if i >= seg.lat_ms.len() || !seg.lat_ms[i].is_nan() {
                seg.failures
                    .push(format!("duplicate or unknown reply id {id}"));
                continue;
            }
            answered += 1;
            seg.lat_ms[i] = match outcome {
                Ok(()) => {
                    seg.ok += 1;
                    now.saturating_duration_since(plan.from[i]).as_secs_f64() * 1e3
                }
                Err(e) => {
                    seg.failures.push(format!("request {id}: {e}"));
                    f64::INFINITY
                }
            };
        }
        answered
    }
}

/// `write_all` on a non-blocking socket: retries while the buffer is full.
fn write_all(w: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(k) => buf = &buf[k..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A running `tpm-harness serve` child.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    pid: String,
}

impl Server {
    fn start(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before listening".to_string());
            }
            if let Some(rest) = line.strip_prefix("[serve] listening on ") {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        let pid = child.id().to_string();
        Ok(Server {
            child,
            stdout,
            addr,
            pid,
        })
    }

    /// One command line on a fresh connection; returns the reply line.
    fn command(&self, cmd: &str) -> Result<Response, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        s.write_all(format!("{{\"cmd\":\"{cmd}\"}}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(s)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        Response::parse(line.trim())
    }

    fn scrape(&self) -> Result<Scrape, String> {
        tpm_harness::top::scrape(&self.addr)
    }

    /// Asks the server to drain and exit; returns its `done` totals and its
    /// heap allocations per admitted request.
    fn shutdown(mut self) -> Result<(ServeTotals, f64), String> {
        let _ = self.command("shutdown");
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    return Err("server did not exit within 20 s of shutdown".to_string());
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let totals = rest
            .lines()
            .find_map(ServeTotals::parse)
            .ok_or("no `done` line from the server")?;
        let allocs = rest
            .lines()
            .find_map(|l| l.strip_prefix("[serve] heap: "))
            .and_then(|l| l.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        Ok((totals, allocs))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on error paths: `shutdown` consumes a clean server.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A ready workload: a warmed-up server, the generator's connections and
/// the seeded schedule source.
pub struct Ready {
    server: Server,
    conns: Conns,
    rng: SplitMix64,
    next_id: u64,
    expected: Expected,
    workers: u64,
}

fn set_up(bin: &Path, seed: u64, expected: Expected) -> Result<Ready, String> {
    let server = Server::start(bin)?;
    let workers = match server.command("health")? {
        Response::Health { live_workers, .. } => live_workers,
        other => return Err(format!("unexpected health reply {other:?}")),
    };
    let conns = Conns::open(&server.addr)?;
    let mut r = Ready {
        server,
        conns,
        rng: SplitMix64::new(seed),
        next_id: 0,
        expected,
        workers,
    };
    let seg = r.segment(LO_RPS, WARMUP, false);
    if let Some(f) = seg.failures.first() {
        return Err(format!(
            "warm-up: {} failure(s), first: {f}",
            seg.failures.len()
        ));
    }
    Ok(r)
}

impl Ready {
    /// An open-loop segment of `n` requests at `rps`.
    fn segment(&mut self, rps: f64, n: usize, traced: bool) -> Segment {
        let slots = schedule(&mut self.rng, rps, n);
        let base = self.next_id;
        self.next_id += n as u64;
        self.conns.run(&slots, base, &self.expected, traced)
    }

    /// A pipelined segment of `n` requests.
    fn pipelined(&mut self, n: usize, traced: bool) -> Segment {
        let slots = mix(&mut self.rng, n);
        let base = self.next_id;
        self.next_id += n as u64;
        self.conns.pipelined(&slots, base, &self.expected, traced)
    }
}

/// Starts a server and warms it up once (for the traced run).
pub fn prepare(bin: &Path, seed: u64) -> Result<Ready, String> {
    set_up(bin, seed, Expected::compute())
}

/// Requests a segment of `share` of the run's seconds holds at `rps`.
fn count(seconds: f64, share: f64, rps: f64, scale: Scale) -> usize {
    let n = (seconds * share * rps) as usize;
    match scale {
        Scale::Full => n.max(200),
        Scale::Smoke => n.clamp(50, 400),
    }
}

/// Counts a measured segment's requests (and failures) in the report.
fn tally(seg: &Segment, what: &str, report: &mut Report) {
    report.attempted += seg.lat_ms.len() as u64;
    let failed = seg.lat_ms.iter().filter(|l| l.is_infinite()).count() as u64;
    report.failed += failed;
    for f in seg.failures.iter().take(5) {
        eprintln!("[check] FAILED {what}: {f}");
    }
}

/// The measured figures of one round (one server).
struct Round {
    lo: Segment,
    hi: Segment,
    pipe: Segment,
    /// Server CPU time per request over `lo` and `hi`, in ms.
    cpu_per_req_ms: f64,
    /// Server `VmHWM` before shutdown, in MiB.
    rss_mib: f64,
}

/// Measures `lo`, `hi` and the pipelined phase on one ready server, checks
/// the live scrape and the server's conservation, and shuts it down. The last round also climbs
/// the `rps_max` ladder; its result is returned.
fn round(
    mut r: Ready,
    seconds: f64,
    scale: Scale,
    ladder: bool,
    report: &mut Report,
) -> Result<(Round, Option<f64>), String> {
    let share = 0.2 / ROUNDS as f64;
    // The server's threads live as long as it does (its jobs run on pooled
    // runtimes), so the live threads' run times count all of its CPU.
    let cpu0 = sys::live_threads_cpu_ns(&r.server.pid)?;
    let before = r.server.scrape()?;
    let lo = r.segment(LO_RPS, count(seconds, share, LO_RPS, scale), false);
    let hi = r.segment(HI_RPS, count(seconds, share, HI_RPS, scale), false);
    let cpu_s = sys::live_threads_cpu_ns(&r.server.pid)?.saturating_sub(cpu0) as f64 / 1e9;
    let pipe = r.pipelined(
        count(seconds, 0.45 / ROUNDS as f64, PIPELINE_BUDGET_RPS, scale),
        false,
    );
    let after = r.server.scrape()?;
    tally(&lo, "serve lo", report);
    tally(&hi, "serve hi", report);
    tally(&pipe, "serve pipelined", report);
    let scraped_ok = after
        .delta(&before)
        .get("tpm_requests_total", &[("outcome", "ok")])
        .unwrap_or(-1.0);
    report.check(
        "live scrape ok count",
        check::scrape_agrees(scraped_ok, lo.ok + hi.ok + pipe.ok),
    );
    let rps_max = ladder.then(|| climb(&mut r, &lo, &hi, seconds, scale));
    let rss_mib = sys::peak_rss_mib(&r.server.pid)?;
    let Ready { server, conns, .. } = r;
    drop(conns);
    let (totals, _) = server.shutdown()?;
    report.check("serve conservation", totals.conserved());
    let requests = (lo.lat_ms.len() + hi.lat_ms.len()) as f64;
    Ok((
        Round {
            lo,
            hi,
            pipe,
            cpu_per_req_ms: cpu_s / requests * 1e3,
            rss_mib,
        },
        rps_max,
    ))
}

/// The `rps_max` ladder: climbs from `hi` until a rung misses the limit or
/// the generator itself falls behind (an invalid rung, which counts as
/// neither). Returns the achieved rate of the highest rung that met it.
fn climb(r: &mut Ready, lo: &Segment, hi: &Segment, seconds: f64, scale: Scale) -> f64 {
    let mut rps_max = if rung_passes(hi, HI_RPS) {
        hi.ok as f64 / hi.span_s
    } else if rung_passes(lo, LO_RPS) {
        lo.ok as f64 / lo.span_s
    } else {
        0.0
    };
    let mut rate = HI_RPS;
    for _ in 0..MAX_RUNGS {
        rate *= RUNG_STEP;
        let seg = r.segment(rate, count(seconds, 0.05, rate, scale), false);
        let late = seg.late_p99();
        if late > LATE_LIMIT_MS {
            println!(
                "[ladder] {rate:.0} req/s: INVALID, the generator ran {late:.3} ms late (p99)"
            );
            break;
        }
        let ok = rung_passes(&seg, rate);
        println!(
            "[ladder] {rate:.0} req/s: p99 {:.3} ms, backlog {} -> {}",
            seg.p(0.99),
            seg.backlog_at_end,
            if ok {
                "meets the limit"
            } else {
                "misses the limit"
            }
        );
        if !ok {
            break;
        }
        rps_max = seg.ok as f64 / seg.span_s;
    }
    rps_max
}

/// The end-to-end run: [`ROUNDS`] rounds, each a fresh server (set-up timed,
/// the first from `start`) measured at `lo` and `hi`; the ladder runs on the
/// last. Records the end-to-end metrics as medians over rounds.
pub fn run(
    bin: &Path,
    seed: u64,
    start: Instant,
    seconds: f64,
    scale: Scale,
    report: &mut Report,
) -> Result<(), String> {
    let expected = Expected::compute();
    let mut setup = Vec::new();
    let mut rounds = Vec::new();
    let mut rps_max = 0.0;
    for i in 0..ROUNDS {
        let t = if i == 0 { start } else { Instant::now() };
        let r = set_up(bin, seed.wrapping_add(i as u64), expected)?;
        setup.push(t.elapsed().as_secs_f64());
        let (measured, ladder) = round(r, seconds, scale, i + 1 == ROUNDS, report)?;
        rps_max = ladder.unwrap_or(rps_max);
        rounds.push(measured);
    }
    let over_rounds =
        |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&Round) -> &Segment, q: f64| {
        let all: Vec<f64> = rounds
            .iter()
            .flat_map(|r| f(r).lat_ms.iter().copied())
            .collect();
        stats::quantile(&all, q)
    };
    // The gated latency is the pipelined phase's, pooled over rounds: the
    // open-loop figures carry the host's wake-up latency and stalls (see
    // `LO_RPS` and `Conns::pipelined`) and are printed only. Its p25 moves
    // by 5-10% between halves of one round, so pooling every round's
    // requests averages over the whole run where a median of five would
    // not.
    report.put("setup_s", stats::median(&setup), "s", Better::Lower);
    report.put(
        "lat_p25_ms",
        pooled(&|r| &r.pipe, 0.25),
        "ms",
        Better::Lower,
    );
    report.put(
        "cpu_per_op_ms",
        over_rounds(&|r| r.cpu_per_req_ms),
        "ms",
        Better::Lower,
    );
    report.put(
        "peak_rss_mb",
        over_rounds(&|r| r.rss_mib),
        "MiB",
        Better::Lower,
    );
    report.note(
        "lat_p10_ms",
        pooled(&|r| &r.pipe, 0.10),
        "ms",
        Better::Lower,
    );
    report.note(
        "pipelined_rps",
        over_rounds(&|r| r.pipe.ok as f64 / r.pipe.span_s),
        "req/s",
        Better::Higher,
    );
    report.note(
        "lat_p25_ms.lo",
        over_rounds(&|r| r.lo.p(0.25)),
        "ms",
        Better::Lower,
    );
    report.note(
        "lat_p50_ms.lo",
        pooled(&|r| &r.lo, 0.5),
        "ms",
        Better::Lower,
    );
    report.note(
        "lat_p99_ms.lo",
        pooled(&|r| &r.lo, 0.99),
        "ms",
        Better::Lower,
    );
    report.note(
        "lat_p50_ms.hi",
        pooled(&|r| &r.hi, 0.5),
        "ms",
        Better::Lower,
    );
    report.note(
        "lat_p99_ms.hi",
        pooled(&|r| &r.hi, 0.99),
        "ms",
        Better::Lower,
    );
    report.note("rps_max", rps_max, "req/s", Better::Higher);
    let late = |f: &dyn Fn(&Round) -> &Segment| {
        let all: Vec<f64> = rounds
            .iter()
            .flat_map(|r| f(r).late_ms.iter().copied())
            .collect();
        stats::quantile(&all, 0.99)
    };
    report.note(
        "loadgen.late_p99_ms.lo",
        late(&|r| &r.lo),
        "ms",
        Better::Lower,
    );
    report.note(
        "loadgen.late_p99_ms.hi",
        late(&|r| &r.hi),
        "ms",
        Better::Lower,
    );
    Ok(())
}

/// A rung meets the limit when its p99 (failures count as misses) is under
/// [`LIMIT_MS`] and no more replies were owed at its end than two limits'
/// worth of arrivals.
fn rung_passes(seg: &Segment, rps: f64) -> bool {
    seg.p(0.99) < LIMIT_MS && (seg.backlog_at_end as f64) <= 2.0 * LIMIT_MS / 1e3 * rps + 1.0
}

/// The traced run: an untraced and a traced pipelined segment for the
/// overhead ratio, then traced `lo` and `hi` segments with live scrapes
/// around each.
pub fn measure_traced(
    mut r: Ready,
    seconds: f64,
    scale: Scale,
    report: &mut Report,
) -> Result<(), String> {
    let n = count(seconds, 0.1, PIPELINE_BUDGET_RPS, scale);
    let plain = r.pipelined(n, false);
    let traced = r.pipelined(n, true);
    tally(&plain, "serve pipelined (untraced)", report);
    tally(&traced, "serve pipelined (traced)", report);
    report.put(
        "trace_overhead_ratio.serve",
        traced.p(0.25) / plain.p(0.25),
        "ratio",
        Better::Lower,
    );
    let mut sent = (plain.lat_ms.len() + traced.lat_ms.len()) as f64;
    for (suffix, rps) in [("lo", LO_RPS), ("hi", HI_RPS)] {
        let before = r.server.scrape()?;
        let t = Instant::now();
        let seg = r.segment(rps, count(seconds, 0.25, rps, scale), true);
        let wall = t.elapsed().as_secs_f64();
        let d = r.server.scrape()?.delta(&before);
        tally(&seg, &format!("serve {suffix} (traced)"), report);
        let ok = d
            .get("tpm_requests_total", &[("outcome", "ok")])
            .unwrap_or(-1.0);
        report.check("live scrape ok count", check::scrape_agrees(ok, seg.ok));
        sent += seg.lat_ms.len() as f64;
        let n = seg.lat_ms.len() as f64;
        let (client, queue, exec) = (
            seg.p(0.5),
            stats::median(&seg.queue_ms),
            stats::median(&seg.exec_ms),
        );
        let mut put = |name: &str, v: f64, unit: &'static str, better: Better| {
            report.put(format!("{name}.{suffix}"), v, unit, better);
        };
        put("serve.queue_wait_p50_ms", queue, "ms", Better::Lower);
        put(
            "serve.queue_wait_p99_ms",
            stats::quantile(&seg.queue_ms, 0.99),
            "ms",
            Better::Lower,
        );
        put("serve.exec_p50_ms", exec, "ms", Better::Lower);
        put(
            "serve.exec_p99_ms",
            stats::quantile(&seg.exec_ms, 0.99),
            "ms",
            Better::Lower,
        );
        put(
            "serve.other_p50_ms",
            client - queue - exec,
            "ms",
            Better::Lower,
        );
        put(
            "serve.covered_ratio",
            (queue + exec) / client,
            "ratio",
            Better::Higher,
        );
        let bytes = d.sum("serve_bytes_read_total") + d.sum("serve_bytes_written_total");
        put("serve.bytes_per_req", bytes / n, "bytes", Better::Lower);
        let busy = d.sum("tpm_worker_busy_seconds_total");
        put(
            "serve.worker_busy_ratio",
            busy / (r.workers as f64 * wall),
            "ratio",
            Better::Higher,
        );
        let idle_parks: f64 = Family::ALL
            .iter()
            .filter(|f| f.has_pooled_runtime() && **f != MODEL.family())
            .filter_map(|f| {
                d.get(
                    "tpm_runtime_events_total",
                    &[("runtime", f.runtime_label()), ("event", "parks")],
                )
            })
            .sum();
        put(
            "serve.idle_parks_per_req",
            idle_parks / n,
            "count",
            Better::Lower,
        );
        put("loadgen.late_p99_ms", seg.late_p99(), "ms", Better::Lower);
        let hits = d.sum("tpm_arena_pool_hits_total");
        let misses = d.sum("tpm_arena_pool_misses_total");
        if suffix == "hi" {
            report.put(
                "alloc.arena_hit_ratio",
                hits / (hits + misses).max(1.0),
                "ratio",
                Better::Higher,
            );
            for (i, proto) in ["json", "binary"].iter().enumerate() {
                report.put(
                    format!("wire.encode_ns.{proto}"),
                    stats::median(&seg.encode_ns[i]),
                    "ns",
                    Better::Lower,
                );
                report.put(
                    format!("wire.decode_ns.{proto}"),
                    stats::median(&seg.decode_ns[i]),
                    "ns",
                    Better::Lower,
                );
            }
        }
    }
    let Ready { server, conns, .. } = r;
    drop(conns);
    let (totals, allocs_per_req) = server.shutdown()?;
    report.check("serve conservation", totals.conserved());
    report.put("alloc.per_req", allocs_per_req, "count", Better::Lower);
    report.put("loadgen.sent", sent, "count", Better::Higher);
    Ok(())
}
