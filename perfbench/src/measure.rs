//! The two kinds of benchmark run: untraced runs give the end-to-end
//! metrics, a traced run gives the per-layer ones. Every run goes
//! through the public `s3asim` API on this one thread, one after another.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use s3asim::{Phase, RunReport, SimParams, SimTime};

use crate::drives::{self, PvfsShape};
use crate::host::{reference_s, status_mb, REFERENCE_NOMINAL_S};
use crate::spans::Spans;
use crate::workloads::{Size, Workload};

/// One invocation's result: the run accounting and the metrics, in
/// schema order.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub log: Vec<String>,
}

/// Counts runs and checks each one: a run fails when it returns an
/// error, panics, or its simulated digest differs from that of an
/// earlier run of the same seed.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    digests: BTreeMap<u64, u64>,
    log: Vec<String>,
}

impl Ledger {
    /// Account for one run of `seed`; returns the report when it is
    /// correct.
    fn check(
        &mut self,
        label: &str,
        seed: u64,
        wall: f64,
        result: Result<RunReport, String>,
    ) -> Option<RunReport> {
        self.attempted += 1;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                self.failed += 1;
                self.log.push(format!(
                    "{label} seed {seed}: FAILED after {wall:.3} s: {e}"
                ));
                return None;
            }
        };
        let d = digest(&report);
        let first = *self.digests.entry(seed).or_insert(d);
        if d != first {
            self.failed += 1;
            self.log.push(format!(
                "{label} seed {seed}: FAILED: simulated digest {d:016x} differs from the earlier run's {first:016x}"
            ));
            return None;
        }
        self.log.push(format!(
            "{label} seed {seed}: wall {wall:.4} s, virtual {:.4} s, digest {d:016x}",
            report.overall.as_secs_f64()
        ));
        Some(report)
    }
}

/// The workload seeds one invocation runs: `seed` itself, then seeds
/// drawn from it with SplitMix64. Single seeds of these workloads differ
/// widely in virtual time (one in five or so runs several times longer),
/// so an invocation reports medians over a panel of them.
pub fn panel(seed: u64, len: usize) -> Vec<u64> {
    let mut state = seed;
    let mut seeds = vec![seed];
    while seeds.len() < len {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        seeds.push(z ^ (z >> 31));
    }
    seeds
}

/// Set up one run: build and validate the parameters, generate the
/// workload (and, in service mode, the arrival stream). Returns the
/// parameters, the host seconds of the generation step alone, and the
/// workload's result bytes.
fn setup(
    wl: Workload,
    seed: u64,
    size: Size,
    spans: &Spans,
) -> Result<(SimParams, f64, u64), String> {
    spans
        .time("setup", || {
            let p = wl.params(seed, size).map_err(|e| e.to_string())?;
            let (w, g) = spans.time("setup.generate", || {
                s3a_workload::Workload::generate(&p.workload)
            });
            let bytes = w.total_bytes();
            if let Some(sp) = p.service() {
                black_box(
                    sp.arrivals
                        .generate(p.workload.queries, sp.tenants, sp.arrival_seed),
                );
            }
            Ok((p, g, bytes))
        })
        .0
}

/// Host seconds one sample of set-ups should last. A batch workload
/// sets up in about a millisecond, short enough for one allocator or
/// scheduler hiccup to move a lone sample by half.
const SETUP_SAMPLE_S: f64 = 0.03;
/// Samples behind `setup_s`.
const SETUP_SAMPLES: usize = 15;

/// The host seconds of one set-up: the median over [`SETUP_SAMPLES`]
/// samples, each a run of back-to-back set-ups of one panel seed lasting
/// about [`SETUP_SAMPLE_S`], of the time per set-up. Returns it with the
/// parameters and result bytes of every panel seed.
fn setup_panel(
    wl: Workload,
    seeds: &[u64],
    size: Size,
    spans: &Spans,
) -> Result<(f64, Vec<(SimParams, u64)>), String> {
    // One set-up first, untimed, so that first-touch page faults are not
    // charged to the samples; a second, timed, sizes the samples.
    setup(wl, seeds[0], size, spans)?;
    let (_, once) = spans.time("setup.calibrate", || setup(wl, seeds[0], size, spans));
    let per_sample = ((SETUP_SAMPLE_S / once).ceil() as usize).max(1);
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    for i in 0..SETUP_SAMPLES {
        let seed = seeds[i % seeds.len()];
        let (r, secs) = spans.time("setup.sample", || {
            (0..per_sample).try_for_each(|_| setup(wl, seed, size, spans).map(drop))
        });
        r?;
        samples.push(secs / per_sample as f64);
    }
    let params = seeds
        .iter()
        .map(|&s| setup(wl, s, size, spans).map(|(p, _, bytes)| (p, bytes)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((median(&samples), params))
}

fn try_run(params: &SimParams) -> Result<RunReport, String> {
    match catch_unwind(AssertUnwindSafe(|| s3asim::try_run(params))) {
        Ok(r) => r.map_err(|e| e.to_string()),
        Err(_) => Err("the run panicked".to_string()),
    }
}

/// Untraced runs: the end-to-end metrics. One run per panel seed, then
/// the first seed once more, whose report must match its first run's.
///
/// Host times are reported at the reference loop's nominal speed: the
/// median wall time of the runs (and of one set-up) is multiplied by
/// [`REFERENCE_NOMINAL_S`] over the median of reference-loop times taken
/// between them. On a shared VM the host's own speed drifts by a third
/// and more over tens of minutes; the ratio keeps part of that drift out
/// of the metric (it narrowed the spread of `wall_s` over ten seeds from
/// 0.14 to 0.08 on coll-1k, but not on posix-1k, and under memory
/// contention the program slowed 2.5-fold while the loop slowed 1.5-fold),
/// while a slower program still reads slower (the reference loop is no
/// program code).
pub fn untraced(
    wl: Workload,
    seed: u64,
    seconds: u64,
    size: Size,
) -> Result<(Outcome, Spans), String> {
    let spans = Spans::new(format!("{}-{seed}-untraced", wl.name()));
    // The panel length follows from `--seconds`, not from the clock, so
    // the work measured — and the memory retained across it — is the
    // same on every commit. The repeat run takes one of the slots. The
    // count of seeds is odd: about one seed in six runs several times
    // longer, and the median of an even count can average one of them in.
    let len = match size {
        Size::Full => {
            let seeds = ((seconds as f64 / wl.nominal_run_s()).round() as usize).max(4) - 1;
            seeds - (1 - seeds % 2)
        }
        Size::Tiny => 2,
    };
    let seeds = panel(seed, len);
    let reference = || spans.time("reference", reference_s).1;
    let mut refs = vec![reference()];
    let (setup_raw, panel) = setup_panel(wl, &seeds, size, &spans)?;
    refs.push(reference());
    // Runs go in increasing order of result bytes, and the first seed
    // runs again last. Seeds differ in result bytes by up to fourfold (a
    // query that draws a multi-megabyte sequence makes every one of its
    // hits huge), and a huge run raises the allocator's high-water mark,
    // after which runs reuse its memory instead of growing it. So the
    // fresh-process peak belongs to the lightest seed, and the growth per
    // run is read on the light runs before any huge one.
    let mut order: Vec<usize> = (0..len).collect();
    order.sort_by_key(|&i| panel[i].1);
    order.push(order[0]);
    let mut ledger = Ledger::default();
    let rss_before = status_mb("VmRSS");
    let mut walls = Vec::new();
    let mut simulated = Vec::new();
    let mut peak_rss = 0.0;
    let mut rss = Vec::new();
    let mut served_ns = Vec::new();
    for (i, &k) in order.iter().enumerate() {
        let (p, s) = (&panel[k].0, seeds[k]);
        let (result, wall) = spans.time("try_run", || try_run(p));
        refs.push(reference());
        rss.push(status_mb("VmRSS"));
        let label = if i < len { "run" } else { "repeat run" };
        if let Some(r) = ledger.check(label, s, wall, result) {
            if walls.is_empty() {
                // The process was fresh before this run: its high-water
                // mark is one run's peak.
                peak_rss = status_mb("VmHWM");
            }
            walls.push(wall);
            if i < len {
                simulated.push(e2e_simulated(&r));
                if let Some(svc) = &r.service {
                    served_ns.extend(svc.queries.iter().map(|q| q.latency().as_nanos()));
                }
            }
        }
    }
    let speed = REFERENCE_NOMINAL_S / median(&refs);
    ledger.log.push(format!(
        "{} runs over {len} seeds; VmRSS {rss_before:.1} MB before the first run, after each: {rss:.1?}",
        ledger.attempted
    ));
    ledger.log.push(format!(
        "unscaled: wall {:.4} s, set-up {:.6} s; reference loop {:.5} s (nominal {REFERENCE_NOMINAL_S} s)",
        median(&walls),
        setup_raw,
        median(&refs)
    ));
    let column = |i: usize| median(&simulated.iter().map(|v| v[i]).collect::<Vec<_>>());
    // A service run serves well over a thousand queries: its latency
    // percentiles are taken over every query the panel served. A closed
    // batch commits 64 times per run, and one slow seed would own the
    // pooled tail, so its percentiles are per run, median over the panel.
    let (p50, p99) = if served_ns.is_empty() {
        (column(1), column(2))
    } else {
        let pooled = s3asim::LatencyStats::from_ns(served_ns);
        (secs(pooled.p50), secs(pooled.p99))
    };
    let outcome = Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: vec![
            ("wall_s", median(&walls) * speed),
            ("setup_s", setup_raw * speed),
            ("peak_rss_mb", peak_rss),
            ("retained_mb", growth_per_run(&rss)),
            ("virtual_s", column(0)),
            ("latency_p50_s", p50),
            ("latency_p99_s", p99),
            ("served_frac", column(3)),
        ],
        log: ledger.log,
    };
    Ok((outcome, spans))
}

/// The traced run: pairs of an untraced run (`s3asim::run`, then
/// `RunReport::verify` timed apart) and a run with `observe` on, whose
/// reports must agree; then isolated drives of the layers `wl` stresses.
pub fn traced(
    wl: Workload,
    seed: u64,
    seconds: u64,
    size: Size,
) -> Result<(Outcome, Spans), String> {
    let spans = Spans::new(format!("{}-{seed}-traced", wl.name()));
    let mut generate_s = Vec::new();
    let mut params = None;
    for _ in 0..SETUP_SAMPLES {
        let (p, g, _) = setup(wl, seed, size, &spans)?;
        generate_s.push(g);
        params = Some(p);
    }
    let params = params.expect("at least one set-up");
    let observed = SimParams {
        observe: true,
        ..params.clone()
    };
    // Pairs fill about three quarters of `seconds`, the layer drives the
    // rest. The count follows the clock: one seed can cost ten times
    // another, and per-layer metrics carry no bound.
    let budget = match size {
        Size::Full => 0.75 * seconds as f64,
        Size::Tiny => 0.0,
    };
    let start = std::time::Instant::now();
    let mut pairs = 0;
    let mut ledger = Ledger::default();
    let (mut plain_walls, mut traced_walls, mut verify_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<RunReport> = None;
    let mut obs_peak = 0.0;
    // Start another pair only if one more of the average length fits.
    while pairs == 0 || start.elapsed().as_secs_f64() * (pairs + 1) as f64 / pairs as f64 <= budget
    {
        let i = pairs;
        pairs += 1;
        let ((result, verify), wall) = spans.time("run.untraced", || {
            let (r, _) = spans.time("runner.run", || {
                catch_unwind(AssertUnwindSafe(|| s3asim::run(&params)))
                    .map_err(|_| "the run panicked".to_string())
            });
            match r {
                Ok(r) => {
                    let (v, secs) = spans.time("runner.verify", || r.verify());
                    (v.map(|()| r), secs)
                }
                Err(e) => (Err(e), 0.0),
            }
        });
        if ledger
            .check(&format!("untraced run {i}"), seed, wall, result)
            .is_some()
        {
            plain_walls.push(wall - verify);
            verify_s.push(verify);
        }
        let (result, wall) = spans.time("run.traced", || try_run(&observed));
        if let Some(r) = ledger.check(&format!("traced run {i}"), seed, wall, result) {
            if traced_walls.is_empty() {
                obs_peak = status_mb("VmHWM");
            }
            traced_walls.push(wall);
            last = Some(r);
        }
    }
    let plain = median(&plain_walls);
    let mut metrics = Vec::new();
    if let Some(r) = &last {
        layer_counters(r, plain, &mut metrics);
    }
    let workload = s3a_workload::Workload::generate(&params.workload);
    metrics.push(("workload.generate_s", median(&generate_s)));
    metrics.push(("workload.tasks", workload.task_count() as f64));
    metrics.push(("workload.result_bytes", workload.total_bytes() as f64));
    metrics.push(("runner.verify_s", median(&verify_s)));
    let overhead = if plain > 0.0 {
        median(&traced_walls) / plain - 1.0
    } else {
        0.0
    };
    metrics.push(("obs.overhead_frac", overhead));
    metrics.push(("obs.peak_rss_mb", obs_peak));

    // Layer drives, each the median of a few repetitions.
    let reps = if size == Size::Full { 3 } else { 1 };
    let drive = |name: &str, f: &dyn Fn() -> f64| {
        let xs: Vec<f64> = (0..reps).map(|_| spans.time(name, f).0).collect();
        median(&xs)
    };
    metrics.push((
        "des.drive_ns_per_event",
        drive("drive.des", &|| drives::des(size)),
    ));
    let uses_mpi = matches!(wl, Workload::Coll1k | Workload::Shards4m);
    metrics.push((
        "mpi.drive_ns_per_message",
        if uses_mpi {
            drive("drive.mpi", &|| drives::mpi(size))
        } else {
            0.0
        },
    ));
    let (write_at_all_ns, sync_s, exch_s) = if wl == Workload::Coll1k {
        let runs: Vec<drives::CollDrive> = (0..reps)
            .map(|_| spans.time("drive.mpiio", || drives::mpiio(size)).0)
            .collect();
        let ns: Vec<f64> = runs.iter().map(|d| d.ns_per_call).collect();
        let t = runs[0].timing;
        (median(&ns), secs(t.synchronize), secs(t.exchange_and_write))
    } else {
        (0.0, 0.0, 0.0)
    };
    metrics.push(("mpiio.write_at_all_ns", write_at_all_ns));
    metrics.push(("mpiio.drive_synchronize_s", sync_s));
    metrics.push(("mpiio.drive_exchange_write_s", exch_s));
    let shape = match wl {
        Workload::Posix1k => Some(PvfsShape::SyncFanOut),
        Workload::SvcList => Some(PvfsShape::SmallWrites),
        _ => None,
    };
    metrics.push((
        "pvfs.drive_ns_per_request",
        shape.map_or(0.0, |s| drive("drive.pvfs", &|| drives::pvfs(s, size))),
    ));
    ledger.log.push(format!(
        "{pairs} untraced/traced pairs: median wall {plain:.4} s untraced, {:.4} s traced",
        median(&traced_walls)
    ));
    Ok((
        Outcome {
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics,
            log: ledger.log,
        },
        spans,
    ))
}

/// The deterministic per-layer counters of one traced report.
fn layer_counters(r: &RunReport, untraced_wall: f64, out: &mut Vec<(&'static str, f64)>) {
    let obs = r.obs.as_ref().map(|o| &o.metrics);
    let counter = |name: &str| obs.map_or(0, |m| m.counter(name)) as f64;
    let hist = |name: &str| obs.and_then(|m| m.histogram(name));
    let hist_sum = |name: &str| hist(name).map_or(0, |h| h.sum) as f64;
    let hist_q = |name: &str, q: f64| hist(name).map_or(0, |h| h.quantile(q)) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let e = &r.engine;
    out.push(("des.events", e.events as f64));
    out.push(("des.polls", e.polls as f64));
    out.push(("des.spawned", e.spawned as f64));
    out.push((
        "des.polls_per_event",
        ratio(e.polls as f64, e.events as f64),
    ));
    out.push(("des.events_per_s", ratio(e.events as f64, untraced_wall)));
    out.push(("net.messages", counter("net.messages")));
    out.push(("net.msg_bytes", hist_sum("net.msg_bytes")));
    out.push(("mpi.messages", r.mpi.messages as f64));
    out.push(("mpi.payload_bytes", r.mpi.payload_bytes as f64));
    out.push(("mpi.rendezvous", r.mpi.rendezvous as f64));
    out.push(("mpiio.coll_rounds", counter("coll.rounds")));
    out.push(("mpiio.exchange_bytes", hist_sum("coll.exchange_bytes")));
    let f = &r.fs;
    out.push(("pvfs.write_requests", f.requests as f64));
    out.push(("pvfs.regions", f.regions as f64));
    out.push((
        "pvfs.regions_per_request",
        ratio(f.regions as f64, f.requests as f64),
    ));
    out.push(("pvfs.sync_requests", f.syncs as f64));
    out.push(("pvfs.bytes_written", f.bytes_written as f64));
    out.push(("pvfs.queue_wait_p50_ns", hist_q("pvfs.queue_wait_ns", 0.50)));
    out.push(("pvfs.queue_wait_p99_ns", hist_q("pvfs.queue_wait_ns", 0.99)));
    out.push((
        "pvfs.request_latency_p99_ns",
        hist_q("pvfs.request_latency_ns", 0.99),
    ));
    let wm = &r.worker_mean;
    out.push(("worker.compute_s", secs(wm.get(Phase::Compute))));
    out.push((
        "worker.data_distribution_s",
        secs(wm.get(Phase::DataDistribution)),
    ));
    out.push(("worker.gather_s", secs(wm.get(Phase::GatherResults))));
    out.push(("worker.io_s", secs(wm.get(Phase::Io))));
    out.push(("worker.sync_s", secs(wm.get(Phase::Sync))));
    out.push((
        "worker.tasks",
        r.worker_stats.iter().map(|w| w.tasks as f64).sum(),
    ));
    out.push((
        "worker.regions_written",
        r.worker_stats
            .iter()
            .map(|w| w.regions_written as f64)
            .sum(),
    ));
    out.push(("master.gather_s", secs(r.master.get(Phase::GatherResults))));
    out.push(("master.io_s", secs(r.master.get(Phase::Io))));
    let steals = counter("shard.steals.requested");
    let moved = counter("shard.steals.tasks");
    out.push(("shard.steals_requested", steals));
    out.push(("shard.steal_tasks", moved));
    out.push(("shard.steals_empty", counter("shard.steals.empty")));
    out.push(("shard.steal_yield", ratio(moved, steals)));
    let (offered, admitted, shed, peak, wait_p99) =
        r.service.as_ref().map_or((0.0, 0.0, 0.0, 0.0, 0.0), |s| {
            (
                s.offered as f64,
                s.admitted as f64,
                s.shed as f64,
                s.queue_peak as f64,
                secs(s.wait.p99),
            )
        });
    out.push(("service.offered", offered));
    out.push(("service.admitted", admitted));
    out.push(("service.shed", shed));
    out.push(("service.shed_frac", ratio(shed, offered)));
    out.push(("service.queue_peak", peak));
    out.push(("service.wait_p99_s", wait_p99));
    out.push((
        "service.msgs_per_query",
        ratio(r.mpi.messages as f64, offered),
    ));
}

/// Simulated end-to-end values of one report: virtual makespan, query
/// latency p50 and p99, and the served fraction.
fn e2e_simulated(r: &RunReport) -> [f64; 4] {
    let (p50, p99, served) = match &r.service {
        Some(svc) => (
            svc.latency.p50,
            svc.latency.p99,
            svc.admitted as f64 / svc.offered.max(1) as f64,
        ),
        None => {
            // A closed batch submits every query at time 0, so a query's
            // latency is the instant its batch became durable.
            let stats = s3asim::LatencyStats::from_ns(
                r.commits
                    .entries()
                    .iter()
                    .map(|e| e.committed_at.as_nanos())
                    .collect(),
            );
            (stats.p50, stats.p99, 1.0)
        }
    };
    [
        r.overall.as_secs_f64(),
        p50.as_secs_f64(),
        p99.as_secs_f64(),
        served,
    ]
}

/// FNV-1a over every simulated counter a run reports: virtual time,
/// engine, MPI and file-system counters, phase breakdowns, worker
/// activity, commit times and service accounting. Equal inputs must give
/// equal digests, traced or not.
pub fn digest(r: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    put(r.overall.as_nanos());
    let e = &r.engine;
    [e.events, e.polls, e.spawned, e.completed]
        .into_iter()
        .for_each(&mut put);
    let m = &r.mpi;
    [m.messages, m.payload_bytes, m.rendezvous]
        .into_iter()
        .for_each(&mut put);
    let f = &r.fs;
    [
        f.requests,
        f.regions,
        f.bytes_written,
        f.syncs,
        f.bytes_flushed,
        f.read_requests,
        f.bytes_read,
    ]
    .into_iter()
    .for_each(&mut put);
    for b in std::iter::once(&r.master).chain(&r.workers) {
        for p in s3asim::PHASES {
            put(b.get(p).as_nanos());
        }
    }
    for w in &r.worker_stats {
        put(w.tasks as u64);
        put(w.regions_written as u64);
        put(w.bytes_written);
    }
    for c in r.commits.entries() {
        put(c.batch as u64);
        put(c.bytes);
        put(c.committed_at.as_nanos());
    }
    if let Some(s) = &r.service {
        [s.offered, s.admitted, s.shed, s.completed, s.queue_peak]
            .into_iter()
            .for_each(|v| put(v as u64));
        for q in &s.queries {
            put(q.query as u64);
            put(q.replied.as_nanos());
        }
    }
    put(r.covered_bytes);
    h
}

/// Growth per run of a series of VmRSS readings, one after each run: the
/// median of the increments between consecutive readings, so that the
/// step a huge run makes is not charged to every run.
fn growth_per_run(rss: &[f64]) -> f64 {
    median(&rss.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>())
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn secs(t: SimTime) -> f64 {
    t.as_secs_f64()
}
