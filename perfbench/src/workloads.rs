//! The benchmark's named workloads. Each maps a seed to one validated
//! `SimParams`; the seed is the only randomness the program receives.

use s3asim::{
    ArrivalProcess, ParamError, SchedPolicy, ServiceParams, SimParams, SimTime, Strategy,
};

/// Input size: `Full` is what the benchmark measures; `Tiny` is the
/// self-test's smoke size, with the same shapes scaled down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// WW-POSIX, 1 master + 1000 workers: the engine-bound workload, with
    /// a PVFS sync fan-out of about a million requests.
    Posix1k,
    /// WW-Coll, same shape: two-phase collective exchange through MPI-IO.
    Coll1k,
    /// MW with 4 sharded masters + 64 workers, one rank per node: work
    /// stealing, shard-side gathers and contiguous master writes.
    Shards4m,
    /// Open-loop service: WW-List on 64 processes at compute speed 12.8,
    /// Poisson arrivals past saturation, FIFO, 2 tenants, admission queue
    /// of 32.
    SvcList,
}

pub const ALL: [Workload; 4] = [
    Workload::Posix1k,
    Workload::Coll1k,
    Workload::Shards4m,
    Workload::SvcList,
];

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 152;

/// Workers of `shards-4m`. With 1000 (or 256) workers a run is bound by
/// the masters' writes, and the total result bytes a seed draws set its
/// length: single seeds ran 0.5-19 s, and a median over the seeds that
/// fit in one measured interval moved by 17-20% between invocations. At
/// 64 workers each computes 512 tasks, stealing still moves hundreds of
/// them, and most seeds run in 0.15-0.4 s.
const SHARD_WORKERS: usize = 64;
/// Offered load of `svc-list`, queries per second: about 1.3 times what
/// it serves, so the admission queue stays full and sheds.
const SVC_RATE: f64 = 16.0;
/// Queries `svc-list` offers; sized so that more than 1000 are served.
const SVC_QUERIES: usize = 2000;
/// Compute speed of `svc-list` (a point of the paper's compute-speed
/// sweep). At speed 1 a single task with a database sequence near the
/// 43 MB maximum computes for up to 140 s, so the run's end, its host
/// time and its p99 latency hinge on whether a seed draws one; at 12.8
/// the longest task is about 11 s and PVFS writes bound the service.
const SVC_COMPUTE_SPEED: f64 = 12.8;
/// How long an idle `svc-list` worker waits before asking again. After
/// the last arrival the run drains while one query's output — up to
/// about 100 MB when a seed draws a huge sequence — is written for tens
/// of seconds; with the 5 ms default, 63 idle workers polling through
/// that drain made a run's host time vary 2.3-fold between seeds.
const SVC_POLL: SimTime = SimTime::from_millis(50);

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Posix1k => "posix-1k",
            Workload::Coll1k => "coll-1k",
            Workload::Shards4m => "shards-4m",
            Workload::SvcList => "svc-list",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one untraced run takes on average, with its reference
    /// loop, on a 2-vCPU x86-64 VM, plus about 15%; sets how many runs fit
    /// in the measured interval.
    pub fn nominal_run_s(self) -> f64 {
        match self {
            Workload::Posix1k => 3.6,
            Workload::Coll1k => 2.3,
            Workload::Shards4m => 0.45,
            Workload::SvcList => 2.3,
        }
    }

    /// Build and validate the run's parameters for `seed`.
    pub fn params(self, seed: u64, size: Size) -> Result<SimParams, ParamError> {
        let tiny = size == Size::Tiny;
        let workers = if tiny { 16 } else { 1000 };
        let batch = |w: &mut s3a_workload::WorkloadParams| {
            w.queries = if tiny { 4 } else { 64 };
            w.fragments = if tiny { 16 } else { 512 };
            w.min_results = if tiny { 20 } else { 100 };
            w.max_results = if tiny { 40 } else { 200 };
            w.seed = seed;
        };
        let servers = |tb: &mut s3asim::Testbed| tb.pvfs.servers = if tiny { 8 } else { 128 };
        match self {
            Workload::Posix1k | Workload::Coll1k => SimParams::builder()
                .procs(workers + 1)
                .strategy(if self == Workload::Posix1k {
                    Strategy::WwPosix
                } else {
                    Strategy::WwColl
                })
                .with_workload(batch)
                .with_testbed(servers)
                .build(),
            Workload::Shards4m => SimParams::builder()
                .procs(if tiny { workers } else { SHARD_WORKERS } + 4)
                .num_masters(4)
                .strategy(Strategy::Mw)
                .with_workload(batch)
                .with_testbed(|tb| {
                    servers(tb);
                    tb.mpi.ranks_per_node = 1;
                })
                .build(),
            Workload::SvcList => SimParams::builder()
                .procs(if tiny { 8 } else { 64 })
                .compute_speed(SVC_COMPUTE_SPEED)
                .strategy(Strategy::WwList)
                .with_workload(|w| {
                    w.queries = if tiny { 40 } else { SVC_QUERIES };
                    w.fragments = if tiny { 4 } else { 32 };
                    w.min_results = 50;
                    w.max_results = 400;
                    w.seed = seed;
                })
                .service(ServiceParams {
                    arrivals: ArrivalProcess::Poisson { rate: SVC_RATE },
                    policy: SchedPolicy::Fifo,
                    tenants: 2,
                    queue_capacity: 32,
                    arrival_seed: seed,
                    poll_interval: SVC_POLL,
                })
                .build(),
        }
    }
}
