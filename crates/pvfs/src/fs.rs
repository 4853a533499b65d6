//! The simulated file system: servers, client write paths, and sync.
//!
//! ## Cost model
//!
//! A client write is decomposed by the striping [`Layout`] into per-server
//! region lists, which are then packed into *requests* bounded by
//! `list_io_max_regions` regions and `flow_unit` bytes (PVFS2 moved data
//! in flow buffers of the strip size). Each request pays:
//!
//! * a client-side `client_request_turnaround` — the early-2000s
//!   TCP-over-Myrinet round-trip stall (delayed ACKs, flow-control
//!   handshakes) that capped *single-client* throughput far below link
//!   bandwidth;
//! * wire time on the shared fabric (request header + region descriptors +
//!   data, and an ack back);
//! * server service time, FIFO per server:
//!   `request_overhead + regions × region_overhead + bytes / ingest_bw`.
//!
//! At most `client_window` requests of one operation are outstanding at a
//! time (default 1, matching the era's serial flow control). Writes land
//! in a write-back cache; [`FileHandle::sync`] flushes each server's dirty
//! bytes to disk at `disk_bw` plus a fixed per-server `sync_overhead`.
//!
//! This reproduces the two regimes the paper's results hinge on: a single
//! writer (the S3aSim master) is turnaround-bound at a few MB/s no matter
//! how many servers exist, while many concurrent writers aggregate until
//! the servers' per-request overheads saturate.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use s3a_des::{current_task, Semaphore, Sim, SimTime, TaskId, Timeline};
use s3a_faults::{FaultKind, FaultLog, FaultSchedule};
use s3a_net::{Bandwidth, EndpointId, Fabric};
use s3a_obs::{ObsSink, Track};

use crate::layout::{Layout, Region};
use crate::lock::{LockGuard, LockManager};
use crate::replica::{
    self, expected_checksum, file_salt, place_block, repair_target, BlockReplica, BlockState,
    ReplicaHealth,
};
use crate::sanitizer::SimSanitizer;

/// Typed errors for file-system operations; callers decide whether each
/// is fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PvfsError {
    /// A server stayed unavailable through every allowed retry.
    ServerUnavailable {
        /// The unresponsive server.
        server: usize,
        /// How many retries were spent before giving up.
        retries: u32,
    },
    /// Every stored replica of a block failed CRC32 verification on
    /// read — the data is present but provably rotten.
    ChecksumMismatch {
        /// The server whose copy failed verification last.
        server: usize,
        /// The affected block (strip) index.
        block: u64,
    },
    /// A write could not reach its configured quorum: fewer than
    /// `write_quorum` replicas of a block landed.
    InsufficientReplicas {
        /// The affected block (strip) index.
        block: u64,
        /// Replicas that actually landed.
        got: usize,
        /// The configured write quorum.
        need: usize,
    },
}

impl fmt::Display for PvfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PvfsError::ServerUnavailable { server, retries } => write!(
                f,
                "PVFS server {server} unavailable after {retries} retries"
            ),
            PvfsError::ChecksumMismatch { server, block } => write!(
                f,
                "checksum mismatch on block {block}: every replica corrupt \
                 (last read from server {server})"
            ),
            PvfsError::InsufficientReplicas { block, got, need } => write!(
                f,
                "block {block} reached only {got} of the {need} replicas \
                 required by the write quorum"
            ),
        }
    }
}

impl std::error::Error for PvfsError {}

/// Parameters of the simulated file system. Defaults are calibrated to
/// reproduce the paper's PVFS2 deployment behaviour (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy)]
pub struct PvfsConfig {
    /// Number of I/O servers (paper: 16).
    pub servers: usize,
    /// Striping strip size (paper: 64 KiB).
    pub strip_size: u64,
    /// Flow-buffer granularity: a single request carries at most this many
    /// payload bytes.
    pub flow_unit: u64,
    /// Maximum regions in one list-I/O request.
    pub list_io_max_regions: usize,
    /// Outstanding requests per client operation (flow-control window).
    pub client_window: u64,
    /// Client-side per-request stall (transport round-trip overhead).
    pub client_request_turnaround: SimTime,
    /// Client-side cost per region descriptor in a request (offset-list
    /// marshaling, datatype flattening, kernel crossings).
    pub client_per_region: SimTime,
    /// Server CPU cost per request.
    pub request_overhead: SimTime,
    /// Server CPU cost per noncontiguous region in a request.
    pub region_overhead: SimTime,
    /// Per-server buffer-cache ingest bandwidth.
    pub ingest_bw: Bandwidth,
    /// Per-server flush-to-disk bandwidth (paid by `sync`).
    pub disk_bw: Bandwidth,
    /// Fixed per-server cost of a sync/flush request.
    pub sync_overhead: SimTime,
    /// Wire bytes of a request/ack header.
    pub req_header_bytes: u64,
    /// Wire bytes per region descriptor (offset + length).
    pub region_desc_bytes: u64,
    /// Outstanding requests per client *read* operation. Streaming reads
    /// pipeline far better than the era's sync-after-every-write writes,
    /// so this window is larger than `client_window`.
    pub read_window: u64,
    /// Replication factor `r`: copies of every block, each in a distinct
    /// failure domain (see [`crate::replica`]). 1 = the paper's
    /// unreplicated PVFS.
    pub replicas: usize,
    /// Write quorum `w <= r`: replicas of every block that must land
    /// before a write reports success.
    pub write_quorum: usize,
    /// Simulated failure domains servers are grouped into (domain of
    /// server `s` is `s % failure_domains`). 0 = every server is its own
    /// domain.
    pub failure_domains: usize,
    /// Background scrub period; `SimTime::ZERO` disables scrubbing.
    pub scrub_interval: SimTime,
}

impl Default for PvfsConfig {
    fn default() -> Self {
        PvfsConfig {
            servers: 16,
            strip_size: 64 * 1024,
            flow_unit: 64 * 1024,
            list_io_max_regions: 64,
            client_window: 1,
            client_request_turnaround: SimTime::from_millis(14),
            client_per_region: SimTime::from_millis(4),
            request_overhead: SimTime::from_millis(6),
            region_overhead: SimTime::from_micros(1000),
            ingest_bw: Bandwidth::mib_per_sec(50.0),
            disk_bw: Bandwidth::mib_per_sec(20.0),
            sync_overhead: SimTime::from_millis(1),
            req_header_bytes: 64,
            region_desc_bytes: 16,
            read_window: 8,
            replicas: 1,
            write_quorum: 1,
            failure_domains: 0,
            scrub_interval: SimTime::ZERO,
        }
    }
}

/// Aggregate counters for the file system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Data requests processed by all servers.
    pub requests: u64,
    /// Noncontiguous regions carried by those requests.
    pub regions: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Sync (flush) requests processed.
    pub syncs: u64,
    /// Bytes flushed to disk by syncs.
    pub bytes_flushed: u64,
    /// Read requests processed by all servers.
    pub read_requests: u64,
    /// Payload bytes read.
    pub bytes_read: u64,
    /// Extra payload bytes written to non-primary replicas — the write
    /// amplification of `replicas > 1`.
    pub replica_bytes_written: u64,
    /// Bytes moved by background re-replication.
    pub repair_bytes: u64,
    /// Blocks rebuilt by the repair planner.
    pub repaired_blocks: u64,
    /// Replica copies that failed checksum verification (read or scrub).
    pub checksum_failures: u64,
    /// Replica copies verified by the background scrub.
    pub scrubbed_blocks: u64,
    /// Blocks left with zero intact replicas — unrecoverable data loss.
    pub lost_blocks: u64,
    /// Dirty bytes whose flush was abandoned because their server was
    /// declared dead; the data survives only through other replicas.
    pub lost_flush_bytes: u64,
}

struct Server {
    queue: Timeline,
    requests: Cell<u64>,
    /// Requests currently queued or in service (observability only).
    depth: Cell<u64>,
}

struct FileMeta {
    /// Written extents (start -> end), kept merged; used for verification.
    extents: BTreeMap<u64, u64>,
    /// Bytes written more than once (overlapping writes; S3aSim must
    /// never produce any).
    overlap_bytes: u64,
    /// Dirty (unflushed) bytes per server.
    dirty: Vec<u64>,
    /// High-water mark of the file size.
    size: u64,
}

impl FileMeta {
    fn note_write(&mut self, off: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut s = off;
        let mut e = off + len;
        self.size = self.size.max(e);
        // Collect intervals that overlap or abut [s, e).
        let mut absorbed: Vec<(u64, u64)> = Vec::new();
        for (&ks, &ke) in self.extents.range(..=e).rev() {
            if ke < s {
                break;
            }
            absorbed.push((ks, ke));
        }
        for (ks, ke) in absorbed {
            let inter_lo = s.max(ks);
            let inter_hi = e.min(ke);
            if inter_hi > inter_lo {
                self.overlap_bytes += inter_hi - inter_lo;
            }
            s = s.min(ks);
            e = e.max(ke);
            self.extents.remove(&ks);
        }
        self.extents.insert(s, e);
    }

    fn covered_bytes(&self) -> u64 {
        self.extents.iter().map(|(s, e)| e - s).sum()
    }
}

/// Everything the file system keeps per open file: the extent/dirty
/// bookkeeping and the byte-range lock table data-sieving clients use.
struct FileEntry {
    meta: RefCell<FileMeta>,
    locks: LockManager,
    /// Deterministic per-file salt for replica placement and checksums.
    salt: u64,
    /// Replica state per block index; populated only when the run tracks
    /// blocks (`replicas > 1`, a scrub interval, or corruption faults).
    blocks: RefCell<BTreeMap<u64, BlockState>>,
}

struct FsInner {
    sim: Sim,
    cfg: PvfsConfig,
    fabric: Rc<Fabric>,
    /// Fabric endpoint of server `i` is `endpoint_base + i`.
    endpoint_base: usize,
    servers: Vec<Server>,
    files: RefCell<BTreeMap<String, Rc<FileEntry>>>,
    stats: Cell<FsStats>,
    faults: RefCell<Option<FsFaults>>,
    obs: RefCell<ObsSink>,
    san: RefCell<SimSanitizer>,
    /// Blocks awaiting repair: (file name, block index).
    repair_queue: RefCell<BTreeSet<(String, u64)>>,
    /// Servers the repair planner has declared dead (fenced: requests to
    /// them fail immediately instead of burning the retry budget).
    dead: RefCell<BTreeSet<usize>>,
    /// Blocks currently below their replication target.
    degraded: Cell<u64>,
    /// Blocks with no intact copy left, each counted once.
    lost: RefCell<BTreeSet<(String, u64)>>,
}

/// Server-degradation oracle plus the shared event log, installed with
/// [`FileSystem::set_faults`].
struct FsFaults {
    schedule: Rc<FaultSchedule>,
    log: FaultLog,
}

impl FsInner {
    fn server_ep(&self, s: usize) -> EndpointId {
        EndpointId(self.endpoint_base + s)
    }

    /// Snapshot the installed fault hooks (cloned out so no `RefCell`
    /// borrow is held across an await point).
    fn fault_hooks(&self) -> Option<(Rc<FaultSchedule>, FaultLog)> {
        self.faults
            .borrow()
            .as_ref()
            .map(|f| (Rc::clone(&f.schedule), f.log.clone()))
    }

    fn layout(&self) -> Layout {
        Layout::new(self.cfg.strip_size, self.cfg.servers)
    }

    fn bump(&self, f: impl FnOnce(&mut FsStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Snapshot the installed observability sink (cloned out so no
    /// `RefCell` borrow is held across an await point).
    fn obs(&self) -> ObsSink {
        self.obs.borrow().clone()
    }

    /// Snapshot the installed sanitizer (same discipline as `obs`).
    fn san(&self) -> SimSanitizer {
        self.san.borrow().clone()
    }

    /// Whether this run keeps per-block replica/checksum state. False for
    /// a plain `replicas = 1` run with no scrub and no corruption faults,
    /// which therefore takes exactly the pre-replication code paths.
    fn tracks_blocks(&self) -> bool {
        self.cfg.replicas > 1
            || self.cfg.scrub_interval > SimTime::ZERO
            || self
                .faults
                .borrow()
                .as_ref()
                .is_some_and(|f| !f.schedule.params().server_corruptions.is_empty())
    }

    /// True when the planner has declared `server` dead, or the fault
    /// schedule shows it unresponsive past the detection timeout (the
    /// planner just hasn't polled yet).
    fn presumed_dead(&self, server: usize) -> bool {
        if self.dead.borrow().contains(&server) {
            return true;
        }
        self.fault_hooks().is_some_and(|(sched, _)| {
            let p = sched.params();
            let now = self.sim.now();
            p.server_outages.iter().any(|o| {
                o.server == server
                    && o.from <= now
                    && now < o.until
                    && now - o.from >= p.detection_timeout
            })
        })
    }

    /// Account a block's degraded-state transition: entering degradation
    /// queues it for repair; leaving (overwrite or repair) dequeues it.
    fn note_block_transition(&self, name: &str, block: u64, was: bool, is: bool) {
        if !was && is {
            self.degraded.set(self.degraded.get() + 1);
            self.repair_queue
                .borrow_mut()
                .insert((name.to_string(), block));
            let obs = self.obs();
            if obs.is_recording() {
                obs.add("pvfs.degraded_blocks", 1);
            }
        } else if was && !is {
            self.degraded.set(self.degraded.get().saturating_sub(1));
            self.repair_queue
                .borrow_mut()
                .remove(&(name.to_string(), block));
        }
    }
}

/// Handle to the simulated parallel file system. Cheap to clone.
#[derive(Clone)]
pub struct FileSystem {
    inner: Rc<FsInner>,
}

impl FileSystem {
    /// Create a file system whose servers occupy fabric endpoints
    /// `endpoint_base .. endpoint_base + cfg.servers`.
    pub fn new(sim: &Sim, cfg: PvfsConfig, fabric: Rc<Fabric>, endpoint_base: usize) -> Self {
        assert!(cfg.servers > 0, "need at least one server");
        assert!(
            endpoint_base + cfg.servers <= fabric.len(),
            "fabric has {} endpoints; servers need {} starting at {}",
            fabric.len(),
            cfg.servers,
            endpoint_base
        );
        assert!(cfg.flow_unit > 0 && cfg.list_io_max_regions > 0 && cfg.client_window > 0);
        assert!(
            cfg.replicas >= 1 && cfg.write_quorum >= 1 && cfg.write_quorum <= cfg.replicas,
            "need 1 <= write_quorum ({}) <= replicas ({})",
            cfg.write_quorum,
            cfg.replicas
        );
        assert!(
            cfg.replicas <= replica::effective_domains(cfg.servers, cfg.failure_domains),
            "replicas ({}) must fit in {} failure domains",
            cfg.replicas,
            replica::effective_domains(cfg.servers, cfg.failure_domains)
        );
        FileSystem {
            inner: Rc::new(FsInner {
                sim: sim.clone(),
                cfg,
                fabric,
                endpoint_base,
                servers: (0..cfg.servers)
                    .map(|_| Server {
                        queue: Timeline::new(),
                        requests: Cell::new(0),
                        depth: Cell::new(0),
                    })
                    .collect(),
                files: RefCell::new(BTreeMap::new()),
                stats: Cell::new(FsStats::default()),
                faults: RefCell::new(None),
                obs: RefCell::new(ObsSink::disabled()),
                san: RefCell::new(SimSanitizer::disabled()),
                repair_queue: RefCell::new(BTreeSet::new()),
                dead: RefCell::new(BTreeSet::new()),
                degraded: Cell::new(0),
                lost: RefCell::new(BTreeSet::new()),
            }),
        }
    }

    /// Install an observability sink: every subsequent request publishes a
    /// per-request lifecycle span on its server's track, queue-depth and
    /// dirty-byte series, and latency histograms.
    pub fn set_obs(&self, sink: ObsSink) {
        *self.inner.obs.borrow_mut() = sink;
    }

    /// The installed observability sink (disabled unless
    /// [`FileSystem::set_obs`] was called).
    pub fn obs(&self) -> ObsSink {
        self.inner.obs()
    }

    /// Install a race sanitizer: every subsequent client operation is
    /// checked for unlocked overlapping writes and reads of foreign
    /// unflushed bytes (see [`crate::sanitizer`]). Pure bookkeeping —
    /// virtual time is never advanced, so a clean run is bit-identical
    /// with the sanitizer on or off.
    pub fn set_sanitizer(&self, san: SimSanitizer) {
        *self.inner.san.borrow_mut() = san;
    }

    /// The installed sanitizer (disabled unless
    /// [`FileSystem::set_sanitizer`] was called).
    pub fn sanitizer(&self) -> SimSanitizer {
        self.inner.san()
    }

    /// Install a fault schedule: subsequent requests consult it for server
    /// slowdown windows (service time is scaled) and outage windows
    /// (clients back off and retry up to the configured budget, recording
    /// each retry in `log`).
    pub fn set_faults(&self, schedule: Rc<FaultSchedule>, log: FaultLog) {
        *self.inner.faults.borrow_mut() = Some(FsFaults { schedule, log });
    }

    /// Convenience for unit tests: a private fabric holding one client
    /// endpoint (id 0) plus the servers (ids 1..).
    pub fn standalone(sim: &Sim, cfg: PvfsConfig, net: s3a_net::NetConfig) -> (Self, EndpointId) {
        let fabric = Rc::new(Fabric::new(1 + cfg.servers, net));
        (Self::new(sim, cfg, fabric, 1), EndpointId(0))
    }

    /// The configuration.
    pub fn config(&self) -> &PvfsConfig {
        &self.inner.cfg
    }

    /// Open (creating if necessary) the named file.
    pub fn open(&self, name: &str) -> FileHandle {
        let file = {
            let mut files = self.inner.files.borrow_mut();
            Rc::clone(files.entry(name.to_string()).or_insert_with(|| {
                Rc::new(FileEntry {
                    meta: RefCell::new(FileMeta {
                        extents: BTreeMap::new(),
                        overlap_bytes: 0,
                        dirty: vec![0; self.inner.cfg.servers],
                        size: 0,
                    }),
                    locks: LockManager::new(),
                    salt: file_salt(name),
                    blocks: RefCell::new(BTreeMap::new()),
                })
            }))
        };
        FileHandle {
            fs: Rc::clone(&self.inner),
            file,
            name: Rc::from(name),
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> FsStats {
        self.inner.stats.get()
    }

    /// Total busy time of server `s`'s request queue.
    pub fn server_busy(&self, s: usize) -> SimTime {
        self.inner.servers[s].queue.total_busy()
    }

    /// Requests processed by server `s`.
    pub fn server_requests(&self, s: usize) -> u64 {
        self.inner.servers[s].requests.get()
    }

    /// Blocks currently below their replication target.
    pub fn degraded_blocks(&self) -> u64 {
        self.inner.degraded.get()
    }

    /// Servers the repair planner has declared dead.
    pub fn dead_servers(&self) -> Vec<usize> {
        self.inner.dead.borrow().iter().copied().collect()
    }

    /// Spawn the background maintenance task: every `poll` of virtual
    /// time it runs the failure-detection planner (declaring servers dead
    /// once an outage outlives the detection timeout and marking their
    /// replicas `Missing`), drains the repair queue by re-replicating
    /// degraded blocks through the normal fabric, and — when
    /// `scrub_interval` is set — periodically re-reads and re-verifies
    /// every resident replica. Call [`MaintenanceHandle::stop`] when the
    /// workload finishes so the simulation can terminate.
    pub fn spawn_maintenance(&self, poll: SimTime) -> MaintenanceHandle {
        assert!(poll > SimTime::ZERO, "maintenance poll must be positive");
        let stop = Rc::new(Cell::new(false));
        let flag = Rc::clone(&stop);
        let inner = Rc::clone(&self.inner);
        let sim = self.inner.sim.clone();
        let mut next_scrub =
            (inner.cfg.scrub_interval > SimTime::ZERO).then(|| inner.cfg.scrub_interval);
        self.inner.sim.spawn("pvfs-maint", async move {
            loop {
                sim.sleep(poll).await;
                if flag.get() {
                    break;
                }
                planner_pass(&inner);
                repair_pass(&inner, &sim).await;
                if let Some(t) = next_scrub {
                    if sim.now() >= t {
                        scrub_pass(&inner, &sim).await;
                        next_scrub = Some(sim.now() + inner.cfg.scrub_interval);
                    }
                }
                if flag.get() {
                    break;
                }
            }
        });
        MaintenanceHandle { stop }
    }

    /// Run the repair planner to completion right now: declare dead
    /// servers, then re-replicate degraded blocks until the queue is
    /// empty or no further repair can make progress. Returns the number
    /// of blocks rebuilt. This is the runner's post-workload repair
    /// phase; the background task spawned by
    /// [`FileSystem::spawn_maintenance`] does the same work
    /// incrementally.
    pub async fn drain_repairs(&self) -> u64 {
        planner_pass(&self.inner);
        repair_pass(&self.inner, &self.inner.sim.clone()).await
    }
}

/// Stop flag for the background maintenance task spawned by
/// [`FileSystem::spawn_maintenance`]. Without a stop the perpetual
/// maintenance loop would keep the simulation from terminating.
pub struct MaintenanceHandle {
    stop: Rc<Cell<bool>>,
}

impl MaintenanceHandle {
    /// Ask the maintenance loop to exit at its next wake-up.
    pub fn stop(&self) {
        self.stop.set(true);
    }
}

impl std::fmt::Debug for MaintenanceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceHandle").finish_non_exhaustive()
    }
}

/// One request bound for one server.
struct ServerRequest {
    server: usize,
    regions: Vec<Region>,
    bytes: u64,
    /// Carries a non-primary replica copy; its payload counts as write
    /// amplification rather than foreground bytes.
    replica: bool,
}

/// Pack a per-server region list into requests bounded by the flow unit
/// and the list-I/O region cap. Oversized regions split at `flow_unit`.
fn pack_requests(
    server: usize,
    regions: &[Region],
    flow_unit: u64,
    max_regions: usize,
) -> Vec<ServerRequest> {
    let mut out = Vec::new();
    let mut cur: Vec<Region> = Vec::new();
    let mut cur_bytes = 0u64;
    let flush = |cur: &mut Vec<Region>, cur_bytes: &mut u64, out: &mut Vec<ServerRequest>| {
        if !cur.is_empty() {
            out.push(ServerRequest {
                server,
                regions: std::mem::take(cur),
                bytes: *cur_bytes,
                replica: false,
            });
            *cur_bytes = 0;
        }
    };
    for &r in regions {
        let mut off = r.offset;
        let mut remaining = r.len;
        while remaining > 0 {
            let room = flow_unit - cur_bytes;
            if room == 0 || cur.len() >= max_regions {
                flush(&mut cur, &mut cur_bytes, &mut out);
                continue;
            }
            let take = remaining.min(room);
            cur.push(Region::new(off, take));
            cur_bytes += take;
            off += take;
            remaining -= take;
        }
    }
    flush(&mut cur, &mut cur_bytes, &mut out);
    out
}

/// A client's handle to an open file.
#[derive(Clone)]
pub struct FileHandle {
    fs: Rc<FsInner>,
    file: Rc<FileEntry>,
    name: Rc<str>,
}

impl std::fmt::Debug for FileHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileHandle")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl FileHandle {
    /// The name this handle was opened under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Write one contiguous region from the client at `client_ep`.
    pub async fn write_contiguous(
        &self,
        client_ep: EndpointId,
        offset: u64,
        len: u64,
    ) -> Result<(), PvfsError> {
        self.write_regions(client_ep, &[Region::new(offset, len)])
            .await
    }

    /// Write a set of (noncontiguous) regions as a single operation —
    /// PVFS2's list-I/O path when the region list is longer than one.
    /// Regions are packed into per-server requests honouring the flow unit
    /// and region cap, then issued with the configured client window.
    pub async fn write_regions(
        &self,
        client_ep: EndpointId,
        regions: &[Region],
    ) -> Result<(), PvfsError> {
        self.write_and_record(client_ep, regions, regions).await
    }

    /// Data-sieving write-back: transfer the whole covering `block` as one
    /// contiguous operation, but record only `data_regions` (which must
    /// lie inside `block`) in the file's extent map. The hole bytes moved
    /// alongside carry whatever the preceding read-back returned, so they
    /// change no file content — but they *do* count as dirty cache bytes
    /// (the next sync flushes the whole block) and as wire/ingest traffic,
    /// which is exactly the overhead data sieving trades for fewer
    /// requests.
    pub async fn write_sieved(
        &self,
        client_ep: EndpointId,
        block: Region,
        data_regions: &[Region],
    ) -> Result<(), PvfsError> {
        debug_assert!(
            data_regions
                .iter()
                .all(|r| r.offset >= block.offset && r.end() <= block.end()),
            "sieve data regions must lie inside the covering block"
        );
        self.write_and_record(client_ep, &[block], data_regions)
            .await
    }

    /// Shared write body: issue `transfer` as packed per-server requests
    /// under the client window, then — only once every request has
    /// succeeded — record `record` in the extent map and the transferred
    /// bytes in the per-server dirty counters. A write that fails past the
    /// retry budget therefore contributes nothing to `covered_bytes()` or
    /// `dirty`: verification still sees the hole, and checkpoint-restart
    /// knows the data must be re-written.
    async fn write_and_record(
        &self,
        client_ep: EndpointId,
        transfer: &[Region],
        record: &[Region],
    ) -> Result<(), PvfsError> {
        let cfg = &self.fs.cfg;
        let layout = self.fs.layout();
        let per_server = layout.map_regions(transfer);
        let tracking = self.fs.tracks_blocks();
        let r = cfg.replicas;

        // Block bookkeeping: bytes landing in each touched block, the
        // placement of each block, and — for `r > 1` — the replica
        // regions mirrored onto the placement's secondary servers.
        let mut blocks_touched: BTreeMap<u64, u64> = BTreeMap::new();
        let mut placements: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut rep_regions: BTreeMap<usize, Vec<Region>> = BTreeMap::new();
        if tracking {
            for reg in transfer {
                let mut off = reg.offset;
                let end = reg.end();
                while off < end {
                    let block = off / cfg.strip_size;
                    let len = ((block + 1) * cfg.strip_size).min(end) - off;
                    *blocks_touched.entry(block).or_insert(0) += len;
                    let pl = placements.entry(block).or_insert_with(|| {
                        place_block(self.file.salt, block, cfg.servers, cfg.failure_domains, r)
                    });
                    for &t in pl.iter().skip(1) {
                        let list = rep_regions.entry(t).or_default();
                        match list.last_mut() {
                            Some(last) if last.end() == off => last.len += len,
                            _ => list.push(Region::new(off, len)),
                        }
                    }
                    off += len;
                }
            }
        }

        // Fencing: once the planner has declared a server dead, writes
        // stop addressing it — its copies go straight to Missing and the
        // quorum check decides whether the operation still succeeds.
        let dead: BTreeSet<usize> = if r > 1 {
            self.fs.dead.borrow().clone()
        } else {
            BTreeSet::new()
        };

        let mut requests: Vec<ServerRequest> = Vec::new();
        for (s, (regs, _)) in per_server.iter().enumerate() {
            if !regs.is_empty() && !dead.contains(&s) {
                requests.extend(pack_requests(
                    s,
                    regs,
                    cfg.flow_unit,
                    cfg.list_io_max_regions,
                ));
            }
        }
        for (&t, regs) in &rep_regions {
            if !dead.contains(&t) {
                for mut req in pack_requests(t, regs, cfg.flow_unit, cfg.list_io_max_regions) {
                    req.replica = true;
                    requests.push(req);
                }
            }
        }
        if requests.is_empty() {
            return Ok(());
        }

        let san = self.fs.san();
        let op = san.write_begin(&self.name, client_ep, transfer, self.fs.sim.now());

        let sim = self.fs.sim.clone();
        let window = Semaphore::new(&sim, cfg.client_window);
        let mut joins = Vec::with_capacity(requests.len());
        for req in requests {
            window.acquire(1).await;
            let fs = Rc::clone(&self.fs);
            let win = window.clone();
            let s = sim.clone();
            let srv = req.server;
            joins.push((
                srv,
                sim.spawn("pvfs-req", async move {
                    let r = run_write_request(&fs, &s, client_ep, req).await;
                    win.release(1);
                    r
                }),
            ));
        }
        // Server-granular failure attribution: any failed request on a
        // server marks every copy that server was receiving as failed.
        let mut failed: BTreeSet<usize> = dead;
        let mut first_err: Option<PvfsError> = None;
        for (srv, j) in joins {
            if let Err(e) = j.join().await {
                failed.insert(srv);
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }

        // Completion rule. Unreplicated: all-or-nothing exactly as
        // before. Replicated: each block must land on at least
        // `write_quorum` of its `r` placements; the operation fails
        // whole if any block misses quorum.
        let op_err = if r == 1 {
            first_err
        } else {
            blocks_touched.keys().find_map(|&block| {
                let got = placements[&block]
                    .iter()
                    .filter(|s| !failed.contains(s))
                    .count();
                (got < cfg.write_quorum).then_some(PvfsError::InsufficientReplicas {
                    block,
                    got,
                    need: cfg.write_quorum,
                })
            })
        };
        if let Some(e) = op_err {
            san.write_end(&self.name, op, false, record, self.fs.sim.now());
            return Err(e);
        }

        // Record on completion (data content is not simulated): the
        // operation either lands in the extent map as a whole or — on
        // quorum failure — not at all. Dirty bytes are honest per
        // server: a copy that never reached its server's cache is not
        // dirty there; its block is queued for repair instead.
        {
            let mut meta = self.file.meta.borrow_mut();
            for r in record {
                meta.note_write(r.offset, r.len);
            }
            let mut dirty_delta: Vec<u64> = vec![0; cfg.servers];
            for (s, (_, bytes)) in per_server.iter().enumerate() {
                if !failed.contains(&s) {
                    dirty_delta[s] += bytes;
                }
            }
            for (&t, regs) in &rep_regions {
                if !failed.contains(&t) {
                    dirty_delta[t] += regs.iter().map(|r| r.len).sum::<u64>();
                }
            }
            for (s, d) in dirty_delta.iter().enumerate() {
                meta.dirty[s] += *d;
            }
            let obs = self.fs.obs();
            if obs.is_recording() {
                let now = self.fs.sim.now();
                for (s, d) in dirty_delta.iter().enumerate() {
                    if *d > 0 {
                        obs.sample(Track::Server(s), "pvfs.dirty_bytes", now, meta.dirty[s]);
                    }
                }
            }
        }
        if tracking {
            let now = self.fs.sim.now();
            let salt = self.file.salt;
            let mut blocks = self.file.blocks.borrow_mut();
            for (&block, &len) in &blocks_touched {
                let pl = &placements[&block];
                let prev = blocks.get(&block);
                let was = prev.is_some_and(|st| st.degraded());
                let bytes = prev
                    .map_or(0, |st| st.bytes)
                    .saturating_add(len)
                    .min(cfg.strip_size);
                let state = BlockState {
                    replicas: pl
                        .iter()
                        .map(|&s| BlockReplica {
                            server: s,
                            health: if failed.contains(&s) {
                                ReplicaHealth::Missing
                            } else {
                                ReplicaHealth::Clean
                            },
                            written_at: now,
                            checksum: expected_checksum(salt, block),
                        })
                        .collect(),
                    bytes,
                };
                let is = state.degraded();
                blocks.insert(block, state);
                self.fs.note_block_transition(&self.name, block, was, is);
            }
        }
        san.write_end(&self.name, op, true, record, self.fs.sim.now());
        Ok(())
    }

    /// Acquire this file's byte-range lock over `[offset, offset+len)`
    /// for the client at `client_ep`, waiting in virtual time behind
    /// every conflicting holder (FIFO, see [`crate::lock`]). The wait
    /// lands in the `pvfs.lock_wait_ns` histogram. The guard releases on
    /// drop.
    pub async fn lock_range(&self, client_ep: EndpointId, offset: u64, len: u64) -> LockGuard {
        let t0 = self.fs.sim.now();
        let mut guard = self
            .file
            .locks
            .acquire(&self.fs.sim, Region::new(offset, len))
            .await;
        let san = self.fs.san();
        if san.is_armed() {
            let grant = san.grant_acquired(&self.name, client_ep, Region::new(offset, len));
            guard.on_release(move || san.grant_released(grant));
        }
        let obs = self.fs.obs();
        if obs.is_recording() {
            obs.add("pvfs.lock_acquires", 1);
            obs.observe_time("pvfs.lock_wait_ns", self.fs.sim.now() - t0);
        }
        guard
    }

    /// Read one contiguous range from the client at `client_ep` —
    /// e.g. a worker streaming database sequence data. The range is
    /// chunked at the flow unit and pipelined `read_window` deep; each
    /// chunk pays the server's request overhead plus ingest-bandwidth
    /// time, and the response carries the data back over the fabric.
    pub async fn read_contiguous(
        &self,
        client_ep: EndpointId,
        offset: u64,
        len: u64,
    ) -> Result<(), PvfsError> {
        let san = self.fs.san();
        if san.is_armed() {
            san.read_begin(
                &self.name,
                client_ep,
                Region::new(offset, len),
                self.fs.sim.now(),
            );
        }
        if self.fs.tracks_blocks() {
            return self.read_verified(client_ep, offset, len).await;
        }
        let cfg = &self.fs.cfg;
        let layout = self.fs.layout();
        let per_server = layout.map_regions(&[Region::new(offset, len)]);
        let mut requests: Vec<ServerRequest> = Vec::new();
        for (srv, (regs, _)) in per_server.iter().enumerate() {
            if !regs.is_empty() {
                requests.extend(pack_requests(
                    srv,
                    regs,
                    cfg.flow_unit,
                    cfg.list_io_max_regions,
                ));
            }
        }
        if requests.is_empty() {
            return Ok(());
        }
        let sim = self.fs.sim.clone();
        let window = Semaphore::new(&sim, cfg.read_window);
        let mut joins = Vec::with_capacity(requests.len());
        for req in requests {
            window.acquire(1).await;
            let fs = Rc::clone(&self.fs);
            let win = window.clone();
            let s = sim.clone();
            joins.push(sim.spawn("pvfs-read", async move {
                let r = run_read_request(&fs, &s, client_ep, req).await;
                win.release(1);
                r
            }));
        }
        let mut result = Ok(());
        for j in joins {
            let r = j.join().await;
            if result.is_ok() {
                result = r;
            }
        }
        result
    }

    /// Checksum-verified read path, used whenever the run tracks block
    /// state. The range is split at block (strip) boundaries; each block
    /// reads from its first intact replica, verifies the stored checksum
    /// against the block's identity (and the corruption oracle), and on
    /// a mismatch marks the copy `Corrupt`, queues it for repair, and
    /// fails over to the next replica. Only when every copy is rotten or
    /// unreachable does the read return an error.
    async fn read_verified(
        &self,
        client_ep: EndpointId,
        offset: u64,
        len: u64,
    ) -> Result<(), PvfsError> {
        if len == 0 {
            return Ok(());
        }
        let cfg = &self.fs.cfg;
        let mut pieces: Vec<(u64, Region)> = Vec::new();
        let mut off = offset;
        let end = offset + len;
        while off < end {
            let block = off / cfg.strip_size;
            let take = ((block + 1) * cfg.strip_size).min(end) - off;
            pieces.push((block, Region::new(off, take)));
            off += take;
        }
        let sim = self.fs.sim.clone();
        let window = Semaphore::new(&sim, cfg.read_window);
        let mut joins = Vec::with_capacity(pieces.len());
        for (block, piece) in pieces {
            window.acquire(1).await;
            let fs = Rc::clone(&self.fs);
            let file = Rc::clone(&self.file);
            let name = Rc::clone(&self.name);
            let win = window.clone();
            let s = sim.clone();
            joins.push(sim.spawn("pvfs-read", async move {
                let r = read_block_verified(&fs, &s, &file, &name, client_ep, block, piece).await;
                win.release(1);
                r
            }));
        }
        let mut result = Ok(());
        for j in joins {
            let r = j.join().await;
            if result.is_ok() {
                result = r;
            }
        }
        result
    }

    /// Flush this file to stable storage (an `MPI_File_sync`-style
    /// barrier). Like the real call, a flush request goes to *every*
    /// server — each costs `sync_overhead` plus draining that server's
    /// dirty bytes to disk — even when a server has nothing dirty, which
    /// is what makes frequent syncing from many clients expensive.
    /// Requests to distinct servers proceed in parallel.
    ///
    /// The per-server fan-out runs as **one** engine task
    /// (`SyncFlushes`), not one task per server: its first poll books
    /// every client→server request in server order, and each later poll
    /// advances exactly one server's flush whose wait has ended. Each wait
    /// is a timed wake-up booked on the engine at the instant a dedicated
    /// per-server task would have booked it, so the engine's `(time,
    /// sequence)` order — and with it every simulated number — is what a
    /// task per server produces. The caller still collects server 0, 1, …
    /// in order and is woken the moment the server it waits on finishes,
    /// so dead-server accounting and dirty-byte restores happen at the
    /// same instants too.
    pub async fn sync(&self, client_ep: EndpointId) -> Result<(), PvfsError> {
        let san = self.fs.san();
        let claimed = san.sync_begin(&self.name);
        // Claim the current dirty bytes up front so writes that land while
        // the flush is in flight accumulate separately for the next sync.
        let dirty: Vec<u64> = {
            let mut meta = self.file.meta.borrow_mut();
            let d = meta.dirty.clone();
            for x in meta.dirty.iter_mut() {
                *x = 0;
            }
            d
        };
        let outcome = Rc::new(SyncOutcome {
            results: RefCell::new(vec![None; dirty.len()]),
            waiter: Cell::new(None),
        });
        // Nobody joins the task: results come back through `outcome`.
        drop(self.fs.sim.spawn(
            "pvfs-sync",
            SyncFlushes::new(&self.fs, client_ep, &dirty, &outcome),
        ));
        let mut result = Ok(());
        for (s, &bytes) in dirty.iter().enumerate() {
            let flushed = FlushResult {
                outcome: &outcome,
                server: s,
                sim: &self.fs.sim,
            };
            if let Err(e) = flushed.await {
                if self.fs.cfg.replicas > 1 && self.fs.presumed_dead(s) {
                    // The server is dead, not slow: its cache — and these
                    // dirty bytes — are gone for good. Retrying the flush
                    // would lie about durability; the data survives only
                    // through the other replicas, which the repair
                    // planner re-spreads.
                    self.fs.bump(|st| st.lost_flush_bytes += bytes);
                    continue;
                }
                // This server's flush never reached its disk: put the
                // claimed bytes back so the retry (or the restart's sync)
                // flushes them — and pays their full `disk_bw` time —
                // instead of silently dropping them from accounting.
                self.file.meta.borrow_mut().dirty[s] += bytes;
                if result.is_ok() {
                    result = Err(e);
                }
            }
        }
        san.sync_end(&self.name, &claimed, result.is_ok());
        result
    }

    /// Bytes covered by at least one write.
    pub fn covered_bytes(&self) -> u64 {
        self.file.meta.borrow().covered_bytes()
    }

    /// Bytes written more than once (should stay 0 for S3aSim workloads).
    pub fn overlap_bytes(&self) -> u64 {
        self.file.meta.borrow().overlap_bytes
    }

    /// Number of maximal contiguous written extents.
    pub fn extent_count(&self) -> usize {
        self.file.meta.borrow().extents.len()
    }

    /// High-water mark of the file size.
    pub fn size(&self) -> u64 {
        self.file.meta.borrow().size
    }

    /// Unflushed bytes per server.
    pub fn dirty_bytes(&self) -> u64 {
        self.file.meta.borrow().dirty.iter().sum()
    }

    /// Minimum intact-replica count over this file's tracked blocks —
    /// the file's effective replication factor. `None` when no block is
    /// tracked (unreplicated runs, or nothing written yet).
    pub fn min_clean_replicas(&self) -> Option<usize> {
        self.file
            .blocks
            .borrow()
            .values()
            .map(|s| s.clean_count())
            .min()
    }

    /// Tracked blocks of this file currently below their replication
    /// target.
    pub fn degraded_block_count(&self) -> u64 {
        self.file
            .blocks
            .borrow()
            .values()
            .filter(|s| s.degraded())
            .count() as u64
    }

    /// Blocks with per-replica state tracked for this file.
    pub fn tracked_blocks(&self) -> u64 {
        self.file.blocks.borrow().len() as u64
    }
}

/// How one request's time at the server broke down: wait in the FIFO
/// queue, then the (possibly slowdown-scaled) service itself.
struct ServeInfo {
    queue_wait: SimTime,
    service: SimTime,
}

/// What a request arriving at (or retrying) a server does next.
enum Admission {
    /// Give up: the server is fenced, or stayed down through every retry.
    Fail(PvfsError),
    /// The server is down: back off this long, then ask again.
    Retry(SimTime),
    /// Join the server's FIFO queue for this (slowdown-scaled) service.
    Serve(SimTime),
}

/// The decision half of serving under injected faults, shared by the
/// async request paths ([`serve_with_faults`]) and the sync flush machine
/// ([`SyncFlushes`]): at `now`, may a request needing `service` enter
/// `server`'s queue? `retries` counts the back-offs already spent and is
/// bumped (and logged) on [`Admission::Retry`]. Fencing is checked on the
/// first attempt only, as the request arrives.
fn admit(
    fs: &FsInner,
    server: usize,
    now: SimTime,
    service: SimTime,
    retries: &mut u32,
) -> Admission {
    // Fencing: a server the planner declared dead fails fast instead of
    // burning the whole retry/backoff budget. The set is only ever
    // populated by the replicated-mode planner, so unreplicated runs
    // never take this branch.
    if *retries == 0 && fs.dead.borrow().contains(&server) {
        return Admission::Fail(PvfsError::ServerUnavailable { server, retries: 0 });
    }
    let faults = fs.faults.borrow();
    let Some(f) = faults.as_ref() else {
        return Admission::Serve(service);
    };
    let p = f.schedule.params();
    if f.schedule.server_outage_until(server, now).is_some() {
        if *retries >= p.max_io_retries {
            return Admission::Fail(PvfsError::ServerUnavailable {
                server,
                retries: *retries,
            });
        }
        *retries += 1;
        f.log.record(now, FaultKind::IoRetry { server });
        return Admission::Retry(p.io_retry_backoff);
    }
    let factor = f.schedule.server_delay_factor(server, now);
    Admission::Serve(if factor > 1.0 {
        SimTime::from_secs_f64(service.as_secs_f64() * factor)
    } else {
        service
    })
}

/// Book `service` on `server`'s FIFO queue at `now`. Returns the time the
/// request waits before service starts, and the instant service ends.
fn enqueue(fs: &FsInner, server: usize, now: SimTime, service: SimTime) -> (SimTime, SimTime) {
    let srv = &fs.servers[server];
    let obs = fs.obs();
    if obs.is_recording() {
        srv.depth.set(srv.depth.get() + 1);
        obs.sample(
            Track::Server(server),
            "pvfs.queue_depth",
            now,
            srv.depth.get(),
        );
    }
    let (start, end) = srv.queue.reserve(now, service);
    (start - now, end)
}

/// A request leaves `server` at `now`, its service done after waiting
/// `queue_wait` in the queue.
fn dequeue(fs: &FsInner, server: usize, now: SimTime, queue_wait: SimTime) {
    let obs = fs.obs();
    if obs.is_recording() {
        let srv = &fs.servers[server];
        srv.depth.set(srv.depth.get() - 1);
        obs.sample(
            Track::Server(server),
            "pvfs.queue_depth",
            now,
            srv.depth.get(),
        );
        obs.observe_time("pvfs.queue_wait_ns", queue_wait);
    }
}

/// Wait out any outage window on `server` (backing off up to the retry
/// budget), then serve `service` scaled by any active slowdown window.
/// This is the single choke point through which every data request
/// experiences injected degradation — and through which observability
/// sees every queue entry/exit. Sync flushes take the same steps inside
/// [`SyncFlushes`].
async fn serve_with_faults(
    fs: &Rc<FsInner>,
    sim: &Sim,
    server: usize,
    service: SimTime,
) -> Result<ServeInfo, PvfsError> {
    let mut retries = 0u32;
    let service = loop {
        match admit(fs, server, sim.now(), service, &mut retries) {
            Admission::Fail(e) => return Err(e),
            Admission::Retry(backoff) => sim.sleep(backoff).await,
            Admission::Serve(service) => break service,
        }
    };
    let (queue_wait, end) = enqueue(fs, server, sim.now(), service);
    sim.sleep_until(end).await;
    dequeue(fs, server, sim.now(), queue_wait);
    Ok(ServeInfo {
        queue_wait,
        service,
    })
}

/// Where a sync's caller collects each server's flush result.
struct SyncOutcome {
    results: RefCell<Vec<Option<Result<(), PvfsError>>>>,
    /// The caller, parked on the result for server `.0`.
    waiter: Cell<Option<(usize, TaskId)>>,
}

/// Future for one server's flush result within a sync.
struct FlushResult<'a> {
    outcome: &'a SyncOutcome,
    server: usize,
    sim: &'a Sim,
}

impl Future for FlushResult<'_> {
    type Output = Result<(), PvfsError>;
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Some(r) = self.outcome.results.borrow_mut()[self.server].take() {
            return Poll::Ready(r);
        }
        let me = current_task();
        self.outcome.waiter.set(Some((self.server, me)));
        self.sim.note_blocked(me, "sync flush");
        Poll::Pending
    }
}

/// Where one server's flush is.
#[derive(Clone, Copy)]
enum FlushStage {
    /// The flush request is on the wire to the server.
    Request,
    /// The server was down; backing off before asking again.
    Backoff,
    /// Queued, then served, at the server.
    Service {
        queue_wait: SimTime,
        service: SimTime,
    },
    /// The reply is on the wire back; the server finished at `served`.
    Reply {
        served: SimTime,
        queue_wait: SimTime,
        service: SimTime,
    },
}

/// One server's flush within a sync.
struct Flush {
    bytes: u64,
    retries: u32,
    stage: FlushStage,
}

/// The one engine task behind a [`FileHandle::sync`]: a state machine per
/// server flush (request → [back-off →] queue and service → reply).
///
/// Ordering invariant: every wait is booked on the engine with
/// [`Sim::schedule_wake`] at the instant, and in the order, that a task
/// per server sleeping on the same deadline would have booked it, and
/// `due` replays those bookings in `(deadline, registration order)` — the
/// engine's own `(time, sequence)` pop order. So each wake-up polls this
/// task exactly where it would have polled that server's task, and the
/// poll advances that server's flush. A wait whose deadline has already
/// come continues inline, as [`s3a_des::Sleep`] does.
struct SyncFlushes {
    fs: Rc<FsInner>,
    client_ep: EndpointId,
    flushes: Vec<Flush>,
    /// Booked waits: `(deadline, registration order, server)`.
    due: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    registered: u64,
    started: bool,
    unfinished: usize,
    outcome: Rc<SyncOutcome>,
}

impl SyncFlushes {
    fn new(
        fs: &Rc<FsInner>,
        client_ep: EndpointId,
        dirty: &[u64],
        outcome: &Rc<SyncOutcome>,
    ) -> Self {
        SyncFlushes {
            fs: Rc::clone(fs),
            client_ep,
            flushes: dirty
                .iter()
                .map(|&bytes| Flush {
                    bytes,
                    retries: 0,
                    stage: FlushStage::Request,
                })
                .collect(),
            due: BinaryHeap::with_capacity(dirty.len()),
            registered: 0,
            started: false,
            unfinished: dirty.len(),
            outcome: Rc::clone(outcome),
        }
    }

    /// Book the engine wake-up at `at` (in the future) that resumes
    /// `server`'s flush.
    fn book(&mut self, me: TaskId, server: usize, at: SimTime) {
        self.due.push(Reverse((at, self.registered, server)));
        self.registered += 1;
        self.fs.sim.schedule_wake(me, at);
    }

    /// `server`'s flush has finished its current stage: run it until it
    /// must wait again, or finishes.
    fn advance(&mut self, me: TaskId, server: usize) {
        let fs = Rc::clone(&self.fs);
        let cfg = &fs.cfg;
        let now = fs.sim.now();
        loop {
            let flush = &mut self.flushes[server];
            let at = match flush.stage {
                FlushStage::Request | FlushStage::Backoff => {
                    let service = cfg.sync_overhead + cfg.disk_bw.transfer_time(flush.bytes);
                    match admit(&fs, server, now, service, &mut flush.retries) {
                        Admission::Fail(e) => return self.finish(server, Err(e)),
                        Admission::Retry(backoff) => {
                            flush.stage = FlushStage::Backoff;
                            now.saturating_add(backoff)
                        }
                        Admission::Serve(service) => {
                            let (queue_wait, end) = enqueue(&fs, server, now, service);
                            flush.stage = FlushStage::Service {
                                queue_wait,
                                service,
                            };
                            end
                        }
                    }
                }
                FlushStage::Service {
                    queue_wait,
                    service,
                } => {
                    dequeue(&fs, server, now, queue_wait);
                    flush.stage = FlushStage::Reply {
                        served: now,
                        queue_wait,
                        service,
                    };
                    fs.fabric
                        .book_transfer(
                            now,
                            fs.server_ep(server),
                            self.client_ep,
                            cfg.req_header_bytes,
                        )
                        .delivered
                }
                FlushStage::Reply {
                    served,
                    queue_wait,
                    service,
                } => {
                    let bytes = flush.bytes;
                    fs.bump(|st| {
                        st.syncs += 1;
                        st.bytes_flushed += bytes;
                    });
                    let obs = fs.obs();
                    if obs.is_recording() {
                        obs.span(
                            Track::Server(server),
                            "pvfs.sync",
                            served - service,
                            served,
                            &[("bytes", bytes), ("queue_ns", queue_wait.as_nanos())],
                        );
                        obs.add("pvfs.sync_requests", 1);
                        if bytes > 0 {
                            // The flush drained this server's write-back cache.
                            obs.sample(Track::Server(server), "pvfs.dirty_bytes", served, 0);
                        }
                    }
                    return self.finish(server, Ok(()));
                }
            };
            if at > now {
                return self.book(me, server, at);
            }
        }
    }

    /// Hand `server`'s result to the caller, waking it if it waits on
    /// exactly this server.
    fn finish(&mut self, server: usize, result: Result<(), PvfsError>) {
        self.unfinished -= 1;
        self.outcome.results.borrow_mut()[server] = Some(result);
        if let Some((s, caller)) = self.outcome.waiter.get() {
            if s == server {
                self.outcome.waiter.set(None);
                self.fs.sim.ready_now(caller);
            }
        }
    }
}

impl Future for SyncFlushes {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let me = current_task();
        let now = this.fs.sim.now();
        if !this.started {
            // Book every request in server order, as the first polls of
            // consecutive per-server tasks would.
            this.started = true;
            for server in 0..this.flushes.len() {
                let plan = this.fs.fabric.book_transfer(
                    now,
                    this.client_ep,
                    this.fs.server_ep(server),
                    this.fs.cfg.req_header_bytes,
                );
                if plan.delivered > now {
                    this.book(me, server, plan.delivered);
                } else {
                    this.advance(me, server);
                }
            }
        } else if let Some(&Reverse((at, _, server))) = this.due.peek() {
            // Exactly one due stage per wake-up.
            if at <= now {
                this.due.pop();
                this.advance(me, server);
            }
        }
        if this.unfinished == 0 {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

async fn run_write_request(
    fs: &Rc<FsInner>,
    sim: &Sim,
    client_ep: EndpointId,
    req: ServerRequest,
) -> Result<(), PvfsError> {
    let cfg = &fs.cfg;
    let t_issue = sim.now();
    // Client-side transport stall and region-list marshaling before the
    // request goes out.
    sim.sleep(cfg.client_request_turnaround + cfg.client_per_region * req.regions.len() as u64)
        .await;
    let t_sent = sim.now();
    let wire = cfg.req_header_bytes + cfg.region_desc_bytes * req.regions.len() as u64 + req.bytes;
    fs.fabric
        .transfer(sim, client_ep, fs.server_ep(req.server), wire)
        .await;
    let t_arrived = sim.now();
    let service = cfg.request_overhead
        + cfg.region_overhead * req.regions.len() as u64
        + cfg.ingest_bw.transfer_time(req.bytes);
    let info = serve_with_faults(fs, sim, req.server, service).await?;
    let t_served = sim.now();
    fs.servers[req.server]
        .requests
        .set(fs.servers[req.server].requests.get() + 1);
    fs.bump(|st| {
        st.requests += 1;
        st.regions += req.regions.len() as u64;
        if req.replica {
            st.replica_bytes_written += req.bytes;
        } else {
            st.bytes_written += req.bytes;
        }
    });
    fs.fabric
        .transfer(
            sim,
            fs.server_ep(req.server),
            client_ep,
            cfg.req_header_bytes,
        )
        .await;
    let obs = fs.obs();
    if obs.is_recording() {
        let t_acked = sim.now();
        obs.span(
            Track::Server(req.server),
            "pvfs.write",
            t_served - info.service,
            t_served,
            &[
                ("client_ep", client_ep.0 as u64),
                ("regions", req.regions.len() as u64),
                ("bytes", req.bytes),
                ("turnaround_ns", (t_sent - t_issue).as_nanos()),
                ("wire_ns", (t_arrived - t_sent).as_nanos()),
                ("queue_ns", info.queue_wait.as_nanos()),
                ("service_ns", info.service.as_nanos()),
                ("ack_ns", (t_acked - t_served).as_nanos()),
            ],
        );
        obs.add("pvfs.write_requests", 1);
        obs.observe_time("pvfs.request_latency_ns", t_acked - t_issue);
    }
    Ok(())
}

async fn run_read_request(
    fs: &Rc<FsInner>,
    sim: &Sim,
    client_ep: EndpointId,
    req: ServerRequest,
) -> Result<(), PvfsError> {
    let cfg = &fs.cfg;
    let t_issue = sim.now();
    // Request out: header + region descriptors only.
    let wire_out = cfg.req_header_bytes + cfg.region_desc_bytes * req.regions.len() as u64;
    fs.fabric
        .transfer(sim, client_ep, fs.server_ep(req.server), wire_out)
        .await;
    let t_arrived = sim.now();
    let service = cfg.request_overhead
        + cfg.region_overhead * req.regions.len() as u64
        + cfg.ingest_bw.transfer_time(req.bytes);
    let info = serve_with_faults(fs, sim, req.server, service).await?;
    let t_served = sim.now();
    fs.servers[req.server]
        .requests
        .set(fs.servers[req.server].requests.get() + 1);
    fs.bump(|st| {
        st.read_requests += 1;
        st.bytes_read += req.bytes;
    });
    // Response carries the data back.
    fs.fabric
        .transfer(
            sim,
            fs.server_ep(req.server),
            client_ep,
            cfg.req_header_bytes + req.bytes,
        )
        .await;
    let obs = fs.obs();
    if obs.is_recording() {
        let t_done = sim.now();
        obs.span(
            Track::Server(req.server),
            "pvfs.read",
            t_served - info.service,
            t_served,
            &[
                ("client_ep", client_ep.0 as u64),
                ("regions", req.regions.len() as u64),
                ("bytes", req.bytes),
                ("wire_ns", (t_arrived - t_issue).as_nanos()),
                ("queue_ns", info.queue_wait.as_nanos()),
                ("service_ns", info.service.as_nanos()),
                ("response_ns", (t_done - t_served).as_nanos()),
            ],
        );
        obs.add("pvfs.read_requests", 1);
        obs.observe_time("pvfs.request_latency_ns", t_done - t_issue);
    }
    Ok(())
}

/// Read one block's piece from its first intact replica, verifying and
/// failing over (see [`FileHandle::read_contiguous`]).
async fn read_block_verified(
    fs: &Rc<FsInner>,
    sim: &Sim,
    file: &Rc<FileEntry>,
    name: &str,
    client_ep: EndpointId,
    block: u64,
    piece: Region,
) -> Result<(), PvfsError> {
    let cfg = &fs.cfg;
    let salt = file.salt;
    let mut tried: BTreeSet<usize> = BTreeSet::new();
    let mut last_err: Option<PvfsError> = None;
    loop {
        // Next candidate: first intact, untried, live replica — or, for a
        // block never written (no state), the striping primary, read
        // unverified exactly as the legacy path would.
        let cand: Option<(usize, SimTime, u32, bool)> = {
            let blocks = file.blocks.borrow();
            match blocks.get(&block) {
                Some(st) => st
                    .replicas
                    .iter()
                    .find(|r| {
                        r.health == ReplicaHealth::Clean
                            && !tried.contains(&r.server)
                            && !fs.dead.borrow().contains(&r.server)
                    })
                    .map(|r| (r.server, r.written_at, r.checksum, true)),
                None => {
                    // A hole has no data anywhere; any server of the
                    // block's would-be placement can serve the zeros.
                    // Primary first — identical to the legacy path —
                    // then failover so a fenced primary (data sieving
                    // reads whole covering blocks, holes included)
                    // does not fail the read.
                    place_block(salt, block, cfg.servers, cfg.failure_domains, cfg.replicas)
                        .into_iter()
                        .find(|s| !tried.contains(s) && !fs.dead.borrow().contains(s))
                        .map(|s| (s, SimTime::ZERO, 0, false))
                }
            }
        };
        let Some((server, written_at, stored, verify)) = cand else {
            return Err(last_err.unwrap_or(PvfsError::ChecksumMismatch {
                server: (block % cfg.servers as u64) as usize,
                block,
            }));
        };
        tried.insert(server);
        let mut attempt = Ok(());
        for req in pack_requests(server, &[piece], cfg.flow_unit, cfg.list_io_max_regions) {
            if let Err(e) = run_read_request(fs, sim, client_ep, req).await {
                attempt = Err(e);
                break;
            }
        }
        if let Err(e) = attempt {
            last_err = Some(e);
            continue;
        }
        if verify {
            let now = sim.now();
            let rotten = fs.fault_hooks().is_some_and(|(sched, _)| {
                sched.block_corrupted(server, salt, block, written_at, now)
            }) || stored != expected_checksum(salt, block);
            if rotten {
                mark_corrupt(fs, name, block, server, now);
                last_err = Some(PvfsError::ChecksumMismatch { server, block });
                continue;
            }
        }
        return Ok(());
    }
}

/// Demote one replica to `Corrupt` after a failed verification, queueing
/// its block for repair and recording the detection everywhere that
/// counts (stats, obs, fault log).
fn mark_corrupt(fs: &Rc<FsInner>, name: &str, block: u64, server: usize, now: SimTime) {
    let Some(entry) = fs.files.borrow().get(name).map(Rc::clone) else {
        return;
    };
    let (was, is) = {
        let mut blocks = entry.blocks.borrow_mut();
        let Some(st) = blocks.get_mut(&block) else {
            return;
        };
        let was = st.degraded();
        let Some(rep) = st
            .replicas
            .iter_mut()
            .find(|r| r.server == server && r.health == ReplicaHealth::Clean)
        else {
            return;
        };
        rep.health = ReplicaHealth::Corrupt;
        // The stored checksum is now provably wrong; repair rewrites it.
        rep.checksum = !rep.checksum;
        (was, st.degraded())
    };
    fs.note_block_transition(name, block, was, is);
    fs.bump(|s| s.checksum_failures += 1);
    if let Some((_, log)) = fs.fault_hooks() {
        log.record(now, FaultKind::BlockCorruptionDetected { server, block });
    }
    let obs = fs.obs();
    if obs.is_recording() {
        obs.add("pvfs.checksum_failures", 1);
    }
}

/// Failure detection: declare servers dead once the fault schedule shows
/// them unresponsive past the detection timeout, and mark every replica
/// they held `Missing` so the repair queue picks those blocks up. A
/// declaration is permanent — the planner fences the server even if its
/// outage window later ends.
fn planner_pass(fs: &Rc<FsInner>) {
    if fs.cfg.replicas <= 1 {
        return;
    }
    let Some((_, log)) = fs.fault_hooks() else {
        return;
    };
    let now = fs.sim.now();
    let newly_dead: Vec<usize> = (0..fs.cfg.servers)
        .filter(|s| !fs.dead.borrow().contains(s) && fs.presumed_dead(*s))
        .collect();
    for s in newly_dead {
        fs.dead.borrow_mut().insert(s);
        log.record(now, FaultKind::ServerDeclaredDead { server: s });
        let files: Vec<(String, Rc<FileEntry>)> = fs
            .files
            .borrow()
            .iter()
            .map(|(n, e)| (n.clone(), Rc::clone(e)))
            .collect();
        for (name, entry) in files {
            let mut blocks = entry.blocks.borrow_mut();
            for (&block, st) in blocks.iter_mut() {
                let was = st.degraded();
                let mut hit = false;
                for rep in st.replicas.iter_mut() {
                    if rep.server == s && rep.health != ReplicaHealth::Missing {
                        rep.health = ReplicaHealth::Missing;
                        hit = true;
                    }
                }
                if hit {
                    fs.note_block_transition(&name, block, was, st.degraded());
                }
            }
        }
    }
}

/// Drain the repair queue: rebuild each degraded block from a surviving
/// intact copy onto a rendezvous-chosen live server, paying real fabric
/// and server time so the recovery storm competes with foreground I/O.
/// Loops until the queue is empty or a full sweep makes no progress
/// (e.g. every remaining block is unrecoverable). Returns blocks rebuilt.
async fn repair_pass(fs: &Rc<FsInner>, sim: &Sim) -> u64 {
    if fs.cfg.replicas <= 1 {
        return 0;
    }
    let mut repaired = 0u64;
    loop {
        let batch: Vec<(String, u64)> = fs.repair_queue.borrow().iter().cloned().collect();
        if batch.is_empty() {
            break;
        }
        let mut progressed = false;
        for (name, block) in batch {
            if repair_one(fs, sim, &name, block).await {
                progressed = true;
                repaired += 1;
            }
        }
        if !progressed {
            break;
        }
    }
    repaired
}

/// Rebuild one degraded block: read it from a live intact replica,
/// ship it over the fabric, and write it to the repair target's disk.
/// Returns true when a copy was actually rebuilt.
async fn repair_one(fs: &Rc<FsInner>, sim: &Sim, name: &str, block: u64) -> bool {
    let key = (name.to_string(), block);
    let Some(entry) = fs.files.borrow().get(name).map(Rc::clone) else {
        fs.repair_queue.borrow_mut().remove(&key);
        return false;
    };
    let dead = fs.dead.borrow().clone();
    let salt = entry.salt;
    let Some(state) = entry.blocks.borrow().get(&block).cloned() else {
        fs.repair_queue.borrow_mut().remove(&key);
        return false;
    };
    if !state.degraded() {
        fs.repair_queue.borrow_mut().remove(&key);
        return false;
    }
    let src = state
        .replicas
        .iter()
        .find(|r| r.health == ReplicaHealth::Clean && !dead.contains(&r.server))
        .map(|r| r.server);
    let Some(src) = src else {
        // No intact copy anywhere: the block is lost. Count it once and
        // stop retrying — honesty over optimism.
        if fs.lost.borrow_mut().insert(key.clone()) {
            fs.bump(|st| st.lost_blocks += 1);
        }
        fs.repair_queue.borrow_mut().remove(&key);
        return false;
    };
    let Some(target) = repair_target(
        salt,
        block,
        fs.cfg.servers,
        fs.cfg.failure_domains,
        &state,
        &dead,
    ) else {
        return false;
    };
    let cfg = &fs.cfg;
    let bytes = state.bytes;
    // Source disk read, wire transfer, target ingest + disk write — all
    // through the same queues foreground requests use.
    let read_service = cfg.request_overhead + cfg.disk_bw.transfer_time(bytes);
    if serve_with_faults(fs, sim, src, read_service).await.is_err() {
        return false;
    }
    let t0 = sim.now();
    fs.fabric
        .transfer(
            sim,
            fs.server_ep(src),
            fs.server_ep(target),
            cfg.req_header_bytes + bytes,
        )
        .await;
    let write_service = cfg.request_overhead
        + cfg.ingest_bw.transfer_time(bytes)
        + cfg.disk_bw.transfer_time(bytes);
    if serve_with_faults(fs, sim, target, write_service)
        .await
        .is_err()
    {
        return false;
    }
    let now = sim.now();
    let (was, is) = {
        let mut blocks = entry.blocks.borrow_mut();
        let Some(st) = blocks.get_mut(&block) else {
            return false;
        };
        let was = st.degraded();
        let Some(rep) = st
            .replicas
            .iter_mut()
            .find(|r| r.health != ReplicaHealth::Clean)
        else {
            return false;
        };
        rep.server = target;
        rep.health = ReplicaHealth::Clean;
        rep.written_at = now;
        rep.checksum = expected_checksum(salt, block);
        (was, st.degraded())
    };
    fs.note_block_transition(name, block, was, is);
    fs.bump(|st| {
        st.repair_bytes += bytes;
        st.repaired_blocks += 1;
    });
    if let Some((_, log)) = fs.fault_hooks() {
        log.record(
            now,
            FaultKind::BlockReplicated {
                server: target,
                bytes,
            },
        );
    }
    let obs = fs.obs();
    if obs.is_recording() {
        obs.add("pvfs.repair_bytes", bytes);
        obs.span(
            Track::Server(target),
            "pvfs.repair",
            t0,
            now,
            &[("block", block), ("bytes", bytes), ("src", src as u64)],
        );
    }
    true
}

/// Background scrub: per live server, re-read every resident intact
/// replica from disk in one batched pass and re-verify its checksum
/// against the block identity and the corruption oracle. Rotten copies
/// are demoted and queued for repair.
async fn scrub_pass(fs: &Rc<FsInner>, sim: &Sim) {
    let cfg = &fs.cfg;
    let dead = fs.dead.borrow().clone();
    let hooks = fs.fault_hooks();
    let files: Vec<(String, Rc<FileEntry>)> = fs
        .files
        .borrow()
        .iter()
        .map(|(n, e)| (n.clone(), Rc::clone(e)))
        .collect();
    // (name, block, salt, written_at, stored checksum, bytes) per server.
    type ScrubItem = (String, u64, u64, SimTime, u32, u64);
    let mut per_server: BTreeMap<usize, Vec<ScrubItem>> = BTreeMap::new();
    for (name, entry) in &files {
        let blocks = entry.blocks.borrow();
        for (&block, st) in blocks.iter() {
            for rep in &st.replicas {
                if rep.health == ReplicaHealth::Clean && !dead.contains(&rep.server) {
                    per_server.entry(rep.server).or_default().push((
                        name.clone(),
                        block,
                        entry.salt,
                        rep.written_at,
                        rep.checksum,
                        st.bytes,
                    ));
                }
            }
        }
    }
    for (server, items) in per_server {
        let total: u64 = items.iter().map(|i| i.5).sum();
        let service = cfg.request_overhead + cfg.disk_bw.transfer_time(total);
        let t0 = sim.now();
        if serve_with_faults(fs, sim, server, service).await.is_err() {
            continue; // unreachable this round; the next scrub retries
        }
        let now = sim.now();
        let verified = items.len() as u64;
        for (name, block, salt, written_at, stored, _bytes) in items {
            let rotten = hooks.as_ref().is_some_and(|(sched, _)| {
                sched.block_corrupted(server, salt, block, written_at, now)
            }) || stored != expected_checksum(salt, block);
            if rotten {
                mark_corrupt(fs, &name, block, server, now);
            }
        }
        fs.bump(|st| st.scrubbed_blocks += verified);
        let obs = fs.obs();
        if obs.is_recording() {
            obs.span(
                Track::Server(server),
                "pvfs.scrub",
                t0,
                now,
                &[("replicas", verified), ("bytes", total)],
            );
        }
    }
}

// Opaque Debug impls: these are shared handles (or futures) over
// internal state; printing the state itself would be noisy and could
// observe a mid-operation borrow.

impl std::fmt::Debug for FileSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileSystem").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3a_net::NetConfig;
    use std::cell::Cell;

    fn quick_cfg() -> PvfsConfig {
        PvfsConfig {
            servers: 4,
            strip_size: 1000,
            flow_unit: 1000,
            list_io_max_regions: 8,
            client_window: 1,
            client_request_turnaround: SimTime::from_millis(1),
            client_per_region: SimTime::from_micros(50),
            request_overhead: SimTime::from_millis(2),
            region_overhead: SimTime::from_micros(100),
            ingest_bw: Bandwidth::mib_per_sec(100.0),
            disk_bw: Bandwidth::mib_per_sec(10.0),
            sync_overhead: SimTime::from_millis(1),
            req_header_bytes: 64,
            region_desc_bytes: 16,
            read_window: 4,
            replicas: 1,
            write_quorum: 1,
            failure_domains: 0,
            scrub_interval: SimTime::ZERO,
        }
    }

    fn net() -> NetConfig {
        NetConfig {
            latency: SimTime::from_micros(10),
            bandwidth: Bandwidth::mib_per_sec(100.0),
            per_message_overhead: SimTime::from_micros(1),
        }
    }

    #[test]
    fn pack_requests_respects_flow_unit() {
        let reqs = pack_requests(0, &[Region::new(0, 3500)], 1000, 8);
        assert_eq!(reqs.len(), 4);
        assert_eq!(reqs[0].bytes, 1000);
        assert_eq!(reqs[3].bytes, 500);
        let total: u64 = reqs.iter().map(|r| r.bytes).sum();
        assert_eq!(total, 3500);
    }

    #[test]
    fn pack_requests_respects_region_cap() {
        let regions: Vec<Region> = (0..20).map(|i| Region::new(i * 10, 5)).collect();
        let reqs = pack_requests(0, &regions, 1_000_000, 8);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].regions.len(), 8);
        assert_eq!(reqs[2].regions.len(), 4);
    }

    mod pack_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn pack_requests_respects_caps_and_conserves_bytes(
                regions in prop::collection::vec(
                    (0u64..1_000_000, 0u64..50_000).prop_map(|(o, l)| Region::new(o, l)),
                    1..32,
                ),
                flow_unit in 1u64..20_000,
                max_regions in 1usize..32,
            ) {
                let reqs = pack_requests(3, &regions, flow_unit, max_regions);
                // Conservation: every input byte lands in exactly one
                // packed region (zero-length inputs contribute nothing).
                let want: u64 = regions.iter().map(|r| r.len).sum();
                let got: u64 = reqs.iter().map(|r| r.bytes).sum();
                prop_assert_eq!(got, want);
                for req in &reqs {
                    prop_assert_eq!(req.server, 3);
                    prop_assert!(req.bytes <= flow_unit, "request over flow unit");
                    prop_assert!(!req.regions.is_empty(), "empty request emitted");
                    prop_assert!(
                        req.regions.len() <= max_regions,
                        "request over region cap"
                    );
                    for r in &req.regions {
                        prop_assert!(r.len > 0, "zero-length region packed");
                    }
                    let sum: u64 = req.regions.iter().map(|r| r.len).sum();
                    prop_assert_eq!(sum, req.bytes, "bytes field disagrees with regions");
                }
            }
        }
    }

    #[test]
    fn pack_requests_mixed_limits() {
        // Two big regions and many small ones.
        let mut regions = vec![Region::new(0, 2500)];
        regions.extend((0..5).map(|i| Region::new(10_000 + i * 10, 5)));
        let reqs = pack_requests(0, &regions, 1000, 4);
        let total_bytes: u64 = reqs.iter().map(|r| r.bytes).sum();
        let total_regions: usize = reqs.iter().map(|r| r.regions.len()).sum();
        assert_eq!(total_bytes, 2500 + 25);
        assert!(total_regions >= 6 + 2); // big region split at least twice
        for r in &reqs {
            assert!(r.bytes <= 1000);
            assert!(r.regions.len() <= 4);
        }
    }

    #[test]
    fn write_records_extents_and_no_overlap() {
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let fh = fs.open("out");
        let f2 = fh.clone();
        sim.spawn("writer", async move {
            f2.write_contiguous(client, 0, 500).await.unwrap();
            f2.write_contiguous(client, 500, 500).await.unwrap();
            f2.write_contiguous(client, 2000, 100).await.unwrap();
        });
        sim.run().unwrap();
        assert_eq!(fh.covered_bytes(), 1100);
        assert_eq!(fh.overlap_bytes(), 0);
        assert_eq!(fh.extent_count(), 2);
        assert_eq!(fh.size(), 2100);
        assert_eq!(fs.stats().bytes_written, 1100);
    }

    #[test]
    fn overlapping_writes_detected() {
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let fh = fs.open("out");
        let f2 = fh.clone();
        sim.spawn("writer", async move {
            f2.write_contiguous(client, 0, 100).await.unwrap();
            f2.write_contiguous(client, 50, 100).await.unwrap();
        });
        sim.run().unwrap();
        assert_eq!(fh.overlap_bytes(), 50);
        assert_eq!(fh.covered_bytes(), 150);
    }

    #[test]
    fn single_client_is_turnaround_bound() {
        // 10 strips of 1000B, window 1: each request pays ≥ 1ms turnaround
        // + 2ms service, so the op takes at least 30ms even though the
        // wire/ingest time is microseconds.
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let fh = fs.open("out");
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = Rc::clone(&done);
        let s = sim.clone();
        sim.spawn("writer", async move {
            fh.write_contiguous(client, 0, 10_000).await.unwrap();
            d.set(s.now());
        });
        sim.run().unwrap();
        assert!(
            done.get() >= SimTime::from_millis(30),
            "too fast: {}",
            done.get()
        );
        assert_eq!(fs.stats().requests, 10);
    }

    #[test]
    fn larger_window_pipelines_requests() {
        let run = |window: u64| {
            let mut cfg = quick_cfg();
            cfg.client_window = window;
            let sim = Sim::new();
            let (fs, client) = FileSystem::standalone(&sim, cfg, net());
            let fh = fs.open("out");
            let s = sim.clone();
            let done = Rc::new(Cell::new(SimTime::ZERO));
            let d = Rc::clone(&done);
            sim.spawn("writer", async move {
                fh.write_contiguous(client, 0, 12_000).await.unwrap();
                d.set(s.now());
            });
            sim.run().unwrap();
            assert_eq!(fs.stats().requests, 12);
            done.get()
        };
        let serial = run(1);
        let pipelined = run(4);
        assert!(
            pipelined < serial,
            "window 4 ({pipelined}) should beat window 1 ({serial})"
        );
    }

    #[test]
    fn parallel_clients_share_servers() {
        // Two clients writing to disjoint files: requests to distinct
        // servers overlap, so combined time is far less than 2x one client.
        let cfg = quick_cfg();
        let one = {
            let sim = Sim::new();
            let (fs, c0) = FileSystem::standalone(&sim, cfg, net());
            let fh = fs.open("a");
            let s = sim.clone();
            sim.spawn("w0", async move {
                fh.write_contiguous(c0, 0, 8000).await.unwrap();
            });
            let _ = s;
            sim.run().unwrap()
        };
        let two = {
            let sim = Sim::new();
            let fabric = Rc::new(Fabric::new(2 + cfg.servers, net()));
            let fs = FileSystem::new(&sim, cfg, fabric, 2);
            for c in 0..2u64 {
                let fh = fs.open(if c == 0 { "a" } else { "b" });
                sim.spawn(format!("w{c}"), async move {
                    fh.write_contiguous(EndpointId(c as usize), 0, 8000)
                        .await
                        .unwrap();
                });
            }
            sim.run().unwrap()
        };
        assert!(two < one * 2, "two clients ({two}) vs one ({one})");
    }

    #[test]
    fn list_write_batches_regions() {
        // 16 small regions all on server 0 (within strip 0) → with cap 8,
        // two requests; a POSIX-style loop would need 16.
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let fh = fs.open("out");
        let regions: Vec<Region> = (0..16).map(|i| Region::new(i * 50, 20)).collect();
        let f2 = fh.clone();
        sim.spawn("writer", async move {
            f2.write_regions(client, &regions).await.unwrap();
        });
        sim.run().unwrap();
        assert_eq!(fs.stats().requests, 2);
        assert_eq!(fs.stats().regions, 16);
    }

    #[test]
    fn sync_flushes_dirty_bytes() {
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let fh = fs.open("out");
        let f2 = fh.clone();
        let s = sim.clone();
        let sync_time = Rc::new(Cell::new(SimTime::ZERO));
        let st = Rc::clone(&sync_time);
        sim.spawn("writer", async move {
            f2.write_contiguous(client, 0, 4000).await.unwrap();
            assert_eq!(f2.dirty_bytes(), 4000);
            let (t0, spawned) = (s.now(), s.stats().spawned);
            f2.sync(client).await.unwrap();
            st.set(s.now() - t0);
            assert_eq!(s.stats().spawned - spawned, 1, "one task per sync");
            assert_eq!(f2.dirty_bytes(), 0);
        });
        sim.run().unwrap();
        assert_eq!(fs.stats().syncs, 4); // one request per server
        assert_eq!(fs.stats().bytes_flushed, 4000);
        // Flushes run in parallel: roughly one server's flush time, not 4x.
        assert!(sync_time.get() < SimTime::from_millis(10));
    }

    #[test]
    fn sync_contacts_every_server_even_when_clean() {
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let fh = fs.open("out");
        sim.spawn("writer", async move {
            fh.sync(client).await.unwrap();
        });
        sim.run().unwrap();
        assert_eq!(fs.stats().syncs, 4);
        assert_eq!(fs.stats().bytes_flushed, 0);
    }

    #[test]
    fn reopening_returns_same_file() {
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let a = fs.open("shared");
        let b = fs.open("shared");
        sim.spawn("writer", async move {
            a.write_contiguous(client, 0, 100).await.unwrap();
        });
        sim.run().unwrap();
        assert_eq!(b.covered_bytes(), 100);
    }

    #[test]
    fn read_contiguous_moves_all_bytes() {
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let fh = fs.open("db");
        sim.spawn("reader", async move {
            fh.read_contiguous(client, 0, 10_000).await.unwrap();
        });
        sim.run().unwrap();
        assert_eq!(fs.stats().bytes_read, 10_000);
        assert_eq!(fs.stats().read_requests, 10); // 10 x 1000B flow units
        assert_eq!(fs.stats().bytes_written, 0);
    }

    #[test]
    fn reads_pipeline_wider_than_writes() {
        // Same volume: a streaming read (window 4) beats a serial write
        // (window 1) under this config.
        let t_read = {
            let sim = Sim::new();
            let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
            let fh = fs.open("db");
            sim.spawn("r", async move {
                fh.read_contiguous(client, 0, 20_000).await.unwrap();
            });
            sim.run().unwrap()
        };
        let t_write = {
            let sim = Sim::new();
            let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
            let fh = fs.open("db");
            sim.spawn("w", async move {
                fh.write_contiguous(client, 0, 20_000).await.unwrap();
            });
            sim.run().unwrap()
        };
        assert!(
            t_read < t_write,
            "read {t_read} should beat write {t_write}"
        );
    }

    #[test]
    fn limping_server_slows_its_requests() {
        use s3a_faults::{FaultParams, FaultSchedule, ServerSlowdown};
        let run = |slow: bool| {
            let sim = Sim::new();
            let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
            if slow {
                let params = FaultParams {
                    server_slowdowns: vec![ServerSlowdown {
                        server: 0,
                        from: SimTime::ZERO,
                        until: SimTime::from_secs(100),
                        factor: 10.0,
                    }],
                    ..FaultParams::default()
                };
                fs.set_faults(FaultSchedule::new(params), FaultLog::new());
            }
            let fh = fs.open("out");
            sim.spawn("writer", async move {
                fh.write_contiguous(client, 0, 8000).await.unwrap();
            });
            sim.run().unwrap()
        };
        let healthy = run(false);
        let limping = run(true);
        assert!(
            limping > healthy,
            "slowdown should cost time: {limping} vs {healthy}"
        );
    }

    #[test]
    fn outage_is_retried_and_eventually_succeeds() {
        use s3a_faults::{FaultParams, FaultSchedule, ServerOutage};
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let log = FaultLog::new();
        let params = FaultParams {
            server_outages: vec![ServerOutage {
                server: 0,
                from: SimTime::ZERO,
                until: SimTime::from_millis(200),
            }],
            io_retry_backoff: SimTime::from_millis(20),
            max_io_retries: 64,
            ..FaultParams::default()
        };
        fs.set_faults(FaultSchedule::new(params), log.clone());
        let fh = fs.open("out");
        sim.spawn("writer", async move {
            // Strip 0 lives on server 0, which is down until t=200ms.
            fh.write_contiguous(client, 0, 500).await.unwrap();
        });
        let end = sim.run().unwrap();
        assert!(end >= SimTime::from_millis(200), "ended at {end}");
        assert!(log.report().io_retries > 0);
    }

    #[test]
    fn outage_outlasting_retries_is_a_typed_error() {
        use s3a_faults::{FaultParams, FaultSchedule, ServerOutage};
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let params = FaultParams {
            server_outages: vec![ServerOutage {
                server: 0,
                from: SimTime::ZERO,
                until: SimTime::from_secs(1000),
            }],
            io_retry_backoff: SimTime::from_millis(1),
            max_io_retries: 3,
            ..FaultParams::default()
        };
        fs.set_faults(FaultSchedule::new(params), FaultLog::new());
        let fh = fs.open("out");
        sim.spawn("writer", async move {
            let err = fh.write_contiguous(client, 0, 500).await.unwrap_err();
            assert_eq!(
                err,
                PvfsError::ServerUnavailable {
                    server: 0,
                    retries: 3
                }
            );
        });
        sim.run().unwrap();
    }

    #[test]
    fn failed_write_records_no_extents_or_dirty() {
        use s3a_faults::{FaultParams, FaultSchedule, ServerOutage};
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let params = FaultParams {
            server_outages: vec![ServerOutage {
                server: 0,
                from: SimTime::ZERO,
                until: SimTime::from_secs(1000),
            }],
            io_retry_backoff: SimTime::from_millis(1),
            max_io_retries: 2,
            ..FaultParams::default()
        };
        fs.set_faults(FaultSchedule::new(params), FaultLog::new());
        let fh = fs.open("out");
        let f2 = fh.clone();
        sim.spawn("writer", async move {
            // Spans all four servers; server 0 is permanently down.
            let err = f2.write_contiguous(client, 0, 4000).await.unwrap_err();
            assert!(matches!(
                err,
                PvfsError::ServerUnavailable { server: 0, .. }
            ));
        });
        sim.run().unwrap();
        // The failed operation must leave no trace in the bookkeeping:
        // phantom extents would let verification pass over lost data, and
        // phantom dirty bytes would charge a later sync for a flush that
        // can never happen.
        assert_eq!(fh.covered_bytes(), 0);
        assert_eq!(fh.extent_count(), 0);
        assert_eq!(fh.dirty_bytes(), 0);
    }

    #[test]
    fn failed_sync_restores_unflushed_dirty_bytes() {
        use s3a_faults::{FaultParams, FaultSchedule, ServerOutage};
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let fh = fs.open("out");
        let f2 = fh.clone();
        let fs2 = fs.clone();
        let s = sim.clone();
        sim.spawn("writer", async move {
            // 4000 bytes land evenly (1000/server) while everything is
            // healthy.
            f2.write_contiguous(client, 0, 4000).await.unwrap();
            assert_eq!(f2.dirty_bytes(), 4000);
            // Server 0 goes dark before the flush, outlasting the budget.
            let params = FaultParams {
                server_outages: vec![ServerOutage {
                    server: 0,
                    from: SimTime::ZERO,
                    until: s.now() + SimTime::from_millis(100),
                }],
                io_retry_backoff: SimTime::from_millis(1),
                max_io_retries: 2,
                ..FaultParams::default()
            };
            fs2.set_faults(FaultSchedule::new(params), FaultLog::new());
            let err = f2.sync(client).await.unwrap_err();
            assert!(matches!(
                err,
                PvfsError::ServerUnavailable { server: 0, .. }
            ));
            // Servers 1-3 flushed; server 0's claim must be restored so a
            // retry re-flushes (and re-charges disk time for) those bytes.
            assert_eq!(f2.dirty_bytes(), 1000);
            assert_eq!(fs2.stats().bytes_flushed, 3000);
            s.sleep(SimTime::from_millis(200)).await;
            f2.sync(client).await.unwrap();
            assert_eq!(f2.dirty_bytes(), 0);
            assert_eq!(fs2.stats().bytes_flushed, 4000);
        });
        sim.run().unwrap();
    }

    #[test]
    fn sieved_write_records_data_regions_but_dirties_whole_block() {
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let fh = fs.open("out");
        let f2 = fh.clone();
        // 3 data regions of 100B inside a 1000B covering block.
        let data = [
            Region::new(0, 100),
            Region::new(400, 100),
            Region::new(900, 100),
        ];
        sim.spawn("writer", async move {
            f2.write_sieved(client, Region::new(0, 1000), &data)
                .await
                .unwrap();
        });
        sim.run().unwrap();
        // Extent map holds only the real data; the hole bytes are cache
        // traffic, not file content.
        assert_eq!(fh.covered_bytes(), 300);
        assert_eq!(fh.extent_count(), 3);
        assert_eq!(fh.overlap_bytes(), 0);
        // The whole block moved and sits dirty in the write-back cache.
        assert_eq!(fh.dirty_bytes(), 1000);
        assert_eq!(fs.stats().bytes_written, 1000);
        // One contiguous 1000B transfer = one request (strip 1000).
        assert_eq!(fs.stats().requests, 1);
    }

    #[test]
    fn replicated_write_amplifies_onto_distinct_servers() {
        let mut cfg = quick_cfg();
        cfg.replicas = 2;
        cfg.write_quorum = 2;
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, cfg, net());
        let fh = fs.open("out");
        let f2 = fh.clone();
        sim.spawn("writer", async move {
            f2.write_contiguous(client, 0, 4000).await.unwrap();
        });
        sim.run().unwrap();
        // Foreground bytes unchanged; each block's second copy is pure
        // write amplification, and it sits dirty on its own server.
        assert_eq!(fs.stats().bytes_written, 4000);
        assert_eq!(fs.stats().replica_bytes_written, 4000);
        assert_eq!(fh.dirty_bytes(), 8000);
        assert_eq!(fh.tracked_blocks(), 4);
        assert_eq!(fh.min_clean_replicas(), Some(2));
        assert_eq!(fh.degraded_block_count(), 0);
        assert_eq!(fs.degraded_blocks(), 0);
    }

    #[test]
    fn quorum_write_survives_server_death_and_repair_restores_factor() {
        use s3a_faults::{FaultParams, FaultSchedule, ServerOutage};
        let mut cfg = quick_cfg();
        cfg.replicas = 2;
        cfg.write_quorum = 1;
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, cfg, net());
        let log = FaultLog::new();
        let params = FaultParams {
            server_outages: vec![ServerOutage {
                server: 0,
                from: SimTime::ZERO,
                until: SimTime::from_secs(1_000_000),
            }],
            io_retry_backoff: SimTime::from_millis(1),
            max_io_retries: 2,
            detection_timeout: SimTime::from_millis(5),
            ..FaultParams::default()
        };
        fs.set_faults(FaultSchedule::new(params), log.clone());
        let fh = fs.open("out");
        let f2 = fh.clone();
        let fs2 = fs.clone();
        let s = sim.clone();
        sim.spawn("writer", async move {
            // Server 0 is permanently dark; with w=1 every block still
            // reaches quorum through its surviving copy.
            f2.write_contiguous(client, 0, 4000).await.unwrap();
            assert_eq!(f2.covered_bytes(), 4000);
            assert!(f2.degraded_block_count() >= 1);
            // Past the detection timeout the planner declares the server
            // dead and the repair phase re-spreads its blocks.
            s.sleep(SimTime::from_millis(50)).await;
            let repaired = fs2.drain_repairs().await;
            assert!(repaired >= 1, "nothing repaired");
            assert_eq!(fs2.dead_servers(), vec![0]);
            assert_eq!(f2.min_clean_replicas(), Some(2));
            assert_eq!(f2.degraded_block_count(), 0);
        });
        sim.run().unwrap();
        assert_eq!(fs.degraded_blocks(), 0);
        assert!(fs.stats().repair_bytes > 0);
        assert!(fs.stats().repaired_blocks >= 1);
        assert_eq!(fs.stats().lost_blocks, 0);
        let report = log.report();
        assert_eq!(report.servers_declared_dead, 1);
        assert!(report.blocks_re_replicated >= 1);
    }

    #[test]
    fn below_quorum_write_is_a_typed_error_with_no_bookkeeping() {
        use s3a_faults::{FaultParams, FaultSchedule, ServerOutage};
        let mut cfg = quick_cfg();
        cfg.replicas = 2;
        cfg.write_quorum = 2;
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, cfg, net());
        let params = FaultParams {
            server_outages: vec![ServerOutage {
                server: 0,
                from: SimTime::ZERO,
                until: SimTime::from_secs(1_000_000),
            }],
            io_retry_backoff: SimTime::from_millis(1),
            max_io_retries: 2,
            ..FaultParams::default()
        };
        fs.set_faults(FaultSchedule::new(params), FaultLog::new());
        let fh = fs.open("out");
        let f2 = fh.clone();
        sim.spawn("writer", async move {
            // Block 0's primary lives on the dead server: one of its two
            // required copies cannot land.
            let err = f2.write_contiguous(client, 0, 4000).await.unwrap_err();
            assert_eq!(
                err,
                PvfsError::InsufficientReplicas {
                    block: 0,
                    got: 1,
                    need: 2
                }
            );
        });
        sim.run().unwrap();
        // Same all-or-nothing accounting as the unreplicated failure path.
        assert_eq!(fh.covered_bytes(), 0);
        assert_eq!(fh.extent_count(), 0);
        assert_eq!(fh.dirty_bytes(), 0);
        assert_eq!(fh.tracked_blocks(), 0);
        assert_eq!(fs.degraded_blocks(), 0);
    }

    #[test]
    fn corrupt_replica_fails_over_on_read() {
        use s3a_faults::{FaultParams, FaultSchedule, ServerCorruption};
        let mut cfg = quick_cfg();
        cfg.replicas = 2;
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, cfg, net());
        let params = FaultParams {
            server_corruptions: vec![ServerCorruption {
                server: 0,
                at: SimTime::from_secs(1),
                per_mille: 1000,
            }],
            ..FaultParams::default()
        };
        fs.set_faults(FaultSchedule::new(params), FaultLog::new());
        let fh = fs.open("out");
        let f2 = fh.clone();
        let s = sim.clone();
        sim.spawn("rw", async move {
            // Block 0's primary is server 0; its copy rots at t=1s.
            f2.write_contiguous(client, 0, 1000).await.unwrap();
            s.sleep(SimTime::from_secs(2)).await;
            // The read detects the rot, demotes the copy, and serves the
            // data from the surviving replica.
            f2.read_contiguous(client, 0, 1000).await.unwrap();
            assert_eq!(f2.degraded_block_count(), 1);
        });
        sim.run().unwrap();
        assert_eq!(fs.stats().checksum_failures, 1);
        assert_eq!(fs.degraded_blocks(), 1);
    }

    #[test]
    fn unreplicated_corruption_is_a_typed_checksum_error() {
        use s3a_faults::{FaultParams, FaultSchedule, ServerCorruption};
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let params = FaultParams {
            server_corruptions: vec![ServerCorruption {
                server: 0,
                at: SimTime::from_secs(1),
                per_mille: 1000,
            }],
            ..FaultParams::default()
        };
        fs.set_faults(FaultSchedule::new(params), FaultLog::new());
        let fh = fs.open("out");
        let s = sim.clone();
        sim.spawn("rw", async move {
            fh.write_contiguous(client, 0, 1000).await.unwrap();
            s.sleep(SimTime::from_secs(2)).await;
            // r=1: no replica to fail over to — the loss is reported
            // honestly instead of returning rotten data.
            let err = fh.read_contiguous(client, 0, 1000).await.unwrap_err();
            assert_eq!(
                err,
                PvfsError::ChecksumMismatch {
                    server: 0,
                    block: 0
                }
            );
        });
        sim.run().unwrap();
        assert_eq!(fs.stats().checksum_failures, 1);
    }

    #[test]
    fn background_scrub_detects_rot_and_repair_heals_it() {
        use s3a_faults::{FaultParams, FaultSchedule, ServerCorruption};
        let mut cfg = quick_cfg();
        cfg.replicas = 2;
        cfg.scrub_interval = SimTime::from_millis(50);
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, cfg, net());
        let log = FaultLog::new();
        let params = FaultParams {
            server_corruptions: vec![ServerCorruption {
                server: 0,
                at: SimTime::from_secs(1),
                per_mille: 1000,
            }],
            ..FaultParams::default()
        };
        fs.set_faults(FaultSchedule::new(params), log.clone());
        let maint = fs.spawn_maintenance(SimTime::from_millis(10));
        let fh = fs.open("out");
        let f2 = fh.clone();
        let s = sim.clone();
        sim.spawn("writer", async move {
            f2.write_contiguous(client, 0, 2000).await.unwrap();
            // Let the rot land at 1s and give the scrub/repair loop time
            // to find and heal it, then stop the maintenance task so the
            // simulation can drain.
            s.sleep(SimTime::from_millis(2500)).await;
            assert_eq!(f2.min_clean_replicas(), Some(2));
            assert_eq!(f2.degraded_block_count(), 0);
            maint.stop();
        });
        sim.run().unwrap();
        let st = fs.stats();
        assert!(st.scrubbed_blocks > 0, "scrub never ran");
        assert!(st.checksum_failures >= 1, "rot never detected");
        assert!(st.repaired_blocks >= 1, "rot never repaired");
        assert_eq!(fs.degraded_blocks(), 0);
        let report = log.report();
        assert!(report.corruptions_detected >= 1);
        assert!(report.blocks_re_replicated >= 1);
    }

    #[test]
    fn server_utilization_tracked() {
        let sim = Sim::new();
        let (fs, client) = FileSystem::standalone(&sim, quick_cfg(), net());
        let fh = fs.open("out");
        sim.spawn("writer", async move {
            fh.write_contiguous(client, 0, 4000).await.unwrap();
        });
        sim.run().unwrap();
        for s in 0..4 {
            assert_eq!(fs.server_requests(s), 1);
            assert!(fs.server_busy(s) >= SimTime::from_millis(2));
        }
    }

    /// The spawn-per-server sync that [`FileHandle::sync`] replaced, kept
    /// as its parity oracle: one task per server flush, joined in server
    /// order.
    async fn reference_sync(fh: &FileHandle, client_ep: EndpointId) -> Result<(), PvfsError> {
        let san = fh.fs.san();
        let claimed = san.sync_begin(&fh.name);
        let dirty: Vec<u64> = {
            let mut meta = fh.file.meta.borrow_mut();
            let d = meta.dirty.clone();
            for x in meta.dirty.iter_mut() {
                *x = 0;
            }
            d
        };
        let sim = fh.fs.sim.clone();
        let mut joins = Vec::new();
        for (s, bytes) in dirty.iter().copied().enumerate() {
            let fs = Rc::clone(&fh.fs);
            let sm = sim.clone();
            joins.push(sim.spawn("pvfs-sync", async move {
                let cfg = &fs.cfg;
                fs.fabric
                    .transfer(&sm, client_ep, fs.server_ep(s), cfg.req_header_bytes)
                    .await;
                let service = cfg.sync_overhead + cfg.disk_bw.transfer_time(bytes);
                let info = serve_with_faults(&fs, &sm, s, service).await?;
                let t_served = sm.now();
                fs.fabric
                    .transfer(&sm, fs.server_ep(s), client_ep, cfg.req_header_bytes)
                    .await;
                fs.bump(|st| {
                    st.syncs += 1;
                    st.bytes_flushed += bytes;
                });
                let obs = fs.obs();
                if obs.is_recording() {
                    obs.span(
                        Track::Server(s),
                        "pvfs.sync",
                        t_served - info.service,
                        t_served,
                        &[("bytes", bytes), ("queue_ns", info.queue_wait.as_nanos())],
                    );
                    obs.add("pvfs.sync_requests", 1);
                    if bytes > 0 {
                        obs.sample(Track::Server(s), "pvfs.dirty_bytes", t_served, 0);
                    }
                }
                Ok(())
            }));
        }
        let mut result = Ok(());
        for (s, j) in joins.into_iter().enumerate() {
            if let Err(e) = j.join().await {
                if fh.fs.cfg.replicas > 1 && fh.fs.presumed_dead(s) {
                    fh.fs.bump(|st| st.lost_flush_bytes += dirty[s]);
                    continue;
                }
                fh.file.meta.borrow_mut().dirty[s] += dirty[s];
                if result.is_ok() {
                    result = Err(e);
                }
            }
        }
        san.sync_end(&fh.name, &claimed, result.is_ok());
        result
    }

    mod sync_parity {
        use super::*;
        use proptest::prelude::*;
        use s3a_faults::{FaultParams, FaultReport, FaultSchedule, ServerOutage, ServerSlowdown};

        /// A client's operations: `0..SYNC_BELOW` is a sync, anything
        /// else a write of that many bytes.
        const SYNC_BELOW: u64 = 1600;

        #[derive(Debug)]
        struct Scenario {
            /// 0: the `quick_cfg` costs; 1: whole-millisecond costs and free
            /// bandwidth, so deadlines tie often; 2: as 1 with zero
            /// latency, so stages also continue inline.
            timing: usize,
            servers: usize,
            replicated: bool,
            /// Per client: start delay (ms) and operations.
            clients: Vec<(u64, Vec<u64>)>,
            outage: Option<ServerOutage>,
            slowdown: Option<ServerSlowdown>,
            max_io_retries: u32,
            backoff: SimTime,
            msg_faults_per_mille: u16,
        }

        #[derive(Debug, PartialEq)]
        struct Outcome {
            /// (client, op index, completion instant, result) in
            /// completion order.
            ops: Vec<(usize, usize, SimTime, Result<(), PvfsError>)>,
            end: SimTime,
            stats: FsStats,
            busy: Vec<SimTime>,
            dirty: u64,
            faults: FaultReport,
        }

        /// Run `sc` with either sync; also returns the tasks spawned and
        /// the syncs issued.
        fn play(sc: &Scenario, reference: bool) -> (Outcome, u64, u64) {
            let ms = SimTime::from_millis(1);
            let free = Bandwidth::mib_per_sec(1e12);
            let (base, net) = match sc.timing {
                0 => (quick_cfg(), net()),
                t => (
                    PvfsConfig {
                        client_request_turnaround: ms,
                        client_per_region: SimTime::ZERO,
                        request_overhead: ms,
                        region_overhead: SimTime::ZERO,
                        ingest_bw: free,
                        disk_bw: free,
                        sync_overhead: ms,
                        ..quick_cfg()
                    },
                    NetConfig {
                        latency: if t == 1 { ms } else { SimTime::ZERO },
                        bandwidth: free,
                        per_message_overhead: SimTime::ZERO,
                    },
                ),
            };
            let cfg = PvfsConfig {
                servers: sc.servers,
                replicas: if sc.replicated { 2 } else { 1 },
                ..base
            };
            let sim = Sim::new();
            let nclients = sc.clients.len();
            let fabric = Rc::new(Fabric::new(nclients + sc.servers, net));
            let fs = FileSystem::new(&sim, cfg, fabric, nclients);
            let log = FaultLog::new();
            fs.set_faults(
                FaultSchedule::new(FaultParams {
                    seed: 7,
                    msg_loss_per_mille: sc.msg_faults_per_mille,
                    msg_delay_per_mille: sc.msg_faults_per_mille,
                    msg_dup_per_mille: sc.msg_faults_per_mille,
                    server_outages: sc.outage.iter().copied().collect(),
                    server_slowdowns: sc.slowdown.iter().copied().collect(),
                    detection_timeout: SimTime::from_millis(4),
                    max_io_retries: sc.max_io_retries,
                    io_retry_backoff: sc.backoff,
                    ..FaultParams::default()
                }),
                log.clone(),
            );
            let fh = fs.open("out");
            let ops = Rc::new(RefCell::new(Vec::new()));
            let syncs = Rc::new(Cell::new(0u64));
            let mut handles = Vec::new();
            for (c, (start, plan)) in sc.clients.iter().enumerate() {
                let (fh, ops, syncs, s) =
                    (fh.clone(), Rc::clone(&ops), Rc::clone(&syncs), sim.clone());
                let (start, plan) = (*start, plan.clone());
                handles.push(sim.spawn(format!("client{c}"), async move {
                    let ep = EndpointId(c);
                    s.sleep(SimTime::from_millis(start)).await;
                    let mut offset = c as u64 * 1_000_000;
                    for (i, op) in plan.into_iter().enumerate() {
                        let r = if op < SYNC_BELOW {
                            syncs.set(syncs.get() + 1);
                            if reference {
                                reference_sync(&fh, ep).await
                            } else {
                                fh.sync(ep).await
                            }
                        } else {
                            offset += op;
                            fh.write_contiguous(ep, offset - op, op).await
                        };
                        ops.borrow_mut().push((c, i, s.now(), r));
                    }
                }));
            }
            if sc.replicated {
                let maint = fs.spawn_maintenance(SimTime::from_millis(3));
                sim.spawn("stopper", async move {
                    for h in handles {
                        h.join().await;
                    }
                    maint.stop();
                });
            }
            let end = sim.run().unwrap();
            let outcome = Outcome {
                ops: ops.take(),
                end,
                stats: fs.stats(),
                busy: (0..sc.servers).map(|s| fs.server_busy(s)).collect(),
                dirty: fh.dirty_bytes(),
                faults: log.report(),
            };
            (outcome, sim.stats().spawned, syncs.get())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]
            #[test]
            fn one_task_sync_matches_spawn_per_server(
                shape in (0usize..3, 1usize..6, 1usize..5, any::<bool>()),
                clients in prop::collection::vec(
                    (0u64..4, prop::collection::vec(0u64..5000, 1..7)),
                    4,
                ),
                outage in (0usize..6, 0u64..40, 0u64..80, any::<bool>()),
                slowdown in (0usize..6, 0u64..40, 0u64..80, 2u64..20),
                retry in (0u32..6, 0u64..6, 0u64..40),
            ) {
                let (timing, servers, nclients, replicated) = shape;
                let replicated = replicated && servers >= 2;
                let (o_server, o_from, o_len, o_on) = outage;
                let (sl_server, sl_from, sl_len, sl_factor) = slowdown;
                let sc = Scenario {
                    timing,
                    servers,
                    replicated,
                    clients: clients.into_iter().take(nclients).collect(),
                    outage: o_on.then(|| ServerOutage {
                        server: o_server % servers,
                        from: SimTime::from_millis(o_from),
                        until: SimTime::from_millis(o_from + o_len),
                    }),
                    slowdown: (sl_len > 0).then(|| ServerSlowdown {
                        server: sl_server % servers,
                        from: SimTime::from_millis(sl_from),
                        until: SimTime::from_millis(sl_from + sl_len),
                        factor: sl_factor as f64 / 2.0,
                    }),
                    max_io_retries: retry.0,
                    backoff: SimTime::from_millis(retry.1),
                    msg_faults_per_mille: retry.2 as u16,
                };
                let (one, one_spawned, syncs) = play(&sc, false);
                let (per_server, per_server_spawned, ref_syncs) = play(&sc, true);
                prop_assert_eq!(syncs, ref_syncs);
                prop_assert_eq!(&one, &per_server, "{:?}", sc);
                // Each sync spawns one task where the oracle spawned one
                // per server.
                prop_assert_eq!(
                    one_spawned + syncs * (servers as u64 - 1),
                    per_server_spawned
                );
            }
        }
    }
}
