//! The master process (Algorithm 1 of the paper).
//!
//! The master distributes `(query, fragment)` tasks on demand, gathers
//! scores (plus result data under MW), merges them, and — batch by batch
//! — either writes the output itself (MW) or tells each worker where to
//! write (`WW-*`). It is deliberately single-threaded and blocking in the
//! same places the paper's pseudo-code blocks: most importantly, while
//! the MW master writes, it cannot answer work requests.
//!
//! With crash injection armed the master switches to a polling event loop
//! that additionally watches worker heartbeats: a worker silent for
//! longer than the detection timeout is declared dead, its in-flight and
//! revoked tasks are requeued for survivors, and any writes it still owed
//! for already-laid-out batches are handed to a survivor as repair
//! bundles — so the run completes with the exact same output extents a
//! fault-free run would produce.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use s3a_des::{JoinHandle, Sim, SimTime, Sleep};
use s3a_faults::FaultKind;
use s3a_mpi::{waitall_sends, Comm, Message, ReadyQueue, RecvRequest, SendRequest, Source};
use s3a_mpiio::File;
use s3a_pvfs::Region;
use s3a_workload::Workload;

use crate::failure_detector::Liveness;
use crate::offsets::{BatchState, WorkerPlan};
use crate::params::{SchedPolicy, SimParams, Strategy};
use crate::phase::{Phase, PhaseBreakdown, PhaseTimer};
use crate::protocol::{
    Assign, OffsetsMsg, ScoresMsg, ASSIGN_BYTES, TAG_ASSIGN, TAG_HEARTBEAT, TAG_OFFSETS,
    TAG_SCORES, TAG_WORK_REQ,
};
use crate::resume::CommitTracker;
use crate::runner::FaultCtx;
use crate::service::{ServedEvent, ServiceTracker, ShedEvent};
use crate::trace::TraceSink;

/// Scheduling state shared by the fault-free and fault-tolerant paths,
/// prepared once (resume-aware) after setup.
struct MasterState {
    nworkers: usize,
    nq: usize,
    gran: usize,
    nbatches: usize,
    /// Undistributed tasks; the faulty path also pushes requeued ones.
    tasks: VecDeque<(usize, usize)>,
    /// `None` = already written (completed this run, or durable from the
    /// checkpoint a resumed run starts from).
    batches: Vec<Option<BatchState>>,
    batches_left: usize,
    /// Next free byte of the output file.
    cursor: u64,
}

impl MasterState {
    fn prepare(params: &SimParams, workload: &Workload, nworkers: usize) -> MasterState {
        let nq = workload.queries.len();
        let nf = workload.params.fragments;
        let gran = params.write_every_n_queries.min(nq);
        let nbatches = nq.div_ceil(gran);
        let resume = params.resume_from.clone().unwrap_or_default();

        let batches: Vec<Option<BatchState>> = (0..nbatches)
            .map(|b| {
                if resume.done_batches.contains(&b) {
                    None
                } else {
                    let queries: Vec<usize> = (b * gran..((b + 1) * gran).min(nq)).collect();
                    Some(BatchState::new(b, queries, nf))
                }
            })
            .collect();
        let batches_left = batches.iter().filter(|b| b.is_some()).count();
        let tasks: VecDeque<(usize, usize)> = (0..nq)
            .filter(|q| !resume.done_batches.contains(&(q / gran)))
            .flat_map(|q| (0..nf).map(move |f| (q, f)))
            .collect();

        MasterState {
            nworkers,
            nq,
            gran,
            nbatches,
            tasks,
            batches,
            batches_left,
            cursor: resume.base_offset,
        }
    }

    fn batch_queries(&self, b: usize) -> usize {
        ((b + 1) * self.gran).min(self.nq) - b * self.gran
    }
}

/// Completion-driven pool of the master's outstanding score receives.
///
/// The fault-free master used to `test()`-scan a `Vec<RecvRequest>` every
/// loop iteration — O(outstanding) per work request, quadratic over a run
/// and the dominant host cost at 10k workers. This pool drains in
/// O(completions) instead, fed by the transport's
/// [`RecvRequest::notify_ready`] hooks.
///
/// Byte-compatibility with the scan is load-bearing and deliberate:
///
/// * The *arrangement* of the old `Vec` leaks into simulated time through
///   the endgame's `pop()` — which request the master blocks on decides
///   when it resumes. `order` therefore mirrors the exact sequence of
///   `swap_remove`s the scan would have performed, and [`ScoreBoard::pop`]
///   returns exactly the request the old code would have popped.
/// * Within one drain, processing order cannot change state:
///   `record_scores` merges into per-query maps keyed by worker (equal
///   hits merge to equal contents either way) and otherwise only
///   decrements counters. The drain nevertheless visits ready positions
///   in exactly the scan's order.
/// * A hook fires at the same host instant the first successful `test()`
///   would have observed, so the set of messages consumed per drain is
///   identical.
struct ScoreBoard {
    /// token -> outstanding request (`None` = consumed or free).
    slots: Vec<Option<RecvRequest>>,
    free: Vec<u32>,
    /// Mirror of the old `pending_scores` vector: token at each position.
    order: Vec<u32>,
    /// token -> current position in `order` (valid while outstanding).
    pos: Vec<u32>,
    /// Tokens whose receive became consumable, in completion order.
    ready: ReadyQueue,
}

impl ScoreBoard {
    fn new() -> ScoreBoard {
        ScoreBoard {
            slots: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            pos: Vec::new(),
            ready: Rc::new(RefCell::new(Vec::new())),
        }
    }

    fn push(&mut self, req: RecvRequest) {
        let token = match self.free.pop() {
            Some(t) => t,
            None => {
                self.slots.push(None);
                self.pos.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        req.notify_ready(&self.ready, token);
        self.slots[token as usize] = Some(req);
        self.pos[token as usize] = self.order.len() as u32;
        self.order.push(token);
    }

    /// Remove `order[p]`, consume its message, and hand it to `f`.
    fn consume_at(&mut self, p: usize, f: &mut impl FnMut(Message)) {
        let t = self.order.swap_remove(p);
        if p < self.order.len() {
            self.pos[self.order[p] as usize] = p as u32;
        }
        let req = self.slots[t as usize].take().expect("token outstanding");
        self.free.push(t);
        f(req.test().expect("hook fired, message consumable"));
    }

    /// Consume every completed receive, replaying the old scan exactly:
    /// visit positions in ascending order; a swap_remove moves the last
    /// element down, and if that element is itself ready it is consumed
    /// at the same position before moving on (the scan re-tested the
    /// swapped-in element without advancing).
    fn drain(&mut self, mut f: impl FnMut(Message)) {
        let ready = std::mem::take(&mut *self.ready.borrow_mut());
        if ready.is_empty() {
            return;
        }
        let mut positions: Vec<u32> = Vec::with_capacity(ready.len());
        for t in ready {
            if self.slots[t as usize].is_some() {
                positions.push(self.pos[t as usize]);
            } else {
                // Consumed by the endgame `pop()` after its hook fired;
                // recycle the token now that its queue entry is spent.
                self.free.push(t);
            }
        }
        positions.sort_unstable();
        // Two pointers: `i` walks ready positions in ascending order; `j`
        // trims entries from the top as last elements get swapped down
        // (the largest pending position is always the candidate to move).
        let (mut i, mut j) = (0, positions.len());
        while i < j {
            let p = positions[i] as usize;
            i += 1;
            loop {
                self.consume_at(p, &mut f);
                // After the removal the vector's old last element sits at
                // `p` — consume it in place if it was ready too.
                if i < j && positions[j - 1] as usize == self.order.len() && p < self.order.len() {
                    j -= 1;
                } else {
                    break;
                }
            }
        }
    }

    /// The request the old code's `pending_scores.pop()` would return.
    fn pop(&mut self) -> Option<RecvRequest> {
        let t = self.order.pop()?;
        // The slot is recycled when the token's ready entry is observed
        // (every request's hook fires eventually), never here — so a
        // token can't be reused while a stale queue entry still names it.
        Some(self.slots[t as usize].take().expect("token outstanding"))
    }
}

/// Run the master on `comm` (the world communicator, rank 0). `file` must
/// be opened on a master-only communicator; it is used only by MW.
#[allow(clippy::too_many_arguments)]
pub async fn run_master(
    sim: Sim,
    comm: Comm,
    params: Rc<SimParams>,
    workload: Rc<Workload>,
    file: File,
    trace: TraceSink,
    commits: CommitTracker,
    faults: Option<FaultCtx>,
    service: Option<ServiceTracker>,
) -> PhaseBreakdown {
    let timer = PhaseTimer::with_trace(&sim, 0, trace);

    // Step 1: distribute input variables.
    timer
        .track(Phase::Setup, comm.bcast(0, Some(()), 1024))
        .await;

    let crash_mode = faults
        .as_ref()
        .is_some_and(|f| f.schedule.params().crashes());
    if let Some(svc) = &service {
        // Service mode never combines with crashes (rejected by
        // validation), so the final barrier is always reachable.
        run_master_service(
            &sim, &comm, &params, &workload, &file, &timer, &commits, svc,
        )
        .await;
        timer.track(Phase::Sync, comm.barrier()).await;
    } else if crash_mode {
        let st = MasterState::prepare(&params, &workload, comm.size() - 1);
        let ctx = faults.as_ref().expect("checked above");
        run_master_faulty(&sim, &comm, &params, st, &file, &timer, &commits, ctx).await;
    } else {
        let st = MasterState::prepare(&params, &workload, comm.size() - 1);
        run_master_normal(&sim, &comm, &params, st, &file, &timer, &commits).await;
        // Step 20/21: final synchronization before exit (fault-free runs
        // only — a dead worker can never arrive at a barrier).
        timer.track(Phase::Sync, comm.barrier()).await;
    }

    let mut bd = timer.snapshot();
    bd.close_to(sim.now());
    bd
}

async fn run_master_normal(
    sim: &Sim,
    comm: &Comm,
    params: &SimParams,
    mut st: MasterState,
    file: &File,
    timer: &PhaseTimer,
    commits: &CommitTracker,
) {
    let mut done_workers = 0usize;
    let mut pending_scores = ScoreBoard::new();
    let mut offset_sends: Vec<SendRequest> = Vec::new();
    // MW with nonblocking I/O: at most one batch write in flight.
    let mut pending_io: Option<JoinHandle<()>> = None;

    let notify_all = params.strategy.inherently_synchronizing() || params.query_sync;

    loop {
        // Steps 10–19: drain any results that have arrived, then handle
        // batches that are now complete.
        pending_scores.drain(|msg| record_scores(&mut st.batches, msg, st.gran));

        for b in 0..st.nbatches {
            let complete = st.batches[b].as_ref().is_some_and(BatchState::is_complete);
            if !complete {
                continue;
            }
            let batch = st.batches[b].take().expect("checked above");
            st.batches_left -= 1;
            let (plans, total) = batch.assign_offsets(st.cursor);
            let base = st.cursor;
            st.cursor += total;
            let batch_queries = st.batch_queries(b);

            match params.strategy {
                Strategy::Mw => {
                    let writers = if total > 0 { vec![0] } else { Vec::new() };
                    commits.expect(b, writers, batch_queries, total, base, sim.now());
                    // Step 18: the master writes the batch contiguously and
                    // syncs. With blocking I/O (the default, as in the
                    // paper) it cannot serve requests meanwhile; with the
                    // nonblocking option the write proceeds in the
                    // background and only the *previous* batch's
                    // completion is awaited (bounded buffering).
                    if total > 0 {
                        if params.mw_nonblocking_io {
                            if let Some(h) = pending_io.take() {
                                timer.track(Phase::Io, h.join()).await;
                            }
                            let fh = file.handle().clone();
                            let ep = file.endpoint();
                            let commits2 = commits.clone();
                            let sim3 = sim.clone();
                            pending_io = Some(sim.spawn("mw-bg-io", async move {
                                fh.write_contiguous(ep, base, total)
                                    .await
                                    .unwrap_or_else(|e| crate::runner::io_failure(e));
                                fh.sync(ep)
                                    .await
                                    .unwrap_or_else(|e| crate::runner::io_failure(e));
                                commits2.complete_by(b, 0, sim3.now());
                            }));
                        } else {
                            timer
                                .track(Phase::Io, file.write_at(base, total))
                                .await
                                .unwrap_or_else(|e| crate::runner::io_failure(e));
                            timer
                                .track(Phase::Io, file.sync())
                                .await
                                .unwrap_or_else(|e| crate::runner::io_failure(e));
                            commits.complete_by(b, 0, sim.now());
                        }
                    }
                    if params.query_sync {
                        for w in 1..=st.nworkers {
                            let msg = OffsetsMsg {
                                batch: b,
                                offsets: Vec::new(),
                            };
                            let bytes = msg.wire_bytes();
                            offset_sends.push(comm.isend(w, TAG_OFFSETS, msg, bytes));
                        }
                    }
                }
                _ => {
                    commits.expect(
                        b,
                        batch.contributing_workers(),
                        batch_queries,
                        total,
                        base,
                        sim.now(),
                    );
                    // Step 15: hand out the location lists.
                    let targets: Vec<usize> = if notify_all {
                        (1..=st.nworkers).collect()
                    } else {
                        batch.contributing_workers()
                    };
                    for w in targets {
                        let offsets = plans.get(&w).map(|p| p.offsets.clone()).unwrap_or_default();
                        let msg = OffsetsMsg { batch: b, offsets };
                        let bytes = msg.wire_bytes();
                        offset_sends.push(comm.isend(w, TAG_OFFSETS, msg, bytes));
                    }
                }
            }
        }

        // Steps 3–9: answer one work request, or wind down.
        if !st.tasks.is_empty() || done_workers < st.nworkers {
            let req = timer
                .track(
                    Phase::DataDistribution,
                    comm.recv(Source::Any, TAG_WORK_REQ),
                )
                .await;
            let w = req.status.source;
            if let Some((q, f)) = st.tasks.pop_front() {
                // Step 8: post the receive for this task's scores first so
                // the progress engine can match it whenever it arrives.
                pending_scores.push(comm.irecv(w, TAG_SCORES));
                timer
                    .track(
                        Phase::DataDistribution,
                        comm.send(
                            w,
                            TAG_ASSIGN,
                            Assign::Task {
                                query: q,
                                fragment: f,
                            },
                            ASSIGN_BYTES,
                        ),
                    )
                    .await;
            } else {
                timer
                    .track(
                        Phase::DataDistribution,
                        comm.send(w, TAG_ASSIGN, Assign::Done, ASSIGN_BYTES),
                    )
                    .await;
                done_workers += 1;
            }
        } else if let Some(req) = pending_scores.pop() {
            // Everything is scheduled; block for the stragglers' results.
            let msg = timer.track(Phase::GatherResults, req.wait()).await;
            record_scores(&mut st.batches, msg, st.gran);
        } else if st.batches_left == 0 {
            break;
        } else {
            unreachable!(
                "no pending results but {} batches incomplete",
                st.batches_left
            );
        }
    }

    if let Some(h) = pending_io.take() {
        timer.track(Phase::Io, h.join()).await;
    }
    timer
        .track(Phase::GatherResults, waitall_sends(&offset_sends))
        .await;
}

/// Per-query scheduling state in service mode, created at admission.
struct SvcQuery {
    tenant: usize,
    arrival: SimTime,
    admitted: SimTime,
    /// Set when the first fragment is handed to a worker.
    dispatched: Option<SimTime>,
    /// Total result bytes (the SJF size oracle).
    bytes: u64,
    /// Next fragment to hand out; the query is fully dispatched at `nf`.
    next_fragment: usize,
}

/// Suspends the service master until its mailbox sees activity, the next
/// client arrival is due, or a poll tick elapses. Same single-mailbox
/// argument as [`NextEvent`]: one watch registration covers every wake
/// source.
struct SvcEvent<'a> {
    wr: &'a RecvRequest,
    scores: &'a [RecvRequest],
    sleep: Sleep,
}

impl Future for SvcEvent<'_> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.wr.ready() || this.scores.iter().any(|r| r.ready()) {
            return Poll::Ready(());
        }
        this.wr.watch();
        Pin::new(&mut this.sleep).poll(cx)
    }
}

/// The open-loop service master: admit arriving queries into a bounded
/// queue (shedding when it is full), pick the next task by the configured
/// scheduling policy, and flush each query's output the moment its last
/// fragment is merged (service runs write per query).
///
/// Event-driven polling like the crash-tolerant loop — the master must
/// keep observing the arrival clock even when no worker is asking for
/// work — but without heartbeats or repair: service mode rejects worker
/// crashes at validation.
#[allow(clippy::too_many_arguments)]
async fn run_master_service(
    sim: &Sim,
    comm: &Comm,
    params: &SimParams,
    workload: &Workload,
    file: &File,
    timer: &PhaseTimer,
    commits: &CommitTracker,
    svc: &ServiceTracker,
) {
    let sp = params.service().expect("service mode");
    let nworkers = comm.size() - 1;
    let nq = workload.queries.len();
    let nf = workload.params.fragments;
    // The arrival stream is drawn up front from its own seed: scheduling
    // can never perturb who arrives when.
    let arrivals = sp.arrivals.generate(nq, sp.tenants, sp.arrival_seed);
    let bytes_of: Vec<u64> = workload
        .queries
        .iter()
        .map(|q| q.hits.iter().flatten().map(|h| h.size).sum())
        .collect();

    // One batch per query: the reply is durable per query, which is what
    // per-query latency means.
    let mut batches: Vec<Option<BatchState>> = (0..nq)
        .map(|q| Some(BatchState::new(q, vec![q], nf)))
        .collect();
    let mut batches_left = nq;
    let mut cursor = 0u64;

    let mut queries: Vec<Option<SvcQuery>> = (0..nq).map(|_| None).collect();
    let mut next_arrival = 0usize;
    // Admitted queries not yet first-dispatched (the bounded queue).
    let mut queued = 0usize;
    // Fragments admitted but not yet handed out.
    let mut ready_fragments = 0usize;
    // Result bytes dispatched per tenant (the fair-share ledger).
    let mut tenant_bytes = vec![0u64; sp.tenants];
    // TAG_OFFSETS messages sent per worker, carried in the shutdown
    // assignment so workers know exactly how many to drain (shed queries
    // make the count underivable from the workload).
    let mut sent_offsets = vec![0usize; nworkers + 1];
    let mut done = vec![false; nworkers + 1];
    let mut pending_scores: Vec<RecvRequest> = Vec::new();
    let mut offset_sends: Vec<SendRequest> = Vec::new();
    // MW with nonblocking I/O: at most one query write in flight.
    let mut pending_io: Option<JoinHandle<()>> = None;
    let notify_all = params.strategy.inherently_synchronizing() || params.query_sync;

    let mut wr_rx = comm.irecv(Source::Any, TAG_WORK_REQ);

    loop {
        // Admission: process every client submission that is due. When the
        // master was blind for a while (an MW write), the backlog is
        // handled in arrival order, each against the queue depth at its
        // own admission instant — a full queue sheds honestly.
        while next_arrival < nq && SimTime::from_nanos(arrivals[next_arrival].at_ns) <= sim.now() {
            let a = arrivals[next_arrival];
            let q = next_arrival;
            next_arrival += 1;
            if queued >= sp.queue_capacity {
                svc.shed(ShedEvent {
                    query: q,
                    tenant: a.tenant,
                    arrival: SimTime::from_nanos(a.at_ns),
                });
                batches[q] = None;
                batches_left -= 1;
                continue;
            }
            queries[q] = Some(SvcQuery {
                tenant: a.tenant,
                arrival: SimTime::from_nanos(a.at_ns),
                admitted: sim.now(),
                dispatched: None,
                bytes: bytes_of[q],
                next_fragment: 0,
            });
            queued += 1;
            ready_fragments += nf;
            svc.queue_depth(queued);
        }

        // Drain results that have arrived.
        let mut k = 0;
        while k < pending_scores.len() {
            match pending_scores[k].test() {
                Some(msg) => {
                    let req = pending_scores.swap_remove(k);
                    drop(req);
                    record_scores(&mut batches, msg, 1);
                }
                None => k += 1,
            }
        }

        // Flush queries whose last fragment is merged: lay out the output,
        // write (MW) or notify the writers (WW), and record the lifecycle.
        for b in 0..nq {
            let complete = batches[b].as_ref().is_some_and(BatchState::is_complete);
            if !complete {
                continue;
            }
            let batch = batches[b].take().expect("checked above");
            batches_left -= 1;
            let (plans, total) = batch.assign_offsets(cursor);
            let base = cursor;
            cursor += total;
            let sq = queries[b].as_ref().expect("complete query was admitted");
            svc.serve(ServedEvent {
                query: b,
                tenant: sq.tenant,
                arrival: sq.arrival,
                admitted: sq.admitted,
                dispatched: sq.dispatched.expect("complete query was dispatched"),
                merged: sim.now(),
                bytes: sq.bytes,
            });

            match params.strategy {
                Strategy::Mw => {
                    let writers = if total > 0 { vec![0] } else { Vec::new() };
                    commits.expect(b, writers, 1, total, base, sim.now());
                    if total > 0 {
                        if params.mw_nonblocking_io {
                            if let Some(h) = pending_io.take() {
                                timer.track(Phase::Io, h.join()).await;
                            }
                            let fh = file.handle().clone();
                            let ep = file.endpoint();
                            let commits2 = commits.clone();
                            let sim3 = sim.clone();
                            pending_io = Some(sim.spawn("mw-bg-io", async move {
                                fh.write_contiguous(ep, base, total)
                                    .await
                                    .unwrap_or_else(|e| crate::runner::io_failure(e));
                                fh.sync(ep)
                                    .await
                                    .unwrap_or_else(|e| crate::runner::io_failure(e));
                                commits2.complete_by(b, 0, sim3.now());
                            }));
                        } else {
                            timer
                                .track(Phase::Io, file.write_at(base, total))
                                .await
                                .unwrap_or_else(|e| crate::runner::io_failure(e));
                            timer
                                .track(Phase::Io, file.sync())
                                .await
                                .unwrap_or_else(|e| crate::runner::io_failure(e));
                            commits.complete_by(b, 0, sim.now());
                        }
                    }
                    if params.query_sync {
                        for (w, sent) in sent_offsets.iter_mut().enumerate().skip(1) {
                            let msg = OffsetsMsg {
                                batch: b,
                                offsets: Vec::new(),
                            };
                            let bytes = msg.wire_bytes();
                            offset_sends.push(comm.isend(w, TAG_OFFSETS, msg, bytes));
                            *sent += 1;
                        }
                    }
                }
                _ => {
                    commits.expect(b, batch.contributing_workers(), 1, total, base, sim.now());
                    let targets: Vec<usize> = if notify_all {
                        (1..=nworkers).collect()
                    } else {
                        batch.contributing_workers()
                    };
                    for w in targets {
                        let offsets = plans.get(&w).map(|p| p.offsets.clone()).unwrap_or_default();
                        let msg = OffsetsMsg { batch: b, offsets };
                        let bytes = msg.wire_bytes();
                        offset_sends.push(comm.isend(w, TAG_OFFSETS, msg, bytes));
                        sent_offsets[w] += 1;
                    }
                }
            }
        }

        // The run is resolved once every arrival was admitted or shed,
        // every admitted fragment was dispatched and reported back, every
        // query's output was flushed, and every write is durable.
        let resolved = next_arrival == nq
            && ready_fragments == 0
            && pending_scores.is_empty()
            && batches_left == 0
            && commits.pending_empty();

        // Answer one work request.
        if let Some(m) = wr_rx.test() {
            let (_, status) = m.into_parts::<()>();
            let w = status.source;
            wr_rx = comm.irecv(Source::Any, TAG_WORK_REQ);
            let candidate = match sp.policy {
                // FIFO: arrival order is query-index order (the stream is
                // sorted and arrival i carries query i).
                SchedPolicy::Fifo => {
                    (0..nq).find(|&q| queries[q].as_ref().is_some_and(|s| s.next_fragment < nf))
                }
                // SJF: smallest total result volume first (the master
                // knows each query's size from the workload oracle).
                // Ties break FIFO: by arrival time, then query id — not
                // by whatever order the candidate scan happens to visit.
                SchedPolicy::Sjf => (0..nq)
                    .filter(|&q| queries[q].as_ref().is_some_and(|s| s.next_fragment < nf))
                    .min_by_key(|&q| {
                        let arrival = queries[q].as_ref().expect("filtered").arrival;
                        (bytes_of[q], arrival, q)
                    }),
                // Fair share: the tenant with the least dispatched bytes
                // goes first; FIFO within the tenant.
                SchedPolicy::FairShare => (0..nq)
                    .filter(|&q| queries[q].as_ref().is_some_and(|s| s.next_fragment < nf))
                    .min_by_key(|&q| {
                        let t = queries[q].as_ref().expect("filtered").tenant;
                        (tenant_bytes[t], t, q)
                    }),
            };
            let assign = if let Some(q) = candidate {
                let frag_bytes: u64 = workload.queries[q].hits[queries[q]
                    .as_ref()
                    .expect("candidate is admitted")
                    .next_fragment]
                    .iter()
                    .map(|h| h.size)
                    .sum();
                let sq = queries[q].as_mut().expect("candidate is admitted");
                let f = sq.next_fragment;
                sq.next_fragment += 1;
                if sq.dispatched.is_none() {
                    sq.dispatched = Some(sim.now());
                    queued -= 1;
                }
                tenant_bytes[sq.tenant] += frag_bytes;
                ready_fragments -= 1;
                pending_scores.push(comm.irecv(w, TAG_SCORES));
                Assign::Task {
                    query: q,
                    fragment: f,
                }
            } else if resolved {
                done[w] = true;
                Assign::Shutdown {
                    offsets: sent_offsets[w],
                }
            } else {
                Assign::Wait
            };
            let bytes = assign.wire_bytes();
            timer
                .track(
                    Phase::DataDistribution,
                    comm.send(w, TAG_ASSIGN, assign, bytes),
                )
                .await;
            continue;
        }

        if (1..=nworkers).all(|w| done[w]) {
            break;
        }

        // Idle: wake on mailbox activity, the next arrival, or a poll
        // tick (whichever is first).
        let mut delay = sp.poll_interval;
        if next_arrival < nq {
            let due = SimTime::from_nanos(arrivals[next_arrival].at_ns);
            delay = delay.min(due.saturating_sub(sim.now()));
        }
        timer
            .track(
                Phase::DataDistribution,
                SvcEvent {
                    wr: &wr_rx,
                    scores: &pending_scores,
                    sleep: sim.sleep(delay),
                },
            )
            .await;
    }

    if let Some(h) = pending_io.take() {
        timer.track(Phase::Io, h.join()).await;
    }
    timer
        .track(Phase::GatherResults, waitall_sends(&offset_sends))
        .await;
}

/// A dead worker's write obligation for one batch, handed to a survivor.
#[derive(Clone)]
struct RepairBundle {
    batch: usize,
    for_worker: usize,
    tasks: usize,
    bytes: u64,
    regions: Vec<Region>,
}

/// Suspends the master until its mailbox sees activity or a tick elapses.
/// All master-bound traffic (work requests, heartbeats, scores) lands in
/// one mailbox, so a single watch registration covers every wake source.
struct NextEvent<'a> {
    wr: &'a RecvRequest,
    hb: &'a RecvRequest,
    scores: &'a [(usize, RecvRequest)],
    sleep: Sleep,
}

impl Future for NextEvent<'_> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.wr.ready() || this.hb.ready() || this.scores.iter().any(|(_, r)| r.ready()) {
            return Poll::Ready(());
        }
        this.wr.watch();
        Pin::new(&mut this.sleep).poll(cx)
    }
}

/// The crash-tolerant master loop. Event-driven polling instead of a
/// blocking receive: the master must keep observing heartbeats (and the
/// detection clock) even while no work request is in flight.
#[allow(clippy::too_many_arguments)]
async fn run_master_faulty(
    sim: &Sim,
    comm: &Comm,
    params: &SimParams,
    mut st: MasterState,
    file: &File,
    timer: &PhaseTimer,
    commits: &CommitTracker,
    ctx: &FaultCtx,
) {
    let fp = ctx.schedule.params().clone();
    let nworkers = st.nworkers;
    let tick = fp.heartbeat_interval;

    // Index 0 (the master itself) is unused in these per-rank tables.
    let mut alive = vec![true; nworkers + 1];
    let mut done = vec![false; nworkers + 1];
    let mut liveness = Liveness::new(nworkers + 1, sim.now(), fp.detection_timeout);
    let mut in_flight: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    let mut in_flight_repairs: BTreeMap<usize, Vec<RepairBundle>> = BTreeMap::new();
    let mut repairs: VecDeque<RepairBundle> = VecDeque::new();
    // Per-batch per-worker write layouts, kept so a casualty's share can
    // be reconstructed into a repair bundle.
    let mut saved_plans: BTreeMap<usize, BTreeMap<usize, WorkerPlan>> = BTreeMap::new();
    let mut pending_scores: Vec<(usize, RecvRequest)> = Vec::new();
    let mut offset_sends: Vec<SendRequest> = Vec::new();

    let mut wr_rx = comm.irecv(Source::Any, TAG_WORK_REQ);
    let mut hb_rx = comm.irecv(Source::Any, TAG_HEARTBEAT);

    loop {
        // Heartbeats refresh liveness.
        drain_heartbeats(comm, &mut hb_rx, &mut liveness, sim);

        // Results.
        let mut k = 0;
        while k < pending_scores.len() {
            if let Some(m) = pending_scores[k].1.test() {
                let (w, req) = pending_scores.swap_remove(k);
                drop(req);
                let (scores, _) = m.into_parts::<ScoresMsg>();
                if let Some(v) = in_flight.get_mut(&w) {
                    v.retain(|&t| t != (scores.query, scores.fragment));
                }
                let b = scores.query / st.gran;
                st.batches[b]
                    .as_mut()
                    .unwrap_or_else(|| panic!("scores for already-written batch {b}"))
                    .record(scores.query, scores.fragment, w, &scores.hits);
            } else {
                k += 1;
            }
        }

        // A repair is finished once its batch no longer owes the dead
        // rank's write (the survivor completes it through the shared
        // tracker, so no acknowledgement message is needed).
        for v in in_flight_repairs.values_mut() {
            v.retain(|r| commits.unfinished_for(r.for_worker).contains(&r.batch));
        }

        // Completed batches: lay out offsets, remember each worker's
        // share, write (MW) or notify the contributors (WW).
        for b in 0..st.nbatches {
            let complete = st.batches[b].as_ref().is_some_and(BatchState::is_complete);
            if !complete {
                continue;
            }
            let batch = st.batches[b].take().expect("checked above");
            st.batches_left -= 1;
            let (plans, total) = batch.assign_offsets(st.cursor);
            let base = st.cursor;
            st.cursor += total;
            let batch_queries = st.batch_queries(b);

            if params.strategy == Strategy::Mw {
                let writers = if total > 0 { vec![0] } else { Vec::new() };
                commits.expect(b, writers, batch_queries, total, base, sim.now());
                if total > 0 {
                    timer
                        .track(Phase::Io, file.write_at(base, total))
                        .await
                        .unwrap_or_else(|e| crate::runner::io_failure(e));
                    timer
                        .track(Phase::Io, file.sync())
                        .await
                        .unwrap_or_else(|e| crate::runner::io_failure(e));
                    commits.complete_by(b, 0, sim.now());
                }
            } else {
                let writers = batch.contributing_workers();
                commits.expect(b, writers.clone(), batch_queries, total, base, sim.now());
                // A writer that died a moment ago (not yet detected) gets
                // its message absorbed by the failed mailbox; detection
                // will turn its share into a repair bundle.
                for w in writers {
                    let plan = &plans[&w];
                    let msg = OffsetsMsg {
                        batch: b,
                        offsets: plan.offsets.clone(),
                    };
                    let bytes = msg.wire_bytes();
                    offset_sends.push(comm.isend(w, TAG_OFFSETS, msg, bytes));
                }
                saved_plans.insert(b, plans);
            }
        }

        // Failure detection: silence beyond the timeout is death. Drain
        // heartbeats again first — the MW write above can block the
        // master for longer than the timeout, and heartbeats that arrived
        // during its own blindness must not read as worker silence.
        drain_heartbeats(comm, &mut hb_rx, &mut liveness, sim);
        for w in 1..=nworkers {
            if alive[w] && !done[w] && liveness.silent(w, sim.now()) {
                on_death(
                    w,
                    sim,
                    params,
                    ctx,
                    &mut alive,
                    &mut st,
                    &mut in_flight,
                    &mut in_flight_repairs,
                    &mut repairs,
                    &saved_plans,
                    &mut pending_scores,
                    commits,
                );
            }
        }

        let resolved = st.tasks.is_empty()
            && repairs.is_empty()
            && in_flight.values().all(Vec::is_empty)
            && in_flight_repairs.values().all(Vec::is_empty)
            && st.batches_left == 0
            && commits.pending_empty();

        if (1..=nworkers).all(|w| !alive[w]) && !resolved {
            panic!("all workers failed; the run cannot complete");
        }

        // Work requests: repairs take priority over fresh tasks so the
        // output's durable prefix closes as early as possible.
        if let Some(m) = wr_rx.test() {
            let (_, status) = m.into_parts::<()>();
            let w = status.source;
            wr_rx = comm.irecv(Source::Any, TAG_WORK_REQ);
            if alive[w] && !done[w] {
                liveness.refresh(w, sim.now());
                let assign = if let Some(r) = repairs.pop_front() {
                    ctx.log.record(
                        sim.now(),
                        FaultKind::BatchRepaired {
                            batch: r.batch,
                            bytes: r.bytes,
                        },
                    );
                    in_flight_repairs.entry(w).or_default().push(r.clone());
                    Assign::Repair {
                        batch: r.batch,
                        for_worker: r.for_worker,
                        tasks: r.tasks,
                        bytes: r.bytes,
                        regions: r.regions,
                    }
                } else if let Some((q, f)) = st.tasks.pop_front() {
                    in_flight.entry(w).or_default().push((q, f));
                    pending_scores.push((w, comm.irecv(w, TAG_SCORES)));
                    Assign::Task {
                        query: q,
                        fragment: f,
                    }
                } else if resolved {
                    done[w] = true;
                    Assign::Done
                } else {
                    Assign::Wait
                };
                let bytes = assign.wire_bytes();
                timer
                    .track(
                        Phase::DataDistribution,
                        comm.send(w, TAG_ASSIGN, assign, bytes),
                    )
                    .await;
            }
            continue;
        }

        if (1..=nworkers).all(|w| done[w] || !alive[w]) {
            break;
        }

        // Idle: wait for mailbox activity, or a tick to re-check the
        // detection clock.
        timer
            .track(
                Phase::DataDistribution,
                NextEvent {
                    wr: &wr_rx,
                    hb: &hb_rx,
                    scores: &pending_scores,
                    sleep: sim.sleep(tick),
                },
            )
            .await;
    }

    debug_assert!(pending_scores.is_empty(), "scores pending after shutdown");
    timer
        .track(Phase::GatherResults, waitall_sends(&offset_sends))
        .await;
    // No final barrier: the dead cannot arrive at one.
}

/// Consume every queued heartbeat, refreshing the senders' liveness.
/// Called again right before the detection scan because loop iterations
/// can block (MW batch writes) for longer than the detection timeout.
/// The boundary rule itself lives in [`crate::failure_detector`].
fn drain_heartbeats(comm: &Comm, hb_rx: &mut RecvRequest, liveness: &mut Liveness, sim: &Sim) {
    while let Some(m) = hb_rx.test() {
        let (_, status) = m.into_parts::<()>();
        liveness.refresh(status.source, sim.now());
        *hb_rx = comm.irecv(Source::Any, TAG_HEARTBEAT);
    }
}

/// Declare worker `w` dead and fold its obligations back into the
/// schedule: in-flight and revoked tasks are requeued, owed batch writes
/// become repair bundles for survivors.
#[allow(clippy::too_many_arguments)]
fn on_death(
    w: usize,
    sim: &Sim,
    params: &SimParams,
    ctx: &FaultCtx,
    alive: &mut [bool],
    st: &mut MasterState,
    in_flight: &mut BTreeMap<usize, Vec<(usize, usize)>>,
    in_flight_repairs: &mut BTreeMap<usize, Vec<RepairBundle>>,
    repairs: &mut VecDeque<RepairBundle>,
    saved_plans: &BTreeMap<usize, BTreeMap<usize, WorkerPlan>>,
    pending_scores: &mut Vec<(usize, RecvRequest)>,
    commits: &CommitTracker,
) {
    let now = sim.now();
    alive[w] = false;
    ctx.log.record(now, FaultKind::WorkerDetected { rank: w });

    // A score message from the dead rank may still be on the wire.
    // Abandon its posted receives rather than cancel them, so a
    // rendezvous transfer in flight can still match and complete; nobody
    // reads it.
    let mut i = 0;
    while i < pending_scores.len() {
        if pending_scores[i].0 == w {
            let (_, req) = pending_scores.swap_remove(i);
            req.abandon();
        } else {
            i += 1;
        }
    }

    // Tasks assigned but never reported.
    for (q, f) in in_flight.remove(&w).unwrap_or_default() {
        ctx.log.record(
            now,
            FaultKind::TaskReassigned {
                query: q,
                fragment: f,
            },
        );
        st.tasks.push_back((q, f));
    }
    // Repairs it was performing for earlier casualties.
    for r in in_flight_repairs.remove(&w).unwrap_or_default() {
        repairs.push_back(r);
    }

    // WW: reported scores reference result data that only existed in the
    // dead worker's memory — revoke and redo them. (MW keeps them: the
    // data rode along with the scores and is safe at the master.)
    if params.strategy.workers_write() {
        for slot in st.batches.iter_mut().flatten() {
            for (q, f) in slot.revoke(w) {
                ctx.log.record(
                    now,
                    FaultKind::TaskReassigned {
                        query: q,
                        fragment: f,
                    },
                );
                st.tasks.push_back((q, f));
            }
        }
    }

    // Writes it still owed for batches whose layout was already fixed.
    for b in commits.unfinished_for(w) {
        let plan = saved_plans
            .get(&b)
            .and_then(|m| m.get(&w))
            .cloned()
            .unwrap_or_else(|| panic!("no saved plan for batch {b} writer {w}"));
        repairs.push_back(RepairBundle {
            batch: b,
            for_worker: w,
            tasks: plan.tasks,
            bytes: plan.bytes,
            regions: plan.regions,
        });
    }
}

fn record_scores(batches: &mut [Option<BatchState>], msg: Message, gran: usize) {
    let (scores, status) = msg.into_parts::<ScoresMsg>();
    let b = scores.query / gran;
    batches[b]
        .as_mut()
        .unwrap_or_else(|| panic!("scores for already-written batch {b}"))
        .record(scores.query, scores.fragment, status.source, &scores.hits);
}
