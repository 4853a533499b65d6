//! Isolated drives of each layer crate's public API, shaped like the
//! workload that stresses that layer. Each returns the host nanoseconds
//! per unit of work the layer itself counts, so a layer's speed can be
//! read apart from the whole simulator's.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use s3a_des::{Queue, Sim, SimTime};
use s3a_mpi::{MpiConfig, World};
use s3a_mpiio::{CollectiveTiming, File, Hints};
use s3a_net::{EndpointId, Fabric, NetConfig};
use s3a_pvfs::{FileSystem, PvfsConfig, Region};

use crate::workloads::Size;

/// DES: `tasks` producers sleep and push into one `Queue`; one consumer
/// pops every item — spawn, timed wake and queue hand-off, the engine
/// work of 1000 workers polling a master. Returns host ns per event.
pub fn des(size: Size) -> f64 {
    let (tasks, items) = match size {
        Size::Full => (1000u64, 400u64),
        Size::Tiny => (16, 5),
    };
    let sim = Sim::new();
    let q: Queue<u64> = Queue::new(&sim);
    for t in 0..tasks {
        let (s, q) = (sim.clone(), q.clone());
        sim.spawn(format!("p{t}"), async move {
            for k in 0..items {
                s.sleep(SimTime::from_nanos(1 + (t * 37 + k * 101) % 1000))
                    .await;
                q.push(t ^ k);
            }
        });
    }
    let consumer = q.clone();
    sim.spawn("consumer", async move {
        let mut acc = 0u64;
        for _ in 0..tasks * items {
            acc = acc.wrapping_add(consumer.pop().await);
        }
        black_box(acc);
    });
    let t0 = Instant::now();
    sim.run().expect("des drive cannot deadlock");
    per_unit(t0, sim.stats().events)
}

/// MPI: `ranks` ranks; every worker rank sends a small request to rank 0
/// and takes a reply (the work-request pattern), then all ranks run a
/// sparse all-to-all to their next four neighbours (the two-phase
/// exchange pattern). Returns host ns per message.
pub fn mpi(size: Size) -> f64 {
    let (ranks, rounds) = match size {
        Size::Full => (1000usize, 12u32),
        Size::Tiny => (16, 2),
    };
    let sim = Sim::new();
    let world = World::new(&sim, ranks, MpiConfig::default());
    for rank in 0..ranks {
        let comm = world.comm(rank);
        sim.spawn(format!("r{rank}"), async move {
            let n = comm.size();
            for round in 0..rounds {
                if comm.rank() == 0 {
                    for _ in 1..n {
                        let m = comm.recv(s3a_mpi::Source::Any, 1).await;
                        let src = m.status.source;
                        comm.send(src, 2, round, 64).await;
                    }
                } else {
                    comm.send(0, 1, round, 64).await;
                    let _ = comm.recv(0, 2).await;
                }
                let me = comm.rank();
                let sends: Vec<(usize, u32, u64)> = (1..=4)
                    .map(|d| ((me + d) % n, round, 4096 * d as u64))
                    .collect();
                let got = comm.alltoallv_sparse(sends, 4).await;
                black_box(got.len());
            }
        });
    }
    let t0 = Instant::now();
    sim.run().expect("mpi drive cannot deadlock");
    per_unit(t0, world.stats().messages)
}

/// What the MPI-IO drive measured.
#[derive(Debug, Clone, Copy)]
pub struct CollDrive {
    /// Host ns per `write_at_all_timed` call.
    pub ns_per_call: f64,
    /// Rank 0's virtual-time split of the last call.
    pub timing: CollectiveTiming,
}

/// MPI-IO: `File::write_at_all_timed` on 1000 ranks over 128 PVFS
/// servers with the `coll-1k` hints (6 aggregators, 4 MiB buffers). Each
/// rank writes interleaved regions of one query's extent, as WW-Coll
/// workers do.
pub fn mpiio(size: Size) -> CollDrive {
    let (ranks, servers, regions, calls) = match size {
        Size::Full => (1000usize, 128usize, 4u64, 8u64),
        Size::Tiny => (16, 8, 2, 2),
    };
    let cfg = MpiConfig::default();
    let pvfs = PvfsConfig {
        servers,
        ..PvfsConfig::default()
    };
    let nodes = ranks.div_ceil(cfg.ranks_per_node);
    let sim = Sim::new();
    let fabric = Rc::new(Fabric::new(nodes + servers, cfg.net));
    let world = World::with_fabric(&sim, ranks, cfg, Rc::clone(&fabric), 0);
    let fs = FileSystem::new(&sim, pvfs, fabric, nodes);
    let hints = Hints {
        cb_nodes: 6,
        ..Hints::default()
    };
    let timings: Vec<_> = (0..ranks)
        .map(|rank| {
            let file = File::open(&world.comm(rank), &fs, "drive.out", hints);
            sim.spawn(format!("r{rank}"), async move {
                let n = ranks as u64;
                let rec = 600u64;
                let mut last = None;
                for call in 0..calls {
                    let base = call * n * regions * rec;
                    let mine: Vec<Region> = (0..regions)
                        .map(|i| Region::new(base + (i * n + rank as u64) * rec, rec))
                        .collect();
                    last = Some(
                        file.write_at_all_timed(&mine)
                            .await
                            .expect("fault-free collective write"),
                    );
                }
                last.expect("at least one call")
            })
        })
        .collect();
    let t0 = Instant::now();
    sim.run().expect("mpiio drive cannot deadlock");
    let ns_per_call = per_unit(t0, calls);
    let timing = timings
        .into_iter()
        .next()
        .and_then(|h| h.take_output())
        .expect("rank 0 finished");
    CollDrive {
        ns_per_call,
        timing,
    }
}

/// The two PVFS request mixes the workloads stress.
#[derive(Debug, Clone, Copy)]
pub enum PvfsShape {
    /// `posix-1k`: many clients, each a few contiguous writes followed by
    /// a sync that fans out to every one of 128 servers.
    SyncFanOut,
    /// `svc-list`: a few dozen clients issuing many small two-region list
    /// writes, each followed by a sync, against 16 servers.
    SmallWrites,
}

/// PVFS: `FileHandle::write_regions` and `sync` from many clients.
/// Returns host ns per server request (data and sync).
pub fn pvfs(shape: PvfsShape, size: Size) -> f64 {
    let tiny = size == Size::Tiny;
    let (clients, servers, ops, regions_per_op) = match shape {
        PvfsShape::SyncFanOut => (
            if tiny { 8 } else { 250 },
            if tiny { 8 } else { 128 },
            4u64,
            1u64,
        ),
        PvfsShape::SmallWrites => (
            if tiny { 8 } else { 63 },
            if tiny { 4 } else { 16 },
            if tiny { 4 } else { 200 },
            2u64,
        ),
    };
    let cfg = PvfsConfig {
        servers,
        ..PvfsConfig::default()
    };
    let sim = Sim::new();
    let fabric = Rc::new(Fabric::new(clients + servers, NetConfig::default()));
    let fs = FileSystem::new(&sim, cfg, fabric, clients);
    let rec = 1200u64;
    for c in 0..clients {
        let fh = fs.open("drive.out");
        sim.spawn(format!("c{c}"), async move {
            let ep = EndpointId(c);
            let stride = clients as u64 * regions_per_op * rec;
            for op in 0..ops {
                let regions: Vec<Region> = (0..regions_per_op)
                    .map(|i| Region::new(op * stride + (c as u64 * regions_per_op + i) * rec, rec))
                    .collect();
                fh.write_regions(ep, &regions)
                    .await
                    .expect("fault-free write");
                fh.sync(ep).await.expect("fault-free sync");
            }
        });
    }
    let t0 = Instant::now();
    sim.run().expect("pvfs drive cannot deadlock");
    let st = fs.stats();
    per_unit(t0, st.requests + st.syncs)
}

fn per_unit(t0: Instant, units: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / units.max(1) as f64
}
