//! The metrics the benchmark prints, by name and unit, in the order of
//! `BENCHMARK.json`. Each metric's direction, owning layer, and the
//! end-to-end metrics and workloads a layer metric should move are
//! described in `perfbench/schema.json`.

#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("retained_mb", "MB/run"),
    m("virtual_s", "sim_s"),
    m("latency_p50_s", "sim_s"),
    m("latency_p99_s", "sim_s"),
    m("served_frac", "ratio"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("des.events", "count"),
    m("des.polls", "count"),
    m("des.spawned", "count"),
    m("des.polls_per_event", "ratio"),
    m("des.events_per_s", "1/s"),
    m("des.drive_ns_per_event", "ns"),
    m("net.messages", "count"),
    m("net.msg_bytes", "bytes"),
    m("mpi.messages", "count"),
    m("mpi.payload_bytes", "bytes"),
    m("mpi.rendezvous", "count"),
    m("mpi.drive_ns_per_message", "ns"),
    m("mpiio.coll_rounds", "count"),
    m("mpiio.exchange_bytes", "bytes"),
    m("mpiio.write_at_all_ns", "ns"),
    m("mpiio.drive_synchronize_s", "sim_s"),
    m("mpiio.drive_exchange_write_s", "sim_s"),
    m("pvfs.write_requests", "count"),
    m("pvfs.regions", "count"),
    m("pvfs.regions_per_request", "ratio"),
    m("pvfs.sync_requests", "count"),
    m("pvfs.bytes_written", "bytes"),
    m("pvfs.queue_wait_p50_ns", "sim_ns"),
    m("pvfs.queue_wait_p99_ns", "sim_ns"),
    m("pvfs.request_latency_p99_ns", "sim_ns"),
    m("pvfs.drive_ns_per_request", "ns"),
    m("workload.generate_s", "s"),
    m("workload.tasks", "count"),
    m("workload.result_bytes", "bytes"),
    m("worker.compute_s", "sim_s"),
    m("worker.data_distribution_s", "sim_s"),
    m("worker.gather_s", "sim_s"),
    m("worker.io_s", "sim_s"),
    m("worker.sync_s", "sim_s"),
    m("worker.tasks", "count"),
    m("worker.regions_written", "count"),
    m("master.gather_s", "sim_s"),
    m("master.io_s", "sim_s"),
    m("shard.steals_requested", "count"),
    m("shard.steal_tasks", "count"),
    m("shard.steals_empty", "count"),
    m("shard.steal_yield", "ratio"),
    m("service.offered", "count"),
    m("service.admitted", "count"),
    m("service.shed", "count"),
    m("service.shed_frac", "ratio"),
    m("service.queue_peak", "count"),
    m("service.wait_p99_s", "sim_s"),
    m("service.msgs_per_query", "ratio"),
    m("runner.verify_s", "s"),
    m("obs.overhead_frac", "ratio"),
    m("obs.peak_rss_mb", "MB"),
];
