//! What the benchmark ran on, and the process-memory probes it reads.

use std::fmt;

/// The host facts printed with every result, so that a slow or noisy
/// machine can be told apart from a regression.
#[derive(Debug)]
pub struct HostRecord {
    pub nproc: usize,
    pub rustc: &'static str,
    pub cpu: String,
    pub profile: &'static str,
}

impl HostRecord {
    pub fn probe() -> HostRecord {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostRecord {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            cpu,
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    /// The record as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": {}, \"cpu\": {}, \"profile\": {}, \"execution\": \"sequential, one thread\"}}",
            self.nproc,
            json_str(self.rustc),
            json_str(&self.cpu),
            json_str(self.profile)
        )
    }
}

impl fmt::Display for HostRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} rustc=\"{}\" cpu=\"{}\" profile={} runs=sequential on one thread",
            self.nproc, self.rustc, self.cpu, self.profile
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MB, or 0 where
/// the kernel does not provide it.
pub fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The reference loop's time on a quiet 2-vCPU x86-64 VM: host times
/// are reported as if the host ran at that speed.
pub const REFERENCE_NOMINAL_S: f64 = 0.047;

/// Host seconds of a fixed reference computation that is independent of
/// the program: an event loop over a binary heap with per-task state and
/// a message map, the kind of work a simulated run does. Its time tracks
/// how fast this host runs such code right now.
pub fn reference_s() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    let start = std::time::Instant::now();
    let tasks = 1000u64;
    let mut state = vec![[0u64; 8]; tasks as usize];
    let mut heap = BinaryHeap::with_capacity(tasks as usize);
    let mut mail: HashMap<u64, Vec<u64>> = HashMap::new();
    for t in 0..tasks {
        heap.push(Reverse((t * 7919 % 1000, t)));
    }
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..400_000 {
        let Reverse((now, t)) = heap.pop().expect("one event per task");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let s = &mut state[t as usize];
        s[(x % 8) as usize] = s[(x % 8) as usize].wrapping_add(now);
        let to = x % tasks;
        mail.entry(to).or_default().push(now);
        if let Some(inbox) = mail.get_mut(&t) {
            s[0] = s[0].wrapping_add(inbox.drain(..).sum::<u64>());
        }
        heap.push(Reverse((now + 1 + x % 1000, t)));
    }
    std::hint::black_box(&state);
    start.elapsed().as_secs_f64()
}
