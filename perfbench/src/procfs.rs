//! Per-thread CPU accounting and peak memory, read from outside the
//! program through `/proc/self`.

use std::collections::HashMap;
use std::fs;
use std::io;

/// The SAAD layers whose threads the benchmark accounts separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// `saad-net-agent-<host>`: codec encode, framing, socket writes.
    Agent,
    /// `saad-reactor-<n>`: socket reads, frame parse, decode, admit.
    Reactor,
    /// `saad-analyzer-router`: intern, watermark, adapt, route, lifecycle.
    Router,
    /// `saad-analyzer-shard-<n>`: classify and windowed detection.
    Detector,
    /// `saad-checkpoint-writer`: durable checkpoint writes.
    Store,
}

impl Role {
    /// Every role, in report order.
    pub const ALL: [Role; 5] = [
        Role::Agent,
        Role::Reactor,
        Role::Router,
        Role::Detector,
        Role::Store,
    ];

    /// The role of a thread by its `comm`, which the kernel truncates to
    /// 15 bytes (`saad-analyzer-router` reads as `saad-analyzer-r`).
    pub fn of_comm(comm: &str) -> Option<Role> {
        const PREFIXES: [(&str, Role); 5] = [
            ("saad-net-agent-", Role::Agent),
            ("saad-reactor-", Role::Reactor),
            ("saad-analyzer-r", Role::Router),
            ("saad-analyzer-s", Role::Detector),
            ("saad-checkpoint", Role::Store),
        ];
        let comm = comm.trim_end();
        PREFIXES
            .iter()
            .find(|(prefix, _)| comm.starts_with(prefix))
            .map(|&(_, role)| role)
    }
}

/// On-CPU and run-queue time of one thread, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// Time spent running.
    pub run_ns: u64,
    /// Time spent runnable but waiting for a CPU.
    pub wait_ns: u64,
}

/// Parse `/proc/<pid>/task/<tid>/schedstat`: run ns, wait ns, timeslices.
pub fn parse_schedstat(text: &str) -> Option<CpuTimes> {
    let mut fields = text.split_ascii_whitespace();
    let run_ns = fields.next()?.parse().ok()?;
    let wait_ns = fields.next()?.parse().ok()?;
    Some(CpuTimes { run_ns, wait_ns })
}

/// Snapshot of every live thread of this process that belongs to a role,
/// keyed by thread id.
pub fn snapshot() -> io::Result<HashMap<u64, (Role, CpuTimes)>> {
    let mut out = HashMap::new();
    for entry in fs::read_dir("/proc/self/task")? {
        let path = entry?.path();
        let Some(tid) = path.file_name().and_then(|n| n.to_str()?.parse().ok()) else {
            continue;
        };
        // A thread may exit between listing and reading: skip it.
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("schedstat")),
        ) else {
            continue;
        };
        if let (Some(role), Some(times)) = (Role::of_comm(&comm), parse_schedstat(&stat)) {
            out.insert(tid, (role, times));
        }
    }
    Ok(out)
}

/// Per-role time spent between two snapshots. A thread absent from
/// `start` counts from zero.
pub fn delta_by_role(
    start: &HashMap<u64, (Role, CpuTimes)>,
    end: &HashMap<u64, (Role, CpuTimes)>,
) -> HashMap<Role, CpuTimes> {
    let mut out: HashMap<Role, CpuTimes> = Role::ALL
        .iter()
        .map(|&r| (r, CpuTimes::default()))
        .collect();
    for (tid, &(role, end_t)) in end {
        let start_t = start
            .get(tid)
            .filter(|(r, _)| *r == role)
            .map_or(CpuTimes::default(), |&(_, t)| t);
        let acc = out.entry(role).or_default();
        acc.run_ns += end_t.run_ns.saturating_sub(start_t.run_ns);
        acc.wait_ns += end_t.wait_ns.saturating_sub(start_t.wait_ns);
    }
    out
}

/// Reset the process's peak-RSS high-water mark to its current RSS.
pub fn reset_peak_rss() -> io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
pub fn status_bytes(field: &str) -> io::Result<u64> {
    let status = fs::read_to_string("/proc/self/status")?;
    parse_status_kb(&status, field)
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("no {field}")))
}

fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_run_and_wait() {
        assert_eq!(
            parse_schedstat("489789947 6067130 54\n"),
            Some(CpuTimes {
                run_ns: 489_789_947,
                wait_ns: 6_067_130
            })
        );
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn comm_matches_truncated_thread_names() {
        // The kernel keeps 15 bytes of a thread name, plus a newline.
        let truncate = |name: &str| format!("{}\n", &name[..name.len().min(15)]);
        let cases = [
            ("saad-net-agent-900", Some(Role::Agent)),
            ("saad-reactor-0", Some(Role::Reactor)),
            ("saad-reactor-11", Some(Role::Reactor)),
            ("saad-analyzer-router", Some(Role::Router)),
            ("saad-analyzer-shard-0", Some(Role::Detector)),
            ("saad-analyzer-shard-12", Some(Role::Detector)),
            ("saad-checkpoint-writer", Some(Role::Store)),
            ("saad-perfbench", None),
            ("saad-net-accept", None),
            ("saad-analyzer", None),
        ];
        for (name, role) in cases {
            assert_eq!(Role::of_comm(&truncate(name)), role, "{name}");
        }
    }

    #[test]
    fn delta_sums_threads_of_a_role() {
        let t = |run_ns, wait_ns| CpuTimes { run_ns, wait_ns };
        let start = HashMap::from([
            (1, (Role::Reactor, t(100, 10))),
            (2, (Role::Router, t(5, 5))),
        ]);
        let end = HashMap::from([
            (1, (Role::Reactor, t(150, 30))),
            (2, (Role::Router, t(25, 5))),
            // Started after the first snapshot: counted from zero.
            (3, (Role::Reactor, t(7, 1))),
        ]);
        let d = delta_by_role(&start, &end);
        assert_eq!(d[&Role::Reactor], t(57, 21));
        assert_eq!(d[&Role::Router], t(20, 0));
        assert_eq!(d[&Role::Store], t(0, 0));
    }

    #[test]
    fn status_fields_in_bytes() {
        let status = "Name:\tx\nVmHWM:\t    1800 kB\nVmRSS:\t    1700 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(1800));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1700));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }
}
