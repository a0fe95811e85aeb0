//! Thread placement.  The box this benchmark is calibrated on has two cores,
//! and its scheduler, left alone, keeps two busy threads on *one* of them
//! for long stretches (README.md, "Noise": a spinning thread loses 14 % of
//! its time that way, 1 % when pinned) — which made closed-loop throughput
//! bimodal and every tail latency meaningless.  So the load shape includes
//! the placement: the load generator on the first allowed core, every thread
//! of the program under test on the second.
//!
//! Without `libc` there is no `sched_setaffinity` to call, so this runs
//! util-linux's `taskset` on the thread ids.  Where `taskset` or a second
//! core is missing, the run goes ahead unpinned and its output says so.

use std::process::{Command, Stdio};
use std::sync::OnceLock;

/// The cores this process was given, from the `Cpus_allowed_list` line of
/// `/proc/self/status` — read once, on first use, which must be before
/// anything is pinned (afterwards that line is the pinned thread's own).
pub fn allowed_cores() -> &'static [usize] {
    static CORES: OnceLock<Vec<usize>> = OnceLock::new();
    CORES.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        status
            .lines()
            .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
            .map(parse_cpu_list)
            .unwrap_or_default()
    })
}

/// Parses a kernel CPU list such as `0-1` or `0,2-3,8`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cores = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(first), Ok(last)) = (first.trim().parse::<usize>(), last.trim().parse::<usize>())
        {
            cores.extend(first..=last);
        }
    }
    cores
}

/// The calling thread's id, from where `/proc/thread-self` points
/// (`<pid>/task/<tid>`).
pub fn own_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Pins thread `tid` to `core`; `false` if `taskset` is missing or refused.
pub fn pin(tid: u32, core: usize) -> bool {
    Command::new("taskset")
        .args(["-cp", &core.to_string(), &tid.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

/// Pins the calling thread to the first allowed core and every other thread
/// of the process — the program under test's workers, acceptor, reclaimer —
/// to the second.  Returns whether every thread was pinned.
pub fn split_generator_from_program() -> bool {
    let cores = allowed_cores();
    let (Some(own), [generator, program, ..]) = (own_tid(), cores) else {
        return false;
    };
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut all = true;
    for tid in tasks
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
    {
        all &= pin(tid, if tid == own { *generator } else { *program });
    }
    all
}

/// Pins the calling thread to the `index`-th allowed core (modulo how many
/// there are); `false` when there are fewer than two or `taskset` failed.
pub fn pin_self_to_nth(index: usize) -> bool {
    let cores = allowed_cores();
    match own_tid() {
        Some(tid) if cores.len() >= 2 => pin(tid, cores[index % cores.len()]),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("\t0,2-4,8"), [0, 2, 3, 4, 8]);
        assert_eq!(parse_cpu_list("5"), [5]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
        assert_eq!(parse_cpu_list("x-3,7"), [7]);
    }

    #[test]
    fn own_tid_is_a_task_of_this_process() {
        let tid = own_tid().expect("/proc/thread-self");
        assert!(std::path::Path::new(&format!("/proc/self/task/{tid}")).exists());
        let other = std::thread::spawn(own_tid).join().unwrap();
        assert_ne!(other, Some(tid));
        assert!(!allowed_cores().is_empty());
    }
}
