//! Process and thread accounting read from `/proc` with std only (there is
//! no `libc` crate in this offline tree).  The parsers take the file text so
//! the unit tests can run them on fixture strings.

use std::fs;

/// `sysconf(_SC_CLK_TCK)`: the unit of `utime`/`stime`.  Fixed at 100 on
/// every Linux ABI this runs on; without libc it cannot be asked for.
const TICKS_PER_S: f64 = 100.0;
/// `sysconf(_SC_PAGESIZE)` on x86-64 and on aarch64 as commonly configured.
const PAGE_BYTES: u64 = 4096;

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` or
/// `/proc/<pid>/task/<tid>/stat` line.  The command name (field 2) may
/// itself contain spaces and parentheses, so fields are counted from the
/// *last* `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Resident pages (field 2) from a `/proc/<pid>/statm` line.
pub fn parse_statm_resident_pages(statm: &str) -> Option<u64> {
    statm.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// A thread name as `/proc/<pid>/task/<tid>/comm` holds it (the kernel
/// truncates to 15 bytes and appends a newline).
pub fn parse_comm(comm: &str) -> &str {
    comm.trim_end_matches('\n')
}

/// Steal time summed over all CPUs, in clock ticks, and the number of CPUs,
/// from `/proc/stat`: the aggregate `cpu` line's eighth value, and a count
/// of the `cpuN` lines.
pub fn parse_stat_steal(stat: &str) -> Option<(u64, usize)> {
    let total = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal = total.split_ascii_whitespace().nth(8)?.parse().ok()?;
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    Some((steal, cpus.max(1)))
}

/// Seconds the hypervisor has run something else while this machine wanted
/// the CPU, averaged over its CPUs (so one second of wall time on a fully
/// stolen machine adds one).  0 where the kernel does not report it.
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_stat_steal(&s))
        .map_or(0.0, |(ticks, cpus)| {
            ticks as f64 / TICKS_PER_S / cpus as f64
        })
}

/// CPU seconds (user + system) consumed so far by the whole process.
pub fn process_cpu_s() -> f64 {
    cpu_s_at("/proc/self/stat")
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_s_at("/proc/thread-self/stat")
}

fn cpu_s_at(path: &str) -> f64 {
    let ticks = fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .unwrap_or_else(|| panic!("cannot read CPU time from {path}"));
    ticks as f64 / TICKS_PER_S
}

/// Resident set size of the process, in bytes.
pub fn rss_bytes() -> u64 {
    let pages = fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| parse_statm_resident_pages(&s))
        .expect("cannot read /proc/self/statm");
    pages * PAGE_BYTES
}

/// A handle on one thread of this process, found by name, whose CPU time
/// can be read while it runs (the server's worker threads are not ours to
/// instrument from inside).
pub struct ThreadCpu {
    stat_path: String,
}

impl ThreadCpu {
    /// Finds the live thread whose `comm` is exactly `name`.
    pub fn find(name: &str) -> Option<Self> {
        for entry in fs::read_dir("/proc/self/task").ok()?.flatten() {
            let dir = entry.path();
            let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
            if parse_comm(&comm) == name {
                return Some(Self {
                    stat_path: dir.join("stat").to_string_lossy().into_owned(),
                });
            }
        }
        None
    }

    pub fn cpu_s(&self) -> f64 {
        cpu_s_at(&self.stat_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let plain = "4242 (spectm-benchmark) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                     250 75 0 0 20 0 4 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_ticks(plain), Some(325));
        // A hostile command name: spaces, parens, even a fake field run.
        let tricky = "7 (a) b (c 1 2 3) S 1 7 7 0 -1 64 0 0 0 0 11 22 0 0 20 0 1 0 5 0 0";
        assert_eq!(parse_stat_ticks(tricky), Some(33));
        assert_eq!(parse_stat_ticks("garbage"), None);
        assert_eq!(parse_stat_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn statm_second_field_is_resident_pages() {
        assert_eq!(
            parse_statm_resident_pages("50000 12345 800 10 0 40000 0\n"),
            Some(12345)
        );
        assert_eq!(parse_statm_resident_pages("50000"), None);
        assert_eq!(parse_statm_resident_pages("a b"), None);
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_aggregate_line() {
        let stat = "cpu  492488 0 115379 561681 2752 0 30179 26769 0 0\n\
                    cpu0 246000 0 57000 280000 1400 0 15000 13000 0 0\n\
                    cpu1 246488 0 58379 281681 1352 0 15179 13769 0 0\n\
                    intr 12345 0 0\nctxt 999\n";
        assert_eq!(parse_stat_steal(stat), Some((26769, 2)));
        assert_eq!(parse_stat_steal("cpu  1 2 3\n"), None);
        assert_eq!(parse_stat_steal(""), None);
    }

    #[test]
    fn comm_loses_only_its_newline() {
        assert_eq!(parse_comm("serve-worker-0\n"), "serve-worker-0");
        assert_eq!(parse_comm("kv-reclaimer"), "kv-reclaimer");
        assert_eq!(parse_comm("two words\n"), "two words");
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(rss_bytes() > 1 << 20);
        assert!(process_cpu_s() >= 0.0);
        assert!(steal_s() >= 0.0);
        assert!(thread_cpu_s() <= process_cpu_s() + 0.011);
        let handle = std::thread::Builder::new()
            .name("probe-me".into())
            .spawn(|| std::thread::sleep(std::time::Duration::from_millis(200)))
            .unwrap();
        // The name is set by the new thread itself, just after it starts.
        let found = (0..100).find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            ThreadCpu::find("probe-me")
        });
        assert!(found.expect("thread visible by name").cpu_s() >= 0.0);
        assert!(ThreadCpu::find("no-such-thread").is_none());
        handle.join().unwrap();
    }
}
