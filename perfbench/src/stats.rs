//! Order statistics and process accounting read from `/proc/self`.

/// Samples a tail percentile needs beyond it before the benchmark reports
/// it (a p90 from fewer than 100 samples is a maximum in disguise).
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice, `q` in `[0, 1]`.
/// Returns `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `q` percentile position.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The `q` tail percentile of `sorted`, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (samples_beyond(sorted.len(), q) >= MIN_TAIL_SAMPLES).then(|| percentile(sorted, q))
}

/// Sorts a copy ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `utime + stime` clock ticks from the text of `/proc/<pid>/stat`.  The
/// command name (field 2) is parenthesised and may hold spaces or `)`, so
/// fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`:
/// time the hypervisor ran someone else while this machine wanted to run.
pub fn parse_cpu_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*v.get(7)?, v.iter().sum()))
}

/// Host-wide `(steal, total)` jiffies so far.
pub fn host_steal() -> Option<(u64, u64)> {
    parse_cpu_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// User + system CPU seconds this process has used so far.
pub fn process_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // SAFETY: sysconf takes an integer selector and reads no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    (hz > 0).then_some(())?;
    Some(parse_stat_ticks(&stat)? as f64 / hz as f64)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kib(&status)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        // 999 samples leave only nine beyond the p99 rank.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        // The reported p90 needs 100 samples.
        assert_eq!(tail_percentile(&v[..100], 0.9), Some(90.0));
        assert_eq!(tail_percentile(&v[..99], 0.9), None);
        // The median of a small run is always reportable.
        assert_eq!(tail_percentile(&v[..21], 0.5), Some(11.0));
    }

    #[test]
    fn nearest_rank_edges() {
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[3.0], 0.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn stat_ticks_survive_odd_command_names() {
        let stat = "4242 (my (odd) prog) S 1 4242 4242 0 -1 4194560 1200 0 0 0 \
                    731 96 0 0 20 0 7 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(731 + 96));
        assert_eq!(parse_stat_ticks("12 (x) S 1 2"), None);
        assert_eq!(parse_stat_ticks("no parens here"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  100 0 20 300 4 0 5 7 0 0\ncpu0 50 0 10 150 2 0 2 3 0 0\n";
        assert_eq!(parse_cpu_steal(stat), Some((7, 436)));
        assert_eq!(parse_cpu_steal("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(process_cpu_secs().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(host_steal().is_some());
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
    }
}
