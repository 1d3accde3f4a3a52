//! Helpers shared by the live run, the replay and the probes: the
//! percentile rule, `/proc/self` readers and span self time.

/// Median of unsorted samples (linear interpolation between the two
/// middle values), or `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A tail percentile under the benchmark's reporting rule: the highest
/// percentile, at most `q`, that still has at least ten samples beyond
/// it. Returns `(value, percentile actually reported, samples)`; with
/// ten or fewer samples no percentile qualifies and the maximum is
/// returned with its own rank.
pub fn tail(values: &[f64], q: f64) -> Option<(f64, f64, usize)> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the sample at 0-based index k covers (k + 1) / n.
    // (The epsilon keeps q * n = 990.0000000001 from rounding up.)
    let wanted = (((q * n as f64) - 1e-9).ceil() as usize).clamp(1, n) - 1;
    let k = if n > 10 { wanted.min(n - 11) } else { n - 1 };
    Some((v[k], (k + 1) as f64 / n as f64, n))
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) may hold spaces and parentheses, so the
/// fields are counted from the last `)`: what follows starts at field 3
/// (`state`), which puts `utime` (field 14) at offset 11.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, which Linux
/// fixes at 100 on every architecture it exports to user space).
const USER_HZ: f64 = 100.0;

/// CPU seconds this process has used (user + system, all threads).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat") as f64 / USER_HZ
}

/// A `kB` field such as `VmHWM` from the text of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Threads this process is running right now.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// One timed call. `parent` is the enclosing span (nesting); the
/// replay's causal links live beside the spans, not in them.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `relay.handle.data`.
    pub name: &'static str,
    /// Start, ns since the tracer's zero.
    pub start_ns: u64,
    /// End, ns since the tracer's zero.
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once; a child running past its parent is clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_reports_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples has exactly ten beyond it.
        assert_eq!(tail(&v, 0.99), Some((990.0, 0.99, 1000)));
        // 100 samples: p99 would leave one beyond; fall back to p90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some((90.0, 0.9, 100)));
        // A lower request is honoured when it already qualifies.
        assert_eq!(tail(&v, 0.5), Some((50.0, 0.5, 100)));
        // Ten or fewer samples: nothing qualifies, report the maximum.
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some((10.0, 1.0, 10)));
        assert_eq!(tail(&[], 0.99), None);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn stat_parser_skips_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (tokio (worker) 1) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    731 69 0 0 20 0 7 0 123 456789 1000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(800));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn stat_parser_reads_this_process() {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_stat_cpu_ticks(&stat).is_some());
    }

    #[test]
    fn status_parser_reads_kb_fields() {
        let status = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   5120 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(5120));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let span = |start_ns, end_ns, parent| Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
        };
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 40, Some(0)), // overlaps its sibling: [10, 40) covered once
            span(90, 120, Some(0)), // runs past the parent: clipped to [90, 100)
            span(12, 18, Some(1)), // a grandchild counts against its own parent only
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    }
}
