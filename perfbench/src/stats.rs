//! Small pure helpers: percentiles, shares, `/proc` parsing and
//! Prometheus-scrape parsing. Everything here is unit-tested.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; `None` when
/// there are none. The value returned is always one that was measured.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median over `blocks` consecutive, equal-count runs of `values` of
/// each run's percentile `q`. A burst of interference from outside the
/// benchmark then moves one block's figure instead of the whole run's.
/// `None` when there are fewer values than blocks.
pub fn block_percentile(values: &[f64], blocks: usize, q: f64) -> Option<f64> {
    if blocks == 0 || values.len() < blocks {
        return None;
    }
    let per_block: Vec<f64> = (0..blocks)
        .filter_map(|b| {
            let chunk = &values[b * values.len() / blocks..(b + 1) * values.len() / blocks];
            percentile(chunk, q)
        })
        .collect();
    percentile(&per_block, 0.5)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// `part / whole`, with an empty whole counting as zero.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Peak resident set (`VmHWM`) in KiB from a `/proc/<pid>/status` text.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` text. The
/// command name sits in parentheses and may itself contain spaces or
/// parentheses, so fields are counted from the last `)`.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    // After the name: state(3) ppid(4) … utime(14) stime(15).
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// A plain counter or gauge sample (`name value`) from a Prometheus
/// text exposition.
pub fn scrape_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// Quantile `q` of a cumulative histogram (`name_bucket{le="…"} n`)
/// as the upper bound of the bucket holding that rank. `None` when the
/// histogram is absent or empty.
pub fn scrape_quantile(text: &str, name: &str, q: f64) -> Option<f64> {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let (le, count) = rest.split_once("\"} ")?;
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().ok()?
        };
        buckets.push((le, count.trim().parse().ok()?));
    }
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = (q * total).ceil().max(1.0);
    buckets
        .into_iter()
        .find(|&(_, cumulative)| cumulative >= rank)
        .map(|(le, _)| le)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn block_percentile_takes_the_median_block() {
        // Four blocks of 25; one has a burst of slow values.
        let mut v: Vec<f64> = (0..100).map(|i| f64::from(i % 25)).collect();
        for x in &mut v[50..75] {
            *x += 1000.0;
        }
        // Per-block p90: 22, 22, 1022, 22 -> median (nearest rank) 22.
        assert_eq!(block_percentile(&v, 4, 0.9), Some(22.0));
        assert_eq!(percentile(&v, 0.9), Some(1014.0));
        assert_eq!(block_percentile(&v[..3], 4, 0.5), None);
        assert_eq!(block_percentile(&[5.0, 1.0], 1, 0.5), Some(1.0));
    }

    #[test]
    fn shares_and_means() {
        assert_eq!(share(1, 4), 0.25);
        assert_eq!(share(0, 0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn proc_status_and_stat_parse() {
        let status = "Name:\tchronusd\nVmPeak:\t  900 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(12345));
        assert_eq!(vm_hwm_kb("Name: x\n"), None);
        // A command name with a space and a parenthesis must not shift
        // the fields: utime = 250, stime = 50.
        let stat = "4242 (chr (d) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 250 50 0 0 20 0 9 0";
        assert_eq!(cpu_ticks(stat), Some(300));
        assert_eq!(cpu_ticks("4242 (x) S 1"), None);
    }

    #[test]
    fn scrape_counters_and_bucket_quantiles() {
        let text = "\
# TYPE chronus_x_total counter
chronus_x_total 17
chronus_x_total_other 3
chronus_w_ns_bucket{le=\"0\"} 0
chronus_w_ns_bucket{le=\"1023\"} 5
chronus_w_ns_bucket{le=\"2047\"} 9
chronus_w_ns_bucket{le=\"+Inf\"} 10
chronus_w_ns_sum 12000
chronus_w_ns_count 10
";
        assert_eq!(scrape_value(text, "chronus_x_total"), Some(17.0));
        assert_eq!(scrape_value(text, "chronus_missing"), None);
        assert_eq!(scrape_quantile(text, "chronus_w_ns", 0.5), Some(1023.0));
        assert_eq!(scrape_quantile(text, "chronus_w_ns", 0.9), Some(2047.0));
        assert_eq!(
            scrape_quantile(text, "chronus_w_ns", 1.0),
            Some(f64::INFINITY)
        );
        assert_eq!(scrape_quantile(text, "chronus_none", 0.5), None);
    }
}
