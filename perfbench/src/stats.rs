//! Order statistics, the sim-outcome digest, and process facts read
//! from `/proc`.

/// A percentile with the sample count it was taken from.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

impl Pct {
    /// Nearest-rank p50 and p99 of `xs` (sorted in place). Empty input
    /// gives zeros with `n = 0`.
    pub fn of(xs: &mut [f64]) -> Pct {
        xs.sort_unstable_by(f64::total_cmp);
        Pct {
            p50: rank(xs, 0.50),
            p99: rank(xs, 0.99),
            n: xs.len(),
        }
    }

    /// JSON fragment naming the percentiles and their sample count.
    pub fn json(&self, unit: &str) -> String {
        format!(
            "{{\"p50\": {}, \"p99\": {}, \"unit\": \"{unit}\", \"samples\": {}, \"beyond_p99\": {}}}",
            self.p50,
            self.p99,
            self.n,
            self.n - (self.n as f64 * 0.99).ceil() as usize
        )
    }
}

/// Exact nearest-rank percentiles of host durations in ns, in memory
/// that does not grow with the run: one counter per ns up to
/// `DIRECT_NS`, a list for the rare longer ones. A faster machine then
/// does not show a larger peak RSS for the same workload.
pub struct NsHist {
    direct: Vec<u32>,
    long: Vec<u64>,
    n: u64,
}

const DIRECT_NS: usize = 1 << 20;

impl Default for NsHist {
    fn default() -> Self {
        NsHist {
            direct: vec![0; DIRECT_NS],
            long: Vec::new(),
            n: 0,
        }
    }
}

impl NsHist {
    pub fn add(&mut self, d: std::time::Duration) {
        let ns = d.as_nanos() as u64;
        match self.direct.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.long.push(ns),
        }
        self.n += 1;
    }

    fn rank(&mut self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let want = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (ns, &c) in self.direct.iter().enumerate() {
            seen += u64::from(c);
            if seen >= want {
                return ns as f64;
            }
        }
        self.long.sort_unstable();
        self.long[(want - seen - 1) as usize] as f64
    }

    pub fn pct(&mut self) -> Pct {
        Pct {
            p50: self.rank(0.50),
            p99: self.rank(0.99),
            n: self.n as usize,
        }
    }
}

/// Host-side measurements of a timed run, taken over fixed intervals:
/// ops per second, and each interval's call-time p50 and p99. The
/// reported figures are medians over intervals, which a neighbour's
/// short burst of CPU use moves far less than whole-run figures; the
/// whole-run percentiles are printed alongside.
pub struct HostMeter {
    all: NsHist,
    /// Call times of the open interval, in ns.
    cur: Vec<f64>,
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    last: std::time::Instant,
    last_ops: u64,
}

/// Length of one interval.
const INTERVAL: std::time::Duration = std::time::Duration::from_millis(250);

/// Fewest intervals for an interval median.
const MIN_INTERVALS: usize = 10;

/// Fewest call samples an interval needs to report its own p99 (ten
/// beyond it).
const MIN_INTERVAL_CALLS: usize = 1000;

/// What a [`HostMeter`] reports.
pub struct HostSummary {
    pub ops_per_s: f64,
    pub call_p50_us: f64,
    pub call_p99_us: f64,
    /// JSON fragment with the whole-run percentiles and interval counts.
    pub json: String,
}

impl HostMeter {
    pub fn new(start: std::time::Instant) -> HostMeter {
        HostMeter {
            all: NsHist::default(),
            cur: Vec::new(),
            rates: Vec::new(),
            p50s: Vec::new(),
            p99s: Vec::new(),
            last: start,
            last_ops: 0,
        }
    }

    /// Records one call's host time.
    pub fn call(&mut self, d: std::time::Duration) {
        self.all.add(d);
        self.cur.push(d.as_nanos() as f64);
    }

    /// Notes that `ops` ops had completed at `now`, closing the interval
    /// once it is long enough.
    pub fn tick(&mut self, ops: u64, now: std::time::Instant) {
        let dt = now - self.last;
        if dt < INTERVAL {
            return;
        }
        self.rates
            .push((ops - self.last_ops) as f64 / dt.as_secs_f64());
        if self.cur.len() >= MIN_INTERVAL_CALLS {
            let p = Pct::of(&mut self.cur);
            self.p50s.push(p.p50);
            self.p99s.push(p.p99);
        }
        self.cur.clear();
        self.last = now;
        self.last_ops = ops;
    }

    /// Medians over the closed intervals; whole-run figures where too
    /// few intervals closed.
    pub fn finish(&mut self, ops: u64, secs: f64) -> HostSummary {
        let all = self.all.pct();
        let ops_per_s = if self.rates.len() < MIN_INTERVALS {
            ops as f64 / secs
        } else {
            median(&mut self.rates)
        };
        let (p50, p99) = if self.p50s.len() < MIN_INTERVALS {
            (all.p50, all.p99)
        } else {
            (median(&mut self.p50s), median(&mut self.p99s))
        };
        let json = format!(
            "{{\"whole_run\": {}, \"intervals\": {}, \"intervals_with_call_percentiles\": {}, \"ops_per_s_whole_run\": {}}}",
            all.json("ns"),
            self.rates.len(),
            self.p50s.len(),
            ops as f64 / secs
        );
        HostSummary {
            ops_per_s,
            call_p50_us: p50 / 1e3,
            call_p99_us: p99 / 1e3,
            json,
        }
    }
}

/// Nearest-rank quantile of sorted data.
pub fn rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i]
}

/// Median of `xs` (sorted in place).
pub fn median(xs: &mut [f64]) -> f64 {
    Pct::of(xs).p50
}

/// FNV-1a over 64-bit words: the sim-outcome digest. Only simulated
/// quantities go in, so equal digests mean the simulator produced the
/// same outcomes.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// OS threads in this process right now.
pub fn os_threads() -> u64 {
    proc_status_kb("Threads:").unwrap_or(1)
}

/// The checkout's git revision, read from `.git` without spawning git;
/// `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p = Pct::of(&mut xs);
        assert_eq!((p.p50, p.p99, p.n), (50.0, 99.0, 100));
        assert_eq!(Pct::of(&mut []).n, 0);
    }

    #[test]
    fn ns_hist_matches_sorting() {
        use std::time::Duration;
        let xs: Vec<u64> = (0..1000).map(|i| (i * 7919) % 3_000_000).collect();
        let mut h = NsHist::default();
        for &x in &xs {
            h.add(Duration::from_nanos(x));
        }
        let mut f: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
        let (a, b) = (h.pct(), Pct::of(&mut f));
        assert_eq!((a.p50, a.p99, a.n), (b.p50, b.p99, b.n));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
    }
}
