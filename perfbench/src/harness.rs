//! Workload-independent machinery: the timed repetition loop, the traced
//! layer-split loop, statistics, output hashing, peak memory, and the
//! result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hasher};
use std::time::Instant;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; `problems` lists the checks it failed.
    pub fn check(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.notes.push(format!("FAILED {what}: {p}"));
            }
        }
    }

    /// The last stdout line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`. A non-finite value would not be valid JSON, so it is
    /// reported as a failed check and written as 0.
    pub fn result_line(&mut self) -> String {
        let bad: Vec<&'static str> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name)
            .collect();
        for name in bad {
            self.check(name, vec![format!("metric {name} is not finite")]);
        }
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Mean of the middle half (the interquartile mean): as robust as the
/// median to a few outliers, but it does not snap to one sample, so values
/// reported at a histogram's bucket resolution still average finely.
pub fn mid_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A field of this process's `/proc/self/status` in MB: `VmRSS:` (the
/// resident set now) or `VmHWM:` (its peak so far).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Streams bytes into a 64-bit hash, so an output's fingerprint is
/// compared across repetitions without keeping (or even building) its
/// serialized form.
#[derive(Default)]
pub struct HashWriter(DefaultHasher);

impl std::io::Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The hash of everything `write` writes.
pub fn hash_of(write: impl FnOnce(&mut HashWriter)) -> u64 {
    let mut h = HashWriter::default();
    write(&mut h);
    h.0.finish()
}

/// Derives the seed of instance `i` of a run from the run's seed
/// (SplitMix64 finalizer, so neighbouring seeds give unrelated instances).
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs and times `plain` and `traced`, the untraced one first on even
/// passes and second on odd ones, so the order effect (the first call on
/// a fresh instance pays its page faults) cancels in the medians.
pub fn timed_pair<A, B>(
    pass: usize,
    plain: impl FnOnce() -> A,
    traced: impl FnOnce() -> B,
) -> ((A, f64), (B, f64)) {
    if pass.is_multiple_of(2) {
        let a = timed_call(plain);
        (a, timed_call(traced))
    } else {
        let b = timed_call(traced);
        (timed_call(plain), b)
    }
}

/// Runs `f` and returns its value with its wall time in seconds.
pub fn timed_call<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, secs(t))
}

/// Result of the timed loop: per-instance call times, every set-up time,
/// what `digest` kept of each instance's first output, and the memory the
/// loop added.
pub struct Timed<D> {
    pub call_s: Vec<Vec<f64>>,
    pub setup_s: Vec<f64>,
    pub digests: Vec<D>,
    /// Peak resident set during the loop (`VmHWM` at its end) minus the
    /// resident set before its first set-up, in MB: the most memory one
    /// instance's inputs and call held, since the loop keeps only hashes
    /// and digests of the outputs.
    pub rss_mb: f64,
}

impl<D> Timed<D> {
    pub fn calls(&self) -> usize {
        self.call_s.iter().map(Vec::len).sum()
    }
}

/// The end-to-end loop. One pass over all `k` instances, then more passes
/// until `seconds` have elapsed, stopping after any call of the second or
/// a later pass (so instance 0 is always repeated). `setup(i)` builds the
/// inputs of instance `i` from scratch (timed as set-up), `call` is the
/// workload's timed call, `check` returns the output checks it failed and
/// writes into the hasher what must repeat exactly on every repetition of
/// an instance, and `digest` keeps the few numbers reported of each
/// instance's first output. Outputs are dropped before the next set-up, so
/// the loop's peak memory is one instance's.
pub fn timed_loop<I, O, D>(
    k: usize,
    seconds: f64,
    out: &mut Outcome,
    mut setup: impl FnMut(usize) -> I,
    mut call: impl FnMut(I) -> O,
    mut check: impl FnMut(&O, &mut HashWriter) -> Vec<String>,
    mut digest: impl FnMut(usize, &O) -> D,
) -> Timed<D> {
    let rss_before = status_mb("VmRSS:");
    let start = Instant::now();
    let mut timed = Timed {
        call_s: vec![Vec::new(); k],
        setup_s: Vec::new(),
        digests: Vec::with_capacity(k),
        rss_mb: f64::NAN,
    };
    let mut prints: Vec<u64> = Vec::with_capacity(k);
    for pass in 0.. {
        for i in 0..k {
            let (input, setup_s) = timed_call(|| setup(i));
            timed.setup_s.push(setup_s);
            let (o, call_s) = timed_call(|| call(input));
            timed.call_s[i].push(call_s);
            let mut h = HashWriter::default();
            let mut problems = check(&o, &mut h);
            let fp = h.0.finish();
            if pass == 0 {
                prints.push(fp);
                timed.digests.push(digest(i, &o));
            } else if prints[i] != fp {
                problems.push(format!(
                    "instance {i} pass {pass}: output differs from pass 0"
                ));
            }
            drop(o);
            out.check(&format!("call (instance {i}, pass {pass})"), problems);
            if pass > 0 && secs(start) >= seconds {
                timed.rss_mb = status_mb("VmHWM:") - rss_before;
                return timed;
            }
        }
    }
    unreachable!("the pass loop only ends by returning")
}

/// One pass of a workload's layer split over one instance: wall times
/// (seconds, reduced by median over passes) and deterministic counts
/// (which must repeat exactly).
#[derive(Clone, Debug, Default)]
pub struct Split {
    pub t: BTreeMap<&'static str, f64>,
    pub n: BTreeMap<&'static str, f64>,
}

/// The traced loop: one pass of `split(i, pass)` over every instance, then
/// more passes until `seconds` are spent. Returns per-layer times summed
/// over instances (each the median of its passes) and counts summed over
/// instances.
pub fn split_loop(
    k: usize,
    seconds: f64,
    out: &mut Outcome,
    mut split: impl FnMut(usize, usize, &mut Vec<String>) -> Split,
) -> Split {
    let start = Instant::now();
    let mut passes: Vec<Vec<Split>> = vec![Vec::new(); k];
    'passes: for pass in 0.. {
        for (i, p) in passes.iter_mut().enumerate() {
            let mut problems = Vec::new();
            let s = split(i, pass, &mut problems);
            if p.first().is_some_and(|first| first.n != s.n) {
                problems.push(format!("instance {i}: layer counts differ from pass 0"));
            }
            p.push(s);
            out.check(
                &format!("layer split (instance {i}, pass {pass})"),
                problems,
            );
            if pass > 0 && secs(start) >= seconds {
                break 'passes;
            }
        }
        if secs(start) >= seconds {
            break;
        }
    }
    let mut total = Split::default();
    for p in passes.iter().filter(|p| !p.is_empty()) {
        for &key in p[0].t.keys() {
            let v: Vec<f64> = p.iter().map(|s| s.t[key]).collect();
            *total.t.entry(key).or_default() += median(&v);
        }
        for (&key, &v) in &p[0].n {
            *total.n.entry(key).or_default() += v;
        }
    }
    total
}
