//! Samples, percentiles, per-layer accumulation and JSON output helpers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use titanc_il::json::Json;

/// Every per-layer metric the traced run emits, with its unit. A layer
/// the workload does not exercise reports 0. Times are milliseconds per
/// traced operation (means, so the layers of one operation add up);
/// counts are exact totals over the workload's fixed prefix.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cfront.parse_ms", "ms"),
    ("lower.lower_ms", "ms"),
    ("il.hash_ms", "ms"),
    ("analysis.inline_cones_ms", "ms"),
    ("core.store.read_bytes", "bytes"),
    ("il.json_decode_ms", "ms"),
    ("il.verify_ms", "ms"),
    ("core.pass.pipeline_ms", "ms"),
    ("core.pass.inline_ms", "ms"),
    ("core.pass.whiledo_ms", "ms"),
    ("core.pass.ivsub_ms", "ms"),
    ("core.pass.forward_ms", "ms"),
    ("core.pass.constprop_ms", "ms"),
    ("core.pass.dce_ms", "ms"),
    ("core.pass.vectorize_ms", "ms"),
    ("core.pass.strength_ms", "ms"),
    ("core.pass.cse_ms", "ms"),
    ("analysis.usedef_hit_ratio", "ratio"),
    ("core.session.hits", "count"),
    ("core.session.misses", "count"),
    ("core.session.invalidated", "count"),
    ("core.session.passes_executed", "count"),
    ("core.store.dir_bytes", "bytes"),
    ("core.store.corrupt", "count"),
    ("core.store.write_failed", "count"),
    ("core.store.lock_contended", "count"),
    ("core.server.execute_ms", "ms"),
    ("core.trace.opt_report_ms", "ms"),
    ("core.server.transport_ms", "ms"),
    ("core.server.request_bytes", "bytes"),
    ("core.server.response_bytes", "bytes"),
    ("core.server.hits", "count"),
    ("core.server.misses", "count"),
    ("core.server.fully_warm", "count"),
    ("core.server.protocol_errors", "count"),
    ("titan.sim_setup_ms", "ms"),
    ("titan.vm_run_ms", "ms"),
    ("titan.steps", "count"),
    ("titan.vector_instrs", "count"),
    ("titan.vector_elems", "count"),
    ("titan.sim_cycles", "cycles"),
    ("titan.cycles.daxpy", "cycles"),
    ("titan.cycles.backsolve", "cycles"),
    ("titan.cycles.copy", "cycles"),
    ("titan.cycles.struct_matrix", "cycles"),
    ("titan.cycles.listwalk", "cycles"),
    ("titan.cycles.daxpy_n", "cycles"),
    ("titan.cycles.copy_n", "cycles"),
    ("titan.cycles.backsolve_n", "cycles"),
    ("titan.cycles.multi_8x30", "cycles"),
    ("titan.cycles.progen", "cycles"),
    ("il.arena_bytes", "bytes"),
    ("il.stmts_allocated", "count"),
    ("trace.overhead_ms", "ms"),
];

/// What one measurement loop observed.
#[derive(Default)]
pub struct Window {
    /// Latency of every operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// The same latencies in `cal`, each divided by the host's speed
    /// sampled just before it ([`Calibration::now`]).
    pub op_cal: Vec<f64>,
    /// Source lines compiled per second, once per slice of the window
    /// (the reported rate is their median, so one stalled slice does
    /// not move it).
    pub rates: Vec<f64>,
    /// The same rates in lines per `cal`.
    pub cal_rates: Vec<f64>,
    /// Peak resident set of the compiling process, in MB.
    pub rss_mb: f64,
    /// The host's speed during the window, sampled between operations.
    pub cal: Calibration,
    /// Operations attempted (set-up priming excluded).
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// The scenario's named metrics: (name, value, unit).
    pub report: Vec<(&'static str, f64, &'static str)>,
    /// Deterministic counters over the workload's fixed prefix.
    pub counters: Vec<(String, u64)>,
}

/// Accumulates per-layer spans during a traced phase.
#[derive(Default)]
pub struct Layers {
    ms: BTreeMap<String, f64>,
    ratios: BTreeMap<String, (f64, f64)>,
    fixed: BTreeMap<String, f64>,
    ops: u64,
}

impl Layers {
    /// Times `f` as one span of layer `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(name, ms_since(t));
        r
    }

    /// Adds `ms` milliseconds of self time to layer `name`.
    pub fn add(&mut self, name: &str, ms: f64) {
        *self.ms.entry(name.to_string()).or_default() += ms;
    }

    /// Counts one traced operation (the divisor of the per-op means).
    pub fn op(&mut self) {
        self.ops += 1;
    }

    /// Adds `num` useful outcomes out of `den` attempts to ratio `name`.
    pub fn ratio(&mut self, name: &str, num: f64, den: f64) {
        let e = self.ratios.entry(name.to_string()).or_default();
        e.0 += num;
        e.1 += den;
    }

    /// Sets a metric to a value computed outside the spans.
    pub fn set(&mut self, name: &str, v: f64) {
        self.fixed.insert(name.to_string(), v);
    }

    /// The reported value of `name`: a fixed value, a per-op mean time,
    /// a ratio, or a deterministic counter; 0 when the layer was idle.
    pub fn value(&self, name: &str, counters: &[(String, u64)]) -> f64 {
        if let Some(v) = self.fixed.get(name) {
            return *v;
        }
        if let Some(total) = self.ms.get(name) {
            return total / self.ops.max(1) as f64;
        }
        if let Some((num, den)) = self.ratios.get(name) {
            return if *den > 0.0 { num / den } else { 0.0 };
        }
        counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }
}

/// An operation slower than this counts as failed (a timeout).
pub const OP_TIMEOUT_MS: f64 = 10_000.0;

/// Least time between two calibration samples in one loop.
const CAL_EVERY: Duration = Duration::from_millis(250);

/// Samples of the host's current speed: the wall time of one fixed job
/// (string formatting, a sort and ordered-map inserts — allocation-heavy
/// like the compiler, but none of its code), timed between operations
/// throughout a window.
///
/// The bench host's effective speed swings by a quarter from minute to
/// minute while the ratio of an operation's time to this job's stays
/// within a few percent, so the gated end-to-end times are expressed in
/// units of this job (`cal`); raw milliseconds are reported beside them.
/// Each operation is divided by the speed sampled just before it, not by
/// a window-wide figure, because the speed can change inside a window.
#[derive(Default)]
pub struct Calibration {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Calibration {
    /// Times the job when the previous sample is older than `CAL_EVERY`.
    /// Call between operations, outside their timing.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < CAL_EVERY) {
            return;
        }
        let t = Instant::now();
        let mut words: Vec<String> = (0..20_000u64)
            .map(|i| format!("{:x}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        words.sort_unstable();
        let map: BTreeMap<&str, usize> = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.as_str(), i))
            .collect();
        std::hint::black_box(&map);
        self.samples.push(ms_since(t));
        self.last = Some(Instant::now());
    }

    /// The host's speed right now: the median of the last three samples,
    /// in ms (one `cal`).
    pub fn now(&self) -> f64 {
        percentile(&self.samples[self.samples.len().saturating_sub(3)..], 0.5).max(1e-9)
    }

    /// Folds another loop's samples into this one.
    pub fn merge(&mut self, other: Calibration) {
        self.samples.extend(other.samples);
    }

    /// The window's median job time in milliseconds.
    pub fn ms(&self) -> f64 {
        percentile(&self.samples, 0.5)
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile of `values` (`p` in `[0, 1]`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Slices per window for the throughput medians.
pub const SLICES: usize = 10;

/// Lines per second of compile time in each of [`SLICES`] consecutive
/// groups of operations; `ops` holds (lines, compile seconds) per op.
pub fn sliced_rates(ops: &[(u64, f64)]) -> Vec<f64> {
    let per = ops.len().div_ceil(SLICES).max(1);
    ops.chunks(per)
        .map(|c| {
            let lines: u64 = c.iter().map(|o| o.0).sum();
            let secs: f64 = c.iter().map(|o| o.1).sum();
            lines as f64 / secs.max(1e-9)
        })
        .collect()
}

/// Lines per second of wall time in each of [`SLICES`] equal slices of
/// a window shared by concurrent clients; `done` holds (completion
/// offset in seconds, lines) per op.
pub fn time_sliced_rates(done: &[(f64, u64)], window_s: f64) -> Vec<f64> {
    let slice = window_s / SLICES as f64;
    let mut lines = [0u64; SLICES];
    for &(at, n) in done {
        lines[((at / slice) as usize).min(SLICES - 1)] += n;
    }
    lines.iter().map(|&n| n as f64 / slice).collect()
}

/// Peak resident set (`VmHWM`) of a process in MB; `None` means this one.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64 over (seed, a, b): the per-operation input stream, so an
/// operation's input depends only on the seed and its position.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh edit salt: always six digits, so an edit never changes the
/// length of any constant and byte counters stay exact across seeds.
pub fn salt(seed: u64, a: u64, b: u64) -> i64 {
    100_000 + (mix(seed, a, b) % 800_000) as i64
}

/// Counts `(name, value)` into a sorted counter list.
pub fn count(counters: &mut BTreeMap<String, u64>, name: &str, v: u64) {
    *counters.entry(name.to_string()).or_default() += v;
}

pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn n(v: f64) -> Json {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        Json::Int(v as i64)
    } else {
        Json::Float(v)
    }
}

pub fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

pub fn b(v: bool) -> Json {
    Json::Bool(v)
}

pub fn metric(v: f64, unit: &str) -> Json {
    obj(vec![("value", n(v)), ("unit", s(unit))])
}
