//! perfbench — the seeded end-to-end and per-layer benchmark for titanc.
//!
//! ```text
//! perfbench --workload build_run|edit_loop|daemon --seed N --seconds S --trace 0|1
//!           --titand PATH --work-dir DIR [--commit STR] [--rustc STR]
//! ```
//!
//! Normally launched through `perfbench/run.py`, which builds this
//! package and the real `titand` binary first. Every run prints a few
//! `# perfbench ...` lines (run facts, the scenario's named metrics, the
//! deterministic counters) and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end metrics; with `--trace 1` they are the
//! per-layer metrics of a separate traced phase.
//!
//! Layers are timed from outside, around calls into each layer's public
//! functions, and the counters come from the result structs the library
//! already returns. Nothing inside the compiler is instrumented.

mod build_run;
mod daemon;
mod edit_loop;
mod probe;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{percentile, Layers, Window, PER_LAYER};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// How to read the per-layer figures, printed with every traced result.
const TRACE_NOTES: &str = "times are ms per traced op (build_run: one round over the set); \
titan.vm_run_ms includes bytecode lowering, which titanc-titan keeps private; \
session workloads time parse, lower, hash, cones, decode and verify by probing the same \
public calls on the same input after each op, and take pass times from the session's PassTrace; \
core.server.transport_ms is round trip minus Server::handle_line (rescaled to the window's cal), \
so it includes queue wait; \
counts are exact totals over the workload's fixed prefix";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub titand: PathBuf,
    pub work_dir: PathBuf,
    pub commit: String,
    pub rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        titand: PathBuf::new(),
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        commit: "unknown".to_string(),
        rustc: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value == "1",
            "--titand" => args.titand = PathBuf::from(value),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--commit" => args.commit = value,
            "--rustc" => args.rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// One benchmark workload: a timed set-up and a measurement loop.
pub trait Workload {
    /// Everything the loop needs: generated inputs, oracles, a cache
    /// directory or a running daemon.
    type State;

    /// Builds the inputs and oracles from the seed. Timed as `setup_s`.
    fn setup(&mut self, args: &Args) -> Result<Self::State, String>;

    /// Runs operations for `seconds` (and at least the workload's fixed
    /// prefix), recording spans into `layers` when tracing.
    fn measure(
        &mut self,
        state: Self::State,
        seconds: f64,
        layers: Option<&mut Layers>,
    ) -> Result<Window, String>;

    /// The load shape recorded with every result.
    fn load_shape(&self) -> &'static str;
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "build_run" => run(&args, build_run::BuildRun::new(&args)),
        "edit_loop" => run(&args, edit_loop::EditLoop::new(&args)),
        "daemon" => run(&args, daemon::Daemon::new(&args)),
        other => Err(format!("unknown workload `{other}`")),
    };
    let _ = std::fs::remove_dir_all(run_dir(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// This process's private scratch directory inside the work dir.
pub fn run_dir(args: &Args) -> PathBuf {
    args.work_dir.join(format!("run-{}", std::process::id()))
}

fn run<W: Workload>(args: &Args, mut w: W) -> Result<(), String> {
    std::fs::create_dir_all(run_dir(args)).map_err(|e| format!("work dir: {e}"))?;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // set up several times and keep the last state: the median is the
    // reported set-up time, so one slow repetition does not move it
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(w.setup(args)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let state = state.expect("SETUP_REPS is positive");
    let setup_median = percentile(&setup_s, 0.5);

    let (window, metrics) = if args.trace {
        // untraced phase first, then a fresh set-up and the traced phase:
        // the difference of the two medians is the tracing overhead
        let plain = w.measure(state, args.seconds / 2.0, None)?;
        let fresh = w.setup(args)?;
        let mut layers = Layers::default();
        let mut traced = w.measure(fresh, args.seconds / 2.0, Some(&mut layers))?;
        let overhead = percentile(&traced.op_ms, 0.5) - percentile(&plain.op_ms, 0.5);
        layers.set("trace.overhead_ms", overhead);
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.value(name, &traced.counters), unit))
            .collect::<Vec<_>>();
        traced.attempted += plain.attempted;
        traced.failures.extend(plain.failures);
        (traced, metrics)
    } else {
        let win = w.measure(state, args.seconds, None)?;
        let metrics = vec![
            ("setup_s", setup_median, "s"),
            ("op_p50_cal", percentile(&win.op_cal, 0.5), "cal"),
            ("op_p90_cal", percentile(&win.op_cal, 0.9), "cal"),
            (
                "lines_per_cal",
                percentile(&win.cal_rates, 0.5),
                "lines/cal",
            ),
            ("peak_rss_mb", win.rss_mb, "MB"),
        ];
        (win, metrics)
    };

    let failed = window.failures.len() as u64;
    let attempted = window.attempted.max(1);
    for f in window.failures.iter().take(10) {
        eprintln!("perfbench: FAILED: {f}");
    }

    let facts = stats::obj(vec![
        ("workload", stats::s(&args.workload)),
        ("seed", stats::n(args.seed as f64)),
        ("trace", stats::n(f64::from(u8::from(args.trace)))),
        ("host_cpus", stats::n(host_cpus as f64)),
        ("commit", stats::s(&args.commit)),
        ("rustc", stats::s(&args.rustc)),
        ("load", stats::s(w.load_shape())),
        ("samples", stats::n(window.op_ms.len() as f64)),
        ("setup_reps", stats::n(SETUP_REPS as f64)),
        ("seconds", stats::n(args.seconds)),
        ("notes", stats::s(if args.trace { TRACE_NOTES } else { "" })),
    ]);
    println!("# perfbench facts {}", facts.to_string_compact());
    let mut named = vec![
        ("op_ms_p50", percentile(&window.op_ms, 0.5), "ms"),
        ("op_ms_p90", percentile(&window.op_ms, 0.9), "ms"),
        (
            "compile_lines_per_s",
            percentile(&window.rates, 0.5),
            "lines/s",
        ),
        ("cal_ms", window.cal.ms(), "ms"),
    ];
    named.extend(window.report.iter().copied());
    named.push(("setup_s", setup_median, "s"));
    named.push(("failed_share", failed as f64 / attempted as f64, "share"));
    let report = stats::obj(
        named
            .iter()
            .map(|(k, v, u)| (*k, stats::metric(*v, u)))
            .collect(),
    );
    println!("# perfbench report {}", report.to_string_compact());
    let counters = stats::obj(
        window
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), stats::n(*v as f64)))
            .collect(),
    );
    println!("# perfbench counters {}", counters.to_string_compact());

    let metrics = stats::obj(
        metrics
            .iter()
            .map(|(k, v, u)| (*k, stats::metric(*v, u)))
            .collect(),
    );
    println!(
        "{}",
        stats::obj(vec![
            ("correct", stats::b(failed == 0)),
            ("attempted", stats::n(attempted as f64)),
            ("failed", stats::n(failed as f64)),
            ("metrics", metrics),
        ])
        .to_string_compact()
    );
    Ok(())
}
