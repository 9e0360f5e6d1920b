//! `edit_loop`: one-shot `compile_session` calls against an on-disk cache
//! directory over the 8-procedure call-graph corpus. A seeded script
//! mixes fully warm rebuilds with one-procedure edits (one op in four),
//! and every edit uses a fresh salt.
//!
//! Warm rebuilds are almost all cache read, decode and verify work with
//! zero passes executed; edits add pipeline work for the edited
//! procedure's cone plus publishes, so the cache both reads and writes.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use titanc::server::il_block;
use titanc::{compile_session, Options, SessionStats, SourceFile};
use titanc_bench::multi_proc_call_source;
use titanc_il::{StableHash, StableHasher};

use crate::probe::{self, WarmFiles};
use crate::stats::{
    count, mix, ms_since, peak_rss_mb, percentile, salt, sliced_rates, Layers, Window,
    OP_TIMEOUT_MS,
};
use crate::{run_dir, Args, Workload};

/// Procedures (besides `main`) and loops per procedure in the corpus.
const PROCS: usize = 8;
const LOOPS: usize = 30;
/// One edit in every block of this many operations.
const BLOCK: u64 = 4;
/// Operations in the deterministic prefix the counters cover.
const PREFIX: u64 = 40;

pub struct EditLoop {
    seed: u64,
    base: PathBuf,
    setups: u32,
}

pub struct State {
    dir: PathBuf,
    salts: Vec<i64>,
}

impl EditLoop {
    pub fn new(args: &Args) -> EditLoop {
        EditLoop {
            seed: args.seed,
            base: run_dir(args),
            setups: 0,
        }
    }
}

fn options() -> Options {
    Options {
        jobs: 1,
        ..Options::o2()
    }
}

fn il_hash(prog: &titanc_il::Program) -> StableHash {
    let mut h = StableHasher::new();
    h.write_str(&il_block(prog));
    h.finish()
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

fn degraded(s: &SessionStats) -> bool {
    s.corrupt + s.quarantined + s.write_failed + s.lock_contended > 0
}

impl Workload for EditLoop {
    type State = State;

    fn setup(&mut self, _args: &Args) -> Result<State, String> {
        self.setups += 1;
        let dir = self.base.join(format!("edit-cache-{}", self.setups));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("cache dir: {e}"))?;
        let salts: Vec<i64> = (0..PROCS as u64).map(|k| salt(self.seed, 20, k)).collect();
        let src = multi_proc_call_source(PROCS, LOOPS, &salts);
        // the loop starts warm: the initial state is compiled into the cache
        compile_session(&[SourceFile::new("edit.c", src)], &options(), Some(&dir))
            .map_err(|e| format!("priming compile: {e}"))?;
        Ok(State { dir, salts })
    }

    fn measure(
        &mut self,
        mut st: State,
        seconds: f64,
        mut layers: Option<&mut Layers>,
    ) -> Result<Window, String> {
        let opts = options();
        let mut win = Window::default();
        let (mut warm_ms, mut edit_ms) = (Vec::new(), Vec::new());
        let mut first: [Option<SessionStats>; 2] = [None, None];
        let mut counters = BTreeMap::new();
        // distinct sources and, per op, (source index, IL hash) for the
        // no-cache comparison made after the timed loop
        let mut sources: Vec<String> = Vec::new();
        let mut produced: Vec<(usize, StableHash)> = Vec::new();
        let mut warm_files: Option<WarmFiles> = None;
        let (mut compiles, mut compiles_cal) = (Vec::new(), Vec::new());
        let probe_dir = self.base.join("probe");
        let start = Instant::now();
        let mut i: u64 = 0;
        while i < PREFIX || start.elapsed().as_secs_f64() < seconds {
            let edit = i % BLOCK == mix(self.seed, 21, i / BLOCK) % BLOCK;
            if edit {
                let k = (mix(self.seed, 22, i) % PROCS as u64) as usize;
                let mut s = salt(self.seed, 23, i);
                if s == st.salts[k] {
                    s += 1;
                }
                st.salts[k] = s;
            }
            let src = multi_proc_call_source(PROCS, LOOPS, &st.salts);
            if sources.last() != Some(&src) {
                sources.push(src.clone());
            }
            let files = [SourceFile::new("edit.c", src.as_str())];
            win.cal.tick();
            win.attempted += 1;
            let t = Instant::now();
            let result = compile_session(&files, &opts, Some(&st.dir));
            let ms = ms_since(t);
            win.op_ms.push(ms);
            win.op_cal.push(ms / win.cal.now());
            compiles.push((src.lines().count() as u64, ms / 1e3));
            compiles_cal.push((src.lines().count() as u64, ms / win.cal.now()));
            if edit {
                edit_ms.push(ms)
            } else {
                warm_ms.push(ms)
            }
            if ms > OP_TIMEOUT_MS {
                win.failures.push(format!("op {i}: timed out ({ms} ms)"));
            }
            let sc = match result {
                Ok(sc) => sc,
                Err(e) => {
                    win.failures.push(format!("op {i}: {e}"));
                    i += 1;
                    continue;
                }
            };
            produced.push((sources.len() - 1, il_hash(&sc.compilation.program)));
            let stats = sc.stats;
            if degraded(&stats) || (!edit && !stats.full_warm) {
                win.failures
                    .push(format!("op {i}: cache degraded: {stats:?}"));
            }
            match &first[usize::from(edit)] {
                Some(f) if *f != stats => {
                    win.failures
                        .push(format!("op {i}: session counters drifted: {stats:?}"));
                }
                Some(_) => {}
                None => first[usize::from(edit)] = Some(stats),
            }
            if i < PREFIX {
                count(&mut counters, "core.session.hits", stats.hits as u64);
                count(&mut counters, "core.session.misses", stats.misses as u64);
                count(
                    &mut counters,
                    "core.session.invalidated",
                    stats.invalidated as u64,
                );
                count(
                    &mut counters,
                    "core.session.passes_executed",
                    stats.passes_executed as u64,
                );
                count(&mut counters, "core.store.corrupt", stats.corrupt as u64);
                count(
                    &mut counters,
                    "core.store.write_failed",
                    stats.write_failed as u64,
                );
                count(
                    &mut counters,
                    "core.store.lock_contended",
                    stats.lock_contended as u64,
                );
            }
            if i + 1 == PREFIX {
                counters.insert("core.store.dir_bytes".to_string(), dir_bytes(&st.dir));
                win.rss_mb = peak_rss_mb(None);
            }
            if let Some(l) = layers.as_deref_mut() {
                l.op();
                probe::front_and_keys(&src, &opts, l);
                probe::record_session_passes(&sc.compilation.trace, l);
                probe::verify(&sc.compilation.program, l);
                if !edit {
                    if !warm_files.as_ref().is_some_and(|w| w.is_for(&src)) {
                        warm_files = Some(WarmFiles::capture(&src, &opts, &probe_dir)?);
                    }
                    let wf = warm_files.as_ref().expect("captured above");
                    wf.decode(l);
                    counters
                        .entry("core.store.read_bytes".to_string())
                        .or_insert(wf.bytes);
                }
            }
            i += 1;
        }

        // correctness: every op's IL equals a no-cache compile of its source
        // (two threads: the host has two CPUs and the timed loop is over)
        let no_cache = |src: &String| {
            let files = [SourceFile::new("edit.c", src.as_str())];
            compile_session(&files, &opts, None)
                .ok()
                .map(|sc| il_hash(&sc.compilation.program))
        };
        let half = sources.len().div_ceil(2);
        let reference: Vec<Option<StableHash>> = std::thread::scope(|s| {
            let second = s.spawn(|| sources[half..].iter().map(no_cache).collect::<Vec<_>>());
            let mut refs: Vec<_> = sources[..half].iter().map(no_cache).collect();
            refs.extend(second.join().expect("reference thread panicked"));
            refs
        });
        for (n, (s, h)) in produced.iter().enumerate() {
            if reference[*s] != Some(*h) {
                win.failures
                    .push(format!("op {n}: IL differs from a no-cache compile"));
            }
        }
        let _ = std::fs::remove_dir_all(&st.dir);

        win.rates = sliced_rates(&compiles);
        win.cal_rates = sliced_rates(&compiles_cal);
        win.report = vec![
            ("warm_ms_p50", percentile(&warm_ms, 0.5), "ms"),
            ("warm_ms_p90", percentile(&warm_ms, 0.9), "ms"),
            ("edit_ms_p50", percentile(&edit_ms, 0.5), "ms"),
            ("edit_ms_p90", percentile(&edit_ms, 0.9), "ms"),
            ("warm_samples", warm_ms.len() as f64, "count"),
            ("edit_samples", edit_ms.len() as f64, "count"),
        ];
        win.counters = counters.into_iter().collect();
        Ok(win)
    }

    fn load_shape(&self) -> &'static str {
        "one process, one thread, closed loop: one-shot compile_session (O2, -j 1) per op on an on-disk cache dir; 3 warm rebuilds + 1 one-procedure edit per block of 4, seeded order"
    }
}
