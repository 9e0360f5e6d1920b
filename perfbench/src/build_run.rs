//! `build_run`: cold O2-parallel compiles of a seeded program set, each
//! run on a two-processor simulated Titan with the VM engine and checked
//! against the tree-walking interpreter running its O0 build.
//!
//! The pass pipeline and the VM do almost all the work; the cache,
//! rendering and transport do none, so a cache optimisation must leave
//! this workload unchanged.

use std::collections::BTreeMap;
use std::time::Instant;

use titanc::{compile, Counters, Options, Pipeline};
use titanc_bench::progen::{self, Rng};
use titanc_bench::{backsolve_source, copy_source, corpus, daxpy_source, multi_proc_call_source};
use titanc_cfront::DiagnosticSink;
use titanc_il::{hash_proc, Program, ScalarType, StableHasher};
use titanc_titan::{observe_with, ExecEngine, ExecStats, MachineConfig, Observation, Simulator};

use crate::stats::{
    count, mix, ms_since, peak_rss_mb, salt, sliced_rates, Layers, Window, OP_TIMEOUT_MS,
};
use crate::{Args, Workload};

/// Seeded progen draws in the set.
const PROGEN_DRAWS: u64 = 3;

/// One program of the set, with its O0 reference observation.
pub struct Case {
    /// Family name (`titan.cycles.<name>`).
    name: &'static str,
    src: String,
    lines: u64,
    /// Globals to compare: (name, element kind, element count).
    globals: Vec<(String, ScalarType, u32)>,
    oracle: Observation,
}

/// What must repeat exactly every time a case is rebuilt and rerun.
#[derive(Clone, PartialEq, Debug)]
struct Fingerprint {
    il: String,
    cycles: u64,
    steps: u64,
    flops: u64,
    vector_instrs: u64,
    vector_elems: u64,
    arena_bytes: u64,
    stmts_allocated: u64,
}

pub struct BuildRun {
    seed: u64,
}

impl BuildRun {
    pub fn new(args: &Args) -> BuildRun {
        BuildRun { seed: args.seed }
    }
}

/// The seeded program set: `(family, source)`. Kernel sizes and salts
/// vary with the seed inside narrow ranges, so every seed does about the
/// same amount of work.
fn program_set(seed: u64) -> Vec<(&'static str, String)> {
    let size = |k: u64| 1536 + (mix(seed, 1, k) % 256) as usize;
    let salts: Vec<i64> = (0..8).map(|k| salt(seed, 2, k)).collect();
    let mut set = vec![
        ("daxpy", corpus::DAXPY.to_string()),
        ("backsolve", corpus::BACKSOLVE.to_string()),
        ("copy", corpus::COPY.to_string()),
        ("struct_matrix", corpus::STRUCT_MATRIX.to_string()),
        ("listwalk", corpus::LISTWALK.to_string()),
        ("daxpy_n", daxpy_source(size(0))),
        ("copy_n", copy_source(size(1))),
        ("backsolve_n", backsolve_source(size(2))),
        ("multi_8x30", multi_proc_call_source(8, 30, &salts)),
    ];
    for d in 0..PROGEN_DRAWS {
        let mut rng = Rng::new(mix(seed, 3, d));
        set.push(("progen", progen::program(&mut rng)));
    }
    set
}

/// Every non-volatile global, viewed as 4-byte words (or bytes when its
/// size is not a multiple of 4) so floats compare bit for bit.
fn observed_globals(prog: &Program) -> Vec<(String, ScalarType, u32)> {
    prog.globals
        .iter()
        .filter(|g| !g.volatile)
        .map(|g| {
            let size = g.ty.size_with(&|sid| prog.structs[sid.index()].size);
            if size % 4 == 0 {
                (g.name.clone(), ScalarType::Int, (size / 4) as u32)
            } else {
                (g.name.clone(), ScalarType::Char, size as u32)
            }
        })
        .collect()
}

fn options() -> Options {
    Options {
        jobs: 1,
        ..Options::parallel()
    }
}

fn machine() -> MachineConfig {
    MachineConfig::optimized(2)
}

fn observe(sim: &Simulator<'_>, run: titanc_titan::RunResult, case: &Case) -> Observation {
    let mut globals = Vec::new();
    for (name, kind, count) in &case.globals {
        let vals = (0..*count)
            .map_while(|i| sim.read_global(name, *kind, i).ok())
            .collect();
        globals.push((name.clone(), vals));
    }
    Observation {
        value: run.value,
        output: run.stats.output,
        globals,
    }
}

fn fingerprint(prog: &Program, stats: &ExecStats) -> Fingerprint {
    let mut h = StableHasher::new();
    for p in &prog.procs {
        h.write_str(&hash_proc(p).hex());
    }
    let mut c = Counters::default();
    c.record_program(prog);
    Fingerprint {
        il: h.finish().hex(),
        cycles: stats.cycles.to_bits(),
        steps: stats.steps,
        flops: stats.flops,
        vector_instrs: stats.vector_instrs,
        vector_elems: stats.vector_elems,
        arena_bytes: c.get("il.arena_bytes"),
        stmts_allocated: c.get("il.stmts_allocated"),
    }
}

/// One traced build-and-run: the same calls `compile` makes, each timed
/// as its layer's span.
fn traced_build(src: &str, opts: &Options, l: &mut Layers) -> Result<Program, String> {
    let mut sink = DiagnosticSink::new(opts.max_errors);
    let tu = l.span("cfront.parse_ms", || {
        titanc_cfront::parse_recovering(src, &mut sink)
    });
    if sink.has_errors() {
        return Err("front-end errors".to_string());
    }
    let mut prog = l
        .span("lower.lower_ms", || titanc_lower::lower(&tu))
        .map_err(|e| e.message)?;
    let pipeline = Pipeline::for_options(opts);
    let (_, trace) = l.span("core.pass.pipeline_ms", || {
        pipeline.run(&mut prog, opts, &mut Vec::new())
    });
    crate::probe::record_passes(&trace, l);
    Ok(prog)
}

impl Workload for BuildRun {
    type State = Vec<Case>;

    fn setup(&mut self, _args: &Args) -> Result<Vec<Case>, String> {
        program_set(self.seed)
            .into_iter()
            .map(|(name, src)| {
                let o0 = compile(&src, &Options::o0()).map_err(|e| format!("{name}: {e}"))?;
                let globals = observed_globals(&o0.program);
                let refs: Vec<(&str, ScalarType, u32)> = globals
                    .iter()
                    .map(|(n, k, c)| (n.as_str(), *k, *c))
                    .collect();
                let (oracle, _) = observe_with(
                    &o0.program,
                    MachineConfig::scalar(),
                    ExecEngine::Interp,
                    "main",
                    &refs,
                )
                .map_err(|e| format!("{name}: O0 reference run: {e}"))?;
                Ok(Case {
                    name,
                    lines: src.lines().count() as u64,
                    src,
                    globals,
                    oracle,
                })
            })
            .collect()
    }

    fn measure(
        &mut self,
        cases: Vec<Case>,
        seconds: f64,
        mut layers: Option<&mut Layers>,
    ) -> Result<Window, String> {
        let opts = options();
        let mut win = Window::default();
        let mut first: Vec<Option<Fingerprint>> = vec![None; cases.len()];
        let mut counters = BTreeMap::new();
        let (mut exec_steps, mut exec_s) = (0u64, 0.0f64);
        let start = Instant::now();
        let (mut compiles, mut compiles_cal) = (Vec::new(), Vec::new());
        let mut round = 0;
        // one operation is one round over the whole set, so every seed's
        // operations do the same mix of work; at least one round, so the
        // counters always cover the set once
        while round == 0 || start.elapsed().as_secs_f64() < seconds {
            let mut round_ms = 0.0;
            if let Some(l) = layers.as_deref_mut() {
                l.op();
            }
            for (i, case) in cases.iter().enumerate() {
                win.cal.tick();
                win.attempted += 1;
                let t0 = Instant::now();
                let built = match layers.as_deref_mut() {
                    Some(l) => traced_build(&case.src, &opts, l),
                    None => compile(&case.src, &opts)
                        .map(|c| c.program)
                        .map_err(|e| e.to_string()),
                };
                let compile_ms = ms_since(t0);
                let prog = match built {
                    Ok(p) => p,
                    Err(e) => {
                        win.failures.push(format!("{}: compile: {e}", case.name));
                        continue;
                    }
                };
                let t1 = Instant::now();
                let (sim, run) = match layers.as_deref_mut() {
                    Some(l) => {
                        let mut sim = l.span("titan.sim_setup_ms", || {
                            Simulator::with_engine(&prog, machine(), ExecEngine::Vm)
                        });
                        let run = l.span("titan.vm_run_ms", || sim.run("main", &[]));
                        (sim, run)
                    }
                    None => {
                        let mut sim = Simulator::with_engine(&prog, machine(), ExecEngine::Vm);
                        let run = sim.run("main", &[]);
                        (sim, run)
                    }
                };
                let run_ms = ms_since(t1);
                round_ms += compile_ms + run_ms;
                if compile_ms + run_ms > OP_TIMEOUT_MS {
                    win.failures.push(format!("{}: timed out", case.name));
                }
                compiles.push((case.lines, compile_ms / 1e3));
                compiles_cal.push((case.lines, compile_ms / win.cal.now()));
                let run = match run {
                    Ok(r) => r,
                    Err(e) => {
                        win.failures.push(format!("{}: run: {e}", case.name));
                        continue;
                    }
                };
                exec_steps += run.stats.steps;
                exec_s += run_ms / 1e3;
                let fp = fingerprint(&prog, &run.stats);
                let obs = observe(&sim, run, case);
                if obs != case.oracle {
                    win.failures
                        .push(format!("{}: O2 observation differs from O0", case.name));
                }
                match &first[i] {
                    Some(f) if *f != fp => {
                        win.failures
                            .push(format!("{}: counters drifted", case.name));
                    }
                    Some(_) => {}
                    None => {
                        count(&mut counters, "titan.sim_cycles", fp.cycles_value());
                        count(
                            &mut counters,
                            &format!("titan.cycles.{}", case.name),
                            fp.cycles_value(),
                        );
                        count(&mut counters, "titan.steps", fp.steps);
                        count(&mut counters, "titan.vector_instrs", fp.vector_instrs);
                        count(&mut counters, "titan.vector_elems", fp.vector_elems);
                        count(&mut counters, "il.arena_bytes", fp.arena_bytes);
                        count(&mut counters, "il.stmts_allocated", fp.stmts_allocated);
                        first[i] = Some(fp);
                    }
                }
            }
            win.op_ms.push(round_ms);
            win.op_cal.push(round_ms / win.cal.now());
            if round == 0 {
                win.rss_mb = peak_rss_mb(None);
            }
            round += 1;
        }
        let cycles = counters.get("titan.sim_cycles").copied().unwrap_or(0);
        win.rates = sliced_rates(&compiles);
        win.cal_rates = sliced_rates(&compiles_cal);
        win.report = vec![
            (
                "exec_steps_per_s",
                exec_steps as f64 / exec_s.max(1e-9),
                "1/s",
            ),
            ("sim_cycles", cycles as f64, "cycles"),
            ("rounds", f64::from(round), "count"),
        ];
        win.counters = counters.into_iter().collect();
        Ok(win)
    }

    fn load_shape(&self) -> &'static str {
        "one process, one thread, sequential: cold compile (O2 --parallel, -j 1) then VM run on a 2-processor Titan, per program, whole rounds over the set"
    }
}

impl Fingerprint {
    /// Total simulated cycles, rounded to a whole cycle for the counters.
    fn cycles_value(&self) -> u64 {
        f64::from_bits(self.cycles).round() as u64
    }
}
