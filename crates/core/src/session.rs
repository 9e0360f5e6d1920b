//! Multi-file compilation sessions and the persistent incremental cache.
//!
//! The paper's compiler was a whole-program system: §7 inlining works
//! best when "the entire program" is visible, and catalogs exist exactly
//! so separate files can feed one optimization. A *session* compiles
//! several translation units in one invocation (`titanc a.c b.c c.c`),
//! merges them through the same machinery catalogs use (struct tables
//! deduplicated by tag with ids remapped, globals merged by name,
//! duplicate procedures diagnosed with both origins named, earlier files
//! winning), and then runs the normal pass pipeline over the combined
//! program.
//!
//! This is the only compile driver: [`crate::compile`] is a one-file
//! session with no cache, and both binaries compile through it. Without a
//! cache store a session does no cache work at all — no keys, no
//! recorded cells — and runs the plain [`Pipeline::run`].
//!
//! ## The content-addressed cache
//!
//! With `--cache-dir DIR`, each procedure's fully optimized IL is keyed
//! by a stable 128-bit content hash ([`titanc_il::StableHash`]) of:
//!
//! * the parsed procedure's arena encoding ([`titanc_il::write_proc`]:
//!   names, types, both arena columns, spans — everything the optimizer
//!   sees),
//! * the shared program environment (globals, struct table, file
//!   table), hashed once and folded into **every** key,
//! * an [`Options`] fingerprint (every knob that can change generated
//!   code: opt level, inlining policy, aliasing regime, strip length…),
//! * the pipeline fingerprint (the exact pass sequence), and
//! * with inlining enabled, the procedure's *inline dependency cone*:
//!   the arena encodings of every transitive callee
//!   ([`titanc_analysis::CallGraph::inline_cones`]). The inliner's
//!   growth budget is per-caller, so a procedure's post-inline IL is a
//!   function of its cone and the environment alone — an edit
//!   invalidates exactly the edited procedure and the procedures whose
//!   cones contain it, never the whole program. `--no-inline` sessions
//!   key each procedure on its own encoding alone.
//!
//! A cache entry (`<key>.bin`) stores the post-pipeline IL in the same
//! byte layout the keys hash, compacted to what the body reaches
//! ([`titanc_il::encode_proc`]), *plus* the per-pass [`RecordedCell`]s
//! as JSON text — the statistics deltas, changed flags, and
//! analysis-cache counters of the original execution. On a warm run the
//! pass manager substitutes the cached IL and replays the cells through
//! its normal pass-major merge ([`Pipeline::run_session`]), so reports,
//! counters, and `--opt-report` output are **byte-identical between cold
//! and warm runs and across every `-j` value**. Only wall-clock data
//! (durations, the timeline) and `--snapshots` differ: replayed work is
//! charged zero time and produces no snapshots.
//!
//! When every procedure hits *and* a session manifest matches, the
//! pipeline is skipped entirely — zero passes execute; the program,
//! aggregate reports and trace records are reconstructed from the cache.
//! Such a run parses only the manifest as JSON: each entry's procedure is
//! read straight from its bytes ([`titanc_il::read_proc`]) and its
//! recorded cells, which nothing replays, are never decoded.
//!
//! Each published entry is followed by a *key pointer*: a small file,
//! named by a hash of the procedure name, holding the key just
//! published for that name. A miss reads its pointer to tell an edited
//! procedure (`invalidated`: the name was cached under another key)
//! from a cold one. Pointers are accounting only — lookups never read
//! them, and a warm run never touches them.
//!
//! All on-disk interaction goes through the hardened
//! [`CacheStore`](crate::store): every file is published atomically
//! (temp-file, fsync, rename) inside a checksummed envelope, anything
//! that fails the checksum or decode is quarantined and treated as a
//! miss, and replayed IL must pass the IL verifier before it is trusted.
//! No file is ever read, modified and written back, so concurrent
//! sessions sharing one directory need no lock. Every degradation is
//! counted ([`SessionStats`]) and surfaced on the `titanc: cache:`
//! accounting line — a cache failure is never a compilation failure.

use std::path::Path;
use std::time::Duration;

use titanc_analysis::CallGraph;
use titanc_cfront::{Diagnostic, DiagnosticSink, Span};
use titanc_il::json::{FromJson, Json, ToJson};
use titanc_il::{
    Catalog, Procedure, Program, StableHash, StableHasher, StructDef, StructId, Type, VarInfo,
};

use crate::pass::{
    snapshot_all, verify_proc_check, verify_program_check, CachedProc, PassRecord, PassTrace,
    RecordedCell, SessionReplay, Snapshot,
};
use crate::store::{CacheStore, ResidentCache, CACHE_FORMAT};
use crate::{Compilation, CompileError, Options, Pipeline, Reports};

/// Bumped when the entry or manifest encoding changes shape; entries
/// written by other versions are treated as misses. Version 2 entries
/// are binary (see [`encode_entry`]).
const ENTRY_VERSION: i64 = 2;

/// One input translation unit: a display name (normally the path) and
/// its source text.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Display name, used for diagnostics and span file tags.
    pub name: String,
    /// The C source text.
    pub src: String,
}

impl SourceFile {
    /// Bundles a name and source text.
    pub fn new(name: impl Into<String>, src: impl Into<String>) -> SourceFile {
        SourceFile {
            name: name.into(),
            src: src.into(),
        }
    }
}

titanc_il::struct_json!(SourceFile, [name, src]);

/// What the cache did during one session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Procedures served from the cache.
    pub hits: usize,
    /// Procedures compiled for real.
    pub misses: usize,
    /// Misses whose name was cached under a different key — an edited
    /// procedure (or changed options/pipeline), not a cold one.
    pub invalidated: usize,
    /// Optimization-pass executions this run actually performed
    /// (whole-program stages plus per-procedure chains for misses). A
    /// fully warm run reports zero.
    pub passes_executed: usize,
    /// True when the whole pipeline was skipped and the result was
    /// reconstructed from the session manifest.
    pub full_warm: bool,
    /// Cache files whose checksum, decode, or IL verification failed;
    /// each was demoted to a cold recompile.
    pub corrupt: usize,
    /// Corrupt files successfully moved into `quarantine/` (or
    /// deleted) so they are never re-read.
    pub quarantined: usize,
    /// Always 0: no cache write waits on a lock. The field stays so the
    /// `titanc: cache:` accounting line, and the tools that parse its
    /// eight numbers, keep their shape.
    pub lock_contended: usize,
    /// Cache files that could not be published (write/rename failure);
    /// surfaced as a warning, never a compilation failure.
    pub write_failed: usize,
}

/// A [`Compilation`] plus the session's cache accounting. The stats stay
/// *outside* [`Compilation`] deliberately: everything inside (reports,
/// counters, the opt report) is byte-identical cold vs warm, and hit
/// counts obviously are not.
#[derive(Debug)]
pub struct SessionCompilation {
    /// The merged, optimized compilation.
    pub compilation: Compilation,
    /// Cache hit/miss/invalidation accounting.
    pub stats: SessionStats,
}

/// Compiles a multi-file session with [`Pipeline::for_options`].
///
/// # Errors
///
/// Returns a [`CompileError`] carrying every front-end diagnostic from
/// every file (each file is parsed even when an earlier one failed).
pub fn compile_session(
    files: &[SourceFile],
    options: &Options,
    cache_dir: Option<&Path>,
) -> Result<SessionCompilation, CompileError> {
    compile_session_with(files, options, Pipeline::for_options(options), cache_dir)
}

/// [`compile_session`] with a caller-built [`Pipeline`].
///
/// # Errors
///
/// Returns a [`CompileError`] for lexical, syntactic or semantic errors
/// in any input file.
pub fn compile_session_with(
    files: &[SourceFile],
    options: &Options,
    pipeline: Pipeline,
    cache_dir: Option<&Path>,
) -> Result<SessionCompilation, CompileError> {
    compile_session_impl(files, options, pipeline, cache_dir.map(CacheStore::open))
}

/// [`compile_session_with`] against a shared [`ResidentCache`]: cache
/// reads are served from the resident in-memory map (falling back to,
/// and adopting from, the map's backing directory when it has one), and
/// publishes write through to both. This is the compile server's entry
/// point — many concurrent sessions in one process share a single
/// resident cache, and a `--cache-dir` backing directory keeps one-shot
/// `titanc` invocations interoperable with the daemon.
///
/// # Errors
///
/// Returns a [`CompileError`] for lexical, syntactic or semantic errors
/// in any input file.
pub fn compile_session_resident(
    files: &[SourceFile],
    options: &Options,
    pipeline: Pipeline,
    resident: &ResidentCache,
) -> Result<SessionCompilation, CompileError> {
    compile_session_impl(
        files,
        options,
        pipeline,
        Some(CacheStore::open_resident(resident)),
    )
}

/// The one compile driver: every path from source text to a
/// [`Compilation`] runs through here. With no store it does no cache
/// work at all — no keys, no recorded cells — and runs the plain
/// [`Pipeline::run`].
fn compile_session_impl(
    files: &[SourceFile],
    options: &Options,
    pipeline: Pipeline,
    mut store: Option<CacheStore>,
) -> Result<SessionCompilation, CompileError> {
    if files.is_empty() {
        return Err(CompileError::internal("no input files"));
    }
    let multi = files.len() > 1;

    // front end, one TU at a time; every file is processed even after a
    // failure so one broken file cannot hide another's diagnostics
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut tus: Vec<(String, Program)> = Vec::new();
    let mut failed = false;
    for f in files {
        let mut sink = DiagnosticSink::new(options.max_errors);
        let tu = titanc_cfront::parse_recovering(&f.src, &mut sink);
        if sink.has_errors() {
            // make the cap visible: the reported list is shorter than the
            // real error count when --max-errors stopped the front end
            if sink.suppressed() > 0 {
                sink.warning(
                    format!(
                        "{} further error(s) suppressed by --max-errors (total {})",
                        sink.suppressed(),
                        sink.error_count()
                    ),
                    Span::none(),
                );
            }
            failed = true;
        } else {
            match titanc_lower::lower(&tu) {
                Ok(p) => tus.push((f.name.clone(), p)),
                Err(e) => {
                    sink.error(e.message.clone(), e.span);
                    failed = true;
                }
            }
        }
        extend_tagged(&mut diagnostics, &f.name, sink.into_diagnostics(), multi);
    }
    if failed {
        return Err(CompileError::from_diagnostics(diagnostics));
    }

    // merge the TUs (earlier files win), then link catalogs (§7) so the
    // inline pass can expand cross-file calls
    let mut sink = DiagnosticSink::new(0);
    let mut program = Program::new();
    let mut origin: Vec<(String, String)> = Vec::new();
    for (name, tu) in tus {
        merge_tu(&mut program, tu, &name, multi, &mut origin, &mut sink);
    }
    link_catalogs(&mut program, &options.catalogs, origin, &mut sink);

    let mut snapshots = Vec::new();
    if options.snapshots {
        snapshot_all("lower", &program, &mut snapshots);
    }
    if cfg!(debug_assertions) || options.verify {
        // broken IL straight out of lowering has no last-good state to
        // roll back to: report it as an (internal) error, don't panic
        if let Err(detail) = verify_program_check(&program) {
            return Err(CompileError::internal(format!(
                "internal error: IL verification failed after lowering: {detail}"
            )));
        }
    }

    let parsed = options.keep_parsed.then(|| program.clone());

    let mut stats = SessionStats::default();
    let (reports, trace) = match store.as_mut() {
        None => pipeline.run(&mut program, options, &mut snapshots),
        Some(st) => run_cached(
            st,
            &mut program,
            options,
            &pipeline,
            &mut snapshots,
            &mut stats,
        ),
    };
    stats.misses = program.procs.len().saturating_sub(stats.hits);
    if !stats.full_warm {
        let (program_stages, proc_stages) = pipeline.stage_counts();
        stats.passes_executed = program_stages + proc_stages * stats.misses;
    }

    optimization_remarks(&reports, &mut sink);
    if let Some(st) = &store {
        store_diagnostics(st, &mut sink);
        fold_store_stats(st, &mut stats);
    }
    diagnostics.extend(sink.into_diagnostics());

    Ok(SessionCompilation {
        compilation: Compilation {
            program,
            reports,
            trace,
            snapshots,
            diagnostics,
            parsed,
        },
        stats,
    })
}

/// Runs the pipeline against a cache store. When a session manifest
/// matches and every entry verifies, `program` is replaced by the cached
/// result and no pass executes; otherwise hits replay, misses execute,
/// and the clean results are published for the next run.
fn run_cached(
    store: &mut CacheStore,
    program: &mut Program,
    options: &Options,
    pipeline: &Pipeline,
    snapshots: &mut Vec<Snapshot>,
    stats: &mut SessionStats,
) -> (Reports, PassTrace) {
    let pipeline_fp = pipeline.pass_names().join(",");
    let hashes = proc_hashes(program, options, &pipeline_fp);
    // the session key is computed on the *parsed* program — exactly what
    // the next invocation computes before any pass runs, so the manifest
    // a run persists is the manifest its successor looks up
    let session_key = session_hash(program, options, &pipeline_fp, &hashes);

    // fully warm? the manifest carries the aggregate records and the
    // post-pipeline program environment, the entries carry the IL — no
    // pass executes at all. Every entry is checksummed on read and its
    // IL re-verified before being trusted; any rejection quarantines the
    // file and falls through to a real compile.
    if let Some((warm, reports, trace)) =
        load_full_warm(store, &session_key, program, &hashes, pipeline)
    {
        // a manifest that decodes but fails verification is corrupt:
        // quarantine it and compile for real
        if !(cfg!(debug_assertions) || options.verify) || verify_program_check(&warm).is_ok() {
            stats.hits = warm.procs.len();
            stats.full_warm = true;
            *program = warm;
            return (reports, trace);
        }
        store.quarantine(&manifest_name(&session_key));
    }

    // cold or partially warm: seed per-procedure hits and run the
    // pipeline; hits replay, misses execute
    let mut replay = SessionReplay::default();
    for (p, h) in program.procs.iter().zip(&hashes) {
        if let Some((il, cells)) = load_entry(store, h, &p.name, true) {
            replay
                .hits
                .insert(p.name.clone(), CachedProc::new(il, cells));
        } else if store
            .read(&pointer_name(&p.name))
            .is_some_and(|old| *old != *h.hex().as_bytes())
        {
            stats.invalidated += 1;
        }
    }
    let (reports, trace) = pipeline.run_session(program, options, snapshots, &mut replay);
    stats.hits = replay.replayed.len();
    let (_, proc_stages) = pipeline.stage_counts();
    persist(
        store,
        &session_key,
        program,
        &hashes,
        &trace,
        &replay,
        proc_stages,
    );
    (reports, trace)
}

/// Appends `diags`, folding the file name (and the position, when
/// known) into each message in multi-file sessions, so renderings read
/// `file:line:col: message` with the file first. A one-file session
/// leaves them untouched: the CLI prefixes its one file name itself.
fn extend_tagged(out: &mut Vec<Diagnostic>, file: &str, diags: Vec<Diagnostic>, multi: bool) {
    for mut d in diags {
        if multi {
            d.message = if d.span.is_known() {
                format!("{file}:{}: {}", d.span, d.message)
            } else {
                format!("{file}: {}", d.message)
            };
            d.span = Span::none();
        }
        out.push(d);
    }
}

/// Links catalogs in CLI order, warning about every shadowed procedure
/// with both origins named. Earlier definitions win: the source files
/// first, then catalogs in the order given. `origin` maps each
/// already-present procedure to the file it came from.
fn link_catalogs(
    program: &mut Program,
    catalogs: &[Catalog],
    mut origin: Vec<(String, String)>,
    sink: &mut DiagnosticSink,
) {
    for catalog in catalogs {
        let report = catalog.link_into(program);
        for name in &report.shadowed {
            let earlier = origin
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, o)| o.as_str())
                .unwrap_or("an earlier definition");
            sink.warning(
                format!(
                    "procedure `{name}` from catalog `{}` is shadowed by {earlier}",
                    catalog.name
                ),
                Span::none(),
            );
        }
        for name in report.added {
            origin.push((name, format!("catalog `{}`", catalog.name)));
        }
    }
}

/// Turns the aggregate pass reports into user-facing remarks: which loops
/// defeated the vectorizer and why, and which fixpoint budgets ran out.
fn optimization_remarks(reports: &Reports, sink: &mut DiagnosticSink) {
    for note in &reports.vector.notes {
        sink.remark(note.clone(), Span::none());
    }
    if reports.constprop.budget_exhausted {
        sink.remark(
            format!(
                "constant propagation stopped at its {}-round budget; remaining \
                 opportunities were left to later passes",
                titanc_opt::constprop::MAX_ROUNDS
            ),
            Span::none(),
        );
    }
    if reports.dce.budget_exhausted {
        sink.remark(
            format!(
                "dead-code elimination stopped at its {}-round budget",
                titanc_opt::dce::MAX_ROUNDS
            ),
            Span::none(),
        );
    }
    if reports.ivsub.budget_exhausted {
        sink.remark(
            format!(
                "induction-variable substitution stopped at its {}-pass budget",
                titanc_opt::ivsub::MAX_PASSES
            ),
            Span::none(),
        );
    }
    if reports.inline.skipped_growth > 0 {
        sink.remark(
            format!(
                "{} call site(s) left unexpanded by the per-caller inline IL-growth budget",
                reports.inline.skipped_growth
            ),
            Span::none(),
        );
    }
}

/// Rewrites struct ids appearing in `ty` through `smap` (old TU-local
/// index → merged session index).
fn remap_type(ty: &mut Type, smap: &[usize]) {
    match ty {
        Type::Ptr(inner) => remap_type(inner, smap),
        Type::Array(inner, _) => remap_type(inner, smap),
        Type::Struct(sid) => {
            if let Some(&j) = smap.get(sid.index()) {
                *sid = StructId::from_index(j);
            }
        }
        Type::Void | Type::Char | Type::Int | Type::Float | Type::Double => {}
    }
}

/// Merges one lowered TU into the session program: struct layouts dedup
/// by tag against earlier files (ids remapped), globals merge by name,
/// duplicate procedures are diagnosed and dropped (earlier definitions
/// win), and in multi-file
/// sessions every span is tagged with its origin file so `--opt-report`
/// attributes loops to the right file.
fn merge_tu(
    program: &mut Program,
    tu: Program,
    file: &str,
    multi: bool,
    origin: &mut Vec<(String, String)>,
    sink: &mut DiagnosticSink,
) {
    let mut smap: Vec<usize> = Vec::with_capacity(tu.structs.len());
    let mut appended: Vec<usize> = Vec::new();
    // dedup against earlier files only: a TU's own table is what its
    // code was lowered against, repeated tags included
    let earlier = program.structs.len();
    for sd in &tu.structs {
        match program.structs[..earlier]
            .iter()
            .position(|s| s.name == sd.name)
        {
            Some(j) => {
                if program.structs[j].size != sd.size
                    || program.structs[j].fields.len() != sd.fields.len()
                {
                    sink.warning(
                        format!(
                            "struct `{}` in `{file}` differs from an earlier definition; \
                             using the first",
                            sd.name
                        ),
                        Span::none(),
                    );
                }
                smap.push(j);
            }
            None => {
                smap.push(program.structs.len());
                appended.push(program.structs.len());
                program.structs.push(sd.clone());
            }
        }
    }
    // newly appended layouts may reference other structs; remap their
    // field types once the whole map is known
    for &j in &appended {
        let mut fields = std::mem::take(&mut program.structs[j].fields);
        for f in &mut fields {
            remap_type(&mut f.ty, &smap);
        }
        program.structs[j].fields = fields;
    }

    // span retag map: the TU's own spans (tag 0) plus any tags it already
    // carries (a TU fresh from the front end has none, but be thorough)
    let mut tag_map: Vec<u32> = Vec::new();
    if multi {
        tag_map.push(program.intern_file(file));
        for f in &tu.files {
            tag_map.push(program.intern_file(f));
        }
    }

    for g in &tu.globals {
        let mut g = g.clone();
        remap_type(&mut g.ty, &smap);
        if let Some(existing) = program.global_by_name(&g.name) {
            if existing.ty != g.ty || existing.init != g.init {
                sink.warning(
                    format!(
                        "global `{}` in `{file}` differs from an earlier definition; \
                         using the first",
                        g.name
                    ),
                    Span::none(),
                );
            }
        } else {
            program.ensure_global(g);
        }
    }

    for mut p in tu.procs {
        if let Some((_, earlier)) = origin.iter().find(|(n, _)| *n == p.name) {
            sink.warning(
                format!(
                    "procedure `{}` in `{file}` is shadowed by the definition in {earlier}",
                    p.name
                ),
                Span::none(),
            );
            continue;
        }
        remap_type(&mut p.ret, &smap);
        for v in &mut p.vars {
            remap_type(&mut v.ty, &smap);
        }
        if multi {
            p.retag_spans(&tag_map);
        }
        origin.push((p.name.clone(), format!("`{file}`")));
        program.add_proc(p);
    }
}

/// Every option that can change generated code, flattened to a string
/// the hasher folds in. `jobs`, `snapshots`, `verify` and `max_errors`
/// are deliberately absent — they never change the output program.
fn options_fingerprint(options: &Options) -> String {
    format!(
        "opt={:?} inline={} depth={} callee={} growth={} parallel={} spread={} \
         aliasing={:?} strip={} maxvl={}",
        options.opt,
        options.inline,
        options.inline_opts.max_depth,
        options.inline_opts.max_callee_size,
        options.inline_opts.max_growth,
        options.parallelize,
        options.spread_lists,
        options.aliasing,
        options.strip,
        options.max_vl
    )
}

/// The shared program environment, hashed once: globals (an initializer
/// edit changes generated data without touching any body), the struct
/// table (layouts reach bodies through lowering and the passes), and
/// the file table (span origin tags feed `--opt-report`). This is the
/// **single** place the environment enters the cache — every per-proc
/// key folds it in, and the session key covers it through those keys —
/// so the manifest and per-procedure paths can never disagree about
/// what the environment is.
fn environment_hash(program: &Program) -> String {
    let mut h = StableHasher::new();
    h.write_str(&program.globals.to_json().to_string_compact());
    h.write_str(&program.structs.to_json().to_string_compact());
    h.write_str(&program.files.to_json().to_string_compact());
    h.finish().hex()
}

/// One stable content hash per procedure of the parsed program.
///
/// With inlining on, each key covers the procedure's *inline dependency
/// cone* ([`CallGraph::inline_cones`]): the arena encodings of itself
/// plus every transitive callee, in program order. The per-caller
/// `max_growth` budget keeps inline decisions local to each caller, so
/// nothing outside the cone (and the shared environment) can change the
/// procedure's post-inline IL — an edit invalidates exactly the edited
/// procedure and its cone consumers, not the whole program. `--no-inline`
/// sessions key each procedure on its own encoding alone.
fn proc_hashes(program: &Program, options: &Options, pipeline_fp: &str) -> Vec<StableHash> {
    let opts_fp = options_fingerprint(options);
    let env = environment_hash(program);
    let cones = options
        .inline
        .then(|| CallGraph::build(program).inline_cones(program));
    program
        .procs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut h = StableHasher::new();
            h.write_str(CACHE_FORMAT);
            h.write_str(&opts_fp);
            h.write_str(pipeline_fp);
            h.write_str(&env);
            h.write_str(&p.name);
            match &cones {
                // hash the arena columns directly — a linear byte sweep
                // instead of a JSON re-encode of each body. Cone members
                // are hashed in program order: the inliner's round loop
                // visits callers in that order, so relative position is
                // part of what determines the spliced code.
                Some(cones) => {
                    for &j in &cones[i] {
                        let m = &program.procs[j];
                        h.write_str(&m.name);
                        titanc_il::write_proc(&mut h, m);
                    }
                }
                None => titanc_il::write_proc(&mut h, p),
            }
            h.finish()
        })
        .collect()
}

/// The whole session's key: the per-procedure keys in program order.
/// Each of those keys already folds in [`environment_hash`], so the
/// manifest invalidates whenever any body, cone member, or environment
/// detail changes — without hashing the environment a second time that
/// could drift out of sync with the per-procedure keys.
fn session_hash(
    program: &Program,
    options: &Options,
    pipeline_fp: &str,
    hashes: &[StableHash],
) -> StableHash {
    let mut h = StableHasher::new();
    h.write_str(CACHE_FORMAT);
    h.write_str(&options_fingerprint(options));
    h.write_str(pipeline_fp);
    for (p, ph) in program.procs.iter().zip(hashes) {
        h.write_str(&p.name);
        h.write_str(&ph.hex());
    }
    h.finish()
}

/// One per-procedure cache entry: `ENTRY_VERSION` (8 bytes, little
/// endian), the length (8 bytes) of the compacted procedure encoding,
/// that encoding, then the recorded cells as JSON text.
fn encode_entry(proc: &Procedure, cells: &[RecordedCell]) -> Vec<u8> {
    let il = titanc_il::encode_proc(proc);
    let cells = Json::Arr(cells.iter().map(ToJson::to_json).collect()).to_string_compact();
    let mut out = Vec::with_capacity(16 + il.len() + cells.len());
    out.extend_from_slice(&ENTRY_VERSION.to_le_bytes());
    out.extend_from_slice(&(il.len() as u64).to_le_bytes());
    out.extend_from_slice(&il);
    out.extend_from_slice(cells.as_bytes());
    out
}

/// Splits an entry into its procedure section and its cell text. `None`
/// for another entry version or a length that overruns the payload.
fn split_entry(payload: &[u8]) -> Option<(&[u8], &[u8])> {
    let (version, rest) = payload.split_first_chunk::<8>()?;
    if i64::from_le_bytes(*version) != ENTRY_VERSION {
        return None;
    }
    let (len, rest) = rest.split_first_chunk::<8>()?;
    let len = usize::try_from(u64::from_le_bytes(*len)).ok()?;
    (len <= rest.len()).then(|| rest.split_at(len))
}

fn decode_cells(text: &[u8]) -> Option<Vec<RecordedCell>> {
    let doc = titanc_il::json::parse(std::str::from_utf8(text).ok()?).ok()?;
    Vec::from_json(&doc).ok()
}

/// One aggregate pass record in the session manifest (a serializable
/// [`PassRecord`] minus the wall-clock duration).
struct ManifestRecord {
    name: String,
    delta: Reports,
    changed: bool,
    cache: crate::CacheStats,
    skipped: u64,
    faulted: u64,
}

titanc_il::struct_json!(
    ManifestRecord,
    [name, delta, changed, cache, skipped, faulted]
);

/// The session manifest: everything a fully warm run needs beyond the
/// per-procedure entries.
struct Manifest {
    version: i64,
    records: Vec<ManifestRecord>,
    globals: Vec<VarInfo>,
    structs: Vec<StructDef>,
    files: Vec<String>,
}

titanc_il::struct_json!(Manifest, [version, records, globals, structs, files]);

fn entry_name(hash: &StableHash) -> String {
    format!("{}.bin", hash.hex())
}

fn manifest_name(key: &StableHash) -> String {
    format!("session-{}.json", key.hex())
}

/// The key pointer of procedure `name`. Named by a hash of the name, with
/// its own `.key` extension: a warm run never reads pointers, and format
/// detection looks only at `*.json` and `*.bin` files.
fn pointer_name(name: &str) -> String {
    let mut h = StableHasher::new();
    h.write_str(name);
    format!("{}.key", h.finish().hex())
}

/// Surfaces the store's degradations as warnings — a format-skewed
/// directory compiling cold, quarantined corruption, write failures.
/// One line per kind, however many files were involved; a cache problem
/// is loud but never fatal.
fn store_diagnostics(store: &CacheStore, sink: &mut DiagnosticSink) {
    if let Some(msg) = store.format_warning() {
        sink.warning(msg.to_string(), Span::none());
    }
    if store.stats.corrupt > 0 {
        sink.warning(
            format!(
                "{} corrupt cache file(s) detected ({} quarantined); the affected \
                 procedures were recompiled cold",
                store.stats.corrupt, store.stats.quarantined
            ),
            Span::none(),
        );
    }
    if store.stats.write_failed > 0 {
        sink.warning(
            format!(
                "{} cache write(s) failed ({}); compilation output is unaffected",
                store.stats.write_failed,
                store.first_write_error().unwrap_or("unknown error")
            ),
            Span::none(),
        );
    }
}

/// Copies the store's durability counters onto the session accounting.
fn fold_store_stats(store: &CacheStore, stats: &mut SessionStats) {
    stats.corrupt = store.stats.corrupt;
    stats.quarantined = store.stats.quarantined;
    stats.write_failed = store.stats.write_failed;
}

/// Loads and validates one entry; any failure is a miss. A missing file
/// is a plain (cold) miss; a file that read but failed its checksum,
/// version, decode, name, or — crucially — the IL verifier is
/// quarantined so the bad bytes are never trusted or re-read. The
/// recorded cells are decoded only `with_cells`: a fully warm run
/// replays none, so it leaves them as bytes.
fn load_entry(
    store: &mut CacheStore,
    hash: &StableHash,
    name: &str,
    with_cells: bool,
) -> Option<(Procedure, Vec<RecordedCell>)> {
    let file = entry_name(hash);
    let payload = store.read(&file)?;
    let decoded = split_entry(&payload).and_then(|(il, cells)| {
        let proc = titanc_il::read_proc(il)
            .ok()
            .filter(|p| p.name == name && verify_proc_check(p).is_ok())?;
        let cells = if with_cells {
            decode_cells(cells)?
        } else {
            Vec::new()
        };
        Some((proc, cells))
    });
    if decoded.is_none() {
        store.quarantine(&file);
    }
    decoded
}

/// Reconstructs a fully warm compilation: the program from the manifest
/// environment plus per-procedure entries, the trace records with zero
/// durations, and the aggregate reports re-merged from the per-pass
/// deltas. `None` on any mismatch — the caller compiles for real.
fn load_full_warm(
    store: &mut CacheStore,
    key: &StableHash,
    program: &Program,
    hashes: &[StableHash],
    pipeline: &Pipeline,
) -> Option<(Program, Reports, PassTrace)> {
    let file = manifest_name(key);
    let payload = store.read(&file)?;
    let manifest = std::str::from_utf8(&payload)
        .ok()
        .and_then(|text| titanc_il::json::parse(text).ok())
        .and_then(|doc| Manifest::from_json(&doc).ok())
        .filter(|m| m.version == ENTRY_VERSION);
    let Some(manifest) = manifest else {
        // checksum passed but the payload does not decode: quarantine
        store.quarantine(&file);
        return None;
    };
    let names = pipeline.pass_names();
    if manifest.records.len() != names.len() {
        return None;
    }
    let mut reports = Reports::default();
    let mut trace = PassTrace::default();
    for (i, rec) in manifest.records.into_iter().enumerate() {
        // the replayed record borrows the pipeline's static pass name;
        // the fingerprint in the key guarantees the sequences agree
        if rec.name != names[i] {
            return None;
        }
        reports.merge(rec.delta.clone());
        trace.records.push(PassRecord {
            name: names[i],
            duration: Duration::ZERO,
            delta: rec.delta,
            changed: rec.changed,
            cache: rec.cache,
            skipped_procs: rec.skipped as usize,
            faulted_procs: rec.faulted as usize,
        });
    }
    let mut procs = Vec::with_capacity(program.procs.len());
    for (p, h) in program.procs.iter().zip(hashes) {
        let (il, _) = load_entry(store, h, &p.name, false)?;
        procs.push(il);
    }
    Some((
        Program {
            procs,
            globals: manifest.globals,
            structs: manifest.structs,
            files: manifest.files,
        },
        reports,
        trace,
    ))
}

/// Persists the run through the hardened store: per-procedure entries
/// for cleanly compiled misses, each followed by its key pointer, then
/// the session manifest when every procedure is covered.
///
/// Nothing here needs a lock. Entries and the manifest are
/// content-addressed, so concurrent sessions writing one name write
/// identical bytes and the last rename wins harmlessly. A pointer is
/// published only after its entry, so every value it can hold names a
/// published key, and the last writer wins safely there too. The
/// session key was computed on the parsed program, which is exactly
/// what the next invocation hashes before running any pass.
fn persist(
    store: &mut CacheStore,
    session_key: &StableHash,
    program: &Program,
    hashes: &[StableHash],
    trace: &PassTrace,
    replay: &SessionReplay,
    proc_stages: usize,
) {
    if !store.enabled() || trace.has_incidents() || program.procs.len() != hashes.len() {
        // a degraded program must never be served from the cache, and a
        // pass that changed the procedure count leaves the keys stale
        return;
    }
    let mut all_cached = true;
    for (p, h) in program.procs.iter().zip(hashes) {
        if replay.replayed.contains(&p.name) {
            continue;
        }
        match replay.recorded.get(&p.name) {
            Some(cells) if cells.len() == proc_stages && !replay.uncacheable.contains(&p.name) => {
                if store.publish(&entry_name(h), &encode_entry(p, cells)) {
                    store.publish(&pointer_name(&p.name), h.hex().as_bytes());
                } else {
                    all_cached = false;
                }
            }
            _ => all_cached = false,
        }
    }
    let healthy = trace
        .records
        .iter()
        .all(|r| r.skipped_procs == 0 && r.faulted_procs == 0);
    if all_cached && healthy {
        let records = trace
            .records
            .iter()
            .map(|r| ManifestRecord {
                name: r.name.to_string(),
                delta: r.delta.clone(),
                changed: r.changed,
                cache: r.cache,
                skipped: r.skipped_procs as u64,
                faulted: r.faulted_procs as u64,
            })
            .collect();
        let manifest = Manifest {
            version: ENTRY_VERSION,
            records,
            globals: program.globals.clone(),
            structs: program.structs.clone(),
            files: program.files.clone(),
        };
        store.publish(
            &manifest_name(session_key),
            manifest.to_json().to_string_compact().as_bytes(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::OptReport;

    const SRC: &str = "float a[64], b[64];\n\
        void f(void) { int i; for (i = 0; i < 64; i++) a[i] = a[i] + b[i]; }\n\
        void g(void) { int i; for (i = 0; i < 64; i++) b[i] = 2.0f * b[i]; }\n\
        int main(void) { f(); g(); return 0; }\n";

    fn il_text(sc: &SessionCompilation) -> String {
        let procs = &sc.compilation.program.procs;
        procs.iter().map(titanc_il::pretty_proc).collect()
    }

    fn report_json(sc: &SessionCompilation) -> String {
        let c = &sc.compilation;
        OptReport::build_for(&c.reports, &c.trace, &c.program.files)
            .to_json()
            .to_string_compact()
    }

    /// A damaged key pointer is corruption like any other cache file: it
    /// is quarantined, the miss it was read for counts as cold rather
    /// than invalidated, and the output matches a no-cache compile.
    #[test]
    fn a_damaged_pointer_is_quarantined_and_its_miss_counts_cold() {
        let dir = std::env::temp_dir().join(format!("titanc-pointer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut options = Options::o2();
        options.inline = false; // the edit then misses `f` alone
        let compile = |src: &str, dir: Option<&Path>| {
            compile_session(&[SourceFile::new("t.c", src)], &options, dir).expect("compiles")
        };
        compile(SRC, Some(&dir));

        let pointer = dir.join(pointer_name("f"));
        let mut bytes = std::fs::read(&pointer).expect("`f` has a key pointer");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&pointer, &bytes).unwrap();

        let edited = SRC.replace("a[i] + b[i]", "a[i] - b[i]");
        let warm = compile(&edited, Some(&dir));
        let fresh = compile(&edited, None);
        assert_eq!(il_text(&fresh), il_text(&warm));
        assert_eq!(report_json(&fresh), report_json(&warm));
        assert_eq!((warm.stats.corrupt, warm.stats.quarantined), (1, 1));
        assert_eq!((warm.stats.misses, warm.stats.invalidated), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
