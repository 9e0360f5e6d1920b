//! End-to-end tests for multi-file sessions and the persistent
//! compilation cache: warm runs are byte-identical to cold runs and to
//! every `-j` value, a fully warm run executes zero optimization
//! passes, `--no-inline` sessions invalidate per procedure, inlining
//! sessions invalidate the edited procedure's dependency cone only,
//! duplicate definitions are diagnosed with both origins named, and
//! origin-tagged spans attribute loops to the file they were written
//! in.

use std::path::PathBuf;

use titanc_repro::titanc::{compile_session, OptReport, Options, SessionCompilation, SourceFile};

/// A fresh per-test cache directory under the target dir (parallel test
/// threads must not share one).
fn cache_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/test-caches"))
        .join(format!("{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus(name: &str) -> SourceFile {
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus")).join(name);
    SourceFile::new(
        format!("corpus/{name}"),
        std::fs::read_to_string(path).expect("corpus file"),
    )
}

const LIB_SRC: &str = "\
float buf[64];
void fill(int n, float v)
{
    int i;
    for (i = 0; i < n; i++)
        buf[i] = v;
}
";

const MAIN_SRC: &str = "\
int total;
int main(void)
{
    int i;
    total = 0;
    for (i = 0; i < 32; i++)
        total = total + i;
    return total;
}
";

fn opt_report_json(sc: &SessionCompilation) -> String {
    OptReport::build_for(
        &sc.compilation.reports,
        &sc.compilation.trace,
        &sc.compilation.program.files,
    )
    .to_json()
    .to_string_compact()
}

fn il_text(sc: &SessionCompilation) -> String {
    sc.compilation
        .program
        .procs
        .iter()
        .map(titanc_il::pretty_proc)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Acceptance: the warm run is byte-identical to the cold run — same
/// optimized IL, same `--opt-report=json` — while executing **zero**
/// optimization passes.
#[test]
fn warm_run_is_byte_identical_and_runs_no_passes() {
    let dir = cache_dir("warm-identical");
    let files = [corpus("daxpy.c"), corpus("blaslib.c")];
    let options = Options::o2();

    let cold = compile_session(&files, &options, Some(&dir)).expect("cold compile");
    assert!(cold.stats.hits == 0 && cold.stats.misses > 0 && !cold.stats.full_warm);
    assert!(cold.stats.passes_executed > 0);

    let warm = compile_session(&files, &options, Some(&dir)).expect("warm compile");
    assert!(warm.stats.full_warm, "second run should be fully warm");
    assert_eq!(warm.stats.passes_executed, 0, "warm run must run no passes");
    assert_eq!(warm.stats.hits, warm.compilation.program.procs.len());

    assert_eq!(il_text(&cold), il_text(&warm), "optimized IL must match");
    assert_eq!(
        opt_report_json(&cold),
        opt_report_json(&warm),
        "opt report must be byte-identical cold vs warm"
    );
    assert_eq!(
        cold.compilation.diagnostics.len(),
        warm.compilation.diagnostics.len(),
        "remarks must replay on warm runs"
    );
}

/// The warm run is also byte-identical across `-j` values, preserving
/// the PR 2 invariant through the cache.
#[test]
fn warm_run_is_byte_identical_across_jobs() {
    let dir = cache_dir("warm-jobs");
    let files = [corpus("daxpy.c"), corpus("backsolve.c")];
    let mut options = Options::o2();
    options.jobs = 1;
    let cold = compile_session(&files, &options, Some(&dir)).expect("cold compile");
    options.jobs = 4;
    let warm = compile_session(&files, &options, Some(&dir)).expect("warm compile");
    assert!(warm.stats.full_warm);
    assert_eq!(il_text(&cold), il_text(&warm));
    assert_eq!(opt_report_json(&cold), opt_report_json(&warm));
}

/// With inlining off the growth budget no longer couples procedures, so
/// editing one procedure invalidates exactly that procedure.
#[test]
fn no_inline_sessions_invalidate_per_procedure() {
    let dir = cache_dir("per-proc");
    let mut options = Options::o2();
    options.inline = false;
    let a = SourceFile::new("a.c", MAIN_SRC);
    let b = SourceFile::new("b.c", LIB_SRC);

    let cold =
        compile_session(&[a.clone(), b.clone()], &options, Some(&dir)).expect("cold compile");
    let n = cold.compilation.program.procs.len();
    assert_eq!(cold.stats.misses, n);

    // edit `fill` only: `main` must stay cached
    let b2 = SourceFile::new("b.c", LIB_SRC.replace("buf[i] = v;", "buf[i] = v + 1.0;"));
    let warm = compile_session(&[a, b2], &options, Some(&dir)).expect("edited compile");
    assert_eq!(warm.stats.hits, n - 1, "unchanged procedures must hit");
    assert_eq!(warm.stats.misses, 1, "only the edited procedure recompiles");
    assert_eq!(
        warm.stats.invalidated, 1,
        "the edit is an invalidation, not a cold miss"
    );
    assert!(!warm.stats.full_warm);
}

/// With inlining on, an edit invalidates exactly the procedures whose
/// inline dependency cone contains the edited procedure — callers that
/// can splice its body — while unrelated procedures stay warm.
#[test]
fn inline_sessions_invalidate_the_dependency_cone() {
    let dir = cache_dir("cone");
    let options = Options::o2();
    // `reset` calls `fill`; `main` calls neither.
    let lib_with_caller = format!("{LIB_SRC}void reset(void)\n{{\n    fill(64, 0.0);\n}}\n");
    let a = SourceFile::new("a.c", MAIN_SRC);
    let b = SourceFile::new("b.c", lib_with_caller.clone());
    let cold = compile_session(&[a.clone(), b], &options, Some(&dir)).expect("cold compile");
    assert_eq!(cold.stats.misses, 3, "main, fill, reset all compile cold");

    // edit `fill` only: its cone consumers are itself and `reset`
    let edited = lib_with_caller.replace("buf[i] = v;", "buf[i] = v + 1.0;");
    let b2 = SourceFile::new("b.c", edited);
    let warm =
        compile_session(&[a.clone(), b2.clone()], &options, Some(&dir)).expect("edited compile");
    assert_eq!(warm.stats.hits, 1, "main does not call fill and stays warm");
    assert_eq!(warm.stats.misses, 2, "fill and its caller reset recompile");
    assert_eq!(warm.stats.invalidated, 2, "both misses are invalidations");
    assert!(!warm.stats.full_warm);

    // the cone-scoped warm compile is byte-identical to a from-scratch one
    let fresh = compile_session(&[a, b2], &options, None).expect("reference compile");
    assert_eq!(il_text(&fresh), il_text(&warm));
    assert_eq!(opt_report_json(&fresh), opt_report_json(&warm));
}

/// Regression: the environment fingerprint rides in every per-procedure
/// key, so editing a global reaches procedures whose own text is
/// untouched — even with inlining off, where no cone links them.
#[test]
fn global_edits_miss_every_procedure_without_inlining() {
    let dir = cache_dir("global-edit");
    let mut options = Options::o2();
    options.inline = false;
    let a = SourceFile::new("a.c", MAIN_SRC);
    let b = SourceFile::new("b.c", LIB_SRC);
    let cold = compile_session(&[a.clone(), b], &options, Some(&dir)).expect("cold compile");
    let n = cold.compilation.program.procs.len();

    // grow `buf`: no procedure body changes, but the layout every
    // procedure was optimized against does
    let b2 = SourceFile::new("b.c", LIB_SRC.replace("buf[64]", "buf[96]"));
    let warm =
        compile_session(&[a.clone(), b2.clone()], &options, Some(&dir)).expect("edited compile");
    assert_eq!(warm.stats.hits, 0, "a global edit must reach every key");
    assert_eq!(warm.stats.misses, n);

    let fresh = compile_session(&[a, b2], &options, None).expect("reference compile");
    assert_eq!(il_text(&fresh), il_text(&warm));
    assert_eq!(opt_report_json(&fresh), opt_report_json(&warm));
}

/// Duplicate procedure definitions keep the first (CLI order) and name
/// both origins in the warning.
#[test]
fn duplicate_procedures_warn_with_both_origins() {
    let first = SourceFile::new("one.c", "int f(void) { return 1; }\n");
    let second = SourceFile::new(
        "two.c",
        "int f(void) { return 2; }\nint g(void) { return f(); }\n",
    );
    let sc = compile_session(&[first, second], &Options::o2(), None).expect("compiles");
    let warning = sc
        .compilation
        .diagnostics
        .iter()
        .find(|d| d.message.contains("shadowed"))
        .expect("expected a shadow warning");
    assert!(
        warning.message.contains("`f`")
            && warning.message.contains("two.c")
            && warning.message.contains("one.c"),
        "warning must name the procedure and both origins: {}",
        warning.message
    );
    // first definition wins: g() returns 1 through the kept f()
    let sim = titanc_repro::titan::Simulator::new(
        &sc.compilation.program,
        titanc_repro::titan::MachineConfig::optimized(1),
    );
    let mut sim = sim;
    let result = sim.run("g", &[]).expect("g runs");
    assert_eq!(result.value.expect("g returns").as_int(), 1);
}

/// Catalog procedures shadowed by the TU (or an earlier catalog) are
/// diagnosed too — previously `Catalog::link_into` dropped them
/// silently.
#[test]
fn shadowed_catalog_procedures_are_diagnosed() {
    let lib = compile_session(&[SourceFile::new("lib.c", LIB_SRC)], &Options::o2(), None)
        .expect("lib compiles");
    let catalog = titanc_il::Catalog::from_program("libcat", &lib.compilation.program);
    let mut options = Options::o2();
    options.catalogs.push(catalog);
    // the TU defines `fill` as well: the TU definition must win, with a
    // warning naming the catalog
    let src = format!("{LIB_SRC}{MAIN_SRC}");
    let sc = compile_session(&[SourceFile::new("app.c", src)], &options, None).expect("compiles");
    let warning = sc
        .compilation
        .diagnostics
        .iter()
        .find(|d| d.message.contains("shadowed"))
        .expect("expected a catalog shadow warning");
    assert!(
        warning.message.contains("`fill`") && warning.message.contains("libcat"),
        "warning must name the procedure and the catalog: {}",
        warning.message
    );
}

/// Loops merged from another TU report against their origin file, not
/// the consumer's line numbers.
#[test]
fn opt_report_attributes_loops_to_their_origin_file() {
    let a = SourceFile::new("main.c", MAIN_SRC);
    let b = SourceFile::new("lib.c", LIB_SRC);
    let sc = compile_session(&[a, b], &Options::o2(), None).expect("compiles");
    let report = OptReport::build_for(
        &sc.compilation.reports,
        &sc.compilation.trace,
        &sc.compilation.program.files,
    );
    let rendered = report.render();
    assert!(
        rendered.contains("lib.c:5:"),
        "fill's loop must be attributed to lib.c line 5:\n{rendered}"
    );
    assert!(
        rendered.contains("main.c:6:"),
        "main's loop must be attributed to main.c line 6:\n{rendered}"
    );
    let json = report.to_json().to_string_compact();
    assert!(json.contains("\"file\":\"lib.c\""), "{json}");
}

/// Several sessions racing into one cache directory stay byte-identical
/// to a no-cache compile, and the directory they leave behind is a
/// consistent, fully warm cache — every file is published by atomic
/// rename, so no interleaving can tear one.
#[test]
fn concurrent_sessions_share_one_directory_safely() {
    let dir = cache_dir("concurrent");
    let files = [corpus("daxpy.c"), corpus("blaslib.c")];
    let options = Options::o2();
    let reference = compile_session(&files, &options, None).expect("reference compile");

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let (dir, files, options) = (&dir, &files, &options);
                scope.spawn(move || {
                    compile_session(files, options, Some(dir)).expect("racing compile")
                })
            })
            .collect();
        for h in handles {
            let sc = h.join().expect("racing session must not panic");
            assert_eq!(il_text(&reference), il_text(&sc));
            assert_eq!(opt_report_json(&reference), opt_report_json(&sc));
            assert_eq!(sc.stats.corrupt, 0, "a race is not corruption");
        }
    });

    // whatever interleaving happened, the survivors form a complete,
    // consistent cache: the next run is fully warm and clean
    let warm = compile_session(&files, &options, Some(&dir)).expect("warm compile");
    assert!(
        warm.stats.full_warm,
        "racing sessions must leave a fully warm cache"
    );
    assert_eq!(warm.stats.invalidated, 0, "no phantom invalidations");
    assert_eq!(warm.stats.corrupt, 0, "no corruption from the race");
    assert_eq!(il_text(&reference), il_text(&warm));
    assert_eq!(opt_report_json(&reference), opt_report_json(&warm));
}

const DISJOINT_SRC: &str = "\
float a[64], b[64];
void f(void)
{
    int i;
    for (i = 0; i < 64; i++)
        a[i] = a[i] + F;
}
void g(void)
{
    int i;
    for (i = 0; i < 64; i++)
        b[i] = b[i] * G;
}
int main(void)
{
    f();
    g();
    return 0;
}
";

/// `DISJOINT_SRC` with the constants of `f` and `g` filled in.
fn disjoint(f: &str, g: &str) -> [SourceFile; 1] {
    [SourceFile::new(
        "disjoint.c",
        DISJOINT_SRC.replace('F', f).replace('G', g),
    )]
}

/// Two sessions on one fresh directory, each editing a different
/// procedure of the same program, publish concurrently. Neither may
/// lose the other's record of a name: a later edit of either procedure
/// still counts as `invalidated`, not as a cold miss.
#[test]
fn racing_disjoint_edits_keep_invalidation_accounting() {
    let mut options = Options::o2();
    options.inline = false; // each edit then misses exactly one procedure
    for round in 0..4 {
        let dir = cache_dir(&format!("disjoint-{round}"));
        std::thread::scope(|scope| {
            let (dir, options) = (&dir, &options);
            let racers = [
                scope.spawn(move || compile_session(&disjoint("1.5f", "2.0f"), options, Some(dir))),
                scope.spawn(move || compile_session(&disjoint("1.0f", "2.5f"), options, Some(dir))),
            ];
            for racer in racers {
                racer
                    .join()
                    .expect("racing session must not panic")
                    .expect("racing compile");
            }
        });

        for (edit, files) in [
            ("f", disjoint("3.5f", "2.0f")),
            ("g", disjoint("1.0f", "4.5f")),
        ] {
            let sc = compile_session(&files, &options, Some(&dir)).expect("edit compile");
            assert_eq!(
                (sc.stats.misses, sc.stats.invalidated, sc.stats.corrupt),
                (1, 1, 0),
                "round {round}: editing `{edit}` after the race must count it invalidated"
            );
            let reference = compile_session(&files, &options, None).expect("reference compile");
            assert_eq!(il_text(&reference), il_text(&sc));
            assert_eq!(opt_report_json(&reference), opt_report_json(&sc));
        }
    }
}

/// A cache directory written by a pre-v3 compiler (entries on disk, no
/// `FORMAT` marker) is refused cleanly: the compile succeeds cold with
/// exactly one explanatory remark, and the old files are left exactly
/// as they were — never adopted, rewritten, or quarantined.
#[test]
fn v2_era_cache_dirs_fall_back_cold_with_one_remark() {
    let dir = cache_dir("v2-era");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let stale_index = r#"{"procs":{"main":"00ff"}}"#;
    std::fs::write(dir.join("index.json"), stale_index).expect("seed v2 index");
    std::fs::write(dir.join("0123abcd.json"), "{\"version\":0}").expect("seed v2 entry");

    let files = [corpus("daxpy.c"), corpus("blaslib.c")];
    let reference = compile_session(&files, &Options::o2(), None).expect("reference compile");
    let sc = compile_session(&files, &Options::o2(), Some(&dir)).expect("v2 dir must not error");

    assert_eq!(sc.stats.hits, 0, "a refused directory cannot serve hits");
    assert!(!sc.stats.full_warm);
    assert_eq!(il_text(&reference), il_text(&sc));
    assert_eq!(opt_report_json(&reference), opt_report_json(&sc));

    let remarks: Vec<_> = sc
        .compilation
        .diagnostics
        .iter()
        .filter(|d| d.message.contains("predates"))
        .collect();
    assert_eq!(
        remarks.len(),
        1,
        "exactly one format-skew remark: {:?}",
        sc.compilation
            .diagnostics
            .iter()
            .map(|d| &d.message)
            .collect::<Vec<_>>()
    );

    assert!(
        !dir.join("FORMAT").exists(),
        "a refused directory must not be adopted"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("index.json")).expect("index survives"),
        stale_index,
        "the v2 files must be untouched"
    );
    assert!(dir.join("0123abcd.json").exists());

    // a later run behaves the same way — refusal is stable, not sticky
    // state that decays into an error
    let again = compile_session(&files, &Options::o2(), Some(&dir)).expect("still compiles");
    assert_eq!(again.stats.hits, 0);
    assert_eq!(il_text(&reference), il_text(&again));
}

/// A directory written by the v3 format — whole-program inline keys,
/// pre-site-ordinal events — carries a marker naming the old version
/// and is refused the same way: one remark, cold compile, files
/// untouched.
#[test]
fn v3_era_cache_dirs_fall_back_cold_with_one_remark() {
    let dir = cache_dir("v3-era");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("FORMAT"), "titanc-cache-v3").expect("seed v3 marker");
    std::fs::write(dir.join("0123abcd.json"), "titanc-cache-v3 00ff\n{}").expect("seed v3 entry");

    let files = [corpus("daxpy.c"), corpus("blaslib.c")];
    let reference = compile_session(&files, &Options::o2(), None).expect("reference compile");
    let sc = compile_session(&files, &Options::o2(), Some(&dir)).expect("v3 dir must not error");

    assert_eq!(sc.stats.hits, 0, "a refused directory cannot serve hits");
    assert!(!sc.stats.full_warm);
    assert_eq!(il_text(&reference), il_text(&sc));
    assert_eq!(opt_report_json(&reference), opt_report_json(&sc));

    let remarks: Vec<_> = sc
        .compilation
        .diagnostics
        .iter()
        .filter(|d| d.message.contains("titanc-cache-v3"))
        .collect();
    assert_eq!(
        remarks.len(),
        1,
        "exactly one format-skew remark: {:?}",
        sc.compilation
            .diagnostics
            .iter()
            .map(|d| &d.message)
            .collect::<Vec<_>>()
    );

    assert_eq!(
        std::fs::read_to_string(dir.join("FORMAT")).expect("marker survives"),
        "titanc-cache-v3",
        "the refused marker must not be rewritten"
    );
    assert!(dir.join("0123abcd.json").exists(), "old entries untouched");
}

/// A directory written by the v4 format — JSON `<key>.json` entries —
/// carries a marker naming the old version and is refused the same way:
/// one remark, cold compile, and every foreign file left byte for byte.
#[test]
fn v4_era_cache_dirs_fall_back_cold_with_one_remark() {
    let dir = cache_dir("v4-era");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let seeded = [
        ("FORMAT", "titanc-cache-v4\n"),
        ("0123abcd.json", "titanc-cache-v4 00ff\n{\"version\":1}"),
        ("session-4567.json", "titanc-cache-v4 00ff\n{\"version\":1}"),
        ("89ab.key", "titanc-cache-v4 00ff\n0123abcd"),
    ];
    for (name, text) in seeded {
        std::fs::write(dir.join(name), text).expect("seed v4 file");
    }

    let files = [corpus("daxpy.c"), corpus("blaslib.c")];
    let reference = compile_session(&files, &Options::o2(), None).expect("reference compile");
    let sc = compile_session(&files, &Options::o2(), Some(&dir)).expect("v4 dir must not error");

    assert_eq!(sc.stats.hits, 0, "a refused directory cannot serve hits");
    assert!(!sc.stats.full_warm);
    assert_eq!(il_text(&reference), il_text(&sc));
    assert_eq!(opt_report_json(&reference), opt_report_json(&sc));

    let remarks: Vec<_> = sc
        .compilation
        .diagnostics
        .iter()
        .filter(|d| d.message.contains("titanc-cache-v4"))
        .collect();
    assert_eq!(
        remarks.len(),
        1,
        "exactly one format-skew remark: {:?}",
        sc.compilation
            .diagnostics
            .iter()
            .map(|d| &d.message)
            .collect::<Vec<_>>()
    );

    for (name, text) in seeded {
        assert_eq!(
            std::fs::read_to_string(dir.join(name)).expect("foreign file survives"),
            text,
            "`{name}` must be left untouched"
        );
    }
    let mut left: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(
        left,
        ["0123abcd.json", "89ab.key", "FORMAT", "session-4567.json"],
        "nothing written, nothing quarantined"
    );
}

/// `keep_parsed` snapshots the program before any pass runs — the §7
/// catalog payload.
#[test]
fn keep_parsed_snapshots_the_pre_pipeline_program() {
    let mut options = Options::o2();
    options.keep_parsed = true;
    let sc = compile_session(&[corpus("daxpy.c")], &options, None).expect("compiles");
    let parsed = sc.compilation.parsed.as_ref().expect("parsed snapshot");
    assert_ne!(
        parsed, &sc.compilation.program,
        "the parsed snapshot must predate optimization"
    );
    // the snapshot still has the un-inlined call; the optimized main
    // does not (daxpy was expanded into it)
    let parsed_main = parsed.proc_by_name("main").expect("parsed main");
    let opt_main = sc.compilation.program.proc_by_name("main").expect("main");
    let calls = |p: &titanc_il::Procedure| titanc_il::pretty_proc(p).contains("daxpy(");
    assert!(calls(parsed_main), "parsed main still calls daxpy");
    assert!(!calls(opt_main), "optimized main has daxpy inlined away");
}
