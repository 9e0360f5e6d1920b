//! One compile driver: `compile` is a one-file session, and a one-shot
//! `titanc` prints the same bytes with or without a cache directory
//! (apart from the `titanc: cache:` accounting line).

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use titanc::server::{il_block, opt_report_block};
use titanc::{compile, compile_session, Compilation, Options, SourceFile};
use titanc_il::json::ToJson;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("titanc-one-driver-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Everything a compile renders: IL, opt report, stats and diagnostics.
fn rendered(c: &Compilation) -> [String; 4] {
    [
        il_block(&c.program),
        opt_report_block(c, true),
        c.reports.to_json().to_string_compact(),
        format!("{:?}", c.diagnostics),
    ]
}

#[test]
fn compile_equals_a_one_file_session_for_every_corpus_file() {
    let mut files: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    assert!(files.len() >= 7, "corpus went missing");
    for path in files {
        let src = fs::read_to_string(&path).unwrap();
        for options in [Options::o0(), Options::o2(), Options::parallel()] {
            let file = SourceFile::new(path.display().to_string(), src.clone());
            let session = compile_session(&[file], &options, None).expect("session compiles");
            let direct = compile(&src, &options).expect("compiles");
            assert_eq!(
                rendered(&direct),
                rendered(&session.compilation),
                "{} at {:?}",
                path.display(),
                options.opt
            );
        }
    }
}

/// A catalog procedure shadowed by the source file: the warning and the
/// "lower" snapshot (taken after catalog linking) used to differ between
/// a run with a cache directory and one without.
#[test]
fn a_cache_directory_changes_nothing_but_the_cache_line() {
    let dir = scratch();
    let titanc = || Command::new(env!("CARGO_BIN_EXE_titanc"));
    let catalog = dir.join("blas.cat");
    let emitted = titanc()
        .arg("--emit-catalog")
        .arg(&catalog)
        .arg(corpus_dir().join("blaslib.c"))
        .output()
        .unwrap();
    assert!(emitted.status.success(), "{emitted:?}");
    let shadow = dir.join("shadow.c");
    fs::write(
        &shadow,
        "float x[64], y[64];\n\
         void blas_copy(float *dst, float *src, int n)\n\
         { int i; for (i = 0; i < n; i++) dst[i] = src[i]; }\n\
         int main(void) { blas_copy(x, y, 64); return 0; }\n",
    )
    .unwrap();
    let run = |cache: bool| -> Output {
        let mut cmd = titanc();
        cmd.arg("--catalog").arg(&catalog);
        cmd.args(["--snapshots", "-O0", "--no-inline"]);
        if cache {
            cmd.arg("--cache-dir").arg(dir.join("cache"));
        }
        cmd.arg(&shadow).output().unwrap()
    };
    let plain = run(false);
    let cached = run(true);
    let stderr = |out: &Output| -> String {
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .filter(|l| !l.starts_with("titanc: cache:"))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    assert_eq!(plain.status.code(), Some(0), "{}", stderr(&plain));
    assert!(
        stderr(&plain).contains("is shadowed by"),
        "{}",
        stderr(&plain)
    );
    assert_eq!(stderr(&plain), stderr(&cached));
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&cached.stdout)
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A file that repeats a struct tag keeps its own layout table: the
/// merge dedups tags only against earlier files. Deduping within the
/// file shrank `g` to the first layout while its code addressed the
/// second.
#[test]
fn a_repeated_struct_tag_keeps_the_files_own_layouts() {
    let src = "struct s { int a; };\nstruct s { int b; int c; };\nstruct s g;\n\
               int main(void) { g.c = 3; return g.c; }\n";
    let file = SourceFile::new("dup.c", src);
    let sc = compile_session(&[file], &Options::o0(), None).expect("compiles");
    let c = &sc.compilation;
    assert_eq!(c.program.structs.len(), 2);
    assert!(
        c.diagnostics.iter().all(|d| !d.message.contains("differs")),
        "{:?}",
        c.diagnostics
    );
}
