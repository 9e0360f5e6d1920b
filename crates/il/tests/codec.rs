//! Codec pins over real IL: every procedure of every `corpus/*.c` file,
//! as parsed and after O0, O2 and O2 `--parallel --spread-lists`, must
//!
//! * read back from its stored form as an equal procedure;
//! * re-encode from that procedure to the identical bytes;
//! * compact to exactly what the catalog JSON decode builds, column by
//!   column (kinds, spans, nodes and lifetime counters), and read back
//!   as that same arena;
//! * keep the `hash_proc` digests recorded before the hash and the
//!   stored form shared one byte layout (every cache key depends on
//!   them).

use std::path::PathBuf;

use titanc::Options;
use titanc_il::json::{parse, FromJson, ToJson};
use titanc_il::{compact, encode_proc, hash_proc, read_proc, Procedure, Program, StableHasher};

/// `hash_proc` over each configuration's procedures, each digest's hex
/// folded in program order.
const DIGESTS: &[(&str, &str, &str)] = &[
    ("backsolve.c", "parsed", "fc296db52be05cc62f2ea77d3db95eef"),
    ("backsolve.c", "O0", "fc296db52be05cc62f2ea77d3db95eef"),
    ("backsolve.c", "O2", "4f1371790cf958285ab42afee69bd289"),
    (
        "backsolve.c",
        "parallel",
        "4f1371790cf958285ab42afee69bd289",
    ),
    ("blaslib.c", "parsed", "c8f89913b2a36684fa7706b1df4385d6"),
    ("blaslib.c", "O0", "c8f89913b2a36684fa7706b1df4385d6"),
    ("blaslib.c", "O2", "18dd3a399df93e641f6b1bcf1b9b19b9"),
    ("blaslib.c", "parallel", "e45f84c136bf7deac6a2f5445e027420"),
    ("copy.c", "parsed", "8c775b7f05770ee3c0cdb77379e23ef7"),
    ("copy.c", "O0", "8c775b7f05770ee3c0cdb77379e23ef7"),
    ("copy.c", "O2", "159493b5248074562e7f8d751b5c6c99"),
    ("copy.c", "parallel", "e13f6d4aaf6774129aeb010872589fb3"),
    ("daxpy.c", "parsed", "53d8812eed56ad8830ce4f2d90e5ff86"),
    ("daxpy.c", "O0", "53d8812eed56ad8830ce4f2d90e5ff86"),
    ("daxpy.c", "O2", "e50b6f001d1db0846cd9d9471342e048"),
    ("daxpy.c", "parallel", "004683bdf064db75b19c12b3873701fa"),
    ("listwalk.c", "parsed", "8865cfd6f2b905d8c2706ddf4c916eaa"),
    ("listwalk.c", "O0", "8865cfd6f2b905d8c2706ddf4c916eaa"),
    ("listwalk.c", "O2", "53115ffaf57bb0b1a1859af9b319464b"),
    ("listwalk.c", "parallel", "9c482eb503eca01ebddbcbd99563707e"),
    (
        "struct_matrix.c",
        "parsed",
        "1b8f6db04346bad911ccce95c6b748e9",
    ),
    ("struct_matrix.c", "O0", "1b8f6db04346bad911ccce95c6b748e9"),
    ("struct_matrix.c", "O2", "1822e091cb52d8a376ebe059e7869592"),
    (
        "struct_matrix.c",
        "parallel",
        "1822e091cb52d8a376ebe059e7869592",
    ),
    (
        "volatile_poll.c",
        "parsed",
        "d1d4d80cea05d91988578ca011fc5911",
    ),
    ("volatile_poll.c", "O0", "d1d4d80cea05d91988578ca011fc5911"),
    ("volatile_poll.c", "O2", "d1d4d80cea05d91988578ca011fc5911"),
    (
        "volatile_poll.c",
        "parallel",
        "d1d4d80cea05d91988578ca011fc5911",
    ),
];

fn corpus() -> Vec<(String, String)> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("corpus file"))
        })
        .collect()
}

/// The four configurations of one source.
fn programs(src: &str) -> Vec<(&'static str, Program)> {
    let compile = |o: &Options| titanc::compile(src, o).expect("corpus compiles");
    let mut parsed = Options::o2();
    parsed.keep_parsed = true;
    let mut parallel = Options::o2();
    parallel.parallelize = true;
    parallel.spread_lists = true;
    vec![
        ("parsed", compile(&parsed).parsed.expect("parsed snapshot")),
        ("O0", compile(&Options::o0()).program),
        ("O2", compile(&Options::o2()).program),
        ("parallel", compile(&parallel).program),
    ]
}

fn same_arena(a: &Procedure, b: &Procedure) -> bool {
    a.stmts.kinds() == b.stmts.kinds()
        && a.stmts.spans() == b.stmts.spans()
        && a.exprs.nodes() == b.exprs.nodes()
        && a.stmts.total_allocated() == b.stmts.total_allocated()
        && a.exprs.total_allocated() == b.exprs.total_allocated()
}

#[test]
fn every_corpus_procedure_round_trips_through_its_stored_form() {
    let mut pinned = 0;
    for (file, src) in corpus() {
        for (config, program) in programs(&src) {
            let mut folded = StableHasher::new();
            for p in &program.procs {
                let what = format!("{file} {config} `{}`", p.name);
                let bytes = encode_proc(p);
                let back = read_proc(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(&back, p, "{what}: decoded procedure differs");
                assert_eq!(encode_proc(&back), bytes, "{what}: re-encoding differs");

                let json = p.to_json().to_string_compact();
                let via_json = Procedure::from_json(&parse(&json).unwrap()).unwrap();
                let compacted = compact(p);
                assert!(same_arena(&compacted, &via_json), "{what}: compact != JSON");
                assert!(same_arena(&back, &via_json), "{what}: decoded != JSON");

                folded.write_str(&hash_proc(p).hex());
            }
            let expected = DIGESTS
                .iter()
                .find(|(f, c, _)| *f == file && *c == config)
                .map(|(_, _, d)| *d)
                .unwrap_or_else(|| panic!("no pinned digest for {file} {config}"));
            assert_eq!(
                folded.finish().hex(),
                expected,
                "{file} {config}: keys moved"
            );
            pinned += 1;
        }
    }
    assert_eq!(pinned, DIGESTS.len(), "every pinned configuration checked");
}
