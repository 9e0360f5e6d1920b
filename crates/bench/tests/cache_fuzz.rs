//! Seeded fuzzing of the cache decoders: real entry and manifest files,
//! taken from a directory populated by two sessions (corpus files, and
//! a `multi_proc_call_source` call graph), are mutated — bit flips,
//! truncation at and around every section boundary, count and length
//! fields set to huge values, trailing bytes. About half the mutants are
//! re-sealed with a valid checksum, so they get past the envelope and
//! reach the entry and procedure decoders (`read_proc`) or the manifest
//! decoder.
//!
//! Every mutant's procedure section goes through `read_proc` directly:
//! it must not panic, and must make no allocation larger than a small
//! multiple of the bytes it was given. Every 25th mutant is also
//! written into the directory and a warm session run over it (a debug
//! session costs milliseconds, so all 2000 would take half a minute):
//!
//! * every rejection is one counted quarantine and a miss (a cold
//!   compile of that procedure, or no fully warm run for a manifest),
//!   with output byte-identical to a no-cache compile;
//! * a mutant with a stale checksum is always rejected that way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

use titanc::{compile_session, OptReport, Options, SessionCompilation, SourceFile};
use titanc_bench::multi_proc_call_source;
use titanc_il::StableHasher;

const SEED: u64 = 0xC0DE_CAFE;
const CASES: usize = 2000;
/// Every this many mutants, one runs through a real session.
const SESSION_EVERY: usize = 25;

/// Records the largest single allocation made on a thread while that
/// thread has switched tracking on.
struct Tracking;

thread_local! {
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| {
        if let Some(m) = l.get() {
            l.set(Some(m.max(size)));
        }
    });
}

// SAFETY: every method passes its arguments to `System` unchanged and
// returns its result, so `System`'s guarantees are this allocator's;
// `note` only touches a const-initialized thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// splitmix64: deterministic and dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn corpus(name: &str) -> SourceFile {
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus")).join(name);
    SourceFile::new(name, std::fs::read_to_string(path).expect("corpus file"))
}

fn options() -> Options {
    let mut o = Options::o2();
    o.parallelize = true;
    o.spread_lists = true;
    o
}

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

/// One cache file a session wrote, with the session that reads it.
struct Target {
    path: PathBuf,
    bytes: Vec<u8>,
    session: usize,
}

impl Target {
    fn is_entry(&self) -> bool {
        self.path.extension().is_some_and(|x| x == "bin")
    }

    /// Where the payload starts (one past the envelope's header line).
    fn payload_at(&self) -> usize {
        self.bytes.iter().position(|&b| b == b'\n').expect("header") + 1
    }

    /// Offsets at which the file's sections meet: the header line, and
    /// for an entry its version word, its length word, the procedure
    /// section and the cell text.
    fn boundaries(&self) -> Vec<usize> {
        let p = self.payload_at();
        let mut out = vec![0, p - 1, p];
        if self.is_entry() {
            let len = u64::from_le_bytes(self.bytes[p + 8..p + 16].try_into().unwrap());
            out.extend([p + 8, p + 16, p + 16 + len as usize]);
        }
        out.push(self.bytes.len());
        out
    }
}

/// The files a cold session over `files` publishes into `dir`.
fn populate(dir: &Path, files: &[SourceFile], session: usize, out: &mut Vec<Target>) {
    let before: Vec<PathBuf> = listing(dir);
    compile_session(files, &options(), Some(dir)).expect("populating compile");
    for path in listing(dir) {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let cache_file = name.ends_with(".bin") || name.starts_with("session-");
        if cache_file && !before.contains(&path) {
            let bytes = std::fs::read(&path).expect("read cache file");
            out.push(Target {
                path,
                bytes,
                session,
            });
        }
    }
}

fn listing(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    v.sort();
    v
}

/// Mutates one file's bytes; returns a label for failure messages.
fn mutate(rng: &mut Rng, t: &Target, bytes: &mut Vec<u8>) -> &'static str {
    let p = t.payload_at();
    match rng.below(5) {
        0 => {
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            "bit flips"
        }
        1 => {
            let bounds = t.boundaries();
            let at = bounds[rng.below(bounds.len())];
            let cut = (at + rng.below(3)).saturating_sub(1).min(bytes.len() - 1);
            bytes.truncate(cut);
            "truncation at a section boundary"
        }
        2 => {
            // a huge value over a count or length: the entry's length
            // word, the procedure name's length, or any aligned word of
            // the payload (block lengths and arena counts among them)
            let huge: [u64; 4] = [u64::MAX, u64::from(u32::MAX), 1 << 31, 1 << 20];
            let v = huge[rng.below(huge.len())];
            let at = match rng.below(3) {
                0 if t.is_entry() => p + 8,
                1 if t.is_entry() => p + 16 + 4,
                _ => p + 4 * rng.below((bytes.len() - p) / 4),
            };
            let width = if rng.below(2) == 0 { 8 } else { 4 };
            let end = (at + width).min(bytes.len());
            bytes[at..end].copy_from_slice(&v.to_le_bytes()[..end - at]);
            "huge count or length"
        }
        3 => {
            for _ in 0..1 + rng.below(16) {
                bytes.push(rng.next() as u8);
            }
            "trailing bytes"
        }
        _ => {
            // trailing bytes inside the procedure section: its length
            // grows to cover bytes spliced in after it
            if t.is_entry() {
                let len = u64::from_le_bytes(bytes[p + 8..p + 16].try_into().unwrap());
                let extra = 1 + rng.below(8);
                bytes[p + 8..p + 16].copy_from_slice(&(len + extra as u64).to_le_bytes());
                let at = p + 16 + len as usize;
                for _ in 0..extra {
                    bytes.insert(at, rng.next() as u8);
                }
                "bytes appended to the procedure section"
            } else {
                bytes.truncate(p + rng.below(bytes.len() - p));
                "manifest truncation"
            }
        }
    }
}

/// Rewrites the header so the checksum matches the (mutated) payload.
fn reseal(format: &str, bytes: &[u8]) -> Vec<u8> {
    let payload = match bytes.iter().position(|&b| b == b'\n') {
        Some(nl) => &bytes[nl + 1..],
        None => bytes,
    };
    let mut h = StableHasher::new();
    h.write(payload);
    let mut out = format!("{format} {}\n", h.finish().hex()).into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Decodes the procedure section of a sealed entry directly, with
/// allocation tracking on. Returns whether the decoder accepted it.
fn decode_directly(bytes: &[u8]) -> Option<bool> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    let payload = &bytes[nl + 1..];
    let len = u64::from_le_bytes(payload.get(8..16)?.try_into().ok()?);
    let section = payload.get(16..16usize.checked_add(usize::try_from(len).ok()?)?)?;
    LARGEST.with(|l| l.set(Some(0)));
    let ok = titanc_il::read_proc(section).is_ok();
    let largest = LARGEST.with(|l| l.replace(None)).unwrap_or(0);
    assert!(
        largest <= 8 * section.len() + 64,
        "read_proc allocated {largest} bytes for a {}-byte section",
        section.len()
    );
    Some(ok)
}

#[test]
fn mutated_entries_and_manifests_are_quarantined_misses() {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/test-caches"
    ))
    .join(format!("cache-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sessions = [
        vec![corpus("daxpy.c"), corpus("copy.c")],
        vec![SourceFile::new(
            "calls.c",
            multi_proc_call_source(2, 1, &[5, 6]),
        )],
    ];
    let mut targets = Vec::new();
    for (i, files) in sessions.iter().enumerate() {
        populate(&dir, files, i, &mut targets);
    }
    assert!(targets.iter().any(Target::is_entry) && targets.iter().any(|t| !t.is_entry()));
    let format = std::fs::read_to_string(dir.join("FORMAT")).expect("marker");
    let format = format.trim();
    let references: Vec<(String, String)> = sessions
        .iter()
        .map(|files| {
            let sc = compile_session(files, &options(), None).expect("reference compile");
            (il_text(&sc), report_json(&sc))
        })
        .collect();

    let mut rng = Rng(SEED);
    let (mut resealed, mut decoder_rejections) = (0, 0);
    let (mut sessions_run, mut rejected) = (0, 0);
    for case in 0..CASES {
        let t = &targets[rng.below(targets.len())];
        let mut bytes = t.bytes.clone();
        let how = mutate(&mut rng, t, &mut bytes);
        if bytes == t.bytes {
            // a huge value can land on a word that already held it
            bytes[0] ^= 1;
        }
        let reseal_it = rng.below(2) == 0;
        if reseal_it {
            bytes = reseal(format, &bytes);
            resealed += 1;
        }
        if t.is_entry() && decode_directly(&bytes) == Some(false) {
            decoder_rejections += 1;
        }
        if case % SESSION_EVERY != 0 {
            continue;
        }
        sessions_run += 1;
        std::fs::write(&t.path, &bytes).expect("write mutant");

        let sc = compile_session(&sessions[t.session], &options(), Some(&dir))
            .expect("a damaged cache never fails the compile");
        let s = sc.stats;
        let what = format!("case {case} ({how}, resealed {reseal_it}, {:?})", t.path);
        assert_eq!(
            s.corrupt, s.quarantined,
            "{what}: every rejection is quarantined"
        );
        assert!(
            s.corrupt <= 1,
            "{what}: one damaged file, {} rejections",
            s.corrupt
        );
        if s.corrupt == 1 {
            rejected += 1;
            assert!(!s.full_warm, "{what}: a rejection cannot be fully warm");
            if t.is_entry() {
                assert!(s.misses >= 1, "{what}: a rejected entry is a miss");
            }
            let (il, report) = &references[t.session];
            assert_eq!(
                il,
                &il_text(&sc),
                "{what}: IL differs from a no-cache compile"
            );
            assert_eq!(report, &report_json(&sc), "{what}: opt report differs");
        } else {
            assert!(reseal_it, "{what}: a stale checksum must be rejected");
        }
        std::fs::write(&t.path, &t.bytes).expect("restore");
        let _ = std::fs::remove_dir_all(dir.join("quarantine"));
    }
    // half the mutants carry a valid checksum, the decoder rejects most
    // of what it sees, and most sessions meet a rejection
    assert!(resealed > CASES / 3, "{resealed} re-sealed");
    assert!(
        decoder_rejections > CASES / 8,
        "{decoder_rejections} decoder rejections"
    );
    assert!(
        rejected > sessions_run / 2,
        "{rejected} of {sessions_run} rejected"
    );
    eprintln!("cache fuzz: {resealed} re-sealed, {decoder_rejections} decoder rejections, {rejected} of {sessions_run} sessions rejected");
    let _ = std::fs::remove_dir_all(&dir);
}
