//! Hardened on-disk storage for the persistent compilation cache.
//!
//! The cache in [`crate::session`] is an accelerator, never a
//! correctness risk — but that contract only holds if every on-disk
//! interaction degrades to a cold compile instead of a crash, a torn
//! file, or (worst of all) silently replaying wrong IL. [`CacheStore`]
//! is the single point through which all cache bytes flow, and it
//! enforces four properties:
//!
//! * **Atomic publish.** Every file is written to a temporary name in
//!   the cache directory, fsynced, and renamed into place. Readers
//!   never observe a half-written entry; a crash mid-write leaves at
//!   worst an orphaned `.tmp-*` file.
//! * **Checksummed envelopes.** Every file starts with a one-line ASCII
//!   header — the format name and a 128-bit FNV-1a digest of the
//!   payload — so a bit flip, truncation, or encoding skew is detected
//!   before the payload is decoded, not after it has been trusted. The
//!   payload itself is raw bytes: binary procedure entries and JSON
//!   manifests travel the same way, and nothing checks it for UTF-8.
//! * **Quarantine-and-miss.** A file that fails the checksum (or
//!   decodes to something the IL verifier rejects) is moved into a
//!   `quarantine/` subdirectory and treated as a miss. The bad bytes
//!   are preserved for post-mortem instead of being re-read forever or
//!   silently deleted.
//! * **No locks.** No file is ever read, modified and written back.
//!   Entries and session manifests are named by content hashes, so two
//!   writers of one name write identical bytes. The per-procedure key
//!   pointers are the only files whose contents vary for a fixed name,
//!   and every value one can hold is a valid key, so the last rename
//!   wins safely. Concurrent `titanc` processes and `titand` workers
//!   sharing one `--cache-dir` therefore need no coordination at all.
//!
//! The [`ResidentCache`] layer on top keeps all payloads in one shared
//! in-memory map of shared byte buffers for the `titand` compile server:
//! every request's store reads through it and writes through to the
//! backing directory, so the daemon and one-shot processes interoperate
//! on the same `--cache-dir`.
//!
//! The store also hosts the `TITANC_INJECT_IO` fault hook (a sibling of
//! `TITANC_INJECT_PANIC`): reads, writes, and renames can be made to
//! fail, truncate, or delay with a configured probability, either from
//! the environment or programmatically via [`install_io_faults`] — the
//! lever the `stress --cache-faults` differential harness uses to prove
//! the degradation paths.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use titanc_il::{StableHash, StableHasher};

/// On-disk cache format name. Written to the directory's `FORMAT`
/// marker and prefixed to every envelope header; folded into every
/// content hash so a format change invalidates wholesale. Bumped to v3
/// when entries gained checksummed envelopes (a v2-era directory has
/// no marker and is refused cleanly — one remark, cold compile), and to
/// v4 when per-procedure keys switched from the whole-program hash to
/// inline dependency cones and `InlineEvent` gained its site ordinal —
/// a v3-era directory's marker names another version and is refused
/// the same way. v5 entries are binary `<key>.bin` files holding the
/// compacted arena encoding instead of `<key>.json` text; a v4-era
/// directory is refused like a v3 one.
pub(crate) const CACHE_FORMAT: &str = "titanc-cache-v5";

/// The directory-level format marker file.
const MARKER_FILE: &str = "FORMAT";
/// Where corrupt files are preserved for post-mortem.
const QUARANTINE_DIR: &str = "quarantine";

/// Process-global uniquifier for temp and quarantine file names. A
/// per-store counter is not enough once several `CacheStore`s share one
/// process — the compile server opens one per request, and two
/// concurrent requests publishing the same entry would collide on
/// `.tmp-<name>-<pid>-0` and tear each other's writes.
fn next_unique() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// IO fault injection (`TITANC_INJECT_IO`)
// ---------------------------------------------------------------------

/// Which file operation a fault rule applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoOp {
    /// Reading a cache file.
    Read,
    /// Writing a temporary file (the first half of a publish).
    Write,
    /// Renaming a temporary file into place (the second half).
    Rename,
}

/// What an injected fault does to the operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultMode {
    /// The operation fails with an I/O error.
    Fail,
    /// Reads return half the bytes; writes persist half the bytes but
    /// *report success* — a torn write, the nastiest real-world case.
    /// On a rename, truncation degrades to [`FaultMode::Fail`].
    Truncate,
    /// The operation sleeps briefly first (widens race windows).
    Delay,
}

/// A fault-injection profile: rules matched per operation, each firing
/// with its own probability from a deterministic per-decision PRNG.
///
/// Parsed from `TITANC_INJECT_IO` (see [`IoFaultSpec::parse`]) or built
/// programmatically and installed with [`install_io_faults`].
#[derive(Clone, Debug, Default)]
pub struct IoFaultSpec {
    rules: Vec<(IoOp, FaultMode, f64)>,
    seed: u64,
}

impl IoFaultSpec {
    /// An empty spec (no faults) with the given PRNG seed.
    pub fn new(seed: u64) -> IoFaultSpec {
        IoFaultSpec {
            rules: Vec::new(),
            seed,
        }
    }

    /// Adds a rule: `op` suffers `mode` with probability `prob` (0–1).
    /// Rules are tried in insertion order; the first that fires wins.
    pub fn rule(mut self, op: IoOp, mode: FaultMode, prob: f64) -> IoFaultSpec {
        self.rules.push((op, mode, prob.clamp(0.0, 1.0)));
        self
    }

    /// Parses the `TITANC_INJECT_IO` syntax: comma-separated
    /// `op:mode:prob` rules plus an optional `seed:N`, e.g.
    ///
    /// ```text
    /// TITANC_INJECT_IO="read:fail:0.05,write:truncate:0.1,rename:fail:0.2,seed:42"
    /// ```
    ///
    /// Operations are `read`, `write`, `rename`; modes are `fail`,
    /// `truncate`, `delay`; probabilities are decimal in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(s: &str) -> Result<IoFaultSpec, String> {
        let mut spec = IoFaultSpec::new(0x10_FA_17);
        for clause in s.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some(seed) = clause.strip_prefix("seed:") {
                spec.seed = seed
                    .parse()
                    .map_err(|_| format!("bad seed in `{clause}`"))?;
                continue;
            }
            let mut parts = clause.split(':');
            let (op, mode, prob) = (parts.next(), parts.next(), parts.next());
            if parts.next().is_some() {
                return Err(format!("too many `:` in `{clause}`"));
            }
            let op = match op {
                Some("read") => IoOp::Read,
                Some("write") => IoOp::Write,
                Some("rename") => IoOp::Rename,
                _ => return Err(format!("unknown operation in `{clause}`")),
            };
            let mode = match mode {
                Some("fail") => FaultMode::Fail,
                Some("truncate") => FaultMode::Truncate,
                Some("delay") => FaultMode::Delay,
                _ => return Err(format!("unknown mode in `{clause}`")),
            };
            let prob: f64 = prob
                .and_then(|p| p.parse().ok())
                .filter(|p| (0.0..=1.0).contains(p))
                .ok_or_else(|| format!("bad probability in `{clause}`"))?;
            spec.rules.push((op, mode, prob));
        }
        Ok(spec)
    }

    fn from_env() -> Option<IoFaultSpec> {
        let raw = std::env::var("TITANC_INJECT_IO").ok()?;
        match IoFaultSpec::parse(&raw) {
            Ok(spec) if !spec.rules.is_empty() => Some(spec),
            Ok(_) => None,
            Err(why) => {
                eprintln!("titanc: ignoring malformed TITANC_INJECT_IO: {why}");
                None
            }
        }
    }
}

/// Installed spec plus the decision counter that drives its PRNG.
struct FaultState {
    spec: IoFaultSpec,
    counter: u64,
}

fn fault_state() -> &'static Mutex<Option<FaultState>> {
    static STATE: OnceLock<Mutex<Option<FaultState>>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(IoFaultSpec::from_env().map(|spec| FaultState { spec, counter: 0 }))
    })
}

/// Installs (or, with `None`, clears) the process-wide IO fault profile.
///
/// Overrides anything parsed from `TITANC_INJECT_IO`. The state is
/// **process-global**: tests that install faults must serialize against
/// other cache-touching tests in the same binary.
pub fn install_io_faults(spec: Option<IoFaultSpec>) {
    let mut guard = fault_state().lock().unwrap_or_else(|e| e.into_inner());
    *guard = spec.map(|spec| FaultState { spec, counter: 0 });
}

/// One fault decision for `op`: `None` means "perform it for real".
fn decide(op: IoOp) -> Option<FaultMode> {
    let mut guard = fault_state().lock().unwrap_or_else(|e| e.into_inner());
    let state = guard.as_mut()?;
    for &(rule_op, mode, prob) in &state.spec.rules {
        if rule_op != op {
            continue;
        }
        state.counter += 1;
        // splitmix64 finalizer over (seed, decision index): deterministic
        // for a single-threaded run, well-spread, dependency-free
        let mut z = state
            .spec
            .seed
            .wrapping_add(state.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        if unit < prob {
            return Some(mode);
        }
    }
    None
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected {what} fault (TITANC_INJECT_IO)"))
}

/// Reads a whole file through the fault layer. Truncation cuts the byte
/// stream in half — exactly what a torn write leaves behind.
fn faulty_read(path: &Path) -> io::Result<Vec<u8>> {
    match decide(IoOp::Read) {
        Some(FaultMode::Fail) => return Err(injected("read")),
        Some(FaultMode::Truncate) => {
            let mut bytes = fs::read(path)?;
            bytes.truncate(bytes.len() / 2);
            return Ok(bytes);
        }
        Some(FaultMode::Delay) => std::thread::sleep(Duration::from_millis(1)),
        None => {}
    }
    fs::read(path)
}

/// Writes and fsyncs through the fault layer. A truncation fault writes
/// half the bytes and **reports success** — the caller's rename then
/// publishes a torn file, which the checksum must catch on read.
fn faulty_write_sync(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = File::create(path)?;
    match decide(IoOp::Write) {
        Some(FaultMode::Fail) => return Err(injected("write")),
        Some(FaultMode::Truncate) => {
            file.write_all(&bytes[..bytes.len() / 2])?;
            let _ = file.sync_all();
            return Ok(());
        }
        Some(FaultMode::Delay) => std::thread::sleep(Duration::from_millis(1)),
        None => {}
    }
    file.write_all(bytes)?;
    file.sync_all()
}

/// Renames through the fault layer (truncation degrades to failure —
/// there is no half-rename).
fn faulty_rename(from: &Path, to: &Path) -> io::Result<()> {
    match decide(IoOp::Rename) {
        Some(FaultMode::Fail | FaultMode::Truncate) => return Err(injected("rename")),
        Some(FaultMode::Delay) => std::thread::sleep(Duration::from_millis(1)),
        None => {}
    }
    fs::rename(from, to)
}

// ---------------------------------------------------------------------
// Checksummed envelopes
// ---------------------------------------------------------------------

/// Wraps a payload in the envelope: a `FORMAT <fnv128-hex>` ASCII
/// header line, then the payload bytes the digest covers.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut h = StableHasher::new();
    h.write(payload);
    let mut out = format!("{CACHE_FORMAT} {}\n", h.finish().hex()).into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Opens an envelope: checks the format name and the payload digest and
/// returns the payload, uncopied. `None` on any mismatch — wrong format,
/// bad header shape or checksum failure.
fn unseal(bytes: &[u8]) -> Option<&[u8]> {
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let (header, payload) = (&bytes[..newline], &bytes[newline + 1..]);
    let (format, digest) = std::str::from_utf8(header).ok()?.split_once(' ')?;
    if format != CACHE_FORMAT {
        return None;
    }
    let expected = StableHash::from_hex(digest)?;
    let mut h = StableHasher::new();
    h.write(payload);
    (h.finish() == expected).then_some(payload)
}

// ---------------------------------------------------------------------
// The resident (in-memory) cache layer
// ---------------------------------------------------------------------

/// The compile server's process-shared, in-memory cache layer.
///
/// A `ResidentCache` holds every cache payload (per-procedure entries,
/// session manifests, key pointers) in one map shared by all the
/// [`CacheStore`]s opened against it — one per request in the daemon.
/// Reads hit the map before touching disk; published payloads write
/// through to the backing `--cache-dir` (when there is one) so one-shot
/// `titanc` processes and the daemon interoperate on the same directory.
/// Payloads enter the map only after passing the envelope checksum (disk
/// reads) or straight from the compiler (publishes), so map hits skip
/// the checksum, not the decoder or the IL verifier.
///
/// The map holds the payload bytes, shared (`Arc<[u8]>`): a hit clones a
/// pointer under the lock, never the payload. It deliberately does not
/// hold decoded procedures — a decoded entry takes several times the
/// heap of its binary encoding, and decoding one costs well under a
/// millisecond.
#[derive(Clone, Default)]
pub struct ResidentCache {
    inner: Arc<ResidentInner>,
}

#[derive(Default)]
struct ResidentInner {
    dir: Option<PathBuf>,
    map: Mutex<BTreeMap<String, Arc<[u8]>>>,
}

impl ResidentCache {
    /// A resident cache over `dir` (write-through), or fully in-memory
    /// with `None` — the daemon still caches, it just shares nothing
    /// with one-shot processes and forgets everything on exit.
    pub fn new(dir: Option<&Path>) -> ResidentCache {
        ResidentCache {
            inner: Arc::new(ResidentInner {
                dir: dir.map(Path::to_path_buf),
                ..ResidentInner::default()
            }),
        }
    }

    /// The backing directory, if the cache writes through to disk.
    pub fn dir(&self) -> Option<&Path> {
        self.inner.dir.as_deref()
    }

    /// How many payloads are resident right now (the daemon's summary
    /// line reports this).
    pub fn entries(&self) -> usize {
        self.lock_map().len()
    }

    fn lock_map(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<[u8]>>> {
        self.inner.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn get(&self, name: &str) -> Option<Arc<[u8]>> {
        self.lock_map().get(name).cloned()
    }

    fn put(&self, name: &str, payload: Arc<[u8]>) {
        self.lock_map().insert(name.to_string(), payload);
    }

    fn remove(&self, name: &str) {
        self.lock_map().remove(name);
    }
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// What the storage layer observed during one session — the durability
/// counters surfaced on the `titanc: cache:` accounting line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Files whose checksum, decode, or IL verification failed.
    pub corrupt: usize,
    /// Corrupt files successfully moved aside (or deleted) so they are
    /// never re-read.
    pub quarantined: usize,
    /// Files that could not be published (write or rename failure).
    pub write_failed: usize,
}

/// A hardened handle on one cache directory. All session cache IO goes
/// through here; see the module docs for the guarantees.
pub(crate) struct CacheStore {
    dir: PathBuf,
    /// False for a pure in-memory resident store — every disk
    /// interaction (reads, publishes) is skipped.
    disk: bool,
    /// False when the directory belongs to another format version —
    /// every read misses and every write is skipped.
    enabled: bool,
    /// The shared in-memory layer, when this store belongs to a compile
    /// server. Reads hit it first; publishes write through it.
    resident: Option<ResidentCache>,
    /// The one-shot remark explaining a disabled store.
    format_warning: Option<String>,
    /// Durability counters for the session accounting line.
    pub(crate) stats: StoreStats,
    /// First write failure, for the surfaced warning (the counter has
    /// the total; repeating the message per entry would be noise).
    first_write_error: Option<String>,
}

impl CacheStore {
    /// Opens (creating if needed) a cache directory, validating its
    /// format marker. A directory written by another format — or a
    /// pre-v3 directory with no marker but existing entries — disables
    /// the store for the whole session: the compile proceeds cold and
    /// one remark explains why. Never an error.
    pub(crate) fn open(dir: &Path) -> CacheStore {
        let mut store = CacheStore {
            dir: dir.to_path_buf(),
            disk: true,
            enabled: false,
            resident: None,
            format_warning: None,
            stats: StoreStats::default(),
            first_write_error: None,
        };
        if let Err(e) = fs::create_dir_all(dir) {
            store.note_write_failure(&format!("cannot create cache directory: {e}"));
            return store;
        }
        match faulty_read(&dir.join(MARKER_FILE)) {
            Ok(bytes) => match String::from_utf8(bytes) {
                Ok(text) if text.trim() == CACHE_FORMAT => store.enabled = true,
                Ok(text) => {
                    store.format_warning = Some(format!(
                        "cache directory `{}` has format `{}` but this compiler writes \
                         `{CACHE_FORMAT}`; compiling cold (clear the directory to re-enable)",
                        dir.display(),
                        text.trim().escape_default(),
                    ));
                }
                Err(_) => {
                    store.format_warning = Some(format!(
                        "cache directory `{}` has an unreadable format marker; compiling cold \
                         (clear the directory to re-enable)",
                        dir.display(),
                    ));
                }
            },
            Err(_) => {
                // no readable marker: adopt an empty directory, refuse a
                // populated one (it predates the marker — a v2-era cache)
                if store.has_entries() {
                    store.format_warning = Some(format!(
                        "cache directory `{}` predates {CACHE_FORMAT} (no format marker); \
                         compiling cold (clear the directory to re-enable)",
                        dir.display(),
                    ));
                } else if store.publish_raw(MARKER_FILE, format!("{CACHE_FORMAT}\n").as_bytes()) {
                    store.enabled = true;
                }
                // publish failure already counted write_failed; the
                // store stays disabled for this run
            }
        }
        store
    }

    /// Opens a store against the compile server's resident layer: disk
    /// semantics (format marker, write-through) come from the layer's
    /// backing directory when it has one; without a directory the store
    /// is purely in-memory and always enabled.
    pub(crate) fn open_resident(resident: &ResidentCache) -> CacheStore {
        match resident.dir() {
            Some(dir) => {
                let mut store = CacheStore::open(dir);
                store.resident = Some(resident.clone());
                store
            }
            None => CacheStore {
                dir: PathBuf::new(),
                disk: false,
                enabled: true,
                resident: Some(resident.clone()),
                format_warning: None,
                stats: StoreStats::default(),
                first_write_error: None,
            },
        }
    }

    /// True when reads and writes are live (format marker matched).
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// The remark explaining a disabled store, if any.
    pub(crate) fn format_warning(&self) -> Option<&str> {
        self.format_warning.as_deref()
    }

    /// The first write failure's rendering, for the surfaced warning.
    pub(crate) fn first_write_error(&self) -> Option<&str> {
        self.first_write_error.as_deref()
    }

    /// Any top-level `*.json` or `*.bin` file (an entry or manifest of
    /// some format) means the directory holds cache state we must not
    /// misread or clobber.
    fn has_entries(&self) -> bool {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return true; // unreadable: assume occupied, stay disabled
        };
        entries.flatten().any(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|name| name.ends_with(".json") || name.ends_with(".bin"))
        })
    }

    /// Reads and unseals `name`. The resident map is consulted first —
    /// its payloads already passed the checksum on the way in. On disk,
    /// a missing file (or an I/O error — the bytes may be fine, the
    /// read wasn't) is a plain miss; an envelope that fails the format
    /// or checksum is quarantined and counted. Disk hits populate the
    /// resident map so the next request never touches the file.
    pub(crate) fn read(&mut self, name: &str) -> Option<Arc<[u8]>> {
        if !self.enabled {
            return None;
        }
        if let Some(resident) = &self.resident {
            if let Some(payload) = resident.get(name) {
                return Some(payload);
            }
        }
        if !self.disk {
            return None;
        }
        let bytes = faulty_read(&self.dir.join(name)).ok()?;
        match unseal(&bytes) {
            Some(payload) => {
                let payload: Arc<[u8]> = Arc::from(payload);
                if let Some(resident) = &self.resident {
                    resident.put(name, Arc::clone(&payload));
                }
                Some(payload)
            }
            None => {
                self.quarantine(name);
                None
            }
        }
    }

    /// Seals `payload` and publishes it atomically under `name`:
    /// temp-file in the cache directory, fsync, rename into place, then
    /// a best-effort directory fsync so the rename itself is durable.
    /// Failures are counted (and the first is kept for the warning);
    /// the temp file is removed on any failure path. With a resident
    /// layer the payload also lands in the shared map — but only after
    /// the disk accepted it, so memory and disk never disagree about
    /// what was published.
    pub(crate) fn publish(&mut self, name: &str, payload: &[u8]) -> bool {
        if !self.enabled {
            return false;
        }
        let ok = !self.disk || self.publish_raw(name, &seal(payload));
        if ok {
            if let Some(resident) = &self.resident {
                resident.put(name, Arc::from(payload));
            }
        }
        ok
    }

    /// The atomic write-fsync-rename sequence, used both for sealed
    /// payloads and the raw format marker.
    fn publish_raw(&mut self, name: &str, bytes: &[u8]) -> bool {
        let tmp = self.dir.join(format!(
            ".tmp-{name}-{}-{}",
            std::process::id(),
            next_unique()
        ));
        if let Err(e) = faulty_write_sync(&tmp, bytes) {
            let _ = fs::remove_file(&tmp);
            self.note_write_failure(&format!("cannot write `{name}`: {e}"));
            return false;
        }
        if let Err(e) = faulty_rename(&tmp, &self.dir.join(name)) {
            let _ = fs::remove_file(&tmp);
            self.note_write_failure(&format!("cannot publish `{name}`: {e}"));
            return false;
        }
        // make the rename durable, not just atomic
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        true
    }

    fn note_write_failure(&mut self, why: &str) {
        self.stats.write_failed += 1;
        if self.first_write_error.is_none() {
            self.first_write_error = Some(why.to_string());
        }
    }

    /// Moves `name` into `quarantine/` (counting it corrupt) so the bad
    /// bytes are preserved but never re-read. Falls back to deletion if
    /// the move fails; if even that fails, the file stays and will be
    /// re-detected next run.
    pub(crate) fn quarantine(&mut self, name: &str) {
        self.stats.corrupt += 1;
        if let Some(resident) = &self.resident {
            resident.remove(name);
        }
        if !self.disk {
            // eviction from the map *is* the quarantine: the bad bytes
            // are gone and can never be re-read
            self.stats.quarantined += 1;
            return;
        }
        let qdir = self.dir.join(QUARANTINE_DIR);
        let _ = fs::create_dir_all(&qdir);
        let dest = qdir.join(format!("{name}.{}.{}", std::process::id(), next_unique()));
        let src = self.dir.join(name);
        if fs::rename(&src, &dest).is_ok() || fs::remove_file(&src).is_ok() {
            self.stats.quarantined += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("titanc-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn seal_round_trips_and_detects_damage() {
        let payload = br#"{"version":1,"data":[1,2,3]}"#;
        let sealed = seal(payload);
        assert_eq!(unseal(&sealed), Some(&payload[..]));

        // binary payloads (newlines and non-UTF-8 bytes included) travel
        // unchanged: only the header is text
        let binary = [0u8, b'\n', 0xFF, 0xFE, b'\n', 7];
        assert_eq!(unseal(&seal(&binary)), Some(&binary[..]));

        // flip one payload byte
        let mut bytes = sealed.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        assert_eq!(unseal(&bytes), None);

        // truncate mid-payload
        assert_eq!(unseal(&sealed[..sealed.len() / 2]), None);

        // wrong format name
        let text = String::from_utf8(sealed.clone()).unwrap();
        let skewed = text.replace(CACHE_FORMAT, "titanc-cache-v2");
        assert_eq!(unseal(skewed.as_bytes()), None);

        // a header that is not UTF-8 at all
        assert_eq!(unseal(&[0xFF, 0xFE, b'\n', b'x']), None);
        // empty and header-only
        assert_eq!(unseal(b""), None);
        assert_eq!(unseal(format!("{CACHE_FORMAT} zz\n").as_bytes()), None);
    }

    #[test]
    fn fault_spec_parses_the_env_syntax() {
        let spec =
            IoFaultSpec::parse("read:fail:0.5, write:truncate:0.25,rename:delay:1.0,seed:99")
                .expect("valid spec");
        assert_eq!(spec.seed, 99);
        assert_eq!(spec.rules.len(), 3);
        assert_eq!(spec.rules[0], (IoOp::Read, FaultMode::Fail, 0.5));
        assert_eq!(spec.rules[1], (IoOp::Write, FaultMode::Truncate, 0.25));
        assert_eq!(spec.rules[2], (IoOp::Rename, FaultMode::Delay, 1.0));

        assert!(IoFaultSpec::parse("read:fail:2.0").is_err());
        assert!(IoFaultSpec::parse("chmod:fail:0.5").is_err());
        assert!(IoFaultSpec::parse("read:explode:0.5").is_err());
        assert!(IoFaultSpec::parse("read:fail:0.5:extra").is_err());
        assert!(IoFaultSpec::parse("seed:notanumber").is_err());
        assert!(IoFaultSpec::parse("").expect("empty ok").rules.is_empty());
    }

    #[test]
    fn publish_then_read_round_trips() {
        let dir = scratch("roundtrip");
        let mut store = CacheStore::open(&dir);
        assert!(store.enabled(), "fresh directory must adopt the format");
        assert!(store.publish("entry.bin", b"{\"k\":1}"));
        assert_eq!(store.read("entry.bin").as_deref(), Some(&b"{\"k\":1}"[..]));
        assert_eq!(store.stats, StoreStats::default());
        // no temp litter after a clean publish
        let litter = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .count();
        assert_eq!(litter, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_quarantined_and_miss() {
        let dir = scratch("quarantine");
        let mut store = CacheStore::open(&dir);
        assert!(store.publish("entry.bin", b"payload"));
        // flip a byte on disk
        let path = dir.join("entry.bin");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        assert_eq!(store.read("entry.bin"), None);
        assert_eq!(store.stats.corrupt, 1);
        assert_eq!(store.stats.quarantined, 1);
        assert!(!path.exists(), "the corrupt file must be moved aside");
        assert!(
            fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap().count() == 1,
            "the bad bytes are preserved in quarantine/"
        );
        // a second read is a plain miss, not a second quarantine
        assert_eq!(store.read("entry.bin"), None);
        assert_eq!(store.stats.corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skewed_directories_are_refused_cleanly() {
        let dir = scratch("skew");
        fs::create_dir_all(&dir).unwrap();
        // a v2-era directory: entries, no marker
        fs::write(dir.join("0123abcd.json"), "{\"version\":0}").unwrap();
        let mut store = CacheStore::open(&dir);
        assert!(!store.enabled());
        assert!(store.format_warning().is_some());
        assert_eq!(store.read("0123abcd.json"), None, "disabled stores miss");
        assert!(
            !store.publish("x.json", b"y"),
            "disabled stores skip writes"
        );
        assert_eq!(store.stats, StoreStats::default());
        assert!(
            dir.join("0123abcd.json").exists(),
            "foreign files are left untouched"
        );

        // an explicit future-format marker is refused the same way
        let dir2 = scratch("skew2");
        fs::create_dir_all(&dir2).unwrap();
        fs::write(dir2.join(MARKER_FILE), "titanc-cache-v9\n").unwrap();
        let store2 = CacheStore::open(&dir2);
        assert!(!store2.enabled());
        assert!(store2.format_warning().unwrap().contains("titanc-cache-v9"));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }

    /// A marker-less directory holding only binary entries is cache state
    /// of some format: refused, never adopted.
    #[test]
    fn a_markerless_directory_of_binary_entries_is_refused() {
        let dir = scratch("bin-only");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("0123abcd.bin"), [0u8, 1, 2]).unwrap();
        let mut store = CacheStore::open(&dir);
        assert!(!store.enabled());
        assert!(store.format_warning().unwrap().contains("predates"));
        assert_eq!(store.read("0123abcd.bin"), None);
        assert!(!dir.join(MARKER_FILE).exists(), "never adopted");
        assert_eq!(fs::read(dir.join("0123abcd.bin")).unwrap(), [0, 1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_layer_serves_hits_without_disk_and_writes_through() {
        let dir = scratch("resident");
        let resident = ResidentCache::new(Some(&dir));
        let mut store = CacheStore::open_resident(&resident);
        assert!(store.enabled());
        assert!(store.publish("entry.bin", b"payload"));
        assert_eq!(resident.entries(), 1);

        // write-through: a plain (non-resident) store sees the entry…
        let mut oneshot = CacheStore::open(&dir);
        assert_eq!(oneshot.read("entry.bin").as_deref(), Some(&b"payload"[..]));

        // …and the resident map survives disk loss (hits come from memory)
        fs::remove_file(dir.join("entry.bin")).unwrap();
        let mut second = CacheStore::open_resident(&resident);
        let hit = second.read("entry.bin").expect("resident hit");
        assert_eq!(&*hit, b"payload");
        // hits share the resident buffer instead of copying it
        let again = second.read("entry.bin").expect("resident hit");
        assert!(Arc::ptr_eq(&hit, &again));

        // a disk entry published by a one-shot process is adopted into
        // the map on first read
        assert!(oneshot.publish("other.bin", b"from-oneshot"));
        assert_eq!(
            second.read("other.bin").as_deref(),
            Some(&b"from-oneshot"[..])
        );
        assert_eq!(resident.entries(), 2);

        // a pure in-memory cache needs no directory at all
        let mem = ResidentCache::new(None);
        let mut memstore = CacheStore::open_resident(&mem);
        assert!(memstore.enabled());
        assert!(memstore.publish("x.bin", b"y"));
        assert_eq!(memstore.read("x.bin").as_deref(), Some(&b"y"[..]));
        let _ = fs::remove_dir_all(&dir);
    }
}
