//! The compile server: the protocol, the request executor, and the
//! one serving core behind `titand` and `titanc --server`.
//!
//! ## Protocol
//!
//! Newline-delimited JSON over stdio or a Unix socket. Each request line
//! is a [`CompileRequest`] object carrying the source files *inline*
//! (name + text — the daemon never touches the client's filesystem) plus
//! the option and output flags the one-shot CLI would have parsed. Each
//! response line is a [`CompileResponse`]: the request id, the exit code
//! the one-shot CLI would have returned, and the exact bytes it would
//! have written to stdout and stderr. A line of `{"shutdown": true}`
//! stops the server; its acknowledgement carries the aggregate
//! [`ServerTotals`].
//!
//! Every connection, stdin included, feeds one worker queue; replies go
//! back on each line's own connection in completion order, keyed by
//! `id`. A non-UTF-8 or over-[`MAX_REQUEST_LINE`] line, and a request
//! [`CompileRequest::check`] rejects, answers `exit: 2`.
//!
//! ## Byte identity
//!
//! Server responses must be byte-identical to a one-shot `titanc` run on
//! the same inputs. That contract is kept *by construction*: both compile
//! through the one session driver ([`crate::session`]) and render the
//! result through one function, [`render`] — there is no second copy of
//! the compile or of the output sequence to drift. The only legitimate
//! difference is the `titanc: cache:` accounting line, which reflects
//! cache *state* (a long-lived daemon accumulates hits a cold one-shot
//! run cannot see); a one-shot run prints it only under `--cache-dir`,
//! and comparisons strip it.
//!
//! ## Shared cache semantics
//!
//! All requests compile through one [`ResidentCache`]: an in-memory map
//! of checksum-verified cache payloads, shared as bytes, that writes
//! through to the daemon's `--cache-dir` (when it has one), so one-shot
//! `titanc --cache-dir` invocations and the daemon interoperate on the
//! same directory. The
//! per-request pipeline still fans procedures across its own `-j`
//! worker pool; the daemon's pool (its own `-j`) batches independent
//! *requests*. Analysis caches stay per-request — they are keyed by
//! in-memory generation counters that restart with every compilation —
//! but a warm request skips the pipeline (and with it all analyses)
//! outright.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
#[cfg(unix)]
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use crate::session::{compile_session_resident, SessionCompilation, SourceFile};
use crate::store::ResidentCache;
use crate::trace::OptReport;
use crate::{Compilation, CompileError, Diagnostic, Options, Pipeline, Reports, SessionStats};
use titanc_il::json::{parse, FromJson, Json, ToJson};

/// Exit code for "a contained pass incident was reported and `--strict`
/// was given" — shared by the CLI and the server executor.
pub const EXIT_INCIDENT: u8 = 3;

/// Bumped when the request/response encoding changes shape.
pub const PROTOCOL_VERSION: i64 = 1;

/// The longest request line the daemon reads, in bytes; the rest of a
/// longer line is skipped, so no client grows the daemon without bound.
pub const MAX_REQUEST_LINE: usize = 64 << 20;

// ---------------------------------------------------------------------
// Protocol types
// ---------------------------------------------------------------------

/// One compile request: inline sources plus the CLI flags the server
/// supports. Flags that only make sense against the client's local
/// filesystem or terminal (`--run`, `--trace-json`, `--emit-catalog`,
/// `--catalog`, `--snapshots`, `--time`) are rejected client-side.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    /// Client-chosen tag echoed on the response and in the daemon's
    /// per-request accounting log line.
    pub id: i64,
    /// The translation units, carried inline.
    pub files: Vec<SourceFile>,
    /// Optimization level: 0, 1 or 2.
    pub opt: i64,
    /// `--parallel`.
    pub parallelize: bool,
    /// `--spread-lists`.
    pub spread_lists: bool,
    /// `--fortran-aliasing`.
    pub fortran_aliasing: bool,
    /// Inline expansion (§7); `false` for `--no-inline` / `-O0` / `-O1`.
    pub inline: bool,
    /// `--strip N`.
    pub strip: i64,
    /// `-j N` for the *per-request* pipeline. `0` resolves to 1 on the
    /// server: concurrent requests already saturate the daemon's pool,
    /// and output is byte-identical for every worker count.
    pub jobs: i64,
    /// `--verify`.
    pub verify: bool,
    /// `--max-errors N` (0 = no cap).
    pub max_errors: i64,
    /// `--strict`.
    pub strict: bool,
    /// `--print-il`.
    pub print_il: bool,
    /// `--stats`.
    pub stats: bool,
    /// `--opt-report` flavor: `"none"`, `"text"` or `"json"`.
    pub opt_report: String,
}

titanc_il::struct_json!(
    CompileRequest,
    [
        id,
        files,
        opt,
        parallelize,
        spread_lists,
        fortran_aliasing,
        inline,
        strip,
        jobs,
        verify,
        max_errors,
        strict,
        print_il,
        stats,
        opt_report
    ]
);

impl Default for CompileRequest {
    fn default() -> CompileRequest {
        let o = Options::o2();
        CompileRequest {
            id: 0,
            files: Vec::new(),
            opt: 2,
            parallelize: false,
            spread_lists: false,
            fortran_aliasing: false,
            inline: true,
            strip: o.strip,
            jobs: 0,
            verify: false,
            max_errors: o.max_errors as i64,
            strict: false,
            print_il: false,
            stats: false,
            opt_report: "none".to_string(),
        }
    }
}

impl CompileRequest {
    /// The [`Options`] this request describes. `jobs == 0` maps to one
    /// pipeline worker (see the field docs).
    pub fn options(&self) -> Options {
        let mut o = match self.opt {
            0 => Options::o0(),
            1 => Options::o1(),
            _ => Options::o2(),
        };
        o.inline = self.inline && self.opt >= 2;
        o.parallelize = self.parallelize;
        o.spread_lists = self.spread_lists;
        if self.fortran_aliasing {
            o.aliasing = crate::Aliasing::Fortran;
        }
        o.strip = self.strip;
        o.jobs = if self.jobs <= 0 {
            1
        } else {
            self.jobs as usize
        };
        o.verify = self.verify;
        o.max_errors = self.max_errors.max(0) as usize;
        o
    }

    /// Rejects the field values no compile can honour: an `opt` outside
    /// 0–2, and whatever [`Options::check`] rejects.
    ///
    /// # Errors
    ///
    /// Returns the message a `bad request` reply carries.
    pub fn check(&self) -> Result<(), String> {
        if !(0..=2).contains(&self.opt) {
            return Err(format!("opt must be 0, 1 or 2, not {}", self.opt));
        }
        self.options().check()
    }
}

/// One compile response: the one-shot CLI's exit code and its exact
/// stdout/stderr bytes, tagged with the request id.
#[derive(Clone, Debug, Default)]
pub struct CompileResponse {
    /// Echo of [`CompileRequest::id`] (`-1` when the request line was
    /// unparseable).
    pub id: i64,
    /// The exit code one-shot `titanc` would have returned: `0` success,
    /// `1` diagnostics, `2` bad request, `3` `--strict` incident.
    pub exit: i64,
    /// Exactly what the one-shot CLI writes to stdout.
    pub stdout: String,
    /// Exactly what the one-shot CLI writes to stderr (including the
    /// `titanc: cache:` accounting line).
    pub stderr: String,
}

titanc_il::struct_json!(CompileResponse, [id, exit, stdout, stderr]);

/// Aggregate accounting across every request a server instance handled;
/// returned on the shutdown acknowledgement and logged by `titand` at
/// exit.
#[derive(Clone, Debug, Default)]
pub struct ServerTotals {
    /// Compile requests executed (including ones that failed with
    /// diagnostics).
    pub requests: i64,
    /// Lines that were not valid requests.
    pub protocol_errors: i64,
    /// Requests whose whole pipeline was skipped via the session
    /// manifest.
    pub fully_warm: i64,
    /// Summed [`SessionStats::hits`].
    pub hits: i64,
    /// Summed [`SessionStats::misses`].
    pub misses: i64,
    /// Summed [`SessionStats::invalidated`].
    pub invalidated: i64,
    /// Summed [`SessionStats::passes_executed`].
    pub passes_executed: i64,
    /// Summed [`SessionStats::corrupt`].
    pub corrupt: i64,
    /// Summed [`SessionStats::quarantined`].
    pub quarantined: i64,
    /// Summed [`SessionStats::lock_contended`], so always 0. Kept so the
    /// totals line and the shutdown acknowledgement keep their shape.
    pub lock_contended: i64,
    /// Summed [`SessionStats::write_failed`].
    pub write_failed: i64,
}

titanc_il::struct_json!(
    ServerTotals,
    [
        requests,
        protocol_errors,
        fully_warm,
        hits,
        misses,
        invalidated,
        passes_executed,
        corrupt,
        quarantined,
        lock_contended,
        write_failed
    ]
);

impl ServerTotals {
    /// Adds another instance's counters into this one (the stress
    /// harness aggregates totals across many short-lived servers).
    pub fn merge(&mut self, other: &ServerTotals) {
        self.requests += other.requests;
        self.protocol_errors += other.protocol_errors;
        self.fully_warm += other.fully_warm;
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidated += other.invalidated;
        self.passes_executed += other.passes_executed;
        self.corrupt += other.corrupt;
        self.quarantined += other.quarantined;
        self.lock_contended += other.lock_contended;
        self.write_failed += other.write_failed;
    }

    fn fold(&mut self, stats: &SessionStats) {
        self.fully_warm += i64::from(stats.full_warm);
        self.hits += stats.hits as i64;
        self.misses += stats.misses as i64;
        self.invalidated += stats.invalidated as i64;
        self.passes_executed += stats.passes_executed as i64;
        self.corrupt += stats.corrupt as i64;
        self.quarantined += stats.quarantined as i64;
        self.lock_contended += stats.lock_contended as i64;
        self.write_failed += stats.write_failed as i64;
    }
}

impl std::fmt::Display for ServerTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} request(s), {} protocol error(s), {} fully warm; \
             {} hit(s), {} miss(es), {} invalidated; {} pass execution(s); \
             {} corrupt, {} quarantined, {} lock-contended, {} write-failed",
            self.requests,
            self.protocol_errors,
            self.fully_warm,
            self.hits,
            self.misses,
            self.invalidated,
            self.passes_executed,
            self.corrupt,
            self.quarantined,
            self.lock_contended,
            self.write_failed
        )
    }
}

// ---------------------------------------------------------------------
// Shared output rendering (the byte-identity functions)
// ---------------------------------------------------------------------

/// Renders one compile exactly as one-shot `titanc` prints it: the one
/// renderer behind both the CLI and [`execute`], so their outputs agree
/// by construction. Stderr gets the diagnostics, the `titanc: cache:`
/// line when `show_cache` is set, and the contained incidents, then
/// `--strict` may stop with [`EXIT_INCIDENT`]; stdout gets the
/// `--snapshots` blocks (a request never asks for them), `--print-il`,
/// `--stats` and `--opt-report`. A front-end failure renders its
/// diagnostics and exits 1.
pub fn render(
    req: &CompileRequest,
    result: &Result<SessionCompilation, CompileError>,
    show_cache: bool,
) -> CompileResponse {
    // one file keeps the classic `file:line:col: message` shape; a
    // multi-file session already carries the file inside the message
    let diag_line = |d: &Diagnostic| match &req.files[..] {
        [file] => format!("{}:{d}\n", file.name),
        _ => format!("{d}\n"),
    };
    let mut response = CompileResponse {
        id: req.id,
        ..CompileResponse::default()
    };
    let (out, err) = (&mut response.stdout, &mut response.stderr);
    let sc = match result {
        Ok(sc) => sc,
        Err(e) => {
            for d in &e.diagnostics {
                err.push_str(&diag_line(d));
            }
            response.exit = 1;
            return response;
        }
    };
    let compiled = &sc.compilation;
    for d in &compiled.diagnostics {
        err.push_str(&diag_line(d));
    }
    if show_cache {
        let _ = writeln!(err, "{}", cache_line(&sc.stats));
    }
    // contained faults: the affected procedures were rolled back to their
    // last-verified IL and shipped unoptimized
    for incident in &compiled.trace.incidents {
        let _ = writeln!(err, "titanc: warning: {incident}");
    }
    if req.strict && compiled.has_incidents() {
        let _ = writeln!(
            err,
            "titanc: {} pass incident(s) contained; failing because of --strict",
            compiled.trace.incidents.len()
        );
        response.exit = i64::from(EXIT_INCIDENT);
        return response;
    }
    for snap in &compiled.snapshots {
        let _ = writeln!(
            out,
            "===== {} after {} =====\n{}",
            snap.proc, snap.phase, snap.il
        );
    }
    if req.print_il {
        out.push_str(&il_block(&compiled.program));
    }
    if req.stats {
        out.push_str(&stats_block(&compiled.reports));
    }
    match req.opt_report.as_str() {
        "text" => out.push_str(&opt_report_block(compiled, false)),
        "json" => out.push_str(&opt_report_block(compiled, true)),
        _ => {}
    }
    response
}

/// The `titanc: cache:` accounting line (no trailing newline); CI's
/// cache-smoke job parses this exact shape.
fn cache_line(stats: &SessionStats) -> String {
    format!(
        "titanc: cache: {} hit(s), {} miss(es), {} invalidated; {} pass execution(s){}; \
         {} corrupt, {} quarantined, {} lock-contended, {} write-failed",
        stats.hits,
        stats.misses,
        stats.invalidated,
        stats.passes_executed,
        if stats.full_warm { " (fully warm)" } else { "" },
        stats.corrupt,
        stats.quarantined,
        stats.lock_contended,
        stats.write_failed,
    )
}

/// The `--print-il` block: every procedure pretty-printed.
pub fn il_block(program: &titanc_il::Program) -> String {
    let mut out = String::new();
    for p in &program.procs {
        let _ = writeln!(out, "{}", titanc_il::pretty_proc(p));
    }
    out
}

/// The `--stats` block.
fn stats_block(r: &Reports) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "inline:     {} sites ({} recursive skipped, {} growth-budget skipped)",
        r.inline.inlined, r.inline.skipped_recursive, r.inline.skipped_growth
    );
    let _ = writeln!(
        out,
        "while->DO:  {} converted, {} rejected",
        r.whiledo.converted,
        r.whiledo.rejects.len()
    );
    let _ = writeln!(
        out,
        "ivsub:      {} variables, {} passes, {} backtracks",
        r.ivsub.substituted, r.ivsub.passes, r.ivsub.backtracks
    );
    let _ = writeln!(out, "forward:    {} substitutions", r.forward.substituted);
    let _ = writeln!(
        out,
        "constprop:  {} replaced, {} removed, {} rounds",
        r.constprop.replaced, r.constprop.removed, r.constprop.rounds
    );
    let _ = writeln!(out, "dce:        {} removed", r.dce.removed);
    let _ = writeln!(
        out,
        "vectorizer: {} vectorized, {} spread, {} scalar",
        r.vector.vectorized, r.vector.spread, r.vector.scalar
    );
    let _ = writeln!(
        out,
        "strength:   {} promoted, {} reduced, {} hoisted",
        r.strength.promoted, r.strength.reduced, r.strength.hoisted
    );
    out
}

/// The `--opt-report` block (text or JSON flavor).
pub fn opt_report_block(compiled: &Compilation, json: bool) -> String {
    let report = OptReport::build_for(&compiled.reports, &compiled.trace, &compiled.program.files);
    if json {
        format!("{}\n", report.to_json().to_string_compact())
    } else {
        report.render()
    }
}

/// The pipeline the CLI and the server both compile with:
/// [`Pipeline::for_options`] plus the `TITANC_INJECT_PANIC` test hook (a
/// pass that panics on the named procedure, used by the exit-code
/// integration tests to exercise fail-soft containment end to end).
pub fn base_pipeline(options: &Options) -> Pipeline {
    let mut pipeline = Pipeline::for_options(options);
    if let Ok(target) = std::env::var("TITANC_INJECT_PANIC") {
        pipeline.push_proc(InjectPanic { target });
    }
    pipeline
}

struct InjectPanic {
    target: String,
}

impl crate::ProcPass for InjectPanic {
    fn name(&self) -> &'static str {
        "inject-panic"
    }

    fn run_on(
        &self,
        proc: &mut titanc_il::Procedure,
        _cx: &crate::PassContext<'_>,
        _analyses: &mut crate::ProcAnalyses,
        _delta: &mut Reports,
    ) -> crate::PassOutcome {
        assert!(
            proc.name != self.target,
            "injected fault in `{}`",
            proc.name
        );
        crate::PassOutcome::unchanged()
    }
}

// ---------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------

/// A finished request: the wire response plus the session stats the
/// server folds into its totals (absent for front-end failures).
#[derive(Debug)]
pub struct Executed {
    /// The wire response.
    pub response: CompileResponse,
    /// Cache accounting for successful compiles.
    pub stats: Option<SessionStats>,
}

/// Executes one request against the shared resident cache, rendering
/// stdout/stderr exactly as one-shot `titanc` would (see the module
/// docs on byte identity). [`Server::handle_line`] has already rejected
/// the requests [`CompileRequest::check`] refuses.
pub fn execute(req: &CompileRequest, resident: &ResidentCache) -> Executed {
    if req.files.is_empty() {
        return Executed {
            response: bad_request(req.id, "request carries no files"),
            stats: None,
        };
    }
    let options = req.options();
    let result = compile_session_resident(&req.files, &options, base_pipeline(&options), resident);
    Executed {
        response: render(req, &result, true),
        stats: result.ok().map(|sc| sc.stats),
    }
}

/// The `exit: 2` response to a request the server will not run.
fn bad_request(id: i64, message: &str) -> CompileResponse {
    CompileResponse {
        id,
        exit: 2,
        stdout: String::new(),
        stderr: format!("titanc: server: {message}\n"),
    }
}

// ---------------------------------------------------------------------
// The server engine
// ---------------------------------------------------------------------

/// Server configuration: the write-through cache directory (optional —
/// without one the cache lives purely in memory) and the request worker
/// pool size (`0` = available parallelism).
#[derive(Clone, Debug, Default)]
pub struct ServerConfig {
    /// `--cache-dir`: write-through backing directory shared with
    /// one-shot `titanc` invocations.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Concurrent request workers (`-j`; `0` = available parallelism).
    pub workers: usize,
}

/// The reply to one protocol line.
#[derive(Debug)]
pub enum Reply {
    /// A serialized [`CompileResponse`] line.
    Line(String),
    /// The serialized shutdown acknowledgement (carrying
    /// [`ServerTotals`]); the server stops accepting after sending it.
    Shutdown(String),
}

/// A long-lived compile server: one shared [`ResidentCache`], a request
/// worker pool, and aggregate accounting. Drive it with [`serve_stdio`]
/// (stdin/stdout) or [`serve_listener`] (a Unix socket), which share one
/// serving core, or feed it lines directly with [`handle_line`] for
/// in-process use (tests, benches).
///
/// [`serve_stdio`]: Server::serve_stdio
/// [`serve_listener`]: Server::serve_listener
/// [`handle_line`]: Server::handle_line
pub struct Server {
    resident: ResidentCache,
    totals: Mutex<ServerTotals>,
    workers: usize,
    quiet: bool,
}

/// Where the replies to one connection's lines go, shared by workers.
type Conn = Arc<Mutex<dyn Write + Send>>;

/// One queued request line and its connection; `None` stops a worker.
type Job = Option<(Conn, Vec<u8>)>;

impl Server {
    /// Builds a server over a fresh resident cache (seeded lazily from
    /// `config.cache_dir` as entries are first read).
    pub fn new(config: &ServerConfig) -> Server {
        Server {
            resident: ResidentCache::new(config.cache_dir.as_deref()),
            totals: Mutex::new(ServerTotals::default()),
            workers: match config.workers {
                0 => std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1),
                n => n,
            },
            quiet: false,
        }
    }

    /// Suppresses the per-request accounting log lines on stderr
    /// (benches and tests drive thousands of requests).
    pub fn quiet(mut self) -> Server {
        self.quiet = true;
        self
    }

    /// The shared resident cache (tests publish through it).
    pub fn resident(&self) -> &ResidentCache {
        &self.resident
    }

    /// A snapshot of the aggregate accounting.
    pub fn totals(&self) -> ServerTotals {
        self.totals.lock().unwrap().clone()
    }

    /// Handles one protocol line: parse, execute, account, serialize.
    /// Unparseable lines get an `exit: 2` response rather than killing
    /// the connection.
    pub fn handle_line(&self, line: &str) -> Reply {
        let doc = match parse(line) {
            Ok(doc) => doc,
            Err(e) => return self.reject(-1, &format!("bad request line: {e}")),
        };
        if let Some(flag) = doc.get("shutdown") {
            if flag.as_bool().unwrap_or(false) {
                let totals = self.totals();
                let ack = Json::obj(vec![
                    ("shutdown", Json::Bool(true)),
                    ("totals", totals.to_json()),
                ]);
                return Reply::Shutdown(ack.to_string_compact());
            }
        }
        let req = match CompileRequest::from_json(&doc) {
            Ok(req) => req,
            Err(e) => {
                let id = doc.get("id").and_then(|v| v.as_i64().ok()).unwrap_or(-1);
                return self.reject(id, &format!("bad request: {e}"));
            }
        };
        if let Err(e) = req.check() {
            return self.reject(req.id, &format!("bad request: {e}"));
        }
        let done = execute(&req, &self.resident);
        {
            let mut totals = self.totals.lock().unwrap();
            totals.requests += 1;
            if let Some(stats) = &done.stats {
                totals.fold(stats);
            }
        }
        if !self.quiet {
            // the per-request accounting line, tagged by request id, on
            // the daemon's own stderr (the response carries the client's
            // copy inside its stderr field)
            match &done.stats {
                Some(stats) => eprintln!(
                    "titand: req={} files={} exit={} {}",
                    req.id,
                    req.files.len(),
                    done.response.exit,
                    cache_line(stats)
                ),
                None => eprintln!(
                    "titand: req={} files={} exit={}",
                    req.id,
                    req.files.len(),
                    done.response.exit
                ),
            }
        }
        Reply::Line(done.response.to_json().to_string_compact())
    }

    /// Counts a protocol error and renders its `exit: 2` response.
    fn reject(&self, id: i64, message: &str) -> Reply {
        self.totals.lock().unwrap().protocol_errors += 1;
        Reply::Line(bad_request(id, message).to_json().to_string_compact())
    }

    /// The serving core behind both transports: workers answer whole
    /// lines off one queue, so an idle connection costs its reader (see
    /// [`read_requests`]), never a worker. `intake` runs on this thread
    /// until input ends; `on_shutdown` runs after a shutdown ack, to end
    /// it. One stop sentinel per worker then queues *behind* the lines
    /// already read, so those are still answered before this returns.
    fn serve(
        &self,
        on_shutdown: impl Fn() + Sync,
        intake: impl FnOnce(&mpsc::Sender<Job>) -> io::Result<()>,
    ) -> io::Result<()> {
        let (queue, jobs) = mpsc::channel::<Job>();
        let jobs = Mutex::new(jobs);
        std::thread::scope(|s| {
            for _ in 0..self.workers {
                s.spawn(|| loop {
                    let job = jobs.lock().expect("job queue poisoned").recv();
                    let Ok(Some((conn, line))) = job else { break };
                    let reply = match std::str::from_utf8(&line) {
                        _ if line.len() > MAX_REQUEST_LINE => {
                            self.reject(-1, &format!("request line over {MAX_REQUEST_LINE} bytes"))
                        }
                        Ok(line) => self.handle_line(line),
                        Err(e) => self.reject(-1, &format!("bad request line: {e}")),
                    };
                    let (Reply::Line(text) | Reply::Shutdown(text)) = &reply;
                    let mut out = conn.lock().expect("reply writer poisoned");
                    let _ = writeln!(out, "{text}").and_then(|()| out.flush());
                    if let Reply::Shutdown(_) = reply {
                        on_shutdown();
                    }
                });
            }
            let served = intake(&queue);
            for _ in 0..self.workers {
                let _ = queue.send(None);
            }
            served
        })
    }

    /// Serves newline-delimited JSON on stdin/stdout: responses stream
    /// back as they finish (tagged by id — completion order is not
    /// request order). EOF on stdin is a graceful shutdown, as is a
    /// `{"shutdown":true}` line (acknowledged before the reader stops).
    ///
    /// # Errors
    ///
    /// Returns the first stdin read error.
    pub fn serve_stdio(&self) -> io::Result<()> {
        let stop = AtomicBool::new(false);
        let stdout: Conn = Arc::new(Mutex::new(io::stdout()));
        self.serve(
            || stop.store(true, Ordering::SeqCst),
            |queue| read_requests(io::stdin().lock(), &stdout, queue, &stop),
        )
    }

    /// Serves an already-bound Unix socket (the daemon binds first so it
    /// can announce readiness), one reader thread per connection. A
    /// `{"shutdown":true}` request is acknowledged, then the listener
    /// stops accepting; readers blocked on idle clients are not awaited.
    ///
    /// # Errors
    ///
    /// None yet: accept and per-connection IO errors drop that connection.
    #[cfg(unix)]
    pub fn serve_listener(
        &self,
        listener: std::os::unix::net::UnixListener,
        path: &Path,
    ) -> io::Result<()> {
        let stop = Arc::new(AtomicBool::new(false));
        let wake = || {
            stop.store(true, Ordering::SeqCst);
            // unblock the accept loop so it can see the stop flag
            let _ = std::os::unix::net::UnixStream::connect(path);
        };
        self.serve(wake, |queue| {
            for stream in listener.incoming().flatten() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(writer) = stream.try_clone() else {
                    continue;
                };
                let conn: Conn = Arc::new(Mutex::new(writer));
                let (queue, stop) = (queue.clone(), Arc::clone(&stop));
                // detached on purpose: a reader blocked on an idle client
                // must not hold up shutdown, and the process reaps it
                let _ = std::thread::Builder::new()
                    .spawn(move || read_requests(BufReader::new(stream), &conn, &queue, &stop));
            }
            Ok(())
        })?;
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

/// A connection's reader: queues each line as bytes until EOF, an error
/// or a shutdown. An over-cap line is queued as its first
/// `MAX_REQUEST_LINE + 1` bytes, for a worker to reject; the rest is skipped.
fn read_requests(
    mut input: impl BufRead,
    conn: &Conn,
    queue: &mpsc::Sender<Job>,
    stop: &AtomicBool,
) -> io::Result<()> {
    loop {
        let mut line = Vec::new();
        let cap = MAX_REQUEST_LINE as u64 + 1;
        let read = io::Read::take(&mut input, cap).read_until(b'\n', &mut line)?;
        if read == 0 || stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else if line.len() > MAX_REQUEST_LINE {
            input.skip_until(b'\n')?;
        }
        let blank = line.len() <= MAX_REQUEST_LINE && line.trim_ascii().is_empty();
        if !blank && queue.send(Some((Arc::clone(conn), line))).is_err() {
            return Ok(());
        }
    }
}

/// Binds the daemon's Unix socket, replacing any leftover socket file
/// from a previous run.
///
/// # Errors
///
/// Returns the bind error.
#[cfg(unix)]
pub fn bind_unix(path: &Path) -> io::Result<std::os::unix::net::UnixListener> {
    let _ = std::fs::remove_file(path);
    std::os::unix::net::UnixListener::bind(path)
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// Sends one request over a Unix socket and reads the response —
/// the transport behind `titanc --server <socket>`.
///
/// # Errors
///
/// Returns connect/IO errors, or `InvalidData` when the server's reply
/// is not a [`CompileResponse`] line.
#[cfg(unix)]
pub fn request_over_unix(addr: &Path, req: &CompileRequest) -> io::Result<CompileResponse> {
    let doc = round_trip(addr, &req.to_json().to_string_compact(), "bad response")?;
    CompileResponse::from_json(&doc).map_err(|e| invalid_data("bad response", e))
}

/// Sends `{"shutdown":true}` over a Unix socket and returns the
/// server's aggregate totals from the acknowledgement.
///
/// # Errors
///
/// Returns connect/IO errors, or `InvalidData` on a malformed
/// acknowledgement.
#[cfg(unix)]
pub fn shutdown_over_unix(addr: &Path) -> io::Result<ServerTotals> {
    let doc = round_trip(addr, r#"{"shutdown":true}"#, "bad ack")?;
    doc.field("totals")
        .and_then(ServerTotals::from_json)
        .map_err(|e| invalid_data("bad ack", e))
}

/// One client round trip: connect, send `line`, half-close, and parse
/// the one reply line (`what` names a malformed reply in the error).
#[cfg(unix)]
fn round_trip(addr: &Path, line: &str, what: &str) -> io::Result<Json> {
    let mut stream = std::os::unix::net::UnixStream::connect(addr)?;
    writeln!(stream, "{line}")?;
    stream.flush()?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    parse(reply.trim_end()).map_err(|e| invalid_data(what, e))
}

#[cfg(unix)]
fn invalid_data(what: &str, e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_request(id: i64, tag: usize) -> CompileRequest {
        let src = format!(
            "float a{tag}[64], b{tag}[64];\n\
             void k{tag}(void) {{ int i; for (i = 0; i < 64; i++) \
             a{tag}[i] = a{tag}[i] + 2.0f * b{tag}[i]; }}\n\
             int main(void) {{ k{tag}(); return 0; }}\n"
        );
        CompileRequest {
            id,
            files: vec![SourceFile::new(format!("t{tag}.c"), src)],
            opt_report: "json".to_string(),
            ..CompileRequest::default()
        }
    }

    fn response_of(reply: Reply) -> CompileResponse {
        match reply {
            Reply::Line(line) => CompileResponse::from_json(&parse(&line).unwrap()).unwrap(),
            Reply::Shutdown(ack) => panic!("unexpected shutdown ack: {ack}"),
        }
    }

    #[test]
    fn protocol_errors_answer_exit_two_and_are_counted() {
        let server = Server::new(&ServerConfig::default()).quiet();
        let bad = response_of(server.handle_line("not json at all"));
        assert_eq!((bad.id, bad.exit), (-1, 2));
        assert!(bad.stderr.contains("bad request line"));

        let missing = response_of(server.handle_line(r#"{"id": 9}"#));
        assert_eq!((missing.id, missing.exit), (9, 2));
        assert!(missing.stderr.contains("bad request"));

        let totals = server.totals();
        assert_eq!(totals.protocol_errors, 2);
        assert_eq!(totals.requests, 0);
    }

    /// A strip length below 1 used to compile into a strip loop that
    /// never runs (or steps by zero), and an `opt` outside 0–2 was served
    /// as O2; both are bad requests now.
    #[test]
    fn out_of_range_strip_and_opt_are_bad_requests() {
        let server = Server::new(&ServerConfig::default()).quiet();
        let cases = [(2, 0), (2, -4), (-3, 32), (7, 32)];
        for (id, &(opt, strip)) in cases.iter().enumerate() {
            let req = CompileRequest {
                opt,
                strip,
                ..tiny_request(id as i64, 0)
            };
            let resp = response_of(server.handle_line(&req.to_json().to_string_compact()));
            assert_eq!(
                (resp.id, resp.exit),
                (id as i64, 2),
                "opt {opt} strip {strip}"
            );
            assert!(
                resp.stderr.starts_with("titanc: server: bad request: "),
                "{}",
                resp.stderr
            );
        }
        let totals = server.totals();
        assert_eq!((totals.protocol_errors, totals.requests), (4, 0));
    }

    #[test]
    fn shutdown_ack_carries_the_totals() {
        let server = Server::new(&ServerConfig::default()).quiet();
        let req = tiny_request(5, 0).to_json().to_string_compact();
        assert_eq!(response_of(server.handle_line(&req)).exit, 0);
        match server.handle_line(r#"{"shutdown": true}"#) {
            Reply::Shutdown(ack) => {
                let doc = parse(&ack).unwrap();
                let totals = ServerTotals::from_json(doc.field("totals").unwrap()).unwrap();
                assert_eq!(totals.requests, 1);
                assert!(totals.misses > 0);
            }
            Reply::Line(line) => panic!("shutdown not acknowledged: {line}"),
        }
    }

    #[test]
    fn repeat_requests_hit_the_shared_resident_cache() {
        let server = Server::new(&ServerConfig::default()).quiet();
        let line = tiny_request(1, 3).to_json().to_string_compact();
        let cold = response_of(server.handle_line(&line));
        let warm = response_of(server.handle_line(&line));
        assert_eq!(cold.exit, 0, "{}", cold.stderr);
        assert_eq!(cold.stdout, warm.stdout);
        assert!(
            warm.stderr.contains("(fully warm)"),
            "repeat did not skip the pipeline:\n{}",
            warm.stderr
        );
        let totals = server.totals();
        assert_eq!(totals.fully_warm, 1);
        assert!(totals.hits > 0);
    }
}
