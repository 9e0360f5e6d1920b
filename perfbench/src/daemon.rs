//! `daemon`: a closed loop of 2 clients against the real `titand -j 2`
//! process with no cache directory. Each client sends requests through
//! `request_over_unix` (the `titanc --server` client path) and waits for
//! each reply. Each client owns 2 of the 4 projects, so every project's
//! requests are serialized and the cache accounting repeats exactly;
//! about 4 in 5 requests repeat a project unchanged and 1 in 5 edits one
//! procedure with a fresh salt. Every request asks for the JSON
//! opt-report.
//!
//! Only this workload measures transport, queue wait, rendering, and the
//! growth of the daemon's memory: its cache lives in memory, never on disk.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use titanc::server::{
    base_pipeline, execute, opt_report_block, request_over_unix, shutdown_over_unix,
    CompileRequest, Server, ServerConfig, ServerTotals,
};
use titanc::{compile_session_resident, ResidentCache, SourceFile};
use titanc_bench::multi_proc_call_source;
use titanc_il::json::ToJson;
use titanc_il::{StableHash, StableHasher};

use crate::probe::{self, WarmFiles};
use crate::stats::{
    mix, ms_since, peak_rss_mb, percentile, salt, time_sliced_rates, Calibration, Layers, Window,
    OP_TIMEOUT_MS,
};
use crate::{run_dir, Args, Workload};

/// (procedures, loops) of each project: four distinct shapes, so no two
/// projects ever share a cache entry.
const SHAPES: [(usize, usize); 4] = [(8, 30), (7, 28), (6, 32), (9, 24)];
/// Closed-loop clients (and the daemon's `-j`).
const CLIENTS: usize = 2;
/// One edit in every block of this many requests to a project.
const BLOCK: u64 = 5;
/// Requests per client in the deterministic prefix the counters cover.
const PREFIX: u64 = 50;
/// How long past the window the clients may wait on a hung daemon.
const HANG_LIMIT: Duration = Duration::from_secs(60);
/// Prefix requests per client replayed in-process by the traced phase.
const REPLAY: u64 = 30;

pub struct Daemon {
    seed: u64,
    titand: PathBuf,
    base: PathBuf,
    setups: u32,
}

/// A running `titand` primed with every project's initial state.
pub struct State {
    child: Child,
    stderr: BufReader<ChildStderr>,
    sock: PathBuf,
    /// Cache accounting of the priming requests.
    primed: Sums,
}

impl Drop for State {
    fn drop(&mut self) {
        // a clean shutdown already reaped it; otherwise never leave it behind
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The `titanc: cache:` accounting of one or more responses.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Sums {
    requests: i64,
    hits: i64,
    misses: i64,
    invalidated: i64,
    passes: i64,
    fully_warm: i64,
    degraded: i64,
}

impl Sums {
    /// Parses the accounting line out of a response's stderr.
    fn of_response(stderr: &str) -> Option<Sums> {
        let line = stderr.lines().find(|l| l.starts_with("titanc: cache: "))?;
        let nums: Vec<i64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .filter_map(|s| s.parse().ok())
            .collect();
        let [hits, misses, invalidated, passes, corrupt, quarantined, locked, write_failed] =
            nums[..]
        else {
            return None;
        };
        Some(Sums {
            requests: 1,
            hits,
            misses,
            invalidated,
            passes,
            fully_warm: i64::from(line.contains("(fully warm)")),
            degraded: corrupt + quarantined + locked + write_failed,
        })
    }

    fn add(&mut self, o: &Sums) {
        self.requests += o.requests;
        self.hits += o.hits;
        self.misses += o.misses;
        self.invalidated += o.invalidated;
        self.passes += o.passes;
        self.fully_warm += o.fully_warm;
        self.degraded += o.degraded;
    }

    fn matches(&self, t: &ServerTotals) -> bool {
        self.requests == t.requests
            && self.hits == t.hits
            && self.misses == t.misses
            && self.invalidated == t.invalidated
            && self.passes == t.passes_executed
            && self.fully_warm == t.fully_warm
            && self.degraded == t.corrupt + t.quarantined + t.lock_contended + t.write_failed
    }
}

/// One request a client sent and what came back.
struct Sample {
    req: CompileRequest,
    edit: bool,
    ms: f64,
    /// The client's `cal` when it sent the request.
    cal_ms: f64,
    /// Completion time, in seconds from the start of the window.
    end_s: f64,
    exit: i64,
    stdout: StableHash,
    sums: Option<Sums>,
    request_bytes: u64,
    response_bytes: u64,
}

impl Daemon {
    pub fn new(args: &Args) -> Daemon {
        Daemon {
            seed: args.seed,
            titand: args.titand.clone(),
            base: run_dir(args),
            setups: 0,
        }
    }
}

fn initial_salts(seed: u64, project: usize) -> Vec<i64> {
    (0..SHAPES[project].0 as u64)
        .map(|k| salt(seed, 30 + project as u64, k))
        .collect()
}

fn request(id: i64, project: usize, salts: &[i64]) -> CompileRequest {
    let (procs, loops) = SHAPES[project];
    CompileRequest {
        id,
        files: vec![SourceFile::new(
            format!("p{project}.c"),
            multi_proc_call_source(procs, loops, salts),
        )],
        opt_report: "json".to_string(),
        ..CompileRequest::default()
    }
}

fn hash_str(s: &str) -> StableHash {
    let mut h = StableHasher::new();
    h.write_str(s);
    h.finish()
}

/// What the closed-loop clients share.
struct Load<'a> {
    seed: u64,
    sock: &'a Path,
    seconds: f64,
    start: Instant,
    /// Requests completed so far, by every client.
    done: AtomicU64,
    /// The daemon's peak RSS once the prefix has completed.
    rss: Mutex<f64>,
    pid: u32,
}

/// The closed loop of client `c`: its projects, in its seeded order.
fn client(load: &Load<'_>, c: usize) -> (Vec<Sample>, Calibration) {
    let Load {
        seed,
        sock,
        seconds,
        start,
        pid,
        ..
    } = *load;
    let owned = [c, c + CLIENTS];
    let mut salts: Vec<Vec<i64>> = owned.iter().map(|&p| initial_salts(seed, p)).collect();
    let mut out = Vec::new();
    // between its own requests a client leaves one CPU to the daemon's
    // single in-flight request of the other client, so sampling here
    // does not compete with the daemon
    let mut cal = Calibration::default();
    let mut j: u64 = 0;
    while j < PREFIX || start.elapsed().as_secs_f64() < seconds {
        let slot = (j % 2) as usize;
        let p = owned[slot];
        let m = j / 2;
        let edit = m % BLOCK == mix(seed, 40 + p as u64, m / BLOCK) % BLOCK;
        if edit {
            let k = (mix(seed, 50 + p as u64, m) % salts[slot].len() as u64) as usize;
            let mut s = salt(seed, 60 + p as u64, m);
            if s == salts[slot][k] {
                s += 1;
            }
            salts[slot][k] = s;
        }
        let req = request((c as i64) << 32 | j as i64, p, &salts[slot]);
        cal.tick();
        let t = Instant::now();
        let resp = request_over_unix(sock, &req);
        let ms = ms_since(t);
        let end_s = start.elapsed().as_secs_f64();
        if load.done.fetch_add(1, Ordering::SeqCst) + 1 == PREFIX * CLIENTS as u64 {
            *load.rss.lock().expect("rss sample lock") = peak_rss_mb(Some(pid));
        }
        let request_bytes = req.to_json().to_string_compact().len() as u64 + 1;
        let sample = match resp {
            Ok(r) => Sample {
                edit,
                ms,
                cal_ms: cal.now(),
                end_s,
                exit: r.exit,
                stdout: hash_str(&r.stdout),
                sums: Sums::of_response(&r.stderr),
                request_bytes,
                response_bytes: r.to_json().to_string_compact().len() as u64 + 1,
                req,
            },
            Err(e) => Sample {
                edit,
                ms,
                cal_ms: cal.now(),
                end_s,
                exit: -1,
                stdout: hash_str(&e.to_string()),
                sums: None,
                request_bytes,
                response_bytes: 0,
                req,
            },
        };
        out.push(sample);
        j += 1;
    }
    (out, cal)
}

impl Workload for Daemon {
    type State = State;

    fn setup(&mut self, _args: &Args) -> Result<State, String> {
        self.setups += 1;
        std::fs::create_dir_all(&self.base).map_err(|e| format!("work dir: {e}"))?;
        let sock = self.base.join(format!("titand-{}.sock", self.setups));
        let mut child = Command::new(&self.titand)
            .arg("--socket")
            .arg(&sock)
            .args(["-j", &CLIENTS.to_string(), "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.titand.display()))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        // from here on, dropping the state stops the daemon
        let mut st = State {
            child,
            stderr,
            sock,
            primed: Sums::default(),
        };
        let mut line = String::new();
        st.stderr
            .read_line(&mut line)
            .map_err(|e| format!("titand: {e}"))?;
        if !line.starts_with("titand: listening on") {
            return Err(format!("titand did not start: {}", line.trim()));
        }
        for p in 0..SHAPES.len() {
            let req = request(-1 - p as i64, p, &initial_salts(self.seed, p));
            let resp = request_over_unix(&st.sock, &req).map_err(|e| format!("priming: {e}"))?;
            let sums = Sums::of_response(&resp.stderr)
                .filter(|_| resp.exit == 0)
                .ok_or_else(|| format!("priming failed: {}", resp.stderr.trim()))?;
            st.primed.add(&sums);
        }
        Ok(st)
    }

    fn measure(
        &mut self,
        mut st: State,
        seconds: f64,
        layers: Option<&mut Layers>,
    ) -> Result<Window, String> {
        let sock = st.sock.clone();
        let load = Load {
            seed: self.seed,
            sock: &sock,
            seconds,
            start: Instant::now(),
            done: AtomicU64::new(0),
            rss: Mutex::new(0.0),
            pid: st.child.id(),
        };
        let child = &mut st.child;
        let (per_client, cals): (Vec<Vec<Sample>>, Vec<Calibration>) = std::thread::scope(|s| {
            // a hung daemon must not hang the benchmark: past the limit the
            // watchdog kills it, and the clients' pending requests fail
            let (finished, watch) = mpsc::channel::<()>();
            s.spawn(move || {
                if watch
                    .recv_timeout(Duration::from_secs_f64(seconds) + HANG_LIMIT)
                    .is_err()
                {
                    let _ = child.kill();
                }
            });
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let load = &load;
                    s.spawn(move || client(load, c))
                })
                .collect();
            let samples = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .unzip();
            let _ = finished.send(());
            samples
        });
        let window_s = load.start.elapsed().as_secs_f64();
        let totals = shutdown_over_unix(&st.sock).map_err(|e| format!("shutdown: {e}"))?;
        let status = st.child.wait().map_err(|e| format!("titand wait: {e}"))?;
        let mut tail = String::new();
        let _ = std::io::Read::read_to_string(&mut st.stderr, &mut tail);

        let mut win = Window {
            rss_mb: *load.rss.lock().expect("rss sample lock"),
            ..Window::default()
        };
        if !status.success() {
            win.failures
                .push(format!("titand exited with {status}: {}", tail.trim()));
        }
        let mut all = st.primed;
        let mut prefix = Sums::default();
        let (mut req_bytes, mut resp_bytes) = (0u64, 0u64);
        let mut first: HashMap<(String, bool), Sums> = HashMap::new();
        let mut finished = Vec::new();
        for c in cals {
            win.cal.merge(c);
        }
        for samples in &per_client {
            for (j, s) in samples.iter().enumerate() {
                win.attempted += 1;
                win.op_ms.push(s.ms);
                win.op_cal.push(s.ms / s.cal_ms);
                finished.push((s.end_s, s.req.files[0].src.lines().count() as u64));
                let Some(sums) = s.sums.filter(|_| s.exit == 0) else {
                    win.failures
                        .push(format!("request {}: exit {}", s.req.id, s.exit));
                    continue;
                };
                if s.ms > OP_TIMEOUT_MS {
                    win.failures
                        .push(format!("request {}: timed out ({} ms)", s.req.id, s.ms));
                }
                all.add(&sums);
                if sums.degraded > 0 {
                    win.failures
                        .push(format!("request {}: cache degraded", s.req.id));
                }
                match first.get(&(s.req.files[0].name.clone(), s.edit)) {
                    Some(f) if *f != sums => {
                        win.failures
                            .push(format!("request {}: cache counters drifted", s.req.id));
                    }
                    Some(_) => {}
                    None => {
                        first.insert((s.req.files[0].name.clone(), s.edit), sums);
                    }
                }
                if (j as u64) < PREFIX {
                    prefix.add(&sums);
                    req_bytes += s.request_bytes;
                    resp_bytes += s.response_bytes;
                }
            }
        }
        if !all.matches(&totals) || totals.protocol_errors != 0 {
            win.failures.push(format!(
                "shutdown totals {totals} disagree with the responses' accounting {all:?}"
            ));
        }

        // correctness: stdout equals an in-process `execute` of the same
        // request, once per distinct source, one thread per client (each
        // with its own resident cache, fed that client's sequence)
        let mismatched: Vec<i64> = std::thread::scope(|scope| {
            let checks: Vec<_> = per_client
                .iter()
                .map(|samples| {
                    scope.spawn(move || {
                        let cache = ResidentCache::new(None);
                        let mut reference: HashMap<&str, StableHash> = HashMap::new();
                        let mut bad = Vec::new();
                        for s in samples {
                            let want = *reference.entry(&s.req.files[0].src).or_insert_with(|| {
                                hash_str(&execute(&s.req, &cache).response.stdout)
                            });
                            if s.exit == 0 && s.stdout != want {
                                bad.push(s.req.id);
                            }
                        }
                        bad
                    })
                })
                .collect();
            checks
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        for id in mismatched {
            win.failures.push(format!(
                "request {id}: stdout differs from in-process execute"
            ));
        }

        if let Some(l) = layers {
            let probe_dir = self.base.join("probe");
            let read_bytes = replay(&per_client, self.seed, &probe_dir, win.cal.ms(), l)?;
            win.counters
                .push(("core.store.read_bytes".to_string(), read_bytes));
        }

        let edits: Vec<f64> = per_client
            .iter()
            .flatten()
            .filter(|s| s.edit)
            .map(|s| s.ms)
            .collect();
        win.rates = time_sliced_rates(&finished, window_s);
        // concurrent clients share the wall clock, so the daemon's rate
        // is scaled by the window's median speed rather than per request
        win.cal_rates = win.rates.iter().map(|r| r * win.cal.ms() / 1e3).collect();
        win.report = vec![
            ("request_ms_p50", percentile(&win.op_ms, 0.5), "ms"),
            ("request_ms_p90", percentile(&win.op_ms, 0.9), "ms"),
            ("requests_per_s", win.op_ms.len() as f64 / window_s, "1/s"),
            ("daemon_rss_mb", win.rss_mb, "MB"),
            ("edit_request_ms_p50", percentile(&edits, 0.5), "ms"),
        ];
        win.counters.extend([
            ("core.server.hits".to_string(), prefix.hits as u64),
            ("core.server.misses".to_string(), prefix.misses as u64),
            (
                "core.server.fully_warm".to_string(),
                prefix.fully_warm as u64,
            ),
            (
                "core.server.passes_executed".to_string(),
                prefix.passes as u64,
            ),
            (
                "core.server.protocol_errors".to_string(),
                totals.protocol_errors as u64,
            ),
            ("core.server.request_bytes".to_string(), req_bytes),
            ("core.server.response_bytes".to_string(), resp_bytes),
        ]);
        Ok(win)
    }

    fn load_shape(&self) -> &'static str {
        "closed loop, 2 clients (threads of one process), real titand -j 2 over a Unix socket, no cache dir; 4 projects, 2 per client; 4 repeats + 1 fresh-salt edit per 5 requests; JSON opt-report"
    }
}

/// The traced phase's in-process replay of each client's first `REPLAY`
/// requests, in the order the clients sent them (projects are disjoint,
/// so every project sees the same sequence as in the daemon). Three
/// fresh caches, primed like the daemon, give the layers:
/// `server::execute`, `Server::handle_line` (the daemon's per-request
/// work, subtracted from the client's round trip to leave transport and
/// queue wait), and a session compile whose result is rendered with
/// `opt_report_block`. The replay runs after the window, when the host
/// may be faster or slower, so the `handle_line` time is rescaled by the
/// ratio of the window's `cal` to the replay's before the subtraction.
/// Returns the bytes a warm request decodes.
fn replay(
    per_client: &[Vec<Sample>],
    seed: u64,
    probe_dir: &Path,
    window_cal_ms: f64,
    l: &mut Layers,
) -> Result<u64, String> {
    let order: Vec<&Sample> = (0..REPLAY as usize)
        .flat_map(|j| per_client.iter().filter_map(move |c| c.get(j)))
        .collect();
    let exec_cache = ResidentCache::new(None);
    let server = Server::new(&ServerConfig::default()).quiet();
    let report_cache = ResidentCache::new(None);
    let session = |req: &CompileRequest, cache: &ResidentCache| {
        let opts = req.options();
        compile_session_resident(&req.files, &opts, base_pipeline(&opts), cache)
    };
    for p in 0..SHAPES.len() {
        let req = request(-1 - p as i64, p, &initial_salts(seed, p));
        execute(&req, &exec_cache);
        server.handle_line(&req.to_json().to_string_compact());
        let _ = session(&req, &report_cache);
    }
    let mut warm: HashMap<String, WarmFiles> = HashMap::new();
    let mut read_bytes = None;
    let (mut handle_ms, mut round_trip_ms) = (0.0, 0.0);
    let mut cal = Calibration::default();
    for s in &order {
        cal.tick();
        l.op();
        l.span("core.server.execute_ms", || execute(&s.req, &exec_cache));
        let line = s.req.to_json().to_string_compact();
        let t = Instant::now();
        server.handle_line(&line);
        handle_ms += ms_since(t);
        round_trip_ms += s.ms;
        if let Ok(sc) = session(&s.req, &report_cache) {
            l.span("core.trace.opt_report_ms", || {
                opt_report_block(&sc.compilation, true)
            });
            probe::record_session_passes(&sc.compilation.trace, l);
            probe::verify(&sc.compilation.program, l);
        }
        let src = &s.req.files[0].src;
        let opts = s.req.options();
        probe::front_and_keys(src, &opts, l);
        if !s.edit {
            if !warm.contains_key(src) {
                warm.insert(src.clone(), WarmFiles::capture(src, &opts, probe_dir)?);
            }
            let wf = &warm[src];
            wf.decode(l);
            read_bytes.get_or_insert(wf.bytes);
        }
    }
    l.set(
        "core.server.transport_ms",
        (round_trip_ms - handle_ms * window_cal_ms / cal.ms().max(1e-9))
            / order.len().max(1) as f64,
    );
    Ok(read_bytes.unwrap_or(0))
}
