//! The compile server, end to end through the real binaries: `titand`
//! responses must be byte-identical to one-shot `titanc` on the same
//! inputs (stdout exactly; stderr modulo the `titanc: cache:` accounting
//! line, which legitimately reflects cache state), warm repeats must
//! skip the pipeline, and ≥8 concurrent clients over a Unix socket must
//! each see their own one-shot-identical response. Idle clients must not
//! stall a request or the shutdown, and a non-UTF-8 or over-cap line must
//! answer exit 2 while its connection keeps serving.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, Write};
#[cfg(unix)]
use std::net::Shutdown;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::time::{Duration, Instant};

use titanc::server::{CompileRequest, CompileResponse, MAX_REQUEST_LINE};
use titanc::SourceFile;
use titanc_il::json::{parse, FromJson, ToJson};

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    assert!(files.len() >= 7, "corpus went missing");
    files
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("titanc-server-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The CLI flag set the whole file exercises, and its request twin.
const ONE_SHOT_FLAGS: &[&str] = &[
    "--parallel",
    "--spread-lists",
    "--opt-report=json",
    "--stats",
    "--print-il",
];

fn request_for(id: i64, path: &std::path::Path) -> CompileRequest {
    let src = fs::read_to_string(path).unwrap();
    CompileRequest {
        id,
        files: vec![SourceFile::new(path.display().to_string(), src)],
        parallelize: true,
        spread_lists: true,
        print_il: true,
        stats: true,
        opt_report: "json".to_string(),
        ..CompileRequest::default()
    }
}

fn one_shot(path: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_titanc"))
        .args(ONE_SHOT_FLAGS)
        .arg(path)
        .output()
        .unwrap()
}

fn strip_cache_lines(s: &str) -> String {
    s.lines()
        .filter(|l| !l.starts_with("titanc: cache:"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Runs `titand --stdio --quiet`, feeds it the given request lines plus
/// a shutdown, and returns the responses keyed by request id.
fn serve_stdio(lines: &[String]) -> BTreeMap<i64, CompileResponse> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_titand"))
        .args(["--stdio", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    {
        let mut stdin = child.stdin.take().unwrap();
        for line in lines {
            writeln!(stdin, "{line}").unwrap();
        }
        // EOF is a graceful shutdown
    }
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "titand failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut responses = BTreeMap::new();
    for line in String::from_utf8(out.stdout).unwrap().lines() {
        let doc = parse(line).unwrap();
        let resp = CompileResponse::from_json(&doc).unwrap();
        responses.insert(resp.id, resp);
    }
    responses
}

#[test]
fn stdio_responses_match_one_shot_titanc_for_every_corpus_file() {
    let files = corpus_files();
    let lines: Vec<String> = files
        .iter()
        .enumerate()
        .map(|(i, f)| request_for(i as i64, f).to_json().to_string_compact())
        .collect();
    let responses = serve_stdio(&lines);
    assert_eq!(responses.len(), files.len());

    for (i, file) in files.iter().enumerate() {
        let resp = &responses[&(i as i64)];
        let reference = one_shot(file);
        assert_eq!(
            resp.exit,
            i64::from(reference.status.code().unwrap()),
            "{}",
            file.display()
        );
        assert_eq!(
            resp.stdout,
            String::from_utf8_lossy(&reference.stdout),
            "stdout diverged for {}",
            file.display()
        );
        assert_eq!(
            strip_cache_lines(&resp.stderr),
            String::from_utf8_lossy(&reference.stderr),
            "stderr diverged for {}",
            file.display()
        );
    }
}

#[test]
fn warm_repeat_skips_the_pipeline_and_stays_byte_identical() {
    let file = &corpus_files()[0];
    let lines = [
        request_for(1, file).to_json().to_string_compact(),
        request_for(2, file).to_json().to_string_compact(),
    ];
    // stdio requests are served concurrently, so the "second" request is
    // not guaranteed to see the first one's published entries — run two
    // daemons over one write-through directory instead, which also
    // proves one-shot/daemon interop on the same cache dir.
    let dir = scratch("warm");
    let dir_arg = dir.join("cache");
    let serve_one = |line: &String| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_titand"))
            .args(["--stdio", "--quiet", "--cache-dir"])
            .arg(&dir_arg)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        writeln!(child.stdin.take().unwrap(), "{line}").unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).unwrap();
        let doc = parse(text.lines().next().unwrap()).unwrap();
        CompileResponse::from_json(&doc).unwrap()
    };
    let cold = serve_one(&lines[0]);
    let warm = serve_one(&lines[1]);

    assert_eq!(cold.exit, 0, "{}", cold.stderr);
    assert_eq!(warm.exit, 0, "{}", warm.stderr);
    assert_eq!(cold.stdout, warm.stdout, "warm stdout diverged");
    assert_eq!(
        strip_cache_lines(&cold.stderr),
        strip_cache_lines(&warm.stderr),
        "warm stderr diverged"
    );
    assert!(
        warm.stderr.contains("(fully warm)"),
        "second run did not skip the pipeline:\n{}",
        warm.stderr
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn client_rejects_flags_that_cannot_ride_the_protocol() {
    for flag in [
        &["--run"][..],
        &["--time"][..],
        &["--snapshots"][..],
        &["--cache-dir", "x"][..],
        &["--trace-json", "x"][..],
        &["--emit-catalog", "x"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_titanc"))
            .args(["--server", "/nonexistent.sock"])
            .args(flag)
            .arg("x.c")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "flag {flag:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("cannot be combined with --server"),
            "flag {flag:?}"
        );
    }
}

#[cfg(unix)]
#[test]
fn eight_concurrent_socket_clients_each_match_one_shot() {
    let dir = scratch("socket");
    let sock = dir.join("titand.sock");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_titand"))
        .args(["--quiet", "--socket"])
        .arg(&sock)
        .args(["--cache-dir"])
        .arg(dir.join("cache"))
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(sock.exists(), "titand never bound its socket");

    // 8+ concurrent clients: every corpus file once, plus repeats of the
    // first two — distinct and identical requests in flight together
    let files = corpus_files();
    let mut batch: Vec<PathBuf> = files.clone();
    batch.push(files[0].clone());
    batch.push(files[1].clone());
    assert!(batch.len() >= 8);

    let outputs: Vec<(PathBuf, Output)> = std::thread::scope(|s| {
        let handles: Vec<_> = batch
            .iter()
            .map(|f| {
                let sock = &sock;
                s.spawn(move || {
                    let out = Command::new(env!("CARGO_BIN_EXE_titanc"))
                        .args(["--server"])
                        .arg(sock)
                        .args(ONE_SHOT_FLAGS)
                        .arg(f)
                        .output()
                        .unwrap();
                    (f.clone(), out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (file, out) in &outputs {
        let reference = one_shot(file);
        assert_eq!(
            out.status.code(),
            reference.status.code(),
            "{}: {}",
            file.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&reference.stdout),
            "stdout diverged for {}",
            file.display()
        );
        assert_eq!(
            strip_cache_lines(&String::from_utf8_lossy(&out.stderr)),
            String::from_utf8_lossy(&reference.stderr),
            "stderr diverged for {}",
            file.display()
        );
    }

    // a request issued after the batch finished is guaranteed to find
    // the published entries in the resident map
    let warm = Command::new(env!("CARGO_BIN_EXE_titanc"))
        .args(["--server"])
        .arg(&sock)
        .args(ONE_SHOT_FLAGS)
        .arg(&files[0])
        .output()
        .unwrap();
    assert!(
        String::from_utf8_lossy(&warm.stderr).contains("(fully warm)"),
        "post-batch repeat did not skip the pipeline:\n{}",
        String::from_utf8_lossy(&warm.stderr)
    );

    let totals = titanc::server::shutdown_over_unix(&sock).unwrap();
    assert_eq!(totals.requests, batch.len() as i64 + 1);
    assert_eq!(totals.protocol_errors, 0);
    assert!(
        totals.hits > 0,
        "repeat requests should have hit the resident cache: {totals}"
    );
    let status = daemon.wait().unwrap();
    assert!(status.success());
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Serving-core regressions: idle clients, shutdown, malformed lines
// ---------------------------------------------------------------------

/// Waits for `child` up to `limit`, then kills it and fails: a hang
/// fails the test instead of stalling the suite.
fn wait_or_kill(child: &mut Child, limit: Duration, what: &str) -> ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} did not finish within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Long enough for a debug-build compile on a loaded machine.
const REQUEST_LIMIT: Duration = Duration::from_secs(60);

fn parse_response(line: &str) -> CompileResponse {
    CompileResponse::from_json(&parse(line).unwrap()).unwrap()
}

/// A `titand --socket` child with its own scratch directory; dropping it
/// kills the daemon, so a failed assertion never leaves one running.
#[cfg(unix)]
struct Daemon {
    child: Child,
    dir: PathBuf,
    sock: PathBuf,
}

#[cfg(unix)]
impl Daemon {
    fn start(name: &str, jobs: &str) -> Daemon {
        let dir = scratch(name);
        let sock = dir.join("titand.sock");
        let child = Command::new(env!("CARGO_BIN_EXE_titand"))
            .args(["--quiet", "-j", jobs, "--socket"])
            .arg(&sock)
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let start = Instant::now();
        while !sock.exists() {
            assert!(start.elapsed() < REQUEST_LIMIT, "titand never bound");
            std::thread::sleep(Duration::from_millis(25));
        }
        Daemon { child, dir, sock }
    }

    fn connect(&self) -> UnixStream {
        let stream = UnixStream::connect(&self.sock).unwrap();
        stream.set_read_timeout(Some(REQUEST_LIMIT)).unwrap();
        stream
    }

    /// Writes `input` on one connection, half-closes it, and returns
    /// every reply line.
    fn exchange(&self, input: &[u8]) -> Vec<String> {
        let mut conn = self.connect();
        conn.write_all(input).unwrap();
        conn.shutdown(Shutdown::Write).unwrap();
        BufReader::new(conn).lines().map(Result::unwrap).collect()
    }

    /// Shuts the daemon down and checks it exits 0 promptly.
    fn shutdown(mut self) -> titanc::server::ServerTotals {
        let totals = titanc::server::shutdown_over_unix(&self.sock).unwrap();
        let status = wait_or_kill(&mut self.child, Duration::from_secs(10), "titand");
        assert!(status.success());
        totals
    }
}

#[cfg(unix)]
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// `bad` as one line, then a valid request line for `file`.
fn bad_line_then(bad: Vec<u8>, id: i64, file: &std::path::Path) -> Vec<u8> {
    let mut input = bad;
    input.push(b'\n');
    input.extend(request_for(id, file).to_json().to_string_compact().bytes());
    input.push(b'\n');
    input
}

/// The malformed line answers `exit: 2` with `id: -1`, and the valid
/// request behind it is still served, one-shot-identical.
fn assert_rejected_then_served(replies: &[String], message: &str, id: i64, file: &std::path::Path) {
    assert_eq!(replies.len(), 2, "{replies:?}");
    let bad = parse_response(&replies[0]);
    assert_eq!((bad.id, bad.exit), (-1, 2), "{}", bad.stderr);
    assert!(bad.stderr.contains(message), "{}", bad.stderr);
    let good = parse_response(&replies[1]);
    assert_eq!((good.id, good.exit), (id, 0), "{}", good.stderr);
    assert_eq!(good.stdout, String::from_utf8_lossy(&one_shot(file).stdout));
}

#[cfg(unix)]
#[test]
fn idle_connections_do_not_starve_a_request() {
    let daemon = Daemon::start("idle", "1");
    let _idle = [daemon.connect(), daemon.connect()];
    let file = &corpus_files()[0];
    let (out, err) = (daemon.dir.join("served.out"), daemon.dir.join("served.err"));
    let mut client = Command::new(env!("CARGO_BIN_EXE_titanc"))
        .arg("--server")
        .arg(&daemon.sock)
        .args(ONE_SHOT_FLAGS)
        .arg(file)
        .stdout(fs::File::create(&out).unwrap())
        .stderr(fs::File::create(&err).unwrap())
        .spawn()
        .unwrap();
    let status = wait_or_kill(&mut client, REQUEST_LIMIT, "a request behind idle clients");
    let reference = one_shot(file);
    assert_eq!(status.code(), reference.status.code());
    assert_eq!(
        fs::read_to_string(&out).unwrap(),
        String::from_utf8_lossy(&reference.stdout)
    );
    assert_eq!(
        strip_cache_lines(&fs::read_to_string(&err).unwrap()),
        String::from_utf8_lossy(&reference.stderr)
    );
    assert_eq!(daemon.shutdown().requests, 1);
}

#[cfg(unix)]
#[test]
fn shutdown_with_an_idle_client_open_exits_promptly() {
    let daemon = Daemon::start("idle-shutdown", "2");
    let _idle = daemon.connect();
    assert_eq!(daemon.shutdown().protocol_errors, 0);
}

#[test]
fn non_utf8_stdio_line_is_a_protocol_error_and_serving_continues() {
    let file = &corpus_files()[0];
    let mut input = bad_line_then(b"\xff\xfe bad".to_vec(), 7, file);
    input.extend(b"{\"shutdown\":true}\n");
    let dir = scratch("utf8-stdio");
    let out = dir.join("stdout");
    // one worker answers the lines in order
    let mut child = Command::new(env!("CARGO_BIN_EXE_titand"))
        .args(["--stdio", "--quiet", "-j", "1"])
        .stdin(Stdio::piped())
        .stdout(fs::File::create(&out).unwrap())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // a daemon that dies early closes the pipe; the status check reports it
    let _ = child.stdin.take().unwrap().write_all(&input);
    let status = wait_or_kill(&mut child, REQUEST_LIMIT, "titand --stdio");
    assert!(status.success(), "titand --stdio exited with {status}");
    let mut replies: Vec<String> = fs::read_to_string(&out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let ack = parse(&replies.pop().expect("a shutdown ack")).unwrap();
    let totals = titanc::server::ServerTotals::from_json(ack.field("totals").unwrap()).unwrap();
    assert_eq!((totals.protocol_errors, totals.requests), (1, 1));
    assert_rejected_then_served(&replies, "bad request line", 7, file);
    let _ = fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn non_utf8_socket_line_is_a_protocol_error_and_the_connection_keeps_serving() {
    let daemon = Daemon::start("utf8-socket", "1");
    let file = &corpus_files()[0];
    let replies = daemon.exchange(&bad_line_then(b"\xff\xfe bad".to_vec(), 8, file));
    assert_rejected_then_served(&replies, "bad request line", 8, file);
    let totals = daemon.shutdown();
    assert_eq!((totals.protocol_errors, totals.requests), (1, 1));
}

#[cfg(unix)]
#[test]
fn over_cap_line_is_a_protocol_error_and_the_next_line_is_served() {
    let daemon = Daemon::start("cap", "1");
    let file = &corpus_files()[0];
    // a valid request padded past the cap: read whole, it would compile
    let mut over_cap = request_for(9, file)
        .to_json()
        .to_string_compact()
        .into_bytes();
    over_cap.resize(MAX_REQUEST_LINE + 1, b' ');
    let replies = daemon.exchange(&bad_line_then(over_cap, 10, file));
    assert_rejected_then_served(&replies, "request line over", 10, file);
    let totals = daemon.shutdown();
    assert_eq!((totals.protocol_errors, totals.requests), (1, 1));
}
