//! Layer probes for the traced phases of the session workloads.
//!
//! A session compile is one library call, so its inner layers cannot be
//! timed around the real call. Instead each traced operation is followed
//! by probes that call the same public layer functions on the same input
//! — the front end, keying, cache decode and IL verification — and time
//! each call as that layer's span. Pass times come from the `PassTrace`
//! the session itself returned.

use std::path::{Path, PathBuf};

use titanc::{compile_session, Options, PassTrace, SourceFile};
use titanc_analysis::CallGraph;
use titanc_cfront::DiagnosticSink;
use titanc_il::{hash_proc, verify_program, Program};

use crate::stats::Layers;

/// Per-pass self times and the use–def cache hit ratio of one pipeline
/// run, read from its trace records.
pub fn record_passes(trace: &PassTrace, l: &mut Layers) {
    for r in &trace.records {
        l.add(
            &format!("core.pass.{}_ms", r.name),
            r.duration.as_secs_f64() * 1e3,
        );
    }
    let c = trace.cache_totals();
    l.ratio(
        "analysis.usedef_hit_ratio",
        c.usedef_hits as f64,
        (c.usedef_hits + c.usedef_builds) as f64,
    );
}

/// Passes as a session reports them: per-pass times plus their sum as
/// the pipeline time (replayed cells are charged zero).
pub fn record_session_passes(trace: &PassTrace, l: &mut Layers) {
    record_passes(trace, l);
    l.add(
        "core.pass.pipeline_ms",
        trace.total_duration().as_secs_f64() * 1e3,
    );
}

/// Front end and session keying over `src`: parse, lower, one stable
/// hash per parsed procedure and, with inlining, the inline cones.
pub fn front_and_keys(src: &str, opts: &Options, l: &mut Layers) {
    let mut sink = DiagnosticSink::new(opts.max_errors);
    let tu = l.span("cfront.parse_ms", || {
        titanc_cfront::parse_recovering(src, &mut sink)
    });
    let Ok(prog) = l.span("lower.lower_ms", || titanc_lower::lower(&tu)) else {
        return;
    };
    l.span("il.hash_ms", || {
        prog.procs.iter().map(hash_proc).collect::<Vec<_>>()
    });
    if opts.inline {
        l.span("analysis.inline_cones_ms", || {
            CallGraph::build(&prog).inline_cones(&prog)
        });
    }
}

/// IL verification of a compiled program, as a warm session verifies
/// every entry it replays.
pub fn verify(prog: &Program, l: &mut Layers) {
    let _ = l.span("il.verify_ms", || verify_program(prog));
}

/// The cache files a fully warm session over one source reads: the
/// index, the session manifest and one entry per procedure. Found by a
/// cold compile of the source into an empty directory, which leaves
/// exactly those files behind.
pub struct WarmFiles {
    src: String,
    /// Envelope payloads (header line stripped).
    payloads: Vec<String>,
    /// Whole-file bytes, headers included.
    pub bytes: u64,
}

impl WarmFiles {
    /// Compiles `src` cold into `dir` (emptied first) and loads the files.
    pub fn capture(src: &str, opts: &Options, dir: &Path) -> Result<WarmFiles, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("probe dir: {e}"))?;
        compile_session(&[SourceFile::new("probe.c", src)], opts, Some(dir))
            .map_err(|e| e.to_string())?;
        let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("probe dir: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
            .collect();
        names.sort();
        let mut out = WarmFiles {
            src: src.to_string(),
            payloads: Vec::new(),
            bytes: 0,
        };
        for path in names {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("probe read: {e}"))?;
            out.bytes += text.len() as u64;
            let payload = text.split_once('\n').map_or("", |(_, p)| p);
            out.payloads.push(payload.to_string());
        }
        let _ = std::fs::remove_dir_all(dir);
        Ok(out)
    }

    /// True when these files belong to `src`.
    pub fn is_for(&self, src: &str) -> bool {
        self.src == src
    }

    /// Decodes every payload with `json::parse`, timed as one span.
    pub fn decode(&self, l: &mut Layers) {
        l.span("il.json_decode_ms", || {
            for p in &self.payloads {
                let _ = std::hint::black_box(titanc_il::json::parse(p));
            }
        });
    }
}
