//! Seeded protocol fuzzing of the `titand` line handler: mutated request
//! lines (byte flips, truncation, dropped or unknown keys, wrong-typed
//! and extreme-valued fields) go through `Server::handle_line`. Every
//! line must get a reply that parses as a response with an `id` and an
//! exit code in 0–3, no panic may escape, and the server must account
//! for every line as either a request or a protocol error.

use std::panic::{catch_unwind, AssertUnwindSafe};

use titanc::server::{CompileRequest, CompileResponse, Reply, Server, ServerConfig};
use titanc::SourceFile;
use titanc_il::json::{parse, FromJson, Json, ToJson};

const SEED: u64 = 0x5EED_F022;
const CASES: u64 = 2000;

/// A tiny kernel, so a mutated request that still compiles costs little.
const SRC: &str = "float a[16], b[16];\n\
    int main(void) { int i; for (i = 0; i < 16; i++) a[i] = b[i] + 1.0f; return (int)a[3]; }\n";

const EXTREMES: [i64; 9] = [i64::MIN, i64::MIN + 1, -4, -1, 0, 1, 3, 1 << 40, i64::MAX];

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
        (self.next() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn valid_request(rng: &mut Rng, id: i64) -> Json {
    CompileRequest {
        id,
        files: vec![SourceFile::new("fuzz.c", SRC)],
        opt: rng.below(3) as i64,
        parallelize: rng.coin(),
        spread_lists: rng.coin(),
        fortran_aliasing: rng.coin(),
        inline: rng.coin(),
        strip: [1, 8, 32][rng.below(3)],
        jobs: rng.below(3) as i64,
        verify: rng.coin(),
        max_errors: rng.below(3) as i64,
        strict: rng.coin(),
        print_il: rng.coin(),
        stats: rng.coin(),
        opt_report: ["none", "text", "json"][rng.below(3)].to_string(),
    }
    .to_json()
}

fn wrong_typed(rng: &mut Rng) -> Json {
    match rng.below(7) {
        0 => Json::Null,
        1 => Json::Bool(rng.coin()),
        2 => Json::Float([f64::NAN, f64::INFINITY, 1e300, -0.5][rng.below(4)]),
        3 => Json::Str("2".to_string()),
        4 => Json::Arr(vec![Json::Int(1)]),
        5 => Json::obj(vec![("name", Json::Int(0))]),
        _ => Json::Int(EXTREMES[rng.below(EXTREMES.len())]),
    }
}

/// An in-type but extreme value for the field currently holding `old`.
fn extreme(rng: &mut Rng, old: &Json) -> Json {
    match old {
        Json::Int(_) => Json::Int(EXTREMES[rng.below(EXTREMES.len())]),
        Json::Bool(b) => Json::Bool(!b),
        Json::Str(_) => Json::Str(["", "JSON", "text ", "\u{1F600}"][rng.below(4)].to_string()),
        // `files`: none at all, an unparseable source, or an empty one
        _ => Json::Arr(match rng.below(3) {
            0 => Vec::new(),
            1 => vec![SourceFile::new("junk.c", "int main(void) { return @; }").to_json()],
            _ => vec![SourceFile::new("", "").to_json()],
        }),
    }
}

fn mutate(rng: &mut Rng, doc: Json) -> String {
    let Json::Obj(mut pairs) = doc else {
        unreachable!("requests are objects")
    };
    let k = rng.below(pairs.len());
    match rng.below(6) {
        0 => {
            let mut bytes = Json::Obj(pairs).to_string_compact().into_bytes();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                bytes[at] = 0x20 + rng.below(0x5f) as u8;
            }
            String::from_utf8(bytes).expect("printable ASCII flips keep UTF-8")
        }
        1 => {
            let line = Json::Obj(pairs).to_string_compact();
            let mut cut = rng.below(line.len());
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line[..cut].to_string()
        }
        2 => {
            pairs.remove(k);
            Json::Obj(pairs).to_string_compact()
        }
        3 => {
            pairs.insert(k, ("unknown_key".to_string(), wrong_typed(rng)));
            Json::Obj(pairs).to_string_compact()
        }
        4 => {
            pairs[k].1 = wrong_typed(rng);
            Json::Obj(pairs).to_string_compact()
        }
        _ => {
            pairs[k].1 = extreme(rng, &pairs[k].1);
            Json::Obj(pairs).to_string_compact()
        }
    }
}

#[test]
fn mutated_request_lines_always_get_a_well_formed_reply() {
    let server = Server::new(&ServerConfig::default()).quiet();
    let mut rng = Rng(SEED);
    let mut exits = [0usize; 4];
    for case in 0..CASES {
        let doc = valid_request(&mut rng, case as i64);
        let line = mutate(&mut rng, doc);
        let reply = catch_unwind(AssertUnwindSafe(|| server.handle_line(&line)))
            .unwrap_or_else(|_| panic!("case {case}: handle_line panicked on:\n{line}"));
        let Reply::Line(text) = reply else {
            panic!("case {case}: a request line was answered as a shutdown:\n{line}");
        };
        let response = parse(&text)
            .ok()
            .and_then(|doc| CompileResponse::from_json(&doc).ok())
            .unwrap_or_else(|| panic!("case {case}: malformed reply {text}\nto:\n{line}"));
        assert!(
            (0..=3).contains(&response.exit),
            "case {case}: exit {} for:\n{line}",
            response.exit
        );
        exits[response.exit as usize] += 1;
    }
    let totals = server.totals();
    assert_eq!(
        totals.requests + totals.protocol_errors,
        CASES as i64,
        "every line is a request or a protocol error: {totals:?}"
    );
    // the mutations reach compiles and source errors, not just the
    // protocol-error path
    assert!(
        exits[..3].iter().all(|&n| n > 0),
        "exit codes 0..=3 seen {exits:?} times"
    );
}
