//! Stable content hashing for cache keys.
//!
//! The persistent compilation cache keys a procedure's optimized IL by a
//! content hash of its parsed encoding plus the option/pipeline
//! fingerprints. The hash must be stable across runs, platforms and
//! compiler versions of `titanc` itself — so it is defined over the
//! canonical arena byte layout of [`crate::codec`] (the layout cache
//! entries store) with a fixed algorithm, rather than over
//! `std::hash` (whose output is explicitly unspecified and seeded
//! per-process for `HashMap`).
//!
//! The algorithm is 128-bit FNV-1a: dependency-free, endian-independent
//! (it consumes bytes), and wide enough that accidental collisions
//! between cache keys are not a practical concern.
//!
//! [`hash_proc`] hashes a procedure by sweeping its arena columns linearly
//! — one pass over the statement kinds (with spans), one over the
//! expression nodes — instead of re-serializing the structural tree to
//! JSON and hashing the text. Arena layout is a deterministic function of
//! how the IL was built (lowering and passes allocate in a fixed order),
//! so the digest is identical across clones, job counts, and cold/warm
//! cache runs, while costing a fraction of a JSON encode.

use crate::codec::write_proc;
use crate::program::Procedure;
use std::fmt;

/// Version seed folded into every [`hash_proc`] digest (and the first
/// word of every stored encoding); bump when the byte layout in
/// [`crate::codec`] changes so stale cache keys can never alias.
pub const IL_HASH_VERSION: u32 = 1;

/// 128-bit FNV-1a offset basis.
const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// An incremental 128-bit FNV-1a hasher.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u128,
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: OFFSET }
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// Feeds a string, length-prefixed so concatenations can't collide
    /// (`"ab" + "c"` vs `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> StableHash {
        StableHash(self.state)
    }
}

/// A finished 128-bit stable digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StableHash(pub u128);

impl StableHash {
    /// Hashes a single string in one call.
    pub fn of_str(s: &str) -> StableHash {
        let mut h = StableHasher::new();
        h.write_str(s);
        h.finish()
    }

    /// The digest as 32 lowercase hex digits (cache file names).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the 32-hex-digit form back into a digest — the checksum
    /// side of the cache's envelope headers. `None` for anything that
    /// is not exactly 32 hex digits.
    pub fn from_hex(s: &str) -> Option<StableHash> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(StableHash)
    }
}

impl fmt::Display for StableHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Content-hashes a procedure over its flat arenas: FNV over the bytes
/// [`write_proc`] writes.
///
/// The digest covers everything [`crate::Procedure`]'s structural equality
/// covers — signature, variable table, body ids, both arena columns with
/// spans — plus the stamp/temp counters, and nothing else (no capacities,
/// no lifetime counters). Equal layouts hash equal; the digest is stable
/// across clones and across runs.
pub fn hash_proc(proc: &Procedure) -> StableHash {
    let mut h = StableHasher::new();
    write_proc(&mut h, proc);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::types::Type;

    #[test]
    fn known_vectors() {
        // 128-bit FNV-1a of the empty input is the offset basis
        assert_eq!(StableHasher::new().finish().0, OFFSET);
        let mut h = StableHasher::new();
        h.write(b"a");
        // independently computed: offset ^ 'a' then * prime
        let expected = (OFFSET ^ u128::from(b'a')).wrapping_mul(PRIME);
        assert_eq!(h.finish().0, expected);
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        assert_eq!(StableHash::of_str("daxpy"), StableHash::of_str("daxpy"));
        assert_ne!(StableHash::of_str("daxpy"), StableHash::of_str("ddot"));
    }

    #[test]
    fn hex_round_trips_through_from_hex() {
        let digest = StableHash::of_str("daxpy");
        assert_eq!(StableHash::from_hex(&digest.hex()), Some(digest));
        assert_eq!(
            StableHash::from_hex(&StableHash(0).hex()),
            Some(StableHash(0))
        );
        assert_eq!(
            StableHash::from_hex(&StableHash(u128::MAX).hex()),
            Some(StableHash(u128::MAX))
        );
        // anything that is not exactly 32 hex digits is rejected
        assert_eq!(StableHash::from_hex(""), None);
        assert_eq!(StableHash::from_hex("abc"), None);
        assert_eq!(StableHash::from_hex(&"0".repeat(33)), None);
        assert_eq!(StableHash::from_hex(&format!("+{}", "0".repeat(31))), None);
        assert_eq!(StableHash::from_hex(&"g".repeat(32)), None);
    }

    #[test]
    fn length_prefix_prevents_concat_collisions() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_32_digits() {
        let h = StableHash::of_str("x").hex();
        assert_eq!(h.len(), 32);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
    }

    fn sample_proc() -> Procedure {
        use crate::builder::ProcBuilder;
        use crate::expr::BinOp;
        let mut b = ProcBuilder::new("daxpy", Type::Int);
        let n = b.param("n", Type::Int);
        let s = b.local("s", Type::Int);
        let i = b.local("i", Type::Int);
        let zero = b.int(0);
        b.assign_var(s, zero);
        let body = {
            let mut lb = b.block();
            let sv = lb.var(s);
            let iv = lb.var(i);
            let add = lb.ibinary(BinOp::Add, sv, iv);
            lb.assign_var(s, add);
            lb.stmts()
        };
        let lo = b.int(1);
        let hi = b.var(n);
        let step = b.int(1);
        b.do_loop(i, lo, hi, step, body);
        let sv = b.var(s);
        b.ret(Some(sv));
        b.finish()
    }

    #[test]
    fn proc_hash_stable_across_clone() {
        let p = sample_proc();
        let q = p.clone();
        assert_eq!(hash_proc(&p), hash_proc(&q));
    }

    #[test]
    fn proc_hash_stable_across_rebuilds() {
        // two independent constructions of the same IL allocate the same
        // arena layout, so their digests agree (the property the cache
        // relies on across runs and across `-j` values)
        assert_eq!(hash_proc(&sample_proc()), hash_proc(&sample_proc()));
    }

    #[test]
    fn proc_hash_sees_node_edits() {
        let p = sample_proc();
        let mut q = p.clone();
        // flip one constant in the expression column
        let slot = q
            .exprs
            .nodes()
            .iter()
            .position(|n| matches!(n, Expr::IntConst(1)))
            .unwrap();
        q.exprs[crate::ids::ExprId(slot as u32)] = Expr::IntConst(2);
        assert_ne!(hash_proc(&p), hash_proc(&q));
        // and one span in the statement column
        let mut r = p.clone();
        r.stmts.spans_mut()[0] = crate::span::SrcSpan::new(99, 1);
        assert_ne!(hash_proc(&p), hash_proc(&r));
    }

    #[test]
    fn proc_hash_ignores_capacity() {
        let p = sample_proc();
        let mut q = p.clone();
        q.exprs.reserve(1024);
        assert_eq!(hash_proc(&p), hash_proc(&q));
    }
}
