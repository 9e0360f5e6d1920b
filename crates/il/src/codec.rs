//! The canonical byte layout of a procedure: one encoding, two jobs.
//!
//! [`write_proc`] sweeps a procedure's arena columns into one linear byte
//! stream — the signature and variable table, the statement kinds, the
//! span column, then the expression nodes — with no recursion and no
//! text. The stream goes into a [`ByteSink`]: through a
//! [`StableHasher`] it is the content hash behind every cache key
//! ([`crate::hash_proc`]); through a `Vec<u8>` it is the stored form of a
//! session cache entry ([`encode_proc`]). Each node kind therefore has
//! exactly one byte layout, and the key and the stored form cannot
//! disagree about what a procedure is.
//!
//! Entries store the procedure after [`compact`]: only the expression
//! nodes reachable from the body, renumbered in the order
//! `Procedure::from_json` allocates them, with unreachable statement
//! slots reset to `Nop`. A procedure read back by [`read_proc`] is then
//! the same, arena for arena, as the catalog JSON decode of the same IL,
//! and a rewrite-heavy arena is not stored with its garbage (an O2 arena
//! can hold ten times more dead nodes than live ones).
//!
//! [`read_proc`] reads untrusted bytes. Every count is bounded by the
//! bytes left before anything is reserved, every tag and id is checked,
//! and an expression node may only name children already read, so the
//! decoder needs no recursion over the arena and the expression graph it
//! builds is acyclic by construction. Any violation is a [`CodecError`],
//! never a panic.
//!
//! §7 catalogs and the wire protocol stay JSON (`encode.rs`): they are
//! artifacts people read and diff, and this layout is not.

use crate::expr::{BinOp, Expr, ExprPool, LValue, UnOp};
use crate::hash::{StableHasher, IL_HASH_VERSION};
use crate::ids::{ExprId, LabelId, StmtId, StructId, VarId};
use crate::program::{ConstInit, Procedure, Storage, VarInfo};
use crate::span::SrcSpan;
use crate::stmt::{Block, StmtKind, StmtPool};
use crate::types::{ScalarType, Type};
use std::fmt;

/// Where [`write_proc`] puts its bytes.
pub trait ByteSink {
    /// Appends raw bytes.
    fn write(&mut self, bytes: &[u8]);

    /// Appends a string, length-prefixed so concatenations can't collide
    /// (`"ab" + "c"` vs `"a" + "bc"`).
    fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }
}

impl ByteSink for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        StableHasher::write(self, bytes);
    }
}

impl ByteSink for Vec<u8> {
    fn write(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Writes a procedure's canonical bytes into `out`.
///
/// The stream covers everything [`crate::Procedure`]'s structural
/// equality covers — signature, variable table, body ids, both arena
/// columns with spans — plus the stamp/temp counters, and nothing else
/// (no capacities, no lifetime counters).
pub fn write_proc<S: ByteSink + ?Sized>(out: &mut S, proc: &Procedure) {
    out.write(&IL_HASH_VERSION.to_le_bytes());
    out.write_str(&proc.name);
    write_type(out, &proc.ret);
    out.write(&(proc.params.len() as u32).to_le_bytes());
    for p in &proc.params {
        out.write(&p.0.to_le_bytes());
    }
    out.write(&(proc.vars.len() as u32).to_le_bytes());
    for v in &proc.vars {
        write_var_info(out, v);
    }
    out.write(&proc.num_labels.to_le_bytes());
    out.write(&proc.next_temp.to_le_bytes());
    write_block(out, &proc.body);
    // statement column: kinds and spans, one linear sweep
    out.write(&(proc.stmts.len() as u32).to_le_bytes());
    for kind in proc.stmts.kinds() {
        write_stmt_kind(out, kind);
    }
    for span in proc.stmts.spans() {
        out.write(&span.line.to_le_bytes());
        out.write(&span.col.to_le_bytes());
        out.write(&span.file.to_le_bytes());
    }
    // expression column: one linear sweep, no recursion
    out.write(&(proc.exprs.len() as u32).to_le_bytes());
    for node in proc.exprs.nodes() {
        write_expr_node(out, node);
    }
}

/// The stored form of a procedure: [`write_proc`] over its [`compact`]
/// copy. [`read_proc`] is the inverse.
pub fn encode_proc(proc: &Procedure) -> Vec<u8> {
    let mut out = Vec::new();
    write_proc(&mut out, &compact(proc));
    out
}

/// A copy of `proc` holding only what its body reaches: statement ids
/// are kept, unreachable statement slots become `Nop` with no span, and
/// the reachable expression trees are re-allocated in the order
/// `Procedure::from_json` allocates them (preorder over statements, each
/// statement's operands in slot order, each tree children first). The
/// result equals `Procedure::from_json(&proc.to_json())` column by
/// column.
pub fn compact(proc: &Procedure) -> Procedure {
    let mut out = Procedure::new(proc.name.clone(), proc.ret.clone());
    out.params = proc.params.clone();
    out.vars = proc.vars.clone();
    out.num_labels = proc.num_labels;
    out.next_temp = proc.next_temp;
    out.body = proc.body.clone();
    out.stmts.grow_to(proc.stmts.len());
    let mut stack: Vec<StmtId> = proc.body.iter().rev().copied().collect();
    while let Some(s) = stack.pop() {
        let mut kind = proc.stmts[s].clone();
        for slot in kind.expr_slots_mut() {
            *slot = out.exprs.import(&proc.exprs, *slot);
        }
        for block in kind.blocks().into_iter().rev() {
            stack.extend(block.iter().rev());
        }
        out.stmts[s] = kind;
        out.stmts.set_span(s, proc.stmts.span(s));
    }
    out
}

fn write_type<S: ByteSink + ?Sized>(out: &mut S, ty: &Type) {
    match ty {
        Type::Void => out.write(&[0]),
        Type::Char => out.write(&[1]),
        Type::Int => out.write(&[2]),
        Type::Float => out.write(&[3]),
        Type::Double => out.write(&[4]),
        Type::Ptr(inner) => {
            out.write(&[5]);
            write_type(out, inner);
        }
        Type::Array(elem, n) => {
            out.write(&[6]);
            out.write(&(*n as u64).to_le_bytes());
            write_type(out, elem);
        }
        Type::Struct(sid) => {
            out.write(&[7]);
            out.write(&sid.0.to_le_bytes());
        }
    }
}

fn write_var_info<S: ByteSink + ?Sized>(out: &mut S, v: &VarInfo) {
    out.write_str(&v.name);
    write_type(out, &v.ty);
    out.write(&[
        match v.storage {
            Storage::Auto => 0,
            Storage::Param => 1,
            Storage::Temp => 2,
            Storage::Static => 3,
            Storage::Global => 4,
        },
        u8::from(v.volatile),
        u8::from(v.addressed),
    ]);
    match &v.init {
        None => out.write(&[0]),
        Some(ConstInit::Int(i)) => {
            out.write(&[1]);
            out.write(&i.to_le_bytes());
        }
        Some(ConstInit::Float(f)) => {
            out.write(&[2]);
            out.write(&f.to_bits().to_le_bytes());
        }
    }
}

fn write_expr_node<S: ByteSink + ?Sized>(out: &mut S, e: &Expr) {
    match *e {
        Expr::IntConst(v) => {
            out.write(&[0]);
            out.write(&v.to_le_bytes());
        }
        Expr::FloatConst(v, ty) => {
            out.write(&[1, ty as u8]);
            out.write(&v.to_bits().to_le_bytes());
        }
        Expr::Var(v) => {
            out.write(&[2]);
            out.write(&v.0.to_le_bytes());
        }
        Expr::AddrOf(v) => {
            out.write(&[3]);
            out.write(&v.0.to_le_bytes());
        }
        Expr::Load { addr, ty, volatile } => {
            out.write(&[4, ty as u8, u8::from(volatile)]);
            out.write(&addr.0.to_le_bytes());
        }
        Expr::Unary { op, ty, arg } => {
            out.write(&[5, op as u8, ty as u8]);
            out.write(&arg.0.to_le_bytes());
        }
        Expr::Binary { op, ty, lhs, rhs } => {
            out.write(&[6, op as u8, ty as u8]);
            out.write(&lhs.0.to_le_bytes());
            out.write(&rhs.0.to_le_bytes());
        }
        Expr::Cast { to, from, arg } => {
            out.write(&[7, to as u8, from as u8]);
            out.write(&arg.0.to_le_bytes());
        }
        Expr::Section {
            base,
            len,
            stride,
            ty,
        } => {
            out.write(&[8, ty as u8]);
            out.write(&base.0.to_le_bytes());
            out.write(&len.0.to_le_bytes());
            out.write(&stride.0.to_le_bytes());
        }
    }
}

fn write_lvalue<S: ByteSink + ?Sized>(out: &mut S, lv: &LValue) {
    match *lv {
        LValue::Var(v) => {
            out.write(&[0]);
            out.write(&v.0.to_le_bytes());
        }
        LValue::Deref { addr, ty, volatile } => {
            out.write(&[1, ty as u8, u8::from(volatile)]);
            out.write(&addr.0.to_le_bytes());
        }
        LValue::Section {
            base,
            len,
            stride,
            ty,
        } => {
            out.write(&[2, ty as u8]);
            out.write(&base.0.to_le_bytes());
            out.write(&len.0.to_le_bytes());
            out.write(&stride.0.to_le_bytes());
        }
    }
}

fn write_block<S: ByteSink + ?Sized>(out: &mut S, block: &[StmtId]) {
    out.write(&(block.len() as u32).to_le_bytes());
    for s in block {
        out.write(&s.0.to_le_bytes());
    }
}

fn write_stmt_kind<S: ByteSink + ?Sized>(out: &mut S, kind: &StmtKind) {
    match kind {
        StmtKind::Assign { lhs, rhs } => {
            out.write(&[0]);
            write_lvalue(out, lhs);
            out.write(&rhs.0.to_le_bytes());
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            out.write(&[1]);
            out.write(&cond.0.to_le_bytes());
            write_block(out, then_blk);
            write_block(out, else_blk);
        }
        StmtKind::While { cond, body, safe } => {
            out.write(&[2, u8::from(*safe)]);
            out.write(&cond.0.to_le_bytes());
            write_block(out, body);
        }
        StmtKind::DoLoop {
            var,
            lo,
            hi,
            step,
            body,
            safe,
        } => {
            out.write(&[3, u8::from(*safe)]);
            out.write(&var.0.to_le_bytes());
            out.write(&lo.0.to_le_bytes());
            out.write(&hi.0.to_le_bytes());
            out.write(&step.0.to_le_bytes());
            write_block(out, body);
        }
        StmtKind::DoParallel {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            out.write(&[4]);
            out.write(&var.0.to_le_bytes());
            out.write(&lo.0.to_le_bytes());
            out.write(&hi.0.to_le_bytes());
            out.write(&step.0.to_le_bytes());
            write_block(out, body);
        }
        StmtKind::WhileSpread {
            cond,
            parallel,
            serial,
        } => {
            out.write(&[5]);
            out.write(&cond.0.to_le_bytes());
            write_block(out, parallel);
            write_block(out, serial);
        }
        StmtKind::Label(l) => {
            out.write(&[6]);
            out.write(&l.0.to_le_bytes());
        }
        StmtKind::Goto(l) => {
            out.write(&[7]);
            out.write(&l.0.to_le_bytes());
        }
        StmtKind::IfGoto { cond, target } => {
            out.write(&[8]);
            out.write(&cond.0.to_le_bytes());
            out.write(&target.0.to_le_bytes());
        }
        StmtKind::Call { dst, callee, args } => {
            out.write(&[9]);
            match dst {
                None => out.write(&[0]),
                Some(d) => {
                    out.write(&[1]);
                    write_lvalue(out, d);
                }
            }
            out.write_str(callee);
            out.write(&(args.len() as u32).to_le_bytes());
            for a in args {
                out.write(&a.0.to_le_bytes());
            }
        }
        StmtKind::Return(e) => {
            out.write(&[10]);
            match e {
                None => out.write(&[0]),
                Some(e) => {
                    out.write(&[1]);
                    out.write(&e.0.to_le_bytes());
                }
            }
        }
        StmtKind::Nop => out.write(&[11]),
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Why a byte stream is not a procedure encoding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CodecError {
    /// What was wrong.
    pub message: String,
    /// Byte offset at which it was detected.
    pub offset: usize,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for CodecError {}

/// `ty as u8` indexes these tables: the writer's discriminants are the
/// declaration order of each enum.
const SCALARS: [ScalarType; 5] = [
    ScalarType::Char,
    ScalarType::Int,
    ScalarType::Float,
    ScalarType::Double,
    ScalarType::Ptr,
];
const BINOPS: [BinOp; 18] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::BitAnd,
    BinOp::BitOr,
    BinOp::BitXor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Min,
    BinOp::Max,
];
const UNOPS: [UnOp; 3] = [UnOp::Neg, UnOp::Not, UnOp::BitNot];
const STORAGES: [Storage; 5] = [
    Storage::Auto,
    Storage::Param,
    Storage::Temp,
    Storage::Static,
    Storage::Global,
];

/// Fewest bytes one variable-table entry can take (empty name, scalar
/// type, flags, no initializer) — the bound on the variable count.
const MIN_VAR_BYTES: usize = 8 + 1 + 3 + 1;
/// Fewest bytes one statement slot can take: a one-byte kind plus its
/// three-word span.
const MIN_STMT_BYTES: usize = 1 + 12;
/// Fewest bytes one expression node can take (`Var`, `AddrOf`).
const MIN_EXPR_BYTES: usize = 1 + 4;
/// Deepest type nesting accepted (`int ****…`); far beyond real C, and
/// shallow enough that decoding and dropping a type never risks the stack.
const MAX_TYPE_DEPTH: usize = 256;

/// Reads the canonical bytes of a procedure written by [`write_proc`]
/// (in practice by [`encode_proc`]).
///
/// # Errors
///
/// Returns a [`CodecError`] for any stream that is not exactly one
/// encoding: a wrong layout version, truncation, trailing bytes, an
/// unknown tag, a count larger than the bytes left could hold, a
/// statement or expression id outside its arena, or an expression node
/// naming a child that is not stored before it.
pub fn read_proc(bytes: &[u8]) -> Result<Procedure, CodecError> {
    let mut r = Reader {
        bytes,
        pos: 0,
        stmt_bound: 0,
        expr_bound: 0,
    };
    let version = r.u32()?;
    if version != IL_HASH_VERSION {
        return r.fail(format!(
            "layout version {version}, expected {IL_HASH_VERSION}"
        ));
    }
    let name = r.string()?;
    let ret = r.ty(0)?;
    let mut p = Procedure::new(name, ret);
    let nparams = r.count(4)?;
    p.params = Vec::with_capacity(nparams);
    for _ in 0..nparams {
        p.params.push(VarId(r.u32()?));
    }
    let nvars = r.count(MIN_VAR_BYTES)?;
    p.vars = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        p.vars.push(r.var_info()?);
    }
    p.num_labels = r.u32()?;
    p.next_temp = r.u32()?;
    p.body = r.block()?;

    let nstmts = r.count(MIN_STMT_BYTES)?;
    let mut kinds = Vec::with_capacity(nstmts);
    for _ in 0..nstmts {
        kinds.push(r.stmt_kind()?);
    }
    if r.stmt_bound > nstmts {
        return r.fail(format!(
            "statement id s{} beyond the {nstmts}-slot arena",
            r.stmt_bound - 1
        ));
    }
    let mut spans = Vec::with_capacity(nstmts);
    for _ in 0..nstmts {
        spans.push(SrcSpan {
            line: r.u32()?,
            col: r.u32()?,
            file: r.u32()?,
        });
    }

    let nexprs = r.count(MIN_EXPR_BYTES)?;
    let mut nodes = Vec::with_capacity(nexprs);
    for at in 0..nexprs {
        nodes.push(r.expr(at)?);
    }
    if r.expr_bound > nexprs {
        return r.fail(format!(
            "expression id e{} beyond the {nexprs}-node arena",
            r.expr_bound - 1
        ));
    }
    if r.pos != bytes.len() {
        return r.fail(format!("{} trailing byte(s)", bytes.len() - r.pos));
    }
    p.stmts = StmtPool::from_columns(kinds, spans);
    p.exprs = ExprPool::from_nodes(nodes);
    Ok(p)
}

/// A bounds-checked cursor over one encoding. Statement kinds are read
/// before the expression column, so the ids they name are range-checked
/// at the end through the running bounds.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// One past the highest statement id named by a block.
    stmt_bound: usize,
    /// One past the highest expression id named by a statement.
    expr_bound: usize,
}

impl<'a> Reader<'a> {
    fn fail<T>(&self, message: impl Into<String>) -> Result<T, CodecError> {
        Err(CodecError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return self.fail(format!(
                "truncated: {n} byte(s) wanted, {} left",
                self.remaining()
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => self.fail(format!("flag byte {b}")),
        }
    }

    fn tag<T: Clone>(&mut self, table: &[T], what: &str) -> Result<T, CodecError> {
        let b = self.u8()?;
        match table.get(usize::from(b)) {
            Some(t) => Ok(t.clone()),
            None => self.fail(format!("unknown {what} tag {b}")),
        }
    }

    fn scalar(&mut self) -> Result<ScalarType, CodecError> {
        self.tag(&SCALARS, "scalar type")
    }

    fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u64()?;
        let len = match usize::try_from(len) {
            Ok(n) if n <= self.remaining() => n,
            _ => return self.fail(format!("string length {len} exceeds the input")),
        };
        match std::str::from_utf8(self.take(len)?) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => self.fail("string is not UTF-8"),
        }
    }

    /// A `u32` count of items at least `min_bytes` long each, refused
    /// when the bytes left could not hold that many — so no reservation
    /// made from a count can exceed the input's own size.
    fn count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.remaining() {
            return self.fail(format!(
                "count {n} exceeds the {} byte(s) left",
                self.remaining()
            ));
        }
        Ok(n)
    }

    fn ty(&mut self, depth: usize) -> Result<Type, CodecError> {
        if depth > MAX_TYPE_DEPTH {
            return self.fail("type nested too deeply");
        }
        Ok(match self.u8()? {
            0 => Type::Void,
            1 => Type::Char,
            2 => Type::Int,
            3 => Type::Float,
            4 => Type::Double,
            5 => Type::Ptr(Box::new(self.ty(depth + 1)?)),
            6 => {
                let n = self.u64()?;
                let Ok(n) = usize::try_from(n) else {
                    return self.fail(format!("array length {n} does not fit"));
                };
                Type::Array(Box::new(self.ty(depth + 1)?), n)
            }
            7 => Type::Struct(StructId(self.u32()?)),
            t => return self.fail(format!("unknown type tag {t}")),
        })
    }

    fn var_info(&mut self) -> Result<VarInfo, CodecError> {
        let name = self.string()?;
        let ty = self.ty(0)?;
        let storage = self.tag(&STORAGES, "storage class")?;
        let volatile = self.bool()?;
        let addressed = self.bool()?;
        let init = match self.u8()? {
            0 => None,
            1 => Some(ConstInit::Int(self.u64()? as i64)),
            2 => Some(ConstInit::Float(self.f64()?)),
            t => return self.fail(format!("unknown initializer tag {t}")),
        };
        Ok(VarInfo {
            name,
            ty,
            storage,
            volatile,
            addressed,
            init,
        })
    }

    fn stmt_id(&mut self) -> Result<StmtId, CodecError> {
        let id = self.u32()?;
        self.stmt_bound = self.stmt_bound.max(id as usize + 1);
        Ok(StmtId(id))
    }

    fn block(&mut self) -> Result<Block, CodecError> {
        let n = self.count(4)?;
        let mut out = Block::with_capacity(n);
        for _ in 0..n {
            out.push(self.stmt_id()?);
        }
        Ok(out)
    }

    /// An operand id of a statement, checked against the expression
    /// column once that has been read.
    fn operand(&mut self) -> Result<ExprId, CodecError> {
        let id = self.u32()?;
        self.expr_bound = self.expr_bound.max(id as usize + 1);
        Ok(ExprId(id))
    }

    /// A child id of node `at`: it must already have been read.
    fn child(&mut self, at: usize) -> Result<ExprId, CodecError> {
        let id = self.u32()?;
        if id as usize >= at {
            return self.fail(format!("node e{at} names child e{id} not stored before it"));
        }
        Ok(ExprId(id))
    }

    fn lvalue(&mut self) -> Result<LValue, CodecError> {
        Ok(match self.u8()? {
            0 => LValue::Var(VarId(self.u32()?)),
            1 => {
                let ty = self.scalar()?;
                let volatile = self.bool()?;
                LValue::Deref {
                    addr: self.operand()?,
                    ty,
                    volatile,
                }
            }
            2 => {
                let ty = self.scalar()?;
                LValue::Section {
                    base: self.operand()?,
                    len: self.operand()?,
                    stride: self.operand()?,
                    ty,
                }
            }
            t => return self.fail(format!("unknown lvalue tag {t}")),
        })
    }

    fn expr(&mut self, at: usize) -> Result<Expr, CodecError> {
        Ok(match self.u8()? {
            0 => Expr::IntConst(self.u64()? as i64),
            1 => {
                let ty = self.scalar()?;
                Expr::FloatConst(self.f64()?, ty)
            }
            2 => Expr::Var(VarId(self.u32()?)),
            3 => Expr::AddrOf(VarId(self.u32()?)),
            4 => {
                let ty = self.scalar()?;
                let volatile = self.bool()?;
                Expr::Load {
                    addr: self.child(at)?,
                    ty,
                    volatile,
                }
            }
            5 => {
                let op = self.tag(&UNOPS, "unary operator")?;
                let ty = self.scalar()?;
                Expr::Unary {
                    op,
                    ty,
                    arg: self.child(at)?,
                }
            }
            6 => {
                let op = self.tag(&BINOPS, "binary operator")?;
                let ty = self.scalar()?;
                Expr::Binary {
                    op,
                    ty,
                    lhs: self.child(at)?,
                    rhs: self.child(at)?,
                }
            }
            7 => {
                let to = self.scalar()?;
                let from = self.scalar()?;
                Expr::Cast {
                    to,
                    from,
                    arg: self.child(at)?,
                }
            }
            8 => {
                let ty = self.scalar()?;
                Expr::Section {
                    base: self.child(at)?,
                    len: self.child(at)?,
                    stride: self.child(at)?,
                    ty,
                }
            }
            t => return self.fail(format!("unknown expression tag {t}")),
        })
    }

    fn stmt_kind(&mut self) -> Result<StmtKind, CodecError> {
        Ok(match self.u8()? {
            0 => StmtKind::Assign {
                lhs: self.lvalue()?,
                rhs: self.operand()?,
            },
            1 => StmtKind::If {
                cond: self.operand()?,
                then_blk: self.block()?,
                else_blk: self.block()?,
            },
            2 => {
                let safe = self.bool()?;
                StmtKind::While {
                    cond: self.operand()?,
                    body: self.block()?,
                    safe,
                }
            }
            3 => {
                let safe = self.bool()?;
                StmtKind::DoLoop {
                    var: VarId(self.u32()?),
                    lo: self.operand()?,
                    hi: self.operand()?,
                    step: self.operand()?,
                    body: self.block()?,
                    safe,
                }
            }
            4 => StmtKind::DoParallel {
                var: VarId(self.u32()?),
                lo: self.operand()?,
                hi: self.operand()?,
                step: self.operand()?,
                body: self.block()?,
            },
            5 => StmtKind::WhileSpread {
                cond: self.operand()?,
                parallel: self.block()?,
                serial: self.block()?,
            },
            6 => StmtKind::Label(LabelId(self.u32()?)),
            7 => StmtKind::Goto(LabelId(self.u32()?)),
            8 => StmtKind::IfGoto {
                cond: self.operand()?,
                target: LabelId(self.u32()?),
            },
            9 => {
                let dst = match self.u8()? {
                    0 => None,
                    1 => Some(self.lvalue()?),
                    t => return self.fail(format!("unknown call destination tag {t}")),
                };
                let callee = self.string()?;
                let n = self.count(4)?;
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(self.operand()?);
                }
                StmtKind::Call { dst, callee, args }
            }
            10 => StmtKind::Return(match self.u8()? {
                0 => None,
                1 => Some(self.operand()?),
                t => return self.fail(format!("unknown return tag {t}")),
            }),
            11 => StmtKind::Nop,
            t => return self.fail(format!("unknown statement tag {t}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;

    #[test]
    fn tag_tables_follow_the_writers_discriminants() {
        for (i, t) in SCALARS.iter().enumerate() {
            assert_eq!(*t as usize, i);
        }
        for (i, op) in BINOPS.iter().enumerate() {
            assert_eq!(*op as usize, i);
        }
        for (i, op) in UNOPS.iter().enumerate() {
            assert_eq!(*op as usize, i);
        }
    }

    fn sample_proc() -> Procedure {
        let mut b = ProcBuilder::new("f", Type::Double);
        let n = b.param("n", Type::Int);
        let s = b.local("s", Type::Double);
        let i = b.local("i", Type::Int);
        let zero = b.double(0.0);
        b.assign_var(s, zero);
        let body = {
            let mut lb = b.block();
            let sv = lb.var(s);
            let iv = lb.var(i);
            let conv = lb.cast(ScalarType::Double, ScalarType::Int, iv);
            let add = lb.binary(BinOp::Add, ScalarType::Double, sv, conv);
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
    fn compaction_drops_orphans_and_keeps_stamps() {
        let mut p = sample_proc();
        // orphan a subtree and a statement slot, as rewriting passes do
        let junk = p.exprs.int(99);
        let _ = p.exprs.unary(UnOp::Neg, ScalarType::Int, junk);
        let orphan = p.stamp(StmtKind::Return(Some(junk)));
        let c = compact(&p);
        assert_eq!(c, p);
        assert_eq!(c.stmts.len(), p.stmts.len(), "stamps and slots are kept");
        assert_eq!(c.stmts[orphan], StmtKind::Nop);
        assert!(c.exprs.len() < p.exprs.len());
        assert_eq!(read_proc(&encode_proc(&p)).unwrap(), p);
    }

    #[test]
    fn float_bits_survive_exactly() {
        for v in [
            f64::NAN,
            -f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let mut p = Procedure::new("k", Type::Double);
            let e = p.exprs.double(v);
            p.push(StmtKind::Return(Some(e)));
            p.add_var(VarInfo {
                name: "g".into(),
                ty: Type::Double,
                storage: Storage::Static,
                volatile: false,
                addressed: false,
                init: Some(ConstInit::Float(v)),
            });
            let bytes = encode_proc(&p);
            let back = read_proc(&bytes).unwrap();
            let Expr::FloatConst(got, _) = back.exprs.nodes()[0] else {
                panic!("constant lost");
            };
            assert_eq!(got.to_bits(), v.to_bits());
            assert!(
                matches!(back.vars[0].init, Some(ConstInit::Float(g)) if g.to_bits() == v.to_bits())
            );
            assert_eq!(encode_proc(&back), bytes);
        }
    }

    #[test]
    fn an_empty_body_round_trips() {
        let p = Procedure::new("empty", Type::Void);
        let bytes = encode_proc(&p);
        let back = read_proc(&bytes).unwrap();
        assert_eq!(back, p);
        assert!(back.stmts.is_empty() && back.exprs.is_empty());
        assert_eq!(encode_proc(&back), bytes);
    }

    #[test]
    fn malformed_streams_are_errors() {
        let bytes = encode_proc(&sample_proc());
        // every strict prefix is truncated, and a trailing byte is extra
        for cut in 0..bytes.len() {
            assert!(read_proc(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(read_proc(&long).is_err());
        // a wrong layout version
        let mut skew = bytes.clone();
        skew[0] ^= 1;
        assert!(read_proc(&skew).is_err());
        // a huge parameter count is refused before anything is reserved
        // version, name length and `f`, return type
        let count_at = 4 + 8 + 1 + 1;
        let mut huge = bytes.clone();
        huge[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_proc(&huge).unwrap_err().message.contains("count"));
    }

    #[test]
    fn children_must_precede_their_parent() {
        let mut p = Procedure::new("k", Type::Int);
        let a = p.exprs.int(1);
        let neg = p.exprs.unary(UnOp::Neg, ScalarType::Int, a);
        p.push(StmtKind::Return(Some(neg)));
        // node 1 (the negation) names node 0; point it at itself
        let mut bytes = encode_proc(&p);
        let child_at = bytes.len() - 4;
        bytes[child_at..].copy_from_slice(&1u32.to_le_bytes());
        let err = read_proc(&bytes).unwrap_err();
        assert!(err.message.contains("not stored before"), "{err}");
    }
}
