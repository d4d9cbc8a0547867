//! Register bytecode VM for the EFSM data path.
//!
//! The tree-walking interpreter ([`crate::interp::Machine`]) pays
//! per-node dispatch, span-keyed identifier memo probes and a byte-level
//! [`Value`] clone for every signal read. ECL's premise (DAC 1999) is
//! that the data computation compiles down to the flat C a POLIS-style
//! backend would emit — so the simulator compiles it too: each data
//! hook (predicate, action, valued-emit expression) is lowered *once*
//! ([`crate::lower`]) to a flat program of [`Op`]s over an `i64`
//! register file, with direct slot-indexed variable access and direct
//! signal-index value reads. No name ever resolves at runtime.
//!
//! Semantic contract: a compiled program is **observationally
//! identical** to the walker, including
//!
//! * values, mutated variable slots and emitted signal values,
//! * error instants (division by zero, out-of-bounds indexing, fuel
//!   exhaustion) with the walker's exact message, and — for all but
//!   fuel exhaustion — its exact span (coalesced [`Op::Burn`]s report
//!   the first coalesced node's span, which may sit a few nodes
//!   before where the walker's step-by-step counter would hit zero
//!   within the same expression),
//! * **fuel accounting**: [`Op::Burn`] charges exactly the interpreter
//!   steps the walker would burn on the same control path, so the
//!   kernel's cycle charges (`ops × cyc_per_op`) stay bit-identical.
//!
//! Constructs outside the bytecode subset compile to
//! [`Op::FallbackStmt`] — the statement subtree is executed by the
//! tree-walker in place, with the resulting [`Flow`] mapped back onto
//! compiled jump targets — so coverage can grow incrementally while
//! semantics stay exact.

use crate::interp::{EvalError, Flow, Machine, SignalReader};
use crate::value::Value;
use ecl_syntax::ast::Stmt;
use ecl_syntax::fxmap::FxHashMap;
use ecl_syntax::source::Span;
use ecl_telemetry::metrics as tm;
use ecl_telemetry::Probe;

/// How a register's `i64` maps onto a C integer type: the bit width,
/// signedness, and `bool`'s 0/1 normalization. A register is always
/// *normalized*: it holds exactly the value `Value::as_i64` would
/// produce for the same bytes (sign- or zero-extended to 64 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ext {
    /// Width in bits (8, 16 or 32 on the MIPS-o32-style target).
    pub bits: u8,
    /// Zero-extends (and wraps) like a C unsigned type.
    pub unsigned: bool,
    /// `bool`: stored bytes are normalized to 0/1.
    pub is_bool: bool,
}

impl Ext {
    /// C `int` (the type of literals, comparisons and logic results).
    pub const INT: Ext = Ext {
        bits: 32,
        unsigned: false,
        is_bool: false,
    };

    /// Normalize an `i64` to this type's range — the exact composition
    /// of `Value::from_i64` (truncate to width) and `Value::as_i64`
    /// (sign/zero extend) the walker performs on every conversion.
    #[inline]
    pub fn norm(self, v: i64) -> i64 {
        if self.is_bool {
            return (v != 0) as i64;
        }
        let bits = u32::from(self.bits);
        if bits >= 64 {
            return v;
        }
        let shift = 64 - bits;
        if self.unsigned {
            ((v << shift) as u64 >> shift) as i64
        } else {
            (v << shift) >> shift
        }
    }

    /// Read the scalar at byte offset `off` of a little-endian buffer.
    #[inline]
    pub fn read(self, bytes: &[u8], off: usize) -> i64 {
        let n = usize::from(self.bits / 8);
        let mut buf = [0u8; 8];
        buf[..n].copy_from_slice(&bytes[off..off + n]);
        self.norm(i64::from_le_bytes(buf))
    }

    /// Write a (normalized) scalar at byte offset `off`.
    #[inline]
    pub fn write(self, bytes: &mut [u8], off: usize, v: i64) {
        let n = usize::from(self.bits / 8);
        let le = if self.is_bool {
            ((v != 0) as i64).to_le_bytes()
        } else {
            v.to_le_bytes()
        };
        bytes[off..off + n].copy_from_slice(&le[..n]);
    }
}

/// Binary operator kernel selector (operands are pre-normalized to the
/// common type, so one `i64` implementation serves signed and unsigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (errors on zero divisor).
    Div,
    /// Remainder (errors on zero divisor).
    Rem,
    /// Left shift by `rhs & 63`.
    Shl,
    /// Right shift by `rhs & 63` (logical for unsigned operands, which
    /// are zero-extended and non-negative).
    Shr,
    /// `<` (produces int 0/1).
    Lt,
    /// `>`.
    Gt,
    /// `<=`.
    Le,
    /// `>=`.
    Ge,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// Bitwise and.
    And,
    /// Bitwise xor.
    Xor,
    /// Bitwise or.
    Or,
}

/// Unary operator kernel selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    /// Wrapping negation.
    Neg,
    /// Bitwise not.
    BitNot,
    /// Logical not (produces int 0/1).
    LogNot,
}

/// One bytecode instruction. Registers are indices into the per-run
/// `i64` register file; `slot` indexes the machine's root scope (the
/// design's flat variable frame — PR 3's dense slots double as the
/// variable side of the register file); `sig` indexes the runtime's
/// signal-value table directly (no name lookup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Charge `n` walker-equivalent interpreter steps against the fuel.
    Burn {
        /// Steps to charge.
        n: u32,
        /// Span reported on fuel exhaustion.
        span: Span,
    },
    /// `dst = v` (already normalized at compile time).
    Const {
        /// Destination register.
        dst: u16,
        /// The constant.
        v: i64,
    },
    /// `dst = norm(src)` — type conversion (or a plain copy when the
    /// extension is the source's own type).
    Conv {
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
        /// Target type extension.
        ext: Ext,
    },
    /// `dst += k` (static projection offset after a dynamic index).
    AddConst {
        /// Offset register.
        dst: u16,
        /// Byte delta.
        k: i64,
    },
    /// Bounds-checked dynamic index: `off += idx * elem` after
    /// verifying `0 <= idx < len` (the walker's exact check and error).
    AddScaled {
        /// Offset register (accumulates bytes).
        off: u16,
        /// Index register.
        idx: u16,
        /// Element size in bytes.
        elem: u32,
        /// Array length.
        len: u32,
        /// Span of the index expression node.
        span: Span,
    },
    /// `dst = read(root_slot)` — whole-scalar variable read.
    LoadVar {
        /// Destination register.
        dst: u16,
        /// Root-scope slot.
        slot: u32,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `root_slot = src` — whole-scalar variable write.
    StoreVar {
        /// Root-scope slot.
        slot: u32,
        /// Source register.
        src: u16,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `dst = read(root_slot at static byte offset)`.
    LoadVarOff {
        /// Destination register.
        dst: u16,
        /// Root-scope slot.
        slot: u32,
        /// Static byte offset.
        off: u32,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `root_slot at static byte offset = src`.
    StoreVarOff {
        /// Root-scope slot.
        slot: u32,
        /// Static byte offset.
        off: u32,
        /// Source register.
        src: u16,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `dst = read(root_slot at dynamic byte offset)`.
    LoadVarAt {
        /// Destination register.
        dst: u16,
        /// Root-scope slot.
        slot: u32,
        /// Register holding the byte offset.
        off: u16,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `root_slot at dynamic byte offset = src`.
    StoreVarAt {
        /// Root-scope slot.
        slot: u32,
        /// Register holding the byte offset.
        off: u16,
        /// Source register.
        src: u16,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `dst = current value of valued signal` (integer-typed).
    LoadSig {
        /// Destination register.
        dst: u16,
        /// Signal index.
        sig: u32,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `dst = read(signal value at static byte offset)`.
    LoadSigOff {
        /// Destination register.
        dst: u16,
        /// Signal index.
        sig: u32,
        /// Static byte offset.
        off: u32,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `dst = read(signal value at dynamic byte offset)`.
    LoadSigAt {
        /// Destination register.
        dst: u16,
        /// Signal index.
        sig: u32,
        /// Register holding the byte offset.
        off: u16,
        /// Scalar type extension.
        ext: Ext,
    },
    /// Store an integer emit value into the signal's current-value
    /// buffer (in place — the byte buffer is reused, no allocation).
    StoreSig {
        /// Signal index.
        sig: u32,
        /// Source register.
        src: u16,
        /// The signal's scalar type extension.
        ext: Ext,
    },
    /// Aggregate emit fast path: copy a whole same-typed root variable
    /// into the signal's value buffer (`emit_v (outpkt, buffer)`).
    EmitCopy {
        /// Signal index.
        sig: u32,
        /// Root-scope slot of the source variable.
        slot: u32,
    },
    /// `dst = a ⊕ b`, result normalized to `ext`.
    Bin {
        /// Operator kernel.
        op: BinKind,
        /// Destination register.
        dst: u16,
        /// Left operand register (pre-normalized to the common type).
        a: u16,
        /// Right operand register (pre-normalized to the common type).
        b: u16,
        /// Result type extension.
        ext: Ext,
        /// Span reported on division/remainder by zero.
        span: Span,
    },
    /// `dst = ⊕ src`, result normalized to `ext`.
    Un {
        /// Operator kernel.
        op: UnKind,
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
        /// Result type extension.
        ext: Ext,
    },
    /// Unconditional jump to an op index.
    Jmp {
        /// Target op index.
        target: u32,
    },
    /// Jump when the register's truthiness equals `when_true`.
    JmpIf {
        /// Condition register.
        cond: u16,
        /// Target op index.
        target: u32,
        /// Jump on true (`true`) or on false (`false`).
        when_true: bool,
    },
    /// Execute a statement subtree through the tree-walker, then map
    /// its control-flow result onto compiled jump targets. The walker
    /// does its own fuel burning, error reporting and (scoped)
    /// declarations, so semantics are exact by construction.
    FallbackStmt {
        /// Index into [`Program::stmts`].
        stmt: u32,
        /// Jump target for `Flow::Break`.
        brk: u32,
        /// Jump target for `Flow::Continue`.
        cont: u32,
        /// Jump target for `Flow::Return` (the end of the enclosing
        /// top-level statement — `run_action` ignores flows between
        /// top-level statements).
        ret: u32,
    },
}

impl Op {
    /// Index of this opcode in the telemetry per-opcode counter table
    /// (`ecl_telemetry::metrics::VM_OPS`), in declaration order. A unit
    /// test checks the mnemonics against
    /// `ecl_telemetry::metrics::VM_OP_NAMES` so the two stay in sync.
    #[inline]
    pub fn telemetry_index(&self) -> usize {
        match self {
            Op::Burn { .. } => 0,
            Op::Const { .. } => 1,
            Op::Conv { .. } => 2,
            Op::AddConst { .. } => 3,
            Op::AddScaled { .. } => 4,
            Op::LoadVar { .. } => 5,
            Op::StoreVar { .. } => 6,
            Op::LoadVarOff { .. } => 7,
            Op::StoreVarOff { .. } => 8,
            Op::LoadVarAt { .. } => 9,
            Op::StoreVarAt { .. } => 10,
            Op::LoadSig { .. } => 11,
            Op::LoadSigOff { .. } => 12,
            Op::LoadSigAt { .. } => 13,
            Op::StoreSig { .. } => 14,
            Op::EmitCopy { .. } => 15,
            Op::Bin { .. } => 16,
            Op::Un { .. } => 17,
            Op::Jmp { .. } => 18,
            Op::JmpIf { .. } => 19,
            Op::FallbackStmt { .. } => 20,
        }
    }

    /// The opcode's telemetry mnemonic (matches
    /// `ecl_telemetry::metrics::VM_OP_NAMES`).
    pub fn mnemonic(&self) -> &'static str {
        tm::VM_OP_NAMES[self.telemetry_index()]
    }
}

/// A compiled data hook: flat ops, the register-file size, the result
/// register (predicates/emits), and the cloned statement subtrees
/// referenced by [`Op::FallbackStmt`].
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The instructions.
    pub ops: Vec<Op>,
    /// Number of registers the program uses.
    pub regs: u16,
    /// Register holding the result value after the run.
    pub result: u16,
    /// Fallback statement subtrees (walker-executed).
    pub stmts: Vec<Stmt>,
}

/// Compilation outcome for one hook: a bytecode program, or a marker
/// that the hook runs entirely through the tree-walker.
#[derive(Debug, Clone)]
pub enum Compiled {
    /// Runs on the VM.
    Vm(Program),
    /// Outside the subset — the runtime walks the original AST.
    Walker,
}

impl Compiled {
    /// Is this hook VM-compiled?
    pub fn is_vm(&self) -> bool {
        matches!(self, Compiled::Vm(_))
    }
}

/// [`SignalReader`] over the runtime's signal-value table — the one
/// borrow-splitting helper shared by the VM's fallback ops and the
/// runtime's pure-walker paths (predicates, actions and emissions all
/// read signal values through this view).
pub struct ValuesReader<'a> {
    /// Signal index → current value (`None` for pure signals).
    pub values: &'a [Option<Value>],
    /// Signal name → index.
    pub by_name: &'a FxHashMap<String, usize>,
}

impl SignalReader for ValuesReader<'_> {
    fn read_signal(&self, name: &str) -> Option<Value> {
        self.by_name
            .get(name)
            .and_then(|i| self.values.get(*i))
            .and_then(|v| v.clone())
    }
}

/// Execute a compiled program.
///
/// `m` supplies fuel, the root variable slots and the tree-walker for
/// fallback ops; `values` is the signal-value table (read by loads,
/// written in place by [`Op::StoreSig`]/[`Op::EmitCopy`]); `regs` is
/// caller-owned scratch reused across runs (no steady-state
/// allocation); the run's hook, per-opcode and fallback counts go to
/// `probe`. Returns the result register's value.
///
/// # Errors
///
/// The same [`EvalError`]s the tree-walker would raise on the same
/// inputs: division/remainder by zero, out-of-bounds indexing, fuel
/// exhaustion, and anything a fallback statement reports.
pub fn run(
    prog: &Program,
    m: &mut Machine,
    values: &mut [Option<Value>],
    by_name: &FxHashMap<String, usize>,
    regs: &mut Vec<i64>,
    probe: &mut Probe,
) -> Result<i64, EvalError> {
    regs.clear();
    regs.resize(prog.regs as usize, 0);
    probe.add(tm::VM_HOOK_RUNS, 1);
    let mut pc = 0usize;
    while pc < prog.ops.len() {
        probe.add(tm::VM_OPS[prog.ops[pc].telemetry_index()], 1);
        match prog.ops[pc] {
            Op::Burn { n, span } => m.burn_n(u64::from(n), span)?,
            Op::Const { dst, v } => regs[dst as usize] = v,
            Op::Conv { dst, src, ext } => regs[dst as usize] = ext.norm(regs[src as usize]),
            Op::AddConst { dst, k } => regs[dst as usize] += k,
            Op::AddScaled {
                off,
                idx,
                elem,
                len,
                span,
            } => {
                let i = regs[idx as usize];
                if i < 0 || i >= i64::from(len) {
                    return Err(EvalError {
                        msg: format!("index {i} out of bounds (len {len})"),
                        span,
                    });
                }
                regs[off as usize] += i * i64::from(elem);
            }
            Op::LoadVar { dst, slot, ext } => {
                regs[dst as usize] = ext.read(&m.root_value(slot as usize).bytes, 0);
            }
            Op::StoreVar { slot, src, ext } => {
                let v = regs[src as usize];
                ext.write(&mut m.root_value_mut(slot as usize).bytes, 0, v);
            }
            Op::LoadVarOff {
                dst,
                slot,
                off,
                ext,
            } => {
                regs[dst as usize] = ext.read(&m.root_value(slot as usize).bytes, off as usize);
            }
            Op::StoreVarOff {
                slot,
                off,
                src,
                ext,
            } => {
                let v = regs[src as usize];
                ext.write(&mut m.root_value_mut(slot as usize).bytes, off as usize, v);
            }
            Op::LoadVarAt {
                dst,
                slot,
                off,
                ext,
            } => {
                let o = regs[off as usize] as usize;
                regs[dst as usize] = ext.read(&m.root_value(slot as usize).bytes, o);
            }
            Op::StoreVarAt {
                slot,
                off,
                src,
                ext,
            } => {
                let o = regs[off as usize] as usize;
                let v = regs[src as usize];
                ext.write(&mut m.root_value_mut(slot as usize).bytes, o, v);
            }
            Op::LoadSig { dst, sig, ext } => {
                let val = values[sig as usize].as_ref().expect("valued signal");
                regs[dst as usize] = ext.read(&val.bytes, 0);
            }
            Op::LoadSigOff { dst, sig, off, ext } => {
                let val = values[sig as usize].as_ref().expect("valued signal");
                regs[dst as usize] = ext.read(&val.bytes, off as usize);
            }
            Op::LoadSigAt { dst, sig, off, ext } => {
                let o = regs[off as usize] as usize;
                let val = values[sig as usize].as_ref().expect("valued signal");
                regs[dst as usize] = ext.read(&val.bytes, o);
            }
            Op::StoreSig { sig, src, ext } => {
                let v = regs[src as usize];
                let val = values[sig as usize].as_mut().expect("valued signal");
                ext.write(&mut val.bytes, 0, v);
            }
            Op::EmitCopy { sig, slot } => {
                let src = m.root_value(slot as usize);
                let dst = values[sig as usize].as_mut().expect("valued signal");
                dst.bytes.copy_from_slice(&src.bytes);
            }
            Op::Bin {
                op,
                dst,
                a,
                b,
                ext,
                span,
            } => {
                let x = regs[a as usize];
                let y = regs[b as usize];
                let v = match op {
                    BinKind::Add => x.wrapping_add(y),
                    BinKind::Sub => x.wrapping_sub(y),
                    BinKind::Mul => x.wrapping_mul(y),
                    BinKind::Div => {
                        if y == 0 {
                            return Err(EvalError {
                                msg: "integer division by zero".into(),
                                span,
                            });
                        }
                        x.wrapping_div(y)
                    }
                    BinKind::Rem => {
                        if y == 0 {
                            return Err(EvalError {
                                msg: "integer remainder by zero".into(),
                                span,
                            });
                        }
                        x.wrapping_rem(y)
                    }
                    BinKind::Shl => x.wrapping_shl(y as u32 & 63),
                    BinKind::Shr => x.wrapping_shr(y as u32 & 63),
                    BinKind::Lt => (x < y) as i64,
                    BinKind::Gt => (x > y) as i64,
                    BinKind::Le => (x <= y) as i64,
                    BinKind::Ge => (x >= y) as i64,
                    BinKind::Eq => (x == y) as i64,
                    BinKind::Ne => (x != y) as i64,
                    BinKind::And => x & y,
                    BinKind::Xor => x ^ y,
                    BinKind::Or => x | y,
                };
                regs[dst as usize] = ext.norm(v);
            }
            Op::Un { op, dst, src, ext } => {
                let x = regs[src as usize];
                let v = match op {
                    UnKind::Neg => x.wrapping_neg(),
                    UnKind::BitNot => !x,
                    UnKind::LogNot => (x == 0) as i64,
                };
                regs[dst as usize] = ext.norm(v);
            }
            Op::Jmp { target } => {
                pc = target as usize;
                continue;
            }
            Op::JmpIf {
                cond,
                target,
                when_true,
            } => {
                if (regs[cond as usize] != 0) == when_true {
                    pc = target as usize;
                    continue;
                }
            }
            Op::FallbackStmt {
                stmt,
                brk,
                cont,
                ret,
            } => {
                probe.add(tm::VM_FALLBACK_STMTS, 1);
                let reader = ValuesReader {
                    values: &*values,
                    by_name,
                };
                match m.exec(&prog.stmts[stmt as usize], &reader)? {
                    Flow::Normal => {}
                    Flow::Break => {
                        pc = brk as usize;
                        continue;
                    }
                    Flow::Continue => {
                        pc = cont as usize;
                        continue;
                    }
                    Flow::Return(_) => {
                        pc = ret as usize;
                        continue;
                    }
                }
            }
        }
        pc += 1;
    }
    Ok(regs.get(prog.result as usize).copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_indices_cover_every_opcode_in_order() {
        use ecl_syntax::source::Span;
        let span = Span::default();
        let ext = Ext::INT;
        // One instance of every variant, in declaration order.
        let ops = [
            Op::Burn { n: 0, span },
            Op::Const { dst: 0, v: 0 },
            Op::Conv {
                dst: 0,
                src: 0,
                ext,
            },
            Op::AddConst { dst: 0, k: 0 },
            Op::AddScaled {
                off: 0,
                idx: 0,
                elem: 1,
                len: 1,
                span,
            },
            Op::LoadVar {
                dst: 0,
                slot: 0,
                ext,
            },
            Op::StoreVar {
                slot: 0,
                src: 0,
                ext,
            },
            Op::LoadVarOff {
                dst: 0,
                slot: 0,
                off: 0,
                ext,
            },
            Op::StoreVarOff {
                slot: 0,
                off: 0,
                src: 0,
                ext,
            },
            Op::LoadVarAt {
                dst: 0,
                slot: 0,
                off: 0,
                ext,
            },
            Op::StoreVarAt {
                slot: 0,
                off: 0,
                src: 0,
                ext,
            },
            Op::LoadSig {
                dst: 0,
                sig: 0,
                ext,
            },
            Op::LoadSigOff {
                dst: 0,
                sig: 0,
                off: 0,
                ext,
            },
            Op::LoadSigAt {
                dst: 0,
                sig: 0,
                off: 0,
                ext,
            },
            Op::StoreSig {
                sig: 0,
                src: 0,
                ext,
            },
            Op::EmitCopy { sig: 0, slot: 0 },
            Op::Bin {
                op: BinKind::Add,
                dst: 0,
                a: 0,
                b: 0,
                ext,
                span,
            },
            Op::Un {
                op: UnKind::Neg,
                dst: 0,
                src: 0,
                ext,
            },
            Op::Jmp { target: 0 },
            Op::JmpIf {
                cond: 0,
                target: 0,
                when_true: true,
            },
            Op::FallbackStmt {
                stmt: 0,
                brk: 0,
                cont: 0,
                ret: 0,
            },
        ];
        assert_eq!(ops.len(), tm::VM_OP_NAMES.len());
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.telemetry_index(), i, "{op:?}");
            assert_eq!(op.mnemonic(), tm::VM_OP_NAMES[i]);
        }
    }

    #[test]
    fn ext_normalization_matches_c_conversions() {
        let int = Ext::INT;
        assert_eq!(int.norm(0x1_0000_0000), 0);
        assert_eq!(int.norm(-1), -1);
        assert_eq!(int.norm(0xFFFF_FFFF), -1);
        let uint = Ext {
            bits: 32,
            unsigned: true,
            is_bool: false,
        };
        assert_eq!(uint.norm(-1), 0xFFFF_FFFF);
        let ch = Ext {
            bits: 8,
            unsigned: false,
            is_bool: false,
        };
        assert_eq!(ch.norm(130), -126);
        let b = Ext {
            bits: 8,
            unsigned: false,
            is_bool: true,
        };
        assert_eq!(b.norm(42), 1);
        assert_eq!(b.norm(0), 0);
    }

    #[test]
    fn ext_read_write_round_trip() {
        let uc = Ext {
            bits: 8,
            unsigned: true,
            is_bool: false,
        };
        let mut buf = [0u8; 4];
        uc.write(&mut buf, 2, 0x1AB);
        assert_eq!(buf, [0, 0, 0xAB, 0]);
        assert_eq!(uc.read(&buf, 2), 0xAB);
        let sh = Ext {
            bits: 16,
            unsigned: false,
            is_bool: false,
        };
        let mut buf = [0u8; 2];
        sh.write(&mut buf, 0, -2);
        assert_eq!(sh.read(&buf, 0), -2);
    }
}
