//! Runtime values.

use std::fmt;

use isf_ir::{BinOp, UnOp};

use crate::error::TrapKind;

/// A runtime value. All values are word-sized and `Copy`; objects, arrays
/// and threads are handles into the [`crate::Heap`] / scheduler.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Value {
    /// A 64-bit signed integer.
    I64(i64),
    /// A boolean.
    Bool(bool),
    /// The null reference.
    Null,
    /// An object handle.
    Obj(u32),
    /// An array handle.
    Arr(u32),
    /// A green-thread handle.
    Thread(u32),
    /// The unit value (uninitialized locals, void returns).
    #[default]
    Unit,
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "null"),
            Value::Obj(h) => write!(f, "obj#{h}"),
            Value::Arr(h) => write!(f, "arr#{h}"),
            Value::Thread(h) => write!(f, "thread#{h}"),
            Value::Unit => write!(f, "unit"),
        }
    }
}

impl Value {
    /// Extracts an integer.
    pub fn as_i64(self) -> Result<i64, TrapKind> {
        match self {
            Value::I64(v) => Ok(v),
            other => Err(TrapKind::TypeError {
                expected: "integer",
                found: other.kind_name(),
            }),
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(self) -> Result<bool, TrapKind> {
        match self {
            Value::Bool(b) => Ok(b),
            other => Err(TrapKind::TypeError {
                expected: "boolean",
                found: other.kind_name(),
            }),
        }
    }

    /// A short name for the value's kind, used in trap messages.
    pub fn kind_name(self) -> &'static str {
        match self {
            Value::I64(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::Null => "null",
            Value::Obj(_) => "object",
            Value::Arr(_) => "array",
            Value::Thread(_) => "thread",
            Value::Unit => "unit",
        }
    }

    /// Applies a unary operator; a wrapper over [`Value::unary_into`].
    pub fn unary(op: UnOp, v: Value) -> Result<Value, TrapKind> {
        let mut out = Value::Unit;
        Self::unary_into(op, v, &mut out)?;
        Ok(out)
    }

    /// Applies a unary operator, writing the result into `dst`, which a
    /// trap leaves untouched.
    #[inline]
    pub fn unary_into(op: UnOp, v: Value, dst: &mut Value) -> Result<(), TrapKind> {
        match op {
            UnOp::Neg => *dst = Value::I64(v.as_i64()?.wrapping_neg()),
            UnOp::Not => *dst = Value::Bool(!v.as_bool()?),
        }
        Ok(())
    }

    /// Applies a binary operator; a wrapper over [`Value::binary_into`].
    /// Arithmetic wraps; division and remainder by zero trap; `==`/`!=`
    /// compare any two values of the same kind; the orderings require
    /// integers.
    #[inline]
    pub fn binary(op: BinOp, a: Value, b: Value) -> Result<Value, TrapKind> {
        let mut out = Value::Unit;
        Self::binary_into(op, a, b, &mut out)?;
        Ok(out)
    }

    /// Applies a binary operator, writing the result into `dst`, which a
    /// trap leaves untouched.
    ///
    /// The result goes straight into the destination rather than through
    /// a returned `Result<Value, TrapKind>`. That aggregate lives on the
    /// stack, is written as narrow stores and read back as one wide load,
    /// which the CPU cannot forward from them (DESIGN.md decision 21).
    ///
    /// Two integers — nearly every binary op a program runs — take one
    /// match over the operator; every other pair goes to the cold
    /// `binary_mixed`. The prepared engine's `Frame::bin` makes the same
    /// split on operands it reads in place (DESIGN.md decision 26).
    #[inline(always)]
    pub fn binary_into(op: BinOp, a: Value, b: Value, dst: &mut Value) -> Result<(), TrapKind> {
        match (a, b) {
            (Value::I64(x), Value::I64(y)) => Self::binary_i64_into(op, x, y, dst),
            _ => {
                *dst = Self::binary_mixed(op, a, b)?;
                Ok(())
            }
        }
    }

    /// The integer semantics of every operator: the one copy of the
    /// operator table. `/` and `%` by zero trap before `dst` is written.
    #[inline(always)]
    pub(crate) fn binary_i64_into(
        op: BinOp,
        x: i64,
        y: i64,
        dst: &mut Value,
    ) -> Result<(), TrapKind> {
        use BinOp::*;
        match op {
            Add => *dst = Value::I64(x.wrapping_add(y)),
            Sub => *dst = Value::I64(x.wrapping_sub(y)),
            Mul => *dst = Value::I64(x.wrapping_mul(y)),
            Div | Rem if y == 0 => return Err(TrapKind::DivisionByZero),
            Div => *dst = Value::I64(x.wrapping_div(y)),
            Rem => *dst = Value::I64(x.wrapping_rem(y)),
            And => *dst = Value::I64(x & y),
            Or => *dst = Value::I64(x | y),
            Xor => *dst = Value::I64(x ^ y),
            Shl => *dst = Value::I64(x.wrapping_shl(y as u32)),
            Shr => *dst = Value::I64(x.wrapping_shr(y as u32)),
            Eq => *dst = Value::Bool(x == y),
            Ne => *dst = Value::Bool(x != y),
            Lt => *dst = Value::Bool(x < y),
            Le => *dst = Value::Bool(x <= y),
            Gt => *dst = Value::Bool(x > y),
            Ge => *dst = Value::Bool(x >= y),
        }
        Ok(())
    }

    /// [`Value::binary`] on a pair that is not two integers. `==`/`!=`
    /// compare; every other operator type-checks its operands in a fixed
    /// order and traps on the first non-integer. `/` and `%` check the
    /// divisor first, so a zero divisor traps as a division by zero
    /// whatever the dividend is.
    #[cold]
    #[inline(never)]
    pub(crate) fn binary_mixed(op: BinOp, a: Value, b: Value) -> Result<Value, TrapKind> {
        let (x, y) = match op {
            BinOp::Eq => return Ok(Value::Bool(a == b)),
            BinOp::Ne => return Ok(Value::Bool(a != b)),
            BinOp::Div | BinOp::Rem => {
                let y = b.as_i64()?;
                if y == 0 {
                    return Err(TrapKind::DivisionByZero);
                }
                (a.as_i64()?, y)
            }
            _ => (a.as_i64()?, b.as_i64()?),
        };
        Self::binary(op, Value::I64(x), Value::I64(y))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every binary operator.
    pub(crate) const BIN_OPS: [BinOp; 16] = {
        use BinOp::*;
        [
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge,
        ]
    };

    /// One or two values of every kind, and the integers at the edges of
    /// wrapping, division and shift counts.
    pub(crate) fn value_grid() -> Vec<Value> {
        let mut values = vec![
            Value::Bool(false),
            Value::Bool(true),
            Value::Null,
            Value::Obj(0),
            Value::Obj(1),
            Value::Arr(0),
            Value::Arr(1),
            Value::Thread(0),
            Value::Thread(1),
            Value::Unit,
        ];
        values.extend([0, 1, -1, i64::MIN, i64::MAX, 63, 64, 65, -63, -64, -65].map(Value::I64));
        values
    }

    #[test]
    fn arithmetic_wraps() {
        let v = Value::binary(BinOp::Add, Value::I64(i64::MAX), Value::I64(1)).unwrap();
        assert_eq!(v, Value::I64(i64::MIN));
    }

    #[test]
    fn division_by_zero_traps() {
        assert_eq!(
            Value::binary(BinOp::Div, Value::I64(1), Value::I64(0)),
            Err(TrapKind::DivisionByZero)
        );
        assert_eq!(
            Value::binary(BinOp::Rem, Value::I64(1), Value::I64(0)),
            Err(TrapKind::DivisionByZero)
        );
    }

    #[test]
    fn equality_works_across_kinds() {
        assert_eq!(
            Value::binary(BinOp::Eq, Value::Null, Value::Null).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::binary(BinOp::Ne, Value::Obj(1), Value::Obj(2)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::binary(BinOp::Eq, Value::I64(0), Value::Null).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn ordering_requires_integers() {
        let e = Value::binary(BinOp::Lt, Value::Bool(true), Value::I64(0)).unwrap_err();
        assert!(matches!(e, TrapKind::TypeError { .. }));
    }

    /// The per-operand formulation `binary` had before its integer-first
    /// rewrite, kept as the oracle for it: both engines call `binary`, so
    /// the differential tests cannot catch a mistake in it.
    fn binary_oracle(op: BinOp, a: Value, b: Value) -> Result<Value, TrapKind> {
        use BinOp::*;
        Ok(match op {
            Add => Value::I64(a.as_i64()?.wrapping_add(b.as_i64()?)),
            Sub => Value::I64(a.as_i64()?.wrapping_sub(b.as_i64()?)),
            Mul => Value::I64(a.as_i64()?.wrapping_mul(b.as_i64()?)),
            Div => {
                let d = b.as_i64()?;
                if d == 0 {
                    return Err(TrapKind::DivisionByZero);
                }
                Value::I64(a.as_i64()?.wrapping_div(d))
            }
            Rem => {
                let d = b.as_i64()?;
                if d == 0 {
                    return Err(TrapKind::DivisionByZero);
                }
                Value::I64(a.as_i64()?.wrapping_rem(d))
            }
            And => Value::I64(a.as_i64()? & b.as_i64()?),
            Or => Value::I64(a.as_i64()? | b.as_i64()?),
            Xor => Value::I64(a.as_i64()? ^ b.as_i64()?),
            Shl => Value::I64(a.as_i64()?.wrapping_shl(b.as_i64()? as u32)),
            Shr => Value::I64(a.as_i64()?.wrapping_shr(b.as_i64()? as u32)),
            Eq => Value::Bool(a == b),
            Ne => Value::Bool(a != b),
            Lt => Value::Bool(a.as_i64()? < b.as_i64()?),
            Le => Value::Bool(a.as_i64()? <= b.as_i64()?),
            Gt => Value::Bool(a.as_i64()? > b.as_i64()?),
            Ge => Value::Bool(a.as_i64()? >= b.as_i64()?),
        })
    }

    #[test]
    fn binary_matches_the_per_operand_oracle_exhaustively() {
        let values = value_grid();
        for op in BIN_OPS {
            for &a in &values {
                for &b in &values {
                    let want = binary_oracle(op, a, b);
                    assert_eq!(Value::binary(op, a, b), want, "{a:?} {op:?} {b:?}");
                    // The in-place form writes the oracle's value on `Ok`
                    // and leaves its destination untouched on `Err`.
                    let sentinel = Value::Thread(7);
                    let mut dst = sentinel;
                    let got = Value::binary_into(op, a, b, &mut dst);
                    match &want {
                        Ok(v) => assert_eq!((got, dst), (Ok(()), *v), "{a:?} {op:?} {b:?}"),
                        Err(e) => {
                            assert_eq!(got.as_ref(), Err(e), "{a:?} {op:?} {b:?}");
                            assert_eq!(dst, sentinel, "{a:?} {op:?} {b:?} wrote on a trap");
                        }
                    }
                }
            }
        }
        // The divisor is checked before the dividend's type.
        assert_eq!(
            Value::binary(BinOp::Div, Value::Bool(true), Value::I64(0)),
            Err(TrapKind::DivisionByZero)
        );
    }

    #[test]
    fn unary_ops() {
        assert_eq!(
            Value::unary(UnOp::Neg, Value::I64(5)).unwrap(),
            Value::I64(-5)
        );
        assert_eq!(
            Value::unary(UnOp::Not, Value::Bool(false)).unwrap(),
            Value::Bool(true)
        );
        assert!(Value::unary(UnOp::Not, Value::I64(1)).is_err());
        let mut dst = Value::Thread(7);
        assert!(Value::unary_into(UnOp::Neg, Value::Bool(true), &mut dst).is_err());
        assert_eq!(dst, Value::Thread(7));
        assert_eq!(
            Value::unary_into(UnOp::Neg, Value::I64(5), &mut dst),
            Ok(())
        );
        assert_eq!(dst, Value::I64(-5));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::I64(3).to_string(), "3");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Arr(7).to_string(), "arr#7");
    }
}
