//! Runtime errors (traps).

use std::error::Error;
use std::fmt;

/// Why execution trapped.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TrapKind {
    /// An operand had the wrong kind.
    TypeError {
        /// What the instruction required.
        expected: &'static str,
        /// What it got.
        found: &'static str,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Field or method access through `null`.
    NullDereference,
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// The requested index.
        index: i64,
        /// The array length.
        len: usize,
    },
    /// Requested array length was negative.
    NegativeArrayLength(i64),
    /// The receiver's class declares no such field.
    NoSuchField(String),
    /// The receiver's class declares no such method.
    NoSuchMethod(String),
    /// A dynamic method call passed the wrong number of arguments.
    ArityMismatch {
        /// The resolved method.
        method: String,
        /// Arguments supplied (including the receiver).
        given: usize,
        /// Arguments expected (including the receiver).
        expected: usize,
    },
    /// Every live thread is blocked in `join`.
    Deadlock,
    /// The configured cycle budget (execution fuel) was exhausted.
    FuelExhausted(u64),
    /// The configured heap budget was exhausted by an allocation.
    HeapExhausted {
        /// The heap-word limit that was hit.
        limit_words: u64,
    },
    /// The call stack exceeded the configured depth limit.
    StackOverflow(usize),
    /// The run was cooperatively cancelled by a fired
    /// [`CancelToken`](crate::CancelToken). Not a budget trap: budgets are
    /// part of a cell's configuration and reproduce deterministically,
    /// while cancellation is imposed from outside the run — harnesses
    /// classify and retry it like an external failure, not like fuel
    /// running out.
    Cancelled,
}

impl TrapKind {
    /// Whether this trap is a configured resource budget running out
    /// (fuel, heap, stack) rather than a semantic error in the program.
    /// Budget traps are the expected, recoverable way a production
    /// sampling framework degrades; harnesses classify them separately.
    pub fn is_budget(&self) -> bool {
        matches!(
            self,
            TrapKind::FuelExhausted(_)
                | TrapKind::HeapExhausted { .. }
                | TrapKind::StackOverflow(_)
        )
    }
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapKind::TypeError { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            TrapKind::DivisionByZero => write!(f, "division by zero"),
            TrapKind::NullDereference => write!(f, "null dereference"),
            TrapKind::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            TrapKind::NegativeArrayLength(n) => write!(f, "negative array length {n}"),
            TrapKind::NoSuchField(name) => write!(f, "no such field `{name}`"),
            TrapKind::NoSuchMethod(name) => write!(f, "no such method `{name}`"),
            TrapKind::ArityMismatch {
                method,
                given,
                expected,
            } => write!(
                f,
                "method `{method}` called with {given} argument(s), expects {expected}"
            ),
            TrapKind::Deadlock => write!(f, "all threads blocked in join"),
            TrapKind::FuelExhausted(n) => {
                write!(f, "cycle budget of {n} exceeded")
            }
            TrapKind::HeapExhausted { limit_words } => {
                write!(f, "heap budget of {limit_words} words exhausted")
            }
            TrapKind::StackOverflow(n) => write!(f, "call stack exceeded {n} frames"),
            TrapKind::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A trap annotated with where it happened.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VmError {
    /// What went wrong.
    pub kind: TrapKind,
    /// The function executing when the trap fired.
    pub function: String,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trap in `{}`: {}", self.function, self.kind)
    }
}

impl Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_function_and_kind() {
        let e = VmError {
            kind: TrapKind::DivisionByZero,
            function: "main".into(),
        };
        assert_eq!(e.to_string(), "trap in `main`: division by zero");
    }

    #[test]
    fn bounds_message() {
        let k = TrapKind::IndexOutOfBounds { index: 9, len: 4 };
        assert_eq!(k.to_string(), "index 9 out of bounds for length 4");
    }

    #[test]
    fn budget_traps_are_classified() {
        assert!(TrapKind::FuelExhausted(10).is_budget());
        assert!(TrapKind::HeapExhausted { limit_words: 64 }.is_budget());
        assert!(TrapKind::StackOverflow(4).is_budget());
        assert!(!TrapKind::DivisionByZero.is_budget());
        assert!(!TrapKind::NullDereference.is_budget());
        // Cancellation is imposed from outside the run: never a budget.
        assert!(!TrapKind::Cancelled.is_budget());
        assert_eq!(TrapKind::Cancelled.to_string(), "cancelled");
        assert_eq!(
            TrapKind::HeapExhausted { limit_words: 64 }.to_string(),
            "heap budget of 64 words exhausted"
        );
    }
}
