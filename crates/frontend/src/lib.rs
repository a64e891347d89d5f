//! Front end for **Jive**, the small Java-like language the ISF benchmark
//! suite is written in.
//!
//! The paper's substrate is a JVM: Java source compiled to bytecode,
//! compiled again by Jalapeño's optimizing compiler into an IR that the
//! sampling transforms rewrite. This crate is our analogue of the front
//! half of that pipeline: Jive source → AST → `isf-ir`
//! [`isf_ir::Module`], with yieldpoints placed on method entries and
//! loop backedges exactly where Jalapeño places them.
//!
//! A compile copies nothing it does not emit: tokens and the AST borrow
//! names from the source, expressions live in one arena per program, and
//! each function body is checked in the same walk that lowers it. Nesting
//! deeper than 64 levels is a parse error, so no source can overflow the
//! stack of a later phase.
//!
//! # Language summary
//!
//! ```text
//! class Point : Base {          // single inheritance
//!     field x; field y;
//!     method mag(scale) {       // implicit `self`
//!         return self.x * self.x + self.y * self.y * scale;
//!     }
//! }
//! fn main() {
//!     var p = new Point;
//!     p.x = 3; p.y = 4;
//!     var i = 0;
//!     while (i < 10) {
//!         if (p.mag(1) > 20 && i != 3) { print(i); }
//!         i = i + 1;
//!     }
//! }
//! ```
//!
//! All values are 64-bit integers, booleans, object/array references, null,
//! or thread handles; there are no static types beyond arity checking.
//! Built-ins: `print(e)`, `array(n)` (new integer array), `len(a)`,
//! `busy(k)` (spin the simulated clock for `k` cycles — used to model
//! long-latency operations), `spawn f(args)` and `join(t)` (green threads).
//!
//! # Example
//!
//! ```
//! let module = isf_frontend::compile("fn main() { print(42); }")?;
//! assert_eq!(module.function(module.main()).name(), "main");
//! # Ok::<(), isf_frontend::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod diag;
mod lexer;
mod lower;
mod parser;
mod sema;
mod token;

pub use diag::CompileError;

use isf_ir::Module;

/// Compiles Jive source text into a verified IR module.
///
/// Runs the full pipeline: lexing and parsing into an AST that borrows
/// the source, semantic checking and lowering (with yieldpoint insertion)
/// in one walk, and the IR verifier.
///
/// # Errors
///
/// Returns a [`CompileError`] carrying the source position for lexical,
/// syntactic and semantic errors, or a description of an internal verifier
/// failure (which would be a bug in the lowering pass).
pub fn compile(source: &str) -> Result<Module, CompileError> {
    let program = parser::parse(source)?;
    let module = lower::lower(&program)?;
    isf_ir::verify::verify_module(&module)
        .map_err(|e| CompileError::internal(format!("lowering produced invalid IR: {e}")))?;
    Ok(module)
}

/// Compiles Jive source and runs the optimizer bundle
/// ([`isf_ir::passes::optimize`]) over every function — the analogue of
/// Jalapeño compiling at O2 before the sampling framework instruments the
/// code (paper §4.1).
///
/// # Errors
///
/// As [`compile`].
pub fn compile_optimized(source: &str) -> Result<Module, CompileError> {
    let mut module = compile(source)?;
    let ids: Vec<_> = module.func_ids().collect();
    for id in ids {
        isf_ir::passes::optimize(module.function_mut(id));
    }
    isf_ir::verify::verify_module(&module)
        .map_err(|e| CompileError::internal(format!("optimizer produced invalid IR: {e}")))?;
    Ok(module)
}
