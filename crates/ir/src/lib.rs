//! Mid-level intermediate representation for the ISF virtual machine.
//!
//! This crate plays the role of Jalapeño's low-level IR (LIR) in the PLDI'01
//! paper *"A Framework for Reducing the Cost of Instrumented Code"* (Arnold &
//! Ryder): it is the representation on which the instrumentation-sampling
//! transforms of `isf-core` operate, late in the compilation pipeline.
//!
//! The IR is a conventional register-based, basic-block CFG form:
//!
//! * a [`Module`] holds [`Function`]s, [`Class`] declarations and interned
//!   field/method symbols;
//! * a [`Function`] is a vector of [`BasicBlock`]s, each a straight-line run
//!   of [`Inst`]s ended by a single [`Term`]inator;
//! * values live in virtual registers ([`LocalId`]); there is no SSA —
//!   the sampling transforms only rewrite control flow, never data flow,
//!   so plain registers keep block duplication a pure block-level copy.
//!
//! Two instruction families matter to the sampling framework and are
//! therefore first-class here rather than in a client crate:
//!
//! * [`Inst::Instr`] — an *instrumentation operation* ([`InstrOp`]), the unit
//!   of profiling work the framework samples;
//! * [`Term::Check`] — a *counter-based check* (paper §2.2, Figure 3), a
//!   conditional branch on the trigger's sample condition.
//!
//! Analyses needed by the transforms live in [`cfg`](mod@cfg), [`dom`] and [`loops`]
//! (reverse postorder, dominator tree, backedge detection). [`verify`]
//! provides a structural verifier run by tests after every transform.
//!
//! # Example
//!
//! ```
//! use isf_ir::{ModuleBuilder, FunctionBuilder, Inst, Term, Const, BinOp};
//!
//! // fn add1(x) { return x + 1; }
//! let mut mb = ModuleBuilder::new();
//! let mut fb = FunctionBuilder::new("add1", 1);
//! let x = fb.param(0);
//! let one = fb.new_local();
//! let sum = fb.new_local();
//! fb.push(Inst::Const { dst: one, value: Const::I64(1) });
//! fb.push(Inst::Bin { op: BinOp::Add, dst: sum, lhs: x, rhs: one });
//! fb.terminate(Term::Ret(Some(sum)));
//! let f = mb.add_function(fb.finish());
//! let module = mb.finish(f);
//! assert_eq!(module.function(f).name(), "add1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod builder;
pub mod cfg;
mod display;
pub mod dom;
mod function;
mod ids;
mod inst;
pub mod loops;
mod module;
pub mod parse;
pub mod passes;
pub mod size;
pub mod verify;

pub use block::BasicBlock;
pub use builder::{FunctionBuilder, ModuleBuilder};
pub use function::Function;
pub use ids::{BlockId, CallSiteId, ClassId, FieldSym, FuncId, LocalId, MethodSym, ThreadId};
pub use inst::{BinOp, Const, Inst, InstrOp, Term, UnOp};
pub use module::{Class, Module};
