//! Structural IR verifier.
//!
//! Run after the front end and after every sampling transform; the
//! transforms may only produce well-formed CFGs.

use std::error::Error;
use std::fmt;

use crate::function::Function;
use crate::ids::FuncId;
use crate::inst::{Inst, InstrOp};
use crate::module::Module;

/// A structural verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// The offending function, if the error is function-local.
    pub func: Option<FuncId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.func {
            Some(id) => write!(f, "verification failed in {id}: {}", self.message),
            None => write!(f, "verification failed: {}", self.message),
        }
    }
}

impl Error for VerifyError {}

fn err(func: Option<FuncId>, message: impl Into<String>) -> VerifyError {
    VerifyError {
        func,
        message: message.into(),
    }
}

/// Verifies a single function: block targets in range, locals in range,
/// call-site ids within the declared range.
///
/// # Errors
///
/// Returns the first structural violation found.
pub fn verify_function(f: &Function, id: Option<FuncId>) -> Result<(), VerifyError> {
    let nb = f.num_blocks() as u32;
    let nl = f.num_locals() as u32;
    let check_local = |l: crate::ids::LocalId| -> Result<(), VerifyError> {
        if l.0 >= nl {
            Err(err(id, format!("local {l} out of range (have {nl})")))
        } else {
            Ok(())
        }
    };
    for (bid, block) in f.blocks() {
        for succ in block.successors() {
            if succ.0 >= nb {
                return Err(err(id, format!("{bid} targets missing block {succ}")));
            }
        }
        for inst in block.insts() {
            match inst {
                Inst::Const { dst, .. } => check_local(*dst)?,
                Inst::Move { dst, src } => {
                    check_local(*dst)?;
                    check_local(*src)?;
                }
                Inst::Un { dst, src, .. } => {
                    check_local(*dst)?;
                    check_local(*src)?;
                }
                Inst::Bin { dst, lhs, rhs, .. } => {
                    check_local(*dst)?;
                    check_local(*lhs)?;
                    check_local(*rhs)?;
                }
                Inst::New { dst, .. } => check_local(*dst)?,
                Inst::GetField { dst, obj, .. } => {
                    check_local(*dst)?;
                    check_local(*obj)?;
                }
                Inst::SetField { obj, src, .. } => {
                    check_local(*obj)?;
                    check_local(*src)?;
                }
                Inst::NewArray { dst, len } => {
                    check_local(*dst)?;
                    check_local(*len)?;
                }
                Inst::ArrayGet { dst, arr, idx } => {
                    check_local(*dst)?;
                    check_local(*arr)?;
                    check_local(*idx)?;
                }
                Inst::ArraySet { arr, idx, src } => {
                    check_local(*arr)?;
                    check_local(*idx)?;
                    check_local(*src)?;
                }
                Inst::ArrayLen { dst, arr } => {
                    check_local(*dst)?;
                    check_local(*arr)?;
                }
                Inst::Call {
                    dst, args, site, ..
                }
                | Inst::CallMethod {
                    dst, args, site, ..
                } => {
                    if let Some(d) = dst {
                        check_local(*d)?;
                    }
                    for a in args {
                        check_local(*a)?;
                    }
                    if site.0 >= f.num_call_sites() {
                        return Err(err(id, format!("call site {site} out of range")));
                    }
                    if let Inst::CallMethod { obj, .. } = inst {
                        check_local(*obj)?;
                    }
                }
                Inst::Print { src } => check_local(*src)?,
                Inst::Spawn { dst, args, .. } => {
                    check_local(*dst)?;
                    for a in args {
                        check_local(*a)?;
                    }
                }
                Inst::Join { thread } => check_local(*thread)?,
                Inst::Yield | Inst::Busy { .. } | Inst::Instr(_) => {}
            }
        }
    }
    Ok(())
}

/// Verifies a whole module: every function individually, plus cross-function
/// facts (callee ids and arities, class/field/method symbols in range).
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    let nf = m.num_functions() as u32;
    let nc = m.num_classes() as u32;
    let nfs = m.num_field_syms() as u32;
    let nms = m.num_method_syms() as u32;
    for (id, f) in m.functions() {
        verify_function(f, Some(id))?;
        for (_, _, inst) in f.insts() {
            match inst {
                Inst::Call { callee, args, .. } | Inst::Spawn { callee, args, .. } => {
                    if callee.0 >= nf {
                        return Err(err(Some(id), format!("missing callee {callee}")));
                    }
                    let callee_arity = m.function(*callee).arity();
                    if args.len() != callee_arity {
                        return Err(err(
                            Some(id),
                            format!(
                                "call to {} passes {} args, expects {}",
                                m.function(*callee).name(),
                                args.len(),
                                callee_arity
                            ),
                        ));
                    }
                }
                Inst::CallMethod { method, .. } if method.0 >= nms => {
                    return Err(err(Some(id), format!("missing method symbol {method}")));
                }
                Inst::New { class, .. } if class.0 >= nc => {
                    return Err(err(Some(id), format!("missing class {class}")));
                }
                Inst::GetField { field, .. }
                | Inst::SetField { field, .. }
                | Inst::Instr(InstrOp::FieldAccess { field, .. })
                    if field.0 >= nfs =>
                {
                    return Err(err(Some(id), format!("missing field symbol {field}")));
                }
                _ => {}
            }
        }
    }
    if m.main().0 >= nf {
        return Err(err(None, "main function out of range"));
    }
    if m.function(m.main()).arity() != 0 {
        return Err(err(Some(m.main()), "main must take no parameters"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ModuleBuilder};
    use crate::ids::{BlockId, CallSiteId, LocalId};
    use crate::inst::{Const, Term};
    use crate::BasicBlock;

    fn empty_main(mb: &mut ModuleBuilder) -> FuncId {
        let mut fb = FunctionBuilder::new("main", 0);
        fb.terminate(Term::Ret(None));
        mb.add_function(fb.finish())
    }

    #[test]
    fn accepts_well_formed_module() {
        let mut mb = ModuleBuilder::new();
        let main = empty_main(&mut mb);
        let m = mb.finish(main);
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn rejects_dangling_block_target() {
        let blocks = vec![BasicBlock::jump_to(BlockId::new(5))];
        let f = Function::new("bad", 0, 0, blocks, 0);
        let e = verify_function(&f, None).unwrap_err();
        assert!(e.message.contains("missing block"));
    }

    #[test]
    fn rejects_out_of_range_local() {
        let blocks = vec![BasicBlock::new(
            vec![Inst::Const {
                dst: LocalId::new(3),
                value: Const::I64(0),
            }],
            Term::Ret(None),
        )];
        let f = Function::new("bad", 0, 1, blocks, 0);
        assert!(verify_function(&f, None).is_err());
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut mb = ModuleBuilder::new();
        let callee = {
            let mut fb = FunctionBuilder::new("two_args", 2);
            fb.terminate(Term::Ret(None));
            mb.add_function(fb.finish())
        };
        let main = {
            let mut fb = FunctionBuilder::new("main", 0);
            fb.push(Inst::Call {
                dst: None,
                callee,
                args: vec![],
                site: CallSiteId::new(0),
            });
            fb.terminate(Term::Ret(None));
            mb.add_function(fb.finish())
        };
        let m = mb.finish(main);
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("expects 2"));
    }

    #[test]
    fn rejects_out_of_range_field_access_op() {
        let mut mb = ModuleBuilder::new();
        let mut fb = FunctionBuilder::new("main", 0);
        let obj = fb.new_local();
        fb.push(Inst::Instr(InstrOp::FieldAccess {
            obj,
            field: crate::ids::FieldSym::new(0),
            write: false,
        }));
        fb.terminate(Term::Ret(None));
        let main = mb.add_function(fb.finish());
        let e = verify_module(&mb.finish(main)).unwrap_err();
        assert!(e.message.contains("missing field symbol"));
    }

    #[test]
    fn rejects_main_with_parameters() {
        let mut mb = ModuleBuilder::new();
        let mut fb = FunctionBuilder::new("main", 1);
        fb.terminate(Term::Ret(None));
        let main = mb.add_function(fb.finish());
        let m = mb.finish(main);
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn error_displays_function() {
        let e = err(Some(FuncId::new(3)), "boom");
        assert_eq!(e.to_string(), "verification failed in fn3: boom");
    }
}
