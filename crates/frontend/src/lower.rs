//! Lowering from the AST to `isf-ir`, checking each function body as it
//! goes.
//!
//! Yieldpoint placement mirrors Jalapeño (paper §4.5): one `Yield` at every
//! method entry, and one on every loop backedge (in a dedicated latch block
//! that both the fall-through path and `continue` route through, so each
//! loop has exactly one backedge and exactly one backedge yieldpoint).

use std::collections::{HashMap, HashSet};

use isf_ir::{
    BlockId, CallSiteId, ClassId, Const, FieldSym, FuncId, FunctionBuilder, Inst, LocalId,
    MethodSym, Module, ModuleBuilder, Term,
};

use crate::ast::*;
use crate::diag::{CompileError, Pos};
use crate::sema::{self, Declarations};

/// Checks a parsed program and lowers it to an IR module.
///
/// Declarations are checked first, then each body — methods in class
/// order, then free functions — and `main` last, so the first error found
/// is the one a separate checking pass would report.
///
/// # Errors
///
/// Returns the first semantic violation with its source position.
pub(crate) fn lower(program: &Program<'_>) -> Result<Module, CompileError> {
    let decls = sema::declarations(program)?;
    let mut mb = ModuleBuilder::new();

    // Declare every free function, then every method, so calls resolve
    // before bodies are lowered: free function `i` is `FuncId` `i`.
    for f in &program.functions {
        mb.declare_function(f.name, f.params.len());
    }
    let mut first_method = Vec::with_capacity(program.classes.len());
    let mut next = program.functions.len() as u32;
    for class in &program.classes {
        first_method.push(next);
        next += class.methods.len() as u32;
        for m in &class.methods {
            // `self` is the implicit parameter 0.
            mb.declare_function(&mangle(class.name, m.name), m.params.len() + 1);
        }
    }

    let members = Members::register(program, &decls, &first_method, &mut mb);
    let mut cx = Context {
        program,
        decls: &decls,
        members: &members,
        scopes: Scopes::default(),
    };
    for (class, &first) in program.classes.iter().zip(&first_method) {
        for (m, id) in class.methods.iter().zip(first..) {
            let f = cx.lower_fn(mangle(class.name, m.name), m, true)?;
            mb.define_function(FuncId::new(id), f);
        }
    }
    for (i, f) in program.functions.iter().enumerate() {
        let lowered = cx.lower_fn(f.name.to_owned(), f, false)?;
        mb.define_function(FuncId::new(i as u32), lowered);
    }
    let main = sema::main_function(program, &decls)?;
    Ok(mb.finish(FuncId::new(main as u32)))
}

fn mangle(class: &str, method: &str) -> String {
    format!("{class}::{method}")
}

/// The symbols class declarations give bodies to refer to.
struct Members<'src> {
    /// Class declaration index → class id.
    classes: Vec<ClassId>,
    /// Field names declared by any class.
    fields: HashMap<&'src str, FieldSym>,
    /// Method names declared by any class.
    methods: HashMap<&'src str, MethodSym>,
    /// Every (method, arity excluding `self`) some class declares.
    arities: HashSet<(MethodSym, usize)>,
}

impl<'src> Members<'src> {
    /// Registers every class with `mb`, parents first, interning field and
    /// method names in that order.
    fn register(
        program: &Program<'src>,
        decls: &Declarations<'src>,
        first_method: &[u32],
        mb: &mut ModuleBuilder,
    ) -> Self {
        let n = program.classes.len();
        let parent = |i: usize| program.classes[i].parent.map(|p| decls.classes[p]);
        let mut ids: Vec<Option<ClassId>> = vec![None; n];
        let mut members = Members {
            classes: Vec::with_capacity(n),
            fields: HashMap::new(),
            methods: HashMap::new(),
            arities: HashSet::new(),
        };
        let (mut chain, mut fields, mut methods) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..n {
            // `i` and its unregistered ancestors, registered root first.
            let mut cur = Some(i);
            while let Some(c) = cur.filter(|&c| ids[c].is_none()) {
                chain.push(c);
                cur = parent(c);
            }
            while let Some(c) = chain.pop() {
                let class = &program.classes[c];
                fields.clear();
                for &f in &class.fields {
                    let sym = mb.intern_field(f);
                    members.fields.insert(f, sym);
                    fields.push(sym);
                }
                methods.clear();
                for (m, id) in class.methods.iter().zip(first_method[c]..) {
                    let sym = mb.intern_method(m.name);
                    members.methods.insert(m.name, sym);
                    members.arities.insert((sym, m.params.len()));
                    methods.push((sym, FuncId::new(id)));
                }
                let parent = parent(c).map(|p| ids[p].expect("parents register first"));
                ids[c] = Some(mb.add_class(class.name, parent, &fields, &methods));
            }
        }
        members.classes = ids
            .into_iter()
            .map(|id| id.expect("all registered"))
            .collect();
        members
    }
}

/// Variables in scope: each name's innermost binding with the level of the
/// scope that made it, and an undo log that restores shadowed bindings as
/// scopes close.
#[derive(Default)]
struct Scopes<'src> {
    bound: HashMap<&'src str, (LocalId, usize)>,
    undo: Vec<(&'src str, Option<(LocalId, usize)>)>,
    /// Undo-log length at each open scope.
    open: Vec<usize>,
}

impl<'src> Scopes<'src> {
    fn push(&mut self) {
        self.open.push(self.undo.len());
    }

    fn pop(&mut self) {
        let mark = self.open.pop().expect("scopes close in order");
        while self.undo.len() > mark {
            let (name, shadowed) = self.undo.pop().expect("above the mark");
            match shadowed {
                Some(binding) => self.bound.insert(name, binding),
                None => self.bound.remove(name),
            };
        }
    }

    /// Binds `name` in the innermost scope; `false` if it already has a
    /// binding there.
    fn declare(&mut self, name: &'src str, local: LocalId) -> bool {
        let level = self.open.len();
        let shadowed = self.bound.insert(name, (local, level));
        self.undo.push((name, shadowed));
        shadowed.is_none_or(|(_, l)| l != level)
    }

    fn lookup(&self, name: &str) -> Option<LocalId> {
        self.bound.get(name).map(|&(local, _)| local)
    }
}

/// What every body of one program is lowered against.
struct Context<'a, 'src> {
    program: &'a Program<'src>,
    decls: &'a Declarations<'src>,
    members: &'a Members<'src>,
    /// Reused by every body; empty between bodies.
    scopes: Scopes<'src>,
}

impl<'a, 'src> Context<'a, 'src> {
    fn lower_fn(
        &mut self,
        name: String,
        decl: &FnDecl<'src>,
        is_method: bool,
    ) -> Result<isf_ir::Function, CompileError> {
        let arity = decl.params.len() + usize::from(is_method);
        let mut fb = FunctionBuilder::new(name, arity);
        // Method-entry yieldpoint, exactly where Jalapeño inserts one.
        fb.push(Inst::Yield);
        self.scopes.push();
        for (i, &p) in decl.params.iter().enumerate() {
            if !self.scopes.declare(p, fb.param(i + usize::from(is_method))) {
                return Err(CompileError::sema(
                    decl.pos,
                    format!("duplicate parameter `{p}`"),
                ));
            }
        }
        let mut lowerer = FnLowerer {
            cx: self,
            fb,
            loop_stack: Vec::new(),
            is_method,
        };
        lowerer.body(decl.body)?;
        let mut fb = lowerer.fb;
        self.scopes.pop();
        if !fb.is_terminated() {
            fb.terminate(Term::Ret(None));
        }
        Ok(fb.finish())
    }
}

struct FnLowerer<'c, 'a, 'src> {
    cx: &'c mut Context<'a, 'src>,
    fb: FunctionBuilder,
    /// (continue target = latch, break target = exit)
    loop_stack: Vec<(BlockId, BlockId)>,
    is_method: bool,
}

impl<'src> FnLowerer<'_, '_, 'src> {
    fn body(&mut self, span: Span) -> Result<(), CompileError> {
        self.cx.scopes.push();
        let program = self.cx.program;
        for &stmt in program.body(span) {
            self.stmt(stmt)?;
            if self.fb.is_terminated() {
                // Anything after a return/break/continue in this block is
                // dead; park it in a fresh unreachable block.
                let dead = self.fb.new_block();
                self.fb.switch_to(dead);
            }
        }
        self.cx.scopes.pop();
        Ok(())
    }

    fn field(&self, field: &str, pos: Pos) -> Result<FieldSym, CompileError> {
        self.cx
            .members
            .fields
            .get(field)
            .copied()
            .ok_or_else(|| CompileError::sema(pos, format!("no class declares a field `{field}`")))
    }

    fn stmt(&mut self, stmt: Stmt<'src>) -> Result<(), CompileError> {
        match stmt {
            Stmt::Var { name, init, pos } => {
                let local = self.fb.new_local();
                match init {
                    Some(e) => {
                        let v = self.expr(e)?;
                        self.fb.push(Inst::Move { dst: local, src: v });
                    }
                    None => {
                        self.fb.push(Inst::Const {
                            dst: local,
                            value: Const::I64(0),
                        });
                    }
                }
                if !self.cx.scopes.declare(name, local) {
                    return Err(CompileError::sema(
                        pos,
                        format!("`{name}` already declared in this scope"),
                    ));
                }
            }
            Stmt::Assign { target, value, pos } => match self.cx.program.expr(target) {
                Expr::Var(name, _) => {
                    let dst = self.cx.scopes.lookup(name).ok_or_else(|| {
                        CompileError::sema(
                            pos,
                            format!("assignment to undeclared variable `{name}`"),
                        )
                    })?;
                    let v = self.expr(value)?;
                    self.fb.push(Inst::Move { dst, src: v });
                }
                Expr::FieldGet { obj, field, .. } => {
                    let o = self.expr(obj)?;
                    let field = self.field(field, pos)?;
                    let v = self.expr(value)?;
                    self.fb.push(Inst::SetField {
                        obj: o,
                        field,
                        src: v,
                    });
                }
                Expr::Index { arr, idx } => {
                    let a = self.expr(arr)?;
                    let i = self.expr(idx)?;
                    let v = self.expr(value)?;
                    self.fb.push(Inst::ArraySet {
                        arr: a,
                        idx: i,
                        src: v,
                    });
                }
                _ => unreachable!("the parser admits only assignable targets"),
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(cond)?;
                let then_b = self.fb.new_block();
                let else_b = self.fb.new_block();
                let merge = self.fb.new_block();
                self.fb.terminate(Term::Br {
                    cond: c,
                    t: then_b,
                    f: else_b,
                });
                self.fb.switch_to(then_b);
                self.body(then_body)?;
                if !self.fb.is_terminated() {
                    self.fb.terminate(Term::Jump(merge));
                }
                self.fb.switch_to(else_b);
                self.body(else_body)?;
                if !self.fb.is_terminated() {
                    self.fb.terminate(Term::Jump(merge));
                }
                self.fb.switch_to(merge);
            }
            Stmt::While { cond, body } => {
                let header = self.fb.new_block();
                let body_b = self.fb.new_block();
                let latch = self.fb.new_block();
                let exit = self.fb.new_block();
                self.fb.terminate(Term::Jump(header));
                self.fb.switch_to(header);
                let c = self.expr(cond)?;
                self.fb.terminate(Term::Br {
                    cond: c,
                    t: body_b,
                    f: exit,
                });
                self.fb.switch_to(body_b);
                self.loop_stack.push((latch, exit));
                self.body(body)?;
                self.loop_stack.pop();
                if !self.fb.is_terminated() {
                    self.fb.terminate(Term::Jump(latch));
                }
                // The single backedge of the loop carries the backedge
                // yieldpoint.
                self.fb.switch_to(latch);
                self.fb.push(Inst::Yield);
                self.fb.terminate(Term::Jump(header));
                self.fb.switch_to(exit);
            }
            Stmt::Return(value) => {
                let v = value.map(|e| self.expr(e)).transpose()?;
                self.fb.terminate(Term::Ret(v));
            }
            Stmt::Break { pos } | Stmt::Continue { pos } => {
                let Some(&(latch, exit)) = self.loop_stack.last() else {
                    return Err(CompileError::sema(
                        pos,
                        "`break`/`continue` outside of a loop",
                    ));
                };
                let target = if matches!(stmt, Stmt::Break { .. }) {
                    exit
                } else {
                    latch
                };
                self.fb.terminate(Term::Jump(target));
            }
            Stmt::Print(value) => {
                let v = self.expr(value)?;
                self.fb.push(Inst::Print { src: v });
            }
            Stmt::Expr(expr) => {
                self.expr(expr)?;
            }
        }
        Ok(())
    }

    /// Checks a call of free function `name` with `args` and lowers the
    /// arguments.
    fn call(
        &mut self,
        name: &str,
        args: Span,
        pos: Pos,
    ) -> Result<(FuncId, Vec<LocalId>), CompileError> {
        let Some(&i) = self.cx.decls.functions.get(name) else {
            return Err(CompileError::sema(
                pos,
                format!("call to unknown function `{name}`"),
            ));
        };
        let arity = self.cx.program.functions[i].params.len();
        if args.len as usize != arity {
            return Err(CompileError::sema(
                pos,
                format!("`{name}` takes {arity} argument(s), {} given", args.len),
            ));
        }
        Ok((FuncId::new(i as u32), self.args(args)?))
    }

    fn args(&mut self, args: Span) -> Result<Vec<LocalId>, CompileError> {
        let args = self.cx.program.args(args);
        let mut locals = Vec::with_capacity(args.len());
        for &a in args {
            locals.push(self.expr(a)?);
        }
        Ok(locals)
    }

    fn expr(&mut self, id: ExprId) -> Result<LocalId, CompileError> {
        Ok(match self.cx.program.expr(id) {
            Expr::Int(v) => self.constant(Const::I64(v)),
            Expr::Bool(b) => self.constant(Const::Bool(b)),
            Expr::Null => self.constant(Const::Null),
            Expr::SelfRef(pos) => {
                if !self.is_method {
                    return Err(CompileError::sema(pos, "`self` used outside a method"));
                }
                LocalId::new(0)
            }
            Expr::Var(name, pos) => {
                self.cx.scopes.lookup(name).ok_or_else(|| {
                    CompileError::sema(pos, format!("undeclared variable `{name}`"))
                })?
            }
            Expr::Unary { op, expr } => {
                let src = self.expr(expr)?;
                let dst = self.fb.new_local();
                self.fb.push(Inst::Un { op, dst, src });
                dst
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.expr(lhs)?;
                let r = self.expr(rhs)?;
                let dst = self.fb.new_local();
                self.fb.push(Inst::Bin {
                    op,
                    dst,
                    lhs: l,
                    rhs: r,
                });
                dst
            }
            Expr::Logic { and, lhs, rhs } => self.short_circuit(lhs, rhs, and)?,
            Expr::Call { name, args, pos } => {
                let (callee, args) = self.call(name, args, pos)?;
                let dst = self.fb.new_local();
                self.fb.push(Inst::Call {
                    dst: Some(dst),
                    callee,
                    args,
                    site: CallSiteId::new(0), // assigned by the builder
                });
                dst
            }
            Expr::MethodCall {
                obj,
                method,
                args,
                pos,
            } => {
                let o = self.expr(obj)?;
                let Some(&sym) = self.cx.members.methods.get(method) else {
                    return Err(CompileError::sema(
                        pos,
                        format!("no class declares a method `{method}`"),
                    ));
                };
                if !self.cx.members.arities.contains(&(sym, args.len as usize)) {
                    return Err(CompileError::sema(
                        pos,
                        format!(
                            "no declaration of method `{method}` takes {} argument(s)",
                            args.len
                        ),
                    ));
                }
                let args = self.args(args)?;
                let dst = self.fb.new_local();
                self.fb.push(Inst::CallMethod {
                    dst: Some(dst),
                    obj: o,
                    method: sym,
                    args,
                    site: CallSiteId::new(0), // assigned by the builder
                });
                dst
            }
            Expr::FieldGet { obj, field, pos } => {
                let o = self.expr(obj)?;
                let field = self.field(field, pos)?;
                let dst = self.fb.new_local();
                self.fb.push(Inst::GetField { dst, obj: o, field });
                dst
            }
            Expr::Index { arr, idx } => {
                let a = self.expr(arr)?;
                let i = self.expr(idx)?;
                let dst = self.fb.new_local();
                self.fb.push(Inst::ArrayGet {
                    dst,
                    arr: a,
                    idx: i,
                });
                dst
            }
            Expr::New { class, pos } => {
                let Some(&i) = self.cx.decls.classes.get(class) else {
                    return Err(CompileError::sema(pos, format!("unknown class `{class}`")));
                };
                let dst = self.fb.new_local();
                self.fb.push(Inst::New {
                    dst,
                    class: self.cx.members.classes[i],
                });
                dst
            }
            Expr::NewArray(len) => {
                let l = self.expr(len)?;
                let dst = self.fb.new_local();
                self.fb.push(Inst::NewArray { dst, len: l });
                dst
            }
            Expr::Len(arr) => {
                let a = self.expr(arr)?;
                let dst = self.fb.new_local();
                self.fb.push(Inst::ArrayLen { dst, arr: a });
                dst
            }
            Expr::Busy { cycles, pos } => {
                let Ok(cycles) = u32::try_from(cycles) else {
                    return Err(CompileError::sema(pos, "`busy` cycle count out of range"));
                };
                self.fb.push(Inst::Busy { cycles });
                self.constant(Const::I64(0))
            }
            Expr::Spawn { name, args, pos } => {
                let (callee, args) = self.call(name, args, pos)?;
                let dst = self.fb.new_local();
                self.fb.push(Inst::Spawn { dst, callee, args });
                dst
            }
            Expr::Join(thread) => {
                let t = self.expr(thread)?;
                self.fb.push(Inst::Join { thread: t });
                self.constant(Const::I64(0))
            }
        })
    }

    fn constant(&mut self, value: Const) -> LocalId {
        let dst = self.fb.new_local();
        self.fb.push(Inst::Const { dst, value });
        dst
    }

    /// Lowers `lhs && rhs` (`and = true`) or `lhs || rhs` (`and = false`)
    /// with short-circuit control flow.
    fn short_circuit(
        &mut self,
        lhs: ExprId,
        rhs: ExprId,
        and: bool,
    ) -> Result<LocalId, CompileError> {
        let result = self.fb.new_local();
        let l = self.expr(lhs)?;
        let rhs_b = self.fb.new_block();
        let short_b = self.fb.new_block();
        let merge = self.fb.new_block();
        let (t, f) = if and {
            (rhs_b, short_b)
        } else {
            (short_b, rhs_b)
        };
        self.fb.terminate(Term::Br { cond: l, t, f });
        self.fb.switch_to(rhs_b);
        let r = self.expr(rhs)?;
        self.fb.push(Inst::Move {
            dst: result,
            src: r,
        });
        self.fb.terminate(Term::Jump(merge));
        self.fb.switch_to(short_b);
        self.fb.push(Inst::Const {
            dst: result,
            value: Const::Bool(!and),
        });
        self.fb.terminate(Term::Jump(merge));
        self.fb.switch_to(merge);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use isf_ir::{loops, Inst};

    #[test]
    fn entry_yieldpoint_inserted() {
        let m = compile("fn main() { print(1); }").unwrap();
        let f = m.function(m.main());
        assert!(matches!(f.block(f.entry()).insts()[0], Inst::Yield));
    }

    #[test]
    fn while_loop_has_one_backedge_with_yieldpoint() {
        let m = compile("fn main() { var i = 0; while (i < 3) { i = i + 1; } }").unwrap();
        let f = m.function(m.main());
        let be = loops::backedges(f);
        assert_eq!(be.len(), 1);
        let (src, _) = be[0];
        assert!(
            f.block(src).insts().iter().any(Inst::is_yield),
            "backedge source must carry a yieldpoint"
        );
        // Exactly two yieldpoints total: entry + backedge.
        let yields = f.insts().filter(|(_, _, i)| i.is_yield()).count();
        assert_eq!(yields, 2);
    }

    #[test]
    fn continue_routes_through_the_latch() {
        let m = compile(
            "fn main() { var i = 0; while (i < 9) { i = i + 1; if (i % 2 == 0) { continue; } print(i); } }",
        )
        .unwrap();
        let f = m.function(m.main());
        // Still exactly one backedge: both paths go through the latch.
        assert_eq!(loops::backedges(f).len(), 1);
    }

    #[test]
    fn methods_take_implicit_self() {
        let m = compile(
            "class A { field x; method get() { return self.x; } }
             fn main() { var a = new A; a.x = 5; print(a.get()); }",
        )
        .unwrap();
        let id = m.function_by_name("A::get").unwrap();
        assert_eq!(m.function(id).arity(), 1);
    }

    #[test]
    fn nested_loops_have_two_backedges() {
        let m = compile(
            "fn main() { var i = 0; while (i < 2) { var j = 0; while (j < 2) { j = j + 1; } i = i + 1; } }",
        )
        .unwrap();
        assert_eq!(loops::backedges(m.function(m.main())).len(), 2);
    }

    #[test]
    fn produced_cfg_is_reducible() {
        let m = compile(
            "fn f(n) { var s = 0; var i = 0; while (i < n) { if (i % 3 == 0 && i % 5 == 0) { s = s + i; } else { s = s - 1; } i = i + 1; } return s; }
             fn main() { print(f(30)); }",
        )
        .unwrap();
        for (_, f) in m.functions() {
            assert!(loops::is_reducible(f), "{} irreducible", f.name());
        }
    }
}
