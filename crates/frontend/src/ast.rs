//! Abstract syntax tree for Jive.
//!
//! Names borrow from the source text. Expressions live in one arena per
//! program and refer to each other by [`ExprId`]; statement bodies and
//! argument lists are [`Span`]s of consecutive entries in the program's
//! statement and argument arenas. Parsing a program therefore allocates a
//! handful of growing vectors, not one box per node.

use isf_ir::{BinOp, UnOp};

use crate::diag::Pos;

/// A whole program: classes, free functions, and the arenas their bodies
/// point into.
#[derive(Debug, Default)]
pub(crate) struct Program<'src> {
    /// Class declarations, in source order.
    pub(crate) classes: Vec<ClassDecl<'src>>,
    /// Function declarations, in source order.
    pub(crate) functions: Vec<FnDecl<'src>>,
    /// Every expression; children precede their parents.
    pub(crate) exprs: Vec<Expr<'src>>,
    /// Every statement, each body's statements consecutive.
    pub(crate) stmts: Vec<Stmt<'src>>,
    /// Every argument list, each list's arguments consecutive.
    pub(crate) args: Vec<ExprId>,
}

impl<'src> Program<'src> {
    /// The expression `id`.
    pub(crate) fn expr(&self, id: ExprId) -> Expr<'src> {
        self.exprs[id.0 as usize]
    }

    /// The statements of a body.
    pub(crate) fn body(&self, span: Span) -> &[Stmt<'src>] {
        &self.stmts[span.range()]
    }

    /// The arguments of a call.
    pub(crate) fn args(&self, span: Span) -> &[ExprId] {
        &self.args[span.range()]
    }
}

/// An index into [`Program::exprs`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct ExprId(pub(crate) u32);

/// A run of consecutive entries in [`Program::stmts`] or [`Program::args`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// `class Name : Parent { field ...; method ... }`
#[derive(Debug)]
pub(crate) struct ClassDecl<'src> {
    pub(crate) name: &'src str,
    pub(crate) parent: Option<&'src str>,
    /// Declared field names, in source order.
    pub(crate) fields: Vec<&'src str>,
    pub(crate) methods: Vec<FnDecl<'src>>,
    pub(crate) pos: Pos,
}

/// A function or method declaration. For methods, `params` excludes the
/// implicit `self`.
#[derive(Debug)]
pub(crate) struct FnDecl<'src> {
    pub(crate) name: &'src str,
    pub(crate) params: Vec<&'src str>,
    pub(crate) body: Span,
    pub(crate) pos: Pos,
}

/// A statement.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Stmt<'src> {
    /// `var name = init;` (init defaults to `0`).
    Var {
        name: &'src str,
        init: Option<ExprId>,
        pos: Pos,
    },
    /// `target = value;`, where the parser has checked that `target` is an
    /// [`Expr::Var`], [`Expr::FieldGet`] or [`Expr::Index`].
    Assign {
        target: ExprId,
        value: ExprId,
        pos: Pos,
    },
    /// `if (cond) { .. } else { .. }` (an empty else body when absent).
    If {
        cond: ExprId,
        then_body: Span,
        else_body: Span,
    },
    /// `while (cond) { .. }`
    While { cond: ExprId, body: Span },
    /// `return e;` / `return;`
    Return(Option<ExprId>),
    /// `break;`
    Break { pos: Pos },
    /// `continue;`
    Continue { pos: Pos },
    /// `print(e);`
    Print(ExprId),
    /// An expression evaluated for its side effects.
    Expr(ExprId),
}

/// An expression.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Expr<'src> {
    /// Integer literal.
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// `self` (methods only).
    SelfRef(Pos),
    /// A variable reference.
    Var(&'src str, Pos),
    /// `-e` / `!e`
    Unary { op: UnOp, expr: ExprId },
    /// `lhs op rhs` for every operator but `&&` and `||`.
    Binary { op: BinOp, lhs: ExprId, rhs: ExprId },
    /// `lhs && rhs` (`and`) or `lhs || rhs`, short-circuiting.
    Logic { and: bool, lhs: ExprId, rhs: ExprId },
    /// `f(args)` — a direct call of a free function.
    Call {
        name: &'src str,
        args: Span,
        pos: Pos,
    },
    /// `obj.m(args)` — dynamic dispatch on the runtime class of `obj`.
    MethodCall {
        obj: ExprId,
        method: &'src str,
        args: Span,
        pos: Pos,
    },
    /// `obj.field`
    FieldGet {
        obj: ExprId,
        field: &'src str,
        pos: Pos,
    },
    /// `arr[idx]`
    Index { arr: ExprId, idx: ExprId },
    /// `new Class`
    New { class: &'src str, pos: Pos },
    /// `array(n)` — new zero-filled integer array.
    NewArray(ExprId),
    /// `len(a)`
    Len(ExprId),
    /// `busy(k)` — spin the simulated clock for a constant `k` cycles.
    Busy { cycles: i64, pos: Pos },
    /// `spawn f(args)` — start a green thread, yielding a handle.
    Spawn {
        name: &'src str,
        args: Span,
        pos: Pos,
    },
    /// `join(t)` — wait for a thread to finish.
    Join(ExprId),
}
