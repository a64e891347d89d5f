//! Recursive-descent parser for Jive, with one precedence-climbing loop for
//! the binary operators.

use isf_ir::{BinOp, UnOp};

use crate::ast::*;
use crate::diag::{CompileError, Pos};
use crate::lexer::Lexer;
use crate::token::{Token, TokenKind};

/// How deeply a program may nest: the longest chain of AST nodes from a
/// function body down to a leaf, counting enclosing `if`/`while` statements,
/// parentheses, argument lists, prefix operators, postfix accesses and
/// left-deep operator chains. Every later phase recurses along this chain,
/// so the bound is what keeps a hostile source from overflowing the stack.
/// The deepest accepted program compiles in a quarter of a 2 MiB thread
/// stack in a debug build (see the tests below); the workloads nest at most
/// 9 levels and every program the tests generate at most 16.
pub(crate) const MAX_DEPTH: u32 = 64;

/// Parses Jive source text into an AST.
///
/// # Errors
///
/// Returns the first lexical error if there is one anywhere in the source,
/// else the first syntactic error, with its source position.
pub(crate) fn parse(source: &str) -> Result<Program<'_>, CompileError> {
    if u32::try_from(source.len()).is_err() {
        return Err(CompileError::lex(
            Pos { line: 1, col: 1 },
            "source is longer than 4 GiB",
        ));
    }
    let mut lexer = Lexer::new(source);
    let tok = lexer.next_token();
    let mut p = Parser {
        lexer,
        tok,
        program: Program::default(),
        heights: Vec::new(),
        depth: 0,
        stmt_stack: Vec::new(),
        arg_stack: Vec::new(),
    };
    let parsed = p.program();
    // A lexical error anywhere wins over a syntax error, as if the whole
    // source had been tokenized before parsing began.
    if parsed.is_err() {
        while p.tok.kind != TokenKind::Eof {
            p.bump();
        }
    }
    match p.lexer.error {
        Some(e) => Err(e),
        None => parsed.map(|()| p.program),
    }
}

struct Parser<'src> {
    lexer: Lexer<'src>,
    /// The current token.
    tok: Token<'src>,
    program: Program<'src>,
    /// The height of each expression's subtree, parallel to `program.exprs`.
    heights: Vec<u32>,
    /// Nesting levels open around the current token.
    depth: u32,
    /// Statements of the bodies being parsed, innermost last.
    stmt_stack: Vec<Stmt<'src>>,
    /// Arguments of the calls being parsed, innermost last.
    arg_stack: Vec<ExprId>,
}

/// Moves `stack[mark..]` to the end of `arena`, returning where it landed.
fn seal<T>(arena: &mut Vec<T>, stack: &mut Vec<T>, mark: usize) -> Span {
    let start = arena.len();
    arena.extend(stack.drain(mark..));
    Span {
        start: start as u32,
        len: (arena.len() - start) as u32,
    }
}

/// The binary operator `kind` spells, with its precedence: `||` 1, `&&` 2,
/// comparisons 3, additive 4, multiplicative 5. `None` is `||` or `&&`.
fn infix(kind: TokenKind<'_>) -> Option<(u8, Option<BinOp>)> {
    Some(match kind {
        TokenKind::OrOr => (1, None),
        TokenKind::AndAnd => (AND, None),
        TokenKind::EqEq => (CMP, Some(BinOp::Eq)),
        TokenKind::NotEq => (CMP, Some(BinOp::Ne)),
        TokenKind::Lt => (CMP, Some(BinOp::Lt)),
        TokenKind::Le => (CMP, Some(BinOp::Le)),
        TokenKind::Gt => (CMP, Some(BinOp::Gt)),
        TokenKind::Ge => (CMP, Some(BinOp::Ge)),
        TokenKind::Plus => (4, Some(BinOp::Add)),
        TokenKind::Minus => (4, Some(BinOp::Sub)),
        TokenKind::Pipe => (4, Some(BinOp::Or)),
        TokenKind::Caret => (4, Some(BinOp::Xor)),
        TokenKind::Star => (5, Some(BinOp::Mul)),
        TokenKind::Slash => (5, Some(BinOp::Div)),
        TokenKind::Percent => (5, Some(BinOp::Rem)),
        TokenKind::Amp => (5, Some(BinOp::And)),
        TokenKind::Shl => (5, Some(BinOp::Shl)),
        TokenKind::Shr => (5, Some(BinOp::Shr)),
        _ => return None,
    })
}

const AND: u8 = 2;
const CMP: u8 = 3;

impl<'src> Parser<'src> {
    fn peek(&self) -> TokenKind<'src> {
        self.tok.kind
    }

    fn pos(&self) -> Pos {
        self.tok.pos
    }

    fn bump(&mut self) -> Token<'src> {
        std::mem::replace(&mut self.tok, self.lexer.next_token())
    }

    fn eat(&mut self, kind: TokenKind<'_>) -> bool {
        let hit = self.tok.kind == kind;
        if hit {
            self.bump();
        }
        hit
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<(), CompileError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected {kind}")))
        }
    }

    /// A parse error at the current token: `{what}, found {token}`.
    fn unexpected(&self, what: &str) -> CompileError {
        CompileError::parse(self.pos(), format!("{what}, found {}", self.peek()))
    }

    fn ident(&mut self) -> Result<&'src str, CompileError> {
        match self.peek() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            _ => Err(self.unexpected("expected identifier")),
        }
    }

    /// Opens a nesting level at `pos`; the caller closes it with
    /// `self.depth -= 1` once the nested construct is parsed.
    fn enter(&mut self, pos: Pos) -> Result<(), CompileError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(too_deep(pos));
        }
        Ok(())
    }

    fn height(&self, id: ExprId) -> u32 {
        self.heights[id.0 as usize]
    }

    /// Adds an expression whose subtree is `height` nodes deep.
    fn push(&mut self, expr: Expr<'src>, height: u32, pos: Pos) -> Result<ExprId, CompileError> {
        if self.depth + height > MAX_DEPTH {
            return Err(too_deep(pos));
        }
        let id = ExprId(self.program.exprs.len() as u32);
        self.program.exprs.push(expr);
        self.heights.push(height);
        Ok(id)
    }

    fn program(&mut self) -> Result<(), CompileError> {
        loop {
            match self.peek() {
                TokenKind::Eof => return Ok(()),
                TokenKind::Class => {
                    let class = self.class_decl()?;
                    self.program.classes.push(class);
                }
                TokenKind::Fn => {
                    let f = self.fn_decl(TokenKind::Fn)?;
                    self.program.functions.push(f);
                }
                _ => return Err(self.unexpected("expected `class` or `fn` at top level")),
            }
        }
    }

    fn class_decl(&mut self) -> Result<ClassDecl<'src>, CompileError> {
        let pos = self.pos();
        self.expect(TokenKind::Class)?;
        let name = self.ident()?;
        let parent = if self.eat(TokenKind::Colon) {
            Some(self.ident()?)
        } else {
            None
        };
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            match self.peek() {
                TokenKind::Field => {
                    self.bump();
                    fields.push(self.ident()?);
                    self.expect(TokenKind::Semi)?;
                }
                TokenKind::Method => methods.push(self.fn_decl(TokenKind::Method)?),
                _ => return Err(self.unexpected("expected `field` or `method` in class body")),
            }
        }
        Ok(ClassDecl {
            name,
            parent,
            fields,
            methods,
            pos,
        })
    }

    fn fn_decl(&mut self, keyword: TokenKind<'_>) -> Result<FnDecl<'src>, CompileError> {
        let pos = self.pos();
        self.expect(keyword)?;
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(TokenKind::RParen) {
            loop {
                params.push(self.ident()?);
                if self.eat(TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        let body = self.block()?;
        Ok(FnDecl {
            name,
            params,
            body,
            pos,
        })
    }

    fn block(&mut self) -> Result<Span, CompileError> {
        self.expect(TokenKind::LBrace)?;
        let mark = self.stmt_stack.len();
        while !self.eat(TokenKind::RBrace) {
            let stmt = self.stmt()?;
            self.stmt_stack.push(stmt);
        }
        Ok(seal(&mut self.program.stmts, &mut self.stmt_stack, mark))
    }

    fn stmt(&mut self) -> Result<Stmt<'src>, CompileError> {
        let pos = self.pos();
        match self.peek() {
            TokenKind::Var => {
                self.bump();
                let name = self.ident()?;
                let init = if self.eat(TokenKind::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Var { name, init, pos })
            }
            TokenKind::If => self.if_stmt(),
            TokenKind::While => {
                self.bump();
                self.enter(pos)?;
                let cond = self.parenthesized()?;
                let body = self.block()?;
                self.depth -= 1;
                Ok(Stmt::While { cond, body })
            }
            TokenKind::Return => {
                self.bump();
                let value = if self.peek() == TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Return(value))
            }
            TokenKind::Break => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Break { pos })
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Continue { pos })
            }
            TokenKind::Print => {
                self.bump();
                let value = self.parenthesized()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Print(value))
            }
            _ => {
                let expr = self.expr()?;
                if self.eat(TokenKind::Assign) {
                    if !matches!(
                        self.program.expr(expr),
                        Expr::Var(..) | Expr::FieldGet { .. } | Expr::Index { .. }
                    ) {
                        return Err(CompileError::parse(
                            pos,
                            "left side of `=` is not assignable",
                        ));
                    }
                    let value = self.expr()?;
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Assign {
                        target: expr,
                        value,
                        pos,
                    })
                } else {
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Expr(expr))
                }
            }
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt<'src>, CompileError> {
        let pos = self.pos();
        self.expect(TokenKind::If)?;
        self.enter(pos)?;
        let cond = self.parenthesized()?;
        let then_body = self.block()?;
        let else_body = if !self.eat(TokenKind::Else) {
            Span::default()
        } else if self.peek() == TokenKind::If {
            let mark = self.stmt_stack.len();
            let nested = self.if_stmt()?;
            self.stmt_stack.push(nested);
            seal(&mut self.program.stmts, &mut self.stmt_stack, mark)
        } else {
            self.block()?
        };
        self.depth -= 1;
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    fn expr(&mut self) -> Result<ExprId, CompileError> {
        self.binary(1)
    }

    /// Parses operators of precedence `min` and tighter, left-associative
    /// except for comparisons, which do not chain: after `a < b` neither
    /// another comparison nor anything looser than the last operator may
    /// take the result as its left operand.
    fn binary(&mut self, min: u8) -> Result<ExprId, CompileError> {
        let mut lhs = self.unary()?;
        let mut max = u8::MAX;
        while let Some((prec, op)) = infix(self.peek()).filter(|&(p, _)| min <= p && p <= max) {
            let pos = self.bump().pos;
            let rhs = self.binary(prec + 1)?;
            let expr = match op {
                Some(op) => Expr::Binary { op, lhs, rhs },
                None => Expr::Logic {
                    and: prec == AND,
                    lhs,
                    rhs,
                },
            };
            let height = self.height(lhs).max(self.height(rhs)) + 1;
            lhs = self.push(expr, height, pos)?;
            max = if prec == CMP { CMP - 1 } else { prec };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<ExprId, CompileError> {
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Bang => UnOp::Not,
            _ => return self.postfix(),
        };
        let pos = self.bump().pos;
        self.enter(pos)?;
        let expr = self.unary()?;
        self.depth -= 1;
        self.push(Expr::Unary { op, expr }, self.height(expr) + 1, pos)
    }

    fn postfix(&mut self) -> Result<ExprId, CompileError> {
        let mut expr = self.primary()?;
        loop {
            let pos = self.pos();
            let (node, below) = if self.eat(TokenKind::Dot) {
                let name = self.ident()?;
                if self.peek() == TokenKind::LParen {
                    let (args, height) = self.args()?;
                    let node = Expr::MethodCall {
                        obj: expr,
                        method: name,
                        args,
                        pos,
                    };
                    (node, height)
                } else {
                    let node = Expr::FieldGet {
                        obj: expr,
                        field: name,
                        pos,
                    };
                    (node, 0)
                }
            } else if self.eat(TokenKind::LBracket) {
                self.enter(pos)?;
                let idx = self.expr()?;
                self.expect(TokenKind::RBracket)?;
                self.depth -= 1;
                let node = Expr::Index { arr: expr, idx };
                (node, self.height(idx))
            } else {
                return Ok(expr);
            };
            expr = self.push(node, self.height(expr).max(below) + 1, pos)?;
        }
    }

    /// `( e, .. )`: the arguments and the height of the tallest.
    fn args(&mut self) -> Result<(Span, u32), CompileError> {
        let pos = self.pos();
        self.expect(TokenKind::LParen)?;
        self.enter(pos)?;
        let mark = self.arg_stack.len();
        let mut height = 0;
        if !self.eat(TokenKind::RParen) {
            loop {
                let arg = self.expr()?;
                height = height.max(self.height(arg));
                self.arg_stack.push(arg);
                if self.eat(TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        self.depth -= 1;
        let args = seal(&mut self.program.args, &mut self.arg_stack, mark);
        Ok((args, height))
    }

    /// `( e )`
    fn parenthesized(&mut self) -> Result<ExprId, CompileError> {
        let pos = self.pos();
        self.expect(TokenKind::LParen)?;
        self.enter(pos)?;
        let e = self.expr()?;
        self.expect(TokenKind::RParen)?;
        self.depth -= 1;
        Ok(e)
    }

    fn primary(&mut self) -> Result<ExprId, CompileError> {
        let pos = self.pos();
        let expr = match self.peek() {
            TokenKind::LParen => return self.parenthesized(),
            TokenKind::Int(v) => Expr::Int(v),
            TokenKind::True => Expr::Bool(true),
            TokenKind::False => Expr::Bool(false),
            TokenKind::Null => Expr::Null,
            TokenKind::SelfKw => Expr::SelfRef(pos),
            TokenKind::New => {
                self.bump();
                let class = self.ident()?;
                return self.push(Expr::New { class, pos }, 1, pos);
            }
            TokenKind::Array | TokenKind::Len | TokenKind::Join => {
                let kind = self.bump().kind;
                let e = self.parenthesized()?;
                let expr = match kind {
                    TokenKind::Array => Expr::NewArray(e),
                    TokenKind::Len => Expr::Len(e),
                    _ => Expr::Join(e),
                };
                return self.push(expr, self.height(e) + 1, pos);
            }
            TokenKind::Busy => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let TokenKind::Int(cycles) = self.peek() else {
                    return Err(self.unexpected("`busy` takes an integer literal"));
                };
                self.bump();
                self.expect(TokenKind::RParen)?;
                return self.push(Expr::Busy { cycles, pos }, 1, pos);
            }
            TokenKind::Spawn => {
                self.bump();
                let name = self.ident()?;
                let (args, height) = self.args()?;
                return self.push(Expr::Spawn { name, args, pos }, height + 1, pos);
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.peek() != TokenKind::LParen {
                    return self.push(Expr::Var(name, pos), 1, pos);
                }
                let (args, height) = self.args()?;
                return self.push(Expr::Call { name, args, pos }, height + 1, pos);
            }
            _ => return Err(self.unexpected("expected expression")),
        };
        self.bump();
        self.push(expr, 1, pos)
    }
}

fn too_deep(pos: Pos) -> CompileError {
    CompileError::parse(pos, format!("nesting deeper than {MAX_DEPTH} levels"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_function_with_while_and_if() {
        let p = parse(
            "fn main() { var i = 0; while (i < 10) { if (i % 2 == 0) { print(i); } i = i + 1; } }",
        )
        .unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].name, "main");
        assert_eq!(p.body(p.functions[0].body).len(), 2);
    }

    #[test]
    fn parses_class_with_inheritance() {
        let p =
            parse("class A { field x; method get() { return self.x; } } class B : A { field y; }")
                .unwrap();
        assert_eq!(p.classes.len(), 2);
        assert_eq!(p.classes[1].parent, Some("A"));
        assert_eq!(p.classes[0].methods.len(), 1);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("fn f() { var x = 1 + 2 * 3; }").unwrap();
        let Stmt::Var { init: Some(e), .. } = p.body(p.functions[0].body)[0] else {
            panic!("expected var");
        };
        let Expr::Binary { op, rhs, .. } = p.expr(e) else {
            panic!("expected binary");
        };
        assert_eq!(op, BinOp::Add);
        assert!(matches!(p.expr(rhs), Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn assignment_targets() {
        assert!(parse("fn f(a) { a = 1; }").is_ok());
        assert!(parse("fn f(a) { a.x = 1; }").is_ok());
        assert!(parse("fn f(a) { a[0] = 1; }").is_ok());
        let err = parse("fn f(a) { (a + 1) = 2; }").unwrap_err();
        assert!(err.message.contains("not assignable"));
    }

    #[test]
    fn method_call_chain() {
        let p = parse("fn f(o) { o.next().next().x = 3; }").unwrap();
        assert!(matches!(
            p.body(p.functions[0].body)[0],
            Stmt::Assign { .. }
        ));
    }

    #[test]
    fn else_if_chains() {
        let p = parse("fn f(x) { if (x == 0) {} else if (x == 1) {} else {} }").unwrap();
        let Stmt::If { else_body, .. } = p.body(p.functions[0].body)[0] else {
            panic!();
        };
        assert!(matches!(p.body(else_body)[0], Stmt::If { .. }));
    }

    #[test]
    fn spawn_and_join() {
        let p = parse("fn w(n) {} fn main() { var t = spawn w(5); join(t); }").unwrap();
        assert_eq!(p.functions.len(), 2);
    }

    #[test]
    fn error_has_position() {
        let e = parse("fn main() { var 1 = 2; }").unwrap_err();
        assert!(e.pos.is_some());
        assert!(e.message.contains("identifier"));
    }

    #[test]
    fn rejects_stray_top_level_token() {
        assert!(parse("var x = 1;").is_err());
    }

    #[test]
    fn comparisons_do_not_chain() {
        for src in ["a < b < c", "x && a == b == c", "a || b < c >= d"] {
            let e = parse(&format!("fn f(a, b, c, d, x) {{ print({src}); }}")).unwrap_err();
            assert!(e.message.starts_with("expected `)`, found `"), "{src}: {e}");
        }
        assert!(parse("fn f(a, b, c) { print(a < b && b < c || a + b * c == c); }").is_ok());
    }

    /// `n` levels of the construct `open`…`close` around `x`.
    fn nested(open: &str, close: &str, n: usize) -> String {
        format!(
            "fn main() {{ var x = 0; {}x{}; }}",
            open.repeat(n),
            close.repeat(n)
        )
    }

    /// A `1 + 1 + …` chain of `n` operators: a left-deep tree `n` high.
    fn chain(n: usize) -> String {
        format!("fn main() {{ var x = 0{}; }}", " + 1".repeat(n))
    }

    /// Every shape of nesting, `n` levels deep, as a statement of `main`.
    fn shapes(n: usize) -> Vec<(&'static str, String)> {
        vec![
            ("parens", nested("(", ")", n)),
            ("minus", nested("-", "", n)),
            ("not", nested("!", "", n)),
            ("field", nested("", ".f", n)),
            ("call", nested("id(", ")", n)),
            ("logic", nested("x && (", ")", n)),
            (
                "if",
                format!(
                    "fn main() {{ {} print(1); {} }}",
                    "if (true) { ".repeat(n),
                    "}".repeat(n)
                ),
            ),
            (
                "else-if",
                format!(
                    "fn main() {{ var x = 0; if (x == 0) {{}} {} }}",
                    "else if (x == 1) {} ".repeat(n)
                ),
            ),
            ("chain", chain(n)),
        ]
    }

    /// Runs `f` on a thread with a `kib`-KiB stack.
    fn on_stack(kib: usize, f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(kib << 10)
            .spawn(f)
            .expect("spawn test thread")
            .join()
            .expect("test thread finished");
    }

    const PRELUDE: &str = "class C { field f; } fn id(v) { return v; } ";

    #[test]
    fn deep_nesting_is_an_error_not_an_abort() {
        on_stack(2048, || {
            for (shape, src) in shapes(100_000) {
                let e = crate::compile(&format!("{PRELUDE}{src}")).unwrap_err();
                assert!(e.message.starts_with("nesting deeper than"), "{shape}: {e}");
            }
        });
    }

    #[test]
    fn deepest_accepted_programs_compile_in_a_quarter_of_a_debug_stack() {
        on_stack(512, || {
            for (shape, _) in shapes(0) {
                // The deepest `n` of each shape the parser accepts.
                let accepted = |n: usize| {
                    let src = shapes(n).into_iter().find(|s| s.0 == shape).unwrap().1;
                    crate::compile(&format!("{PRELUDE}{src}")).is_ok()
                };
                let (mut lo, mut hi) = (0, MAX_DEPTH as usize + 1);
                while lo + 1 < hi {
                    let mid = (lo + hi) / 2;
                    if accepted(mid) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                assert!(
                    lo + 8 >= MAX_DEPTH as usize,
                    "{shape}: only {lo} levels accepted"
                );
            }
        });
    }
}
