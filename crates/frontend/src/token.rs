//! Tokens of the Jive language.

use crate::diag::Pos;
use std::fmt;

/// A token kind. Identifiers borrow their text from the source, so a token
/// is `Copy` and lexing allocates nothing.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum TokenKind<'src> {
    Int(i64),
    Ident(&'src str),
    // Keywords.
    Class,
    Field,
    Method,
    Fn,
    Var,
    If,
    Else,
    While,
    Return,
    Break,
    Continue,
    Print,
    New,
    Array,
    Len,
    Busy,
    Spawn,
    Join,
    SelfKw,
    True,
    False,
    Null,
    // Punctuation and operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Colon,
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Shl,
    Shr,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Bang,
    Eof,
}

impl<'src> TokenKind<'src> {
    /// Keyword lookup for an identifier-shaped lexeme.
    pub(crate) fn keyword(text: &str) -> Option<TokenKind<'src>> {
        Some(match text.as_bytes() {
            b"class" => TokenKind::Class,
            b"field" => TokenKind::Field,
            b"method" => TokenKind::Method,
            b"fn" => TokenKind::Fn,
            b"var" => TokenKind::Var,
            b"if" => TokenKind::If,
            b"else" => TokenKind::Else,
            b"while" => TokenKind::While,
            b"return" => TokenKind::Return,
            b"break" => TokenKind::Break,
            b"continue" => TokenKind::Continue,
            b"print" => TokenKind::Print,
            b"new" => TokenKind::New,
            b"array" => TokenKind::Array,
            b"len" => TokenKind::Len,
            b"busy" => TokenKind::Busy,
            b"spawn" => TokenKind::Spawn,
            b"join" => TokenKind::Join,
            b"self" => TokenKind::SelfKw,
            b"true" => TokenKind::True,
            b"false" => TokenKind::False,
            b"null" => TokenKind::Null,
            _ => return None,
        })
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            TokenKind::Int(v) => return write!(f, "integer `{v}`"),
            TokenKind::Ident(s) => return write!(f, "identifier `{s}`"),
            TokenKind::Eof => return f.write_str("end of input"),
            TokenKind::Class => "class",
            TokenKind::Field => "field",
            TokenKind::Method => "method",
            TokenKind::Fn => "fn",
            TokenKind::Var => "var",
            TokenKind::If => "if",
            TokenKind::Else => "else",
            TokenKind::While => "while",
            TokenKind::Return => "return",
            TokenKind::Break => "break",
            TokenKind::Continue => "continue",
            TokenKind::Print => "print",
            TokenKind::New => "new",
            TokenKind::Array => "array",
            TokenKind::Len => "len",
            TokenKind::Busy => "busy",
            TokenKind::Spawn => "spawn",
            TokenKind::Join => "join",
            TokenKind::SelfKw => "self",
            TokenKind::True => "true",
            TokenKind::False => "false",
            TokenKind::Null => "null",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::Semi => ";",
            TokenKind::Comma => ",",
            TokenKind::Dot => ".",
            TokenKind::Colon => ":",
            TokenKind::Assign => "=",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Amp => "&",
            TokenKind::Pipe => "|",
            TokenKind::Caret => "^",
            TokenKind::Shl => "<<",
            TokenKind::Shr => ">>",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            TokenKind::AndAnd => "&&",
            TokenKind::OrOr => "||",
            TokenKind::Bang => "!",
        };
        write!(f, "`{text}`")
    }
}

/// A token with its source position.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct Token<'src> {
    /// What kind of token.
    pub(crate) kind: TokenKind<'src>,
    /// Where it starts.
    pub(crate) pos: Pos,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(TokenKind::keyword("while"), Some(TokenKind::While));
        assert_eq!(TokenKind::keyword("whale"), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TokenKind::Int(5).to_string(), "integer `5`");
        assert_eq!(TokenKind::Ident("x").to_string(), "identifier `x`");
        assert_eq!(TokenKind::Le.to_string(), "`<=`");
        assert_eq!(TokenKind::Eof.to_string(), "end of input");
    }
}
