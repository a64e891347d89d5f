//! Hand-written lexer for Jive.

use crate::diag::{CompileError, Pos};
use crate::token::{Token, TokenKind};

/// A streaming tokenizer that walks the source's bytes.
///
/// Supports `//` line comments and `/* */` block comments (non-nesting).
/// Every token Jive has is ASCII, so other characters only ever appear in
/// comments, as Unicode whitespace, or in an error; columns still count
/// `char`s, which [`Lexer::wide`] reconciles with byte offsets.
///
/// The parser pulls one token at a time. A lexical error ends the stream:
/// it is kept in [`Lexer::error`] and every later token is `Eof`.
#[derive(Debug)]
pub(crate) struct Lexer<'src> {
    src: &'src str,
    /// Byte offset of the next unread byte.
    at: usize,
    line: u32,
    /// Byte offset of the current line's first byte.
    line_start: usize,
    /// Bytes of the current line read so far that do not start a `char`.
    wide: usize,
    /// The first lexical error, if one ended the stream.
    pub(crate) error: Option<CompileError>,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub(crate) fn new(src: &'src str) -> Self {
        Self {
            src,
            at: 0,
            line: 1,
            line_start: 0,
            wide: 0,
            error: None,
        }
    }

    /// The next token; `Eof` at the end of input and after an error.
    pub(crate) fn next_token(&mut self) -> Token<'src> {
        self.scan().unwrap_or_else(|e| {
            self.error.get_or_insert(e);
            self.at = self.src.len();
            Token {
                kind: TokenKind::Eof,
                pos: self.pos(),
            }
        })
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: (self.at - self.line_start - self.wide + 1) as u32,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, expected: u8) -> bool {
        let hit = self.peek() == Some(expected);
        self.at += usize::from(hit);
        hit
    }

    /// Consumes one byte of trivia, keeping the column count in `char`s.
    fn skip_byte(&mut self, b: u8) {
        self.at += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.at;
            self.wide = 0;
        } else if b & 0xc0 == 0x80 {
            self.wide += 1;
        }
    }

    fn skip_trivia(&mut self) -> Result<(), CompileError> {
        while let Some(b) = self.peek() {
            match b {
                // The ASCII characters `char::is_whitespace` accepts.
                b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c => self.skip_byte(b),
                b'/' if self.src.as_bytes().get(self.at + 1) == Some(&b'/') => {
                    while let Some(c) = self.peek().filter(|&c| c != b'\n') {
                        self.skip_byte(c);
                    }
                }
                b'/' if self.src.as_bytes().get(self.at + 1) == Some(&b'*') => {
                    let start = self.pos();
                    self.at += 2;
                    loop {
                        match self.peek() {
                            None => {
                                return Err(CompileError::lex(start, "unterminated block comment"))
                            }
                            Some(b'*') if self.src.as_bytes().get(self.at + 1) == Some(&b'/') => {
                                self.at += 2;
                                break;
                            }
                            Some(c) => self.skip_byte(c),
                        }
                    }
                }
                0x80.. => {
                    let c = self.src[self.at..].chars().next().unwrap_or_default();
                    if !c.is_whitespace() {
                        return Ok(());
                    }
                    self.at += c.len_utf8();
                    self.wide += c.len_utf8() - 1;
                }
                _ => return Ok(()),
            }
        }
        Ok(())
    }

    fn scan(&mut self) -> Result<Token<'src>, CompileError> {
        use TokenKind::*;
        self.skip_trivia()?;
        let pos = self.pos();
        let Some(b) = self.peek() else {
            return Ok(Token { kind: Eof, pos });
        };
        self.at += 1;
        let kind = match b {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'.' => Dot,
            b':' => Colon,
            b'+' => Plus,
            b'-' => Minus,
            b'*' => Star,
            b'/' => Slash,
            b'%' => Percent,
            b'^' => Caret,
            b'=' if self.eat(b'=') => EqEq,
            b'=' => Assign,
            b'!' if self.eat(b'=') => NotEq,
            b'!' => Bang,
            b'<' if self.eat(b'=') => Le,
            b'<' if self.eat(b'<') => Shl,
            b'<' => Lt,
            b'>' if self.eat(b'=') => Ge,
            b'>' if self.eat(b'>') => Shr,
            b'>' => Gt,
            b'&' if self.eat(b'&') => AndAnd,
            b'&' => Amp,
            b'|' if self.eat(b'|') => OrOr,
            b'|' => Pipe,
            b'0'..=b'9' => {
                let mut value = i64::from(b - b'0');
                while let Some(d @ b'0'..=b'9') = self.peek() {
                    self.at += 1;
                    value = value
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(i64::from(d - b'0')))
                        .ok_or_else(|| CompileError::lex(pos, "integer literal overflows i64"))?;
                }
                Int(value)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = self.at - 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                    self.at += 1;
                }
                let text = &self.src[start..self.at];
                TokenKind::keyword(text).unwrap_or(Ident(text))
            }
            _ => {
                let c = self.src[self.at - 1..].chars().next().unwrap_or_default();
                return Err(CompileError::lex(
                    pos,
                    format!("unexpected character `{c}`"),
                ));
            }
        };
        Ok(Token { kind, pos })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(src: &str) -> Result<Vec<Token<'_>>, CompileError> {
        let mut lexer = Lexer::new(src);
        let mut out = vec![lexer.next_token()];
        while out.last().map(|t| t.kind) != Some(TokenKind::Eof) {
            out.push(lexer.next_token());
        }
        lexer.error.map_or(Ok(out), Err)
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_idents_and_ints() {
        assert_eq!(
            kinds("while x123 42"),
            vec![
                TokenKind::While,
                TokenKind::Ident("x123"),
                TokenKind::Int(42),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_compound_operators() {
        assert_eq!(
            kinds("<= >= == != && || << >> < >"),
            vec![
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Shl,
                TokenKind::Shr,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("1 // comment\n 2 /* block\n comment */ 3"),
            vec![
                TokenKind::Int(1),
                TokenKind::Int(2),
                TokenKind::Int(3),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn tracks_positions() {
        let toks = tokenize("a\n  b").unwrap();
        assert_eq!((toks[0].pos.line, toks[0].pos.col), (1, 1));
        assert_eq!((toks[1].pos.line, toks[1].pos.col), (2, 3));
    }

    #[test]
    fn rejects_unknown_char_and_overflow() {
        assert!(tokenize("#").is_err());
        assert!(tokenize("99999999999999999999999").is_err());
    }

    #[test]
    fn rejects_unterminated_block_comment() {
        let e = tokenize("/* never closed").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }
}
