//! Hand-written lexer for MiniJava.
//!
//! The lexer interns identifiers as it scans them: each distinct name is
//! copied once into the file's [`Names`], and every occurrence becomes a
//! [`Sym`], so a token is `Copy` and scanning allocates nothing per
//! token. The interning map is keyed by slices of the source and lives
//! only as long as the lexer. It keeps std's randomly keyed hasher: its
//! keys are source text, which `csc serve` takes from its clients, so a
//! fixed hash such as Fx would let a crafted source make every name
//! collide. Everything downstream is keyed by [`Sym`].

use std::collections::HashMap;

use crate::ast::{Names, Sym};
use crate::error::{FrontendError, Pos, Result};

/// A lexical token kind.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Tok {
    /// Identifier (class/method/field/variable name).
    Ident(Sym),
    /// Integer literal.
    Int(i64),
    /// Keyword `class`.
    Class,
    /// Keyword `abstract`.
    Abstract,
    /// Keyword `extends`.
    Extends,
    /// Keyword `static`.
    Static,
    /// Keyword `void`.
    Void,
    /// Keyword `int`.
    IntKw,
    /// Keyword `boolean`.
    BooleanKw,
    /// Keyword `if`.
    If,
    /// Keyword `else`.
    Else,
    /// Keyword `while`.
    While,
    /// Keyword `return`.
    Return,
    /// Keyword `new`.
    New,
    /// Keyword `this`.
    This,
    /// Keyword `super`.
    Super,
    /// Keyword `null`.
    Null,
    /// Keyword `true`.
    True,
    /// Keyword `false`.
    False,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `%`
    Percent,
    /// End of input.
    Eof,
}

impl Tok {
    /// Short printable description for error messages; an identifier's
    /// text is read back from `names`.
    pub fn describe(&self, names: &Names) -> String {
        match *self {
            Tok::Ident(s) => format!("identifier `{}`", names.get(s)),
            Tok::Int(v) => format!("integer `{v}`"),
            Tok::Eof => "end of input".to_owned(),
            other => format!("`{}`", other.lexeme()),
        }
    }

    fn lexeme(&self) -> &'static str {
        match self {
            Tok::Class => "class",
            Tok::Abstract => "abstract",
            Tok::Extends => "extends",
            Tok::Static => "static",
            Tok::Void => "void",
            Tok::IntKw => "int",
            Tok::BooleanKw => "boolean",
            Tok::If => "if",
            Tok::Else => "else",
            Tok::While => "while",
            Tok::Return => "return",
            Tok::New => "new",
            Tok::This => "this",
            Tok::Super => "super",
            Tok::Null => "null",
            Tok::True => "true",
            Tok::False => "false",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::Semi => ";",
            Tok::Comma => ",",
            Tok::Dot => ".",
            Tok::Assign => "=",
            Tok::EqEq => "==",
            Tok::NotEq => "!=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Star => "*",
            Tok::Percent => "%",
            Tok::Ident(_) | Tok::Int(_) | Tok::Eof => unreachable!(),
        }
    }
}

/// A token with its source position.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Token {
    /// The token kind.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// An on-demand lexer: [`Lexer::next_token`] scans one token at a time,
/// so no token vector is ever built.
///
/// The first lexical error ends the token stream: from then on the lexer
/// reports [`Tok::Eof`] and keeps the error for [`Lexer::finish`].
pub(crate) struct Lexer<'s> {
    src: &'s str,
    i: usize,
    line: u32,
    col: u32,
    error: Option<FrontendError>,
    /// The names interned so far.
    names: Names,
    /// Each interned name's symbol, by its text.
    syms: HashMap<&'s str, Sym>,
}

impl<'s> Lexer<'s> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'s str) -> Self {
        Lexer {
            src,
            i: 0,
            line: 1,
            col: 1,
            error: None,
            names: Names::default(),
            syms: Sym::PREDEFINED
                .iter()
                .map(|&(sym, name)| (name, sym))
                .collect(),
        }
    }

    /// The names interned so far.
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// The next token; [`Tok::Eof`] at the end of input, and from the
    /// first lexical error on.
    pub fn next_token(&mut self) -> Token {
        if self.error.is_none() {
            match self.scan() {
                Ok(t) => return t,
                Err(e) => self.error = Some(e),
            }
        }
        Token {
            tok: Tok::Eof,
            pos: self.pos(),
        }
    }

    /// Settles the result of parsing this lexer's tokens, and hands over
    /// the source's names. The first lexical error anywhere in the source
    /// wins over `parsed`, even over a syntax error before it, as if the
    /// whole source had been lexed before parsing began: on a parse error
    /// the rest of the source is lexed to look for one.
    ///
    /// # Errors
    ///
    /// Returns the first lexical error, else `parsed`'s error.
    pub fn finish(mut self, parsed: Result<()>) -> Result<Names> {
        if parsed.is_err() {
            while self.next_token().tok != Tok::Eof {}
        }
        match self.error {
            Some(e) => Err(e),
            None => parsed.map(|()| self.names),
        }
    }

    /// The symbol of `word`, interning it on its first occurrence.
    fn intern(&mut self, word: &'s str) -> Sym {
        let names = &mut self.names;
        *self.syms.entry(word).or_insert_with(|| names.push(word))
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    /// Advances past one byte, tracking the line and the column. Columns
    /// count characters: a UTF-8 continuation byte does not advance one.
    fn bump(&mut self) {
        match self.src.as_bytes()[self.i] {
            b'\n' => {
                self.line += 1;
                self.col = 1;
            }
            b if b & 0xC0 == 0x80 => {}
            _ => self.col += 1,
        }
        self.i += 1;
    }

    /// Scans one token, skipping whitespace and comments before it.
    ///
    /// # Errors
    ///
    /// Returns an error on unknown characters, unterminated block
    /// comments, or integer literals that overflow `i64`.
    fn scan(&mut self) -> Result<Token> {
        let src = self.src;
        let bytes = src.as_bytes();
        loop {
            let pos = self.pos();
            let Some(&c) = bytes.get(self.i) else {
                return Ok(Token { tok: Tok::Eof, pos });
            };
            let next = bytes.get(self.i + 1).copied();
            let tok = match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                    continue;
                }
                b'/' if next == Some(b'/') => {
                    while self.i < bytes.len() && bytes[self.i] != b'\n' {
                        self.bump();
                    }
                    continue;
                }
                b'/' if next == Some(b'*') => {
                    self.bump();
                    self.bump();
                    loop {
                        if self.i + 1 >= bytes.len() {
                            return Err(FrontendError::new(pos, "unterminated block comment"));
                        }
                        if bytes[self.i] == b'*' && bytes[self.i + 1] == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                    continue;
                }
                b'{' => Tok::LBrace,
                b'}' => Tok::RBrace,
                b'(' => Tok::LParen,
                b')' => Tok::RParen,
                b';' => Tok::Semi,
                b',' => Tok::Comma,
                b'.' => Tok::Dot,
                b'+' => Tok::Plus,
                b'-' => Tok::Minus,
                b'*' => Tok::Star,
                b'%' => Tok::Percent,
                b'=' if next == Some(b'=') => {
                    self.bump();
                    Tok::EqEq
                }
                b'=' => Tok::Assign,
                b'!' if next == Some(b'=') => {
                    self.bump();
                    Tok::NotEq
                }
                b'!' => return Err(FrontendError::new(pos, "expected `!=`")),
                b'<' if next == Some(b'=') => {
                    self.bump();
                    Tok::Le
                }
                b'<' => Tok::Lt,
                b'0'..=b'9' => {
                    let start = self.i;
                    while self.i < bytes.len() && bytes[self.i].is_ascii_digit() {
                        self.bump();
                    }
                    let text = &src[start..self.i];
                    let value: i64 = text.parse().map_err(|_| {
                        FrontendError::new(pos, format!("integer literal `{text}` overflows i64"))
                    })?;
                    return Ok(Token {
                        tok: Tok::Int(value),
                        pos,
                    });
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let start = self.i;
                    while self.i < bytes.len()
                        && (bytes[self.i].is_ascii_alphanumeric() || bytes[self.i] == b'_')
                    {
                        self.bump();
                    }
                    let tok = match &src[start..self.i] {
                        "class" => Tok::Class,
                        "abstract" => Tok::Abstract,
                        "extends" => Tok::Extends,
                        "static" => Tok::Static,
                        "void" => Tok::Void,
                        "int" => Tok::IntKw,
                        "boolean" => Tok::BooleanKw,
                        "if" => Tok::If,
                        "else" => Tok::Else,
                        "while" => Tok::While,
                        "return" => Tok::Return,
                        "new" => Tok::New,
                        "this" => Tok::This,
                        "super" => Tok::Super,
                        "null" => Tok::Null,
                        "true" => Tok::True,
                        "false" => Tok::False,
                        word => Tok::Ident(self.intern(word)),
                    };
                    return Ok(Token { tok, pos });
                }
                _ => {
                    // Tokens and comments end on ASCII bytes, so `self.i`
                    // starts a character here.
                    let other = src[self.i..].chars().next().expect("a byte is left");
                    return Err(FrontendError::new(
                        pos,
                        format!("unexpected character `{other}`"),
                    ));
                }
            };
            // The last byte of a punctuation token.
            self.bump();
            return Ok(Token { tok, pos });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `src`, ending with [`Tok::Eof`], and the names, or
    /// the first lexical error.
    fn lex(src: &str) -> Result<(Vec<Token>, Names)> {
        let mut lexer = Lexer::new(src);
        let mut toks = Vec::new();
        loop {
            let t = lexer.next_token();
            toks.push(t);
            if t.tok == Tok::Eof {
                return lexer.finish(Ok(())).map(|names| (toks, names));
            }
        }
    }

    /// The tokens of `src`, identifiers spelled out.
    fn kinds(src: &str) -> Vec<String> {
        let (toks, names) = lex(src).unwrap();
        toks.iter().map(|t| t.tok.describe(&names)).collect()
    }

    #[test]
    fn lex_keywords_and_idents() {
        assert_eq!(
            kinds("class Foo extends Bar"),
            [
                "`class`",
                "identifier `Foo`",
                "`extends`",
                "identifier `Bar`",
                "end of input"
            ]
        );
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            kinds("= == != < <= + - * %"),
            [
                "`=`",
                "`==`",
                "`!=`",
                "`<`",
                "`<=`",
                "`+`",
                "`-`",
                "`*`",
                "`%`",
                "end of input"
            ]
        );
    }

    #[test]
    fn lex_comments() {
        assert_eq!(
            kinds("a // line\n b /* block\n comment */ c"),
            [
                "identifier `a`",
                "identifier `b`",
                "identifier `c`",
                "end of input"
            ]
        );
    }

    #[test]
    fn identifiers_are_interned_once() {
        let (toks, names) = lex("a b a Object main b").unwrap();
        let syms: Vec<Tok> = toks.iter().map(|t| t.tok).collect();
        assert_eq!(syms[0], syms[2]);
        assert_eq!(syms[1], syms[5]);
        assert_ne!(syms[0], syms[1]);
        assert_eq!(syms[3], Tok::Ident(Sym::OBJECT));
        assert_eq!(syms[4], Tok::Ident(Sym::MAIN));
        assert_eq!(names.len(), Sym::PREDEFINED.len() + 2, "a and b added");
    }

    #[test]
    fn positions_track_lines() {
        let (toks, _) = lex("a\n  b").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn unknown_char_is_error() {
        let err = lex("a & b").unwrap_err();
        assert!(err.message.contains('&'));
    }

    #[test]
    fn int_literals() {
        assert_eq!(kinds("42"), ["integer `42`", "end of input"]);
        assert!(lex("99999999999999999999999").is_err());
    }
}
