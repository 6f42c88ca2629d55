//! Hand-written lexer shared by the E-SQL parser and the MISD textual
//! format (`eve-misd` reuses it).
//!
//! ## Identifiers and hyphens
//!
//! The paper's names freely contain hyphens (`Accident-Ins`,
//! `Asia-Customer`, `Customer-Passengers-Asia`). The lexer therefore
//! treats `-` as part of an identifier when it is immediately followed by
//! a letter while an identifier is being scanned. The consequence: binary
//! minus between two attribute identifiers must be written with
//! whitespace (`today() - A.Birthday`), which is how the paper typesets
//! its one arithmetic constraint (F3) anyway.

use crate::error::ParseError;
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (keywords are matched case-insensitively by
    /// the parser).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes removed, `''` unescaped).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `;`
    Semi,
    /// `:`
    Colon,
}

impl Tok {
    /// True iff this token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Float(x) => write!(f, "{x}"),
            Tok::Str(s) => write!(f, "'{s}'"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::Comma => write!(f, ","),
            Tok::Dot => write!(f, "."),
            Tok::Eq => write!(f, "="),
            Tok::Ne => write!(f, "<>"),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Semi => write!(f, ";"),
            Tok::Colon => write!(f, ":"),
        }
    }
}

/// A token plus its source position (1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Tokenise an input string.
///
/// Comments: `--` to end of line (SQL style).
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, ParseError> {
    lex(input).map(|(toks, _)| toks)
}

/// [`tokenize`], plus the 1-based (line, column) just past the last
/// token, `(1, 1)` when there is none: where an end-of-input error
/// points.
pub(crate) fn lex(input: &str) -> Result<(Vec<Spanned>, (usize, usize)), ParseError> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    let mut end = (1, 1);

    macro_rules! push {
        ($tok:expr, $l:expr, $c:expr) => {
            out.push(Spanned {
                tok: $tok,
                line: $l,
                col: $c,
            })
        };
    }

    while i < chars.len() {
        let c = chars[i];
        let (l0, c0) = (line, col);
        let before = out.len();
        match c {
            '\n' => {
                line += 1;
                col = 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                col += 1;
                i += 1;
            }
            '-' if i + 1 < chars.len() && chars[i + 1] == '-' => {
                // comment to end of line
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '(' => {
                push!(Tok::LParen, l0, c0);
                i += 1;
                col += 1;
            }
            ')' => {
                push!(Tok::RParen, l0, c0);
                i += 1;
                col += 1;
            }
            ',' => {
                push!(Tok::Comma, l0, c0);
                i += 1;
                col += 1;
            }
            '.' => {
                push!(Tok::Dot, l0, c0);
                i += 1;
                col += 1;
            }
            ';' => {
                push!(Tok::Semi, l0, c0);
                i += 1;
                col += 1;
            }
            ':' => {
                push!(Tok::Colon, l0, c0);
                i += 1;
                col += 1;
            }
            '+' => {
                push!(Tok::Plus, l0, c0);
                i += 1;
                col += 1;
            }
            '-' => {
                push!(Tok::Minus, l0, c0);
                i += 1;
                col += 1;
            }
            '*' => {
                push!(Tok::Star, l0, c0);
                i += 1;
                col += 1;
            }
            '/' => {
                push!(Tok::Slash, l0, c0);
                i += 1;
                col += 1;
            }
            '=' => {
                // accept == as =
                if i + 1 < chars.len() && chars[i + 1] == '=' {
                    i += 2;
                    col += 2;
                } else {
                    i += 1;
                    col += 1;
                }
                push!(Tok::Eq, l0, c0);
            }
            '!' if i + 1 < chars.len() && chars[i + 1] == '=' => {
                push!(Tok::Ne, l0, c0);
                i += 2;
                col += 2;
            }
            '<' => {
                if i + 1 < chars.len() && chars[i + 1] == '>' {
                    push!(Tok::Ne, l0, c0);
                    i += 2;
                    col += 2;
                } else if i + 1 < chars.len() && chars[i + 1] == '=' {
                    push!(Tok::Le, l0, c0);
                    i += 2;
                    col += 2;
                } else {
                    push!(Tok::Lt, l0, c0);
                    i += 1;
                    col += 1;
                }
            }
            '>' => {
                if i + 1 < chars.len() && chars[i + 1] == '=' {
                    push!(Tok::Ge, l0, c0);
                    i += 2;
                    col += 2;
                } else {
                    push!(Tok::Gt, l0, c0);
                    i += 1;
                    col += 1;
                }
            }
            '\'' => {
                // string literal with '' escape
                let mut s = String::new();
                i += 1;
                col += 1;
                loop {
                    if i >= chars.len() {
                        return Err(ParseError::new("unterminated string literal", l0, c0));
                    }
                    if chars[i] == '\'' {
                        if i + 1 < chars.len() && chars[i + 1] == '\'' {
                            s.push('\'');
                            i += 2;
                            col += 2;
                        } else {
                            i += 1;
                            col += 1;
                            break;
                        }
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                            col = 0;
                        }
                        s.push(chars[i]);
                        i += 1;
                        col += 1;
                    }
                }
                push!(Tok::Str(s), l0, c0);
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while i < chars.len() && chars[i].is_ascii_digit() {
                    s.push(chars[i]);
                    i += 1;
                    col += 1;
                }
                // fraction only when '.' is followed by a digit, so that
                // `1.x` never swallows a qualifier dot.
                if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    s.push('.');
                    i += 1;
                    col += 1;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        s.push(chars[i]);
                        i += 1;
                        col += 1;
                    }
                    let v: f64 = s
                        .parse()
                        .map_err(|_| ParseError::new(format!("bad float literal {s}"), l0, c0))?;
                    push!(Tok::Float(v), l0, c0);
                } else {
                    let v: i64 = s
                        .parse()
                        .map_err(|_| ParseError::new(format!("bad int literal {s}"), l0, c0))?;
                    push!(Tok::Int(v), l0, c0);
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < chars.len() {
                    let ch = chars[i];
                    if ch.is_alphanumeric() || ch == '_' {
                        s.push(ch);
                        i += 1;
                        col += 1;
                    } else if ch == '-' && i + 1 < chars.len() && chars[i + 1].is_alphabetic() {
                        // hyphenated identifier (Accident-Ins)
                        s.push(ch);
                        i += 1;
                        col += 1;
                    } else {
                        break;
                    }
                }
                push!(Tok::Ident(s), l0, c0);
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character {other:?}"),
                    l0,
                    c0,
                ));
            }
        }
        if out.len() > before {
            end = (line, col);
        }
    }
    Ok((out, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Tok> {
        tokenize(s).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn hyphenated_identifiers() {
        assert_eq!(
            toks("Accident-Ins"),
            vec![Tok::Ident("Accident-Ins".into())]
        );
        assert_eq!(
            toks("Customer-Passengers-Asia"),
            vec![Tok::Ident("Customer-Passengers-Asia".into())]
        );
    }

    #[test]
    fn minus_before_digit_is_operator() {
        assert_eq!(
            toks("Age-1"),
            vec![Tok::Ident("Age".into()), Tok::Minus, Tok::Int(1)]
        );
        assert_eq!(
            toks("Age - Birthday"),
            vec![
                Tok::Ident("Age".into()),
                Tok::Minus,
                Tok::Ident("Birthday".into())
            ]
        );
    }

    #[test]
    fn qualified_names_keep_dot() {
        assert_eq!(
            toks("Customer.Name"),
            vec![
                Tok::Ident("Customer".into()),
                Tok::Dot,
                Tok::Ident("Name".into())
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42)]);
        assert_eq!(toks("3.25"), vec![Tok::Float(3.25)]);
        // `1.x` is int, dot, ident (never a float)
        assert_eq!(
            toks("1.x"),
            vec![Tok::Int(1), Tok::Dot, Tok::Ident("x".into())]
        );
    }

    #[test]
    fn strings_with_escape() {
        assert_eq!(toks("'Asia'"), vec![Tok::Str("Asia".into())]);
        assert_eq!(toks("'O''Neil'"), vec![Tok::Str("O'Neil".into())]);
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("= <> != < <= > >= =="),
            vec![
                Tok::Eq,
                Tok::Ne,
                Tok::Ne,
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Eq
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a -- comment here\nb"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into())]
        );
    }

    #[test]
    fn positions_tracked() {
        let spanned = tokenize("a\n  b").unwrap();
        assert_eq!((spanned[0].line, spanned[0].col), (1, 1));
        assert_eq!((spanned[1].line, spanned[1].col), (2, 3));
    }

    #[test]
    fn keyword_check_case_insensitive() {
        let t = Tok::Ident("select".into());
        assert!(t.is_kw("SELECT"));
        assert!(!t.is_kw("FROM"));
    }
}
