//! Parse errors with source positions.

use std::fmt;

/// A lexing or parsing error, carrying a 1-based line/column position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl ParseError {
    /// Create a parse error.
    pub fn new(message: impl Into<String>, line: usize, col: usize) -> Self {
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use crate::parse_view;

    #[test]
    fn errors_carry_positions() {
        // The bogus token is on line 2, after "FROM".
        let err = parse_view("CREATE VIEW V AS SELECT R.a\nFROM = R").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.col >= 6, "{err}");
        assert!(err.to_string().contains("parse error at 2:"), "{err}");
    }

    #[test]
    fn end_of_input_errors_point_past_the_last_token() {
        use crate::parser::{parse_views, Cursor};
        let at = |e: crate::ParseError| (e.line, e.col);
        let err = parse_views("CREATE VIEW V AS SELECT R.a\nFROM").unwrap_err();
        assert!(err.message.contains("end of input"), "{err}");
        assert_eq!(at(err), (2, 5));
        // Trailing blanks and comments are not tokens.
        let err = parse_view("CREATE VIEW V AS SELECT R.a FROM  -- done\n").unwrap_err();
        assert_eq!(at(err), (1, 33));
        let mut cur = Cursor::new("delete-relation").unwrap();
        assert!(cur.eat_kw("delete-relation"));
        assert_eq!(at(cur.expect_ident().unwrap_err()), (1, 16));
        // Empty input has no last token.
        assert_eq!(at(parse_view("").unwrap_err()), (1, 1));
        assert_eq!(at(parse_view("  \n ").unwrap_err()), (1, 1));
    }

    #[test]
    fn lexer_error_positions() {
        let err = parse_view("CREATE VIEW V AS SELECT R.a FROM R WHERE R.a = @").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unexpected character"), "{err}");
    }
}
