//! A zero-dependency full-file Rust lexer for the lint pass.
//!
//! The original `um-tidy` stripped strings and `//` comments one line at
//! a time, which cannot see a `/* ... */` spanning lines, a raw string
//! carrying `HashMap` across its body, or the difference between the
//! lifetime `'a` and the char literal `'a'`. This module lexes the whole
//! file once and exposes two views of it:
//!
//! - [`Lexed::lines`]: per source line, the *code* text (string, char and
//!   raw-string contents blanked, comments removed) and the *comment*
//!   text (line and block comments, doc comments included). Rules match
//!   against the code view; `um-tidy:` directives are parsed from the
//!   comment view, so neither can hide in the other.
//! - [`Lexed::tokens`]: a minimal token stream (identifiers, string
//!   literal contents, parentheses) for the cross-file passes that need
//!   to see *into* literals, e.g. harvesting the stream tags passed to
//!   `um_sim::rng::stream`.
//!
//! The lexer understands nested block comments, `r#"..."#` raw strings
//! with any number of hashes, byte strings/chars, escaped quotes, and
//! multi-line string literals. It never fails: malformed input degrades
//! to treating the remainder as code, which is the conservative choice
//! for a linter (better a spurious diagnostic than a silently skipped
//! file).

/// One source line, split into rule-matchable code and comment text.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LineView {
    /// The line's code with string/char literal contents blanked (the
    /// delimiting quotes are kept, so `"x"` becomes `""`) and comments
    /// replaced by a single space.
    pub code: String,
    /// Every comment character on the line — `//` tails and the slice of
    /// any `/* ... */` crossing it — concatenated.
    pub comment: String,
}

/// A token the cross-file passes care about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String),
    /// A string literal's decoded-enough content (escapes kept verbatim;
    /// the passes only compare literals to each other).
    Str(String),
    /// `(`
    Open,
    /// `)`
    Close,
}

/// A token plus the 1-based line it starts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line of the token's first character.
    pub line: usize,
    /// The token itself.
    pub tok: Tok,
}

/// The result of lexing one file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Per-line code/comment views, index 0 = line 1.
    pub lines: Vec<LineView>,
    /// Identifier/string/paren token stream in source order.
    pub tokens: Vec<Token>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    lines: Vec<LineView>,
    tokens: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn line_no(&self) -> usize {
        self.lines.len()
    }

    fn code(&mut self) -> &mut String {
        &mut self.lines.last_mut().expect("one line always open").code
    }

    fn comment(&mut self) -> &mut String {
        &mut self.lines.last_mut().expect("one line always open").comment
    }

    fn newline(&mut self) {
        self.lines.push(LineView::default());
    }

    /// Consumes `//` to end of line (the newline itself is not consumed).
    fn line_comment(&mut self) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.pos += 1;
        }
        self.comment().push_str(&text);
    }

    /// Consumes `/* ... */` with nesting; content goes to the comment
    /// view of every line it crosses, and a single space joins the code
    /// around it so word boundaries survive.
    fn block_comment(&mut self) {
        self.code().push(' ');
        let mut depth = 1usize;
        let mut text = String::from("/*");
        self.pos += 2;
        while depth > 0 {
            match self.peek(0) {
                None => break,
                Some('\n') => {
                    let t = std::mem::take(&mut text);
                    self.comment().push_str(&t);
                    self.newline();
                    self.pos += 1;
                }
                Some('/') if self.peek(1) == Some('*') => {
                    depth += 1;
                    text.push_str("/*");
                    self.pos += 2;
                }
                Some('*') if self.peek(1) == Some('/') => {
                    depth -= 1;
                    text.push_str("*/");
                    self.pos += 2;
                }
                Some(c) => {
                    text.push(c);
                    self.pos += 1;
                }
            }
        }
        self.comment().push_str(&text);
    }

    /// Consumes a normal (possibly byte) string literal starting at the
    /// opening quote. Multi-line bodies and `\"` escapes are handled; the
    /// code view keeps only the delimiting quotes.
    fn string(&mut self) {
        let start_line = self.line_no();
        self.code().push('"');
        self.pos += 1; // opening quote
        let mut content = String::new();
        while let Some(c) = self.peek(0) {
            match c {
                '"' => {
                    self.pos += 1;
                    self.code().push('"');
                    self.tokens.push(Token {
                        line: start_line,
                        tok: Tok::Str(content),
                    });
                    return;
                }
                '\\' => {
                    content.push('\\');
                    self.pos += 1;
                    if let Some(e) = self.peek(0) {
                        content.push(e);
                        self.pos += 1;
                        if e == '\n' {
                            // String continuation: `\` at end of line.
                            self.newline();
                        }
                    }
                }
                '\n' => {
                    content.push('\n');
                    self.pos += 1;
                    self.newline();
                }
                _ => {
                    content.push(c);
                    self.pos += 1;
                }
            }
        }
        // Unterminated: keep what we saw.
        self.tokens.push(Token {
            line: start_line,
            tok: Tok::Str(content),
        });
    }

    /// Consumes a raw string body after the prefix: `pos` is at the
    /// opening quote, `hashes` is the number of `#`s before it.
    fn raw_string(&mut self, hashes: usize) {
        let start_line = self.line_no();
        self.code().push('"');
        self.pos += 1; // opening quote
        let mut content = String::new();
        loop {
            match self.peek(0) {
                None => break,
                Some('"') => {
                    // A terminator needs `hashes` hashes after the quote.
                    let mut n = 0;
                    while n < hashes && self.peek(1 + n) == Some('#') {
                        n += 1;
                    }
                    if n == hashes {
                        self.pos += 1 + hashes;
                        self.code().push('"');
                        break;
                    }
                    content.push('"');
                    self.pos += 1;
                }
                Some('\n') => {
                    content.push('\n');
                    self.pos += 1;
                    self.newline();
                }
                Some(c) => {
                    content.push(c);
                    self.pos += 1;
                }
            }
        }
        self.tokens.push(Token {
            line: start_line,
            tok: Tok::Str(content),
        });
    }

    /// Disambiguates `'a` (lifetime: kept in the code view) from `'a'`
    /// and `'\n'` (char literals: blanked to `''`). `pos` is at the `'`.
    fn lifetime_or_char(&mut self) {
        match self.peek(1) {
            // Escaped char literal: '\n', '\'', '\u{1F600}', '\x41'.
            Some('\\') => {
                self.pos += 2;
                // Consume the escape payload up to the closing quote.
                while let Some(c) = self.peek(0) {
                    self.pos += 1;
                    if c == '\'' {
                        break;
                    }
                    if c == '\n' {
                        self.newline();
                    }
                }
                self.code().push_str("''");
            }
            Some(c) if is_ident_start(c) => {
                // Could be 'a' (char) or 'a / 'static (lifetime): scan the
                // identifier and look for a closing quote right after it.
                let mut len = 1;
                while self.peek(1 + len).is_some_and(is_ident_continue) {
                    len += 1;
                }
                if self.peek(1 + len) == Some('\'') {
                    // Char literal like 'a' (multi-char forms are not
                    // valid Rust, but blanking them is still the safe
                    // reading for a linter).
                    self.pos += 2 + len;
                    self.code().push_str("''");
                } else {
                    // Lifetime or loop label: keep it verbatim.
                    let text: String = self.chars[self.pos..self.pos + 1 + len].iter().collect();
                    self.code().push_str(&text);
                    self.pos += 1 + len;
                }
            }
            // Char literal of a non-identifier char: '"', '+', ' ', ...
            Some(_) if self.peek(2) == Some('\'') => {
                self.pos += 3;
                self.code().push_str("''");
            }
            // Bare quote (malformed or macro-land): keep it as code.
            _ => {
                self.code().push('\'');
                self.pos += 1;
            }
        }
    }

    /// Consumes an identifier; if it is a string prefix (`r`, `b`, `br`)
    /// immediately followed by a (raw) string or byte-char literal, the
    /// literal is consumed too.
    fn ident(&mut self) {
        let start = self.pos;
        let start_line = self.line_no();
        let mut len = 1;
        while self.peek(len).is_some_and(is_ident_continue) {
            len += 1;
        }
        let text: String = self.chars[start..start + len].iter().collect();
        let next = self.peek(len);
        match (text.as_str(), next) {
            ("r" | "br", Some('"')) => {
                self.pos += len;
                self.raw_string(0);
            }
            ("r" | "br", Some('#')) => {
                let mut hashes = 0;
                while self.peek(len + hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(len + hashes) == Some('"') {
                    self.pos += len + hashes;
                    self.raw_string(hashes);
                } else {
                    // `r#ident` raw identifier, or stray hashes: code.
                    self.code().push_str(&text);
                    self.tokens.push(Token {
                        line: start_line,
                        tok: Tok::Ident(text),
                    });
                    self.pos += len;
                }
            }
            ("b", Some('"')) => {
                self.pos += len;
                self.string();
            }
            ("b", Some('\'')) => {
                self.pos += len;
                self.lifetime_or_char();
            }
            _ => {
                self.code().push_str(&text);
                self.tokens.push(Token {
                    line: start_line,
                    tok: Tok::Ident(text),
                });
                self.pos += len;
            }
        }
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.newline();
                    self.pos += 1;
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                '\'' => self.lifetime_or_char(),
                c if is_ident_start(c) => self.ident(),
                '(' => {
                    self.code().push('(');
                    let line = self.line_no();
                    self.tokens.push(Token {
                        line,
                        tok: Tok::Open,
                    });
                    self.pos += 1;
                }
                ')' => {
                    self.code().push(')');
                    let line = self.line_no();
                    self.tokens.push(Token {
                        line,
                        tok: Tok::Close,
                    });
                    self.pos += 1;
                }
                c => {
                    self.code().push(c);
                    self.pos += 1;
                }
            }
        }
        Lexed {
            lines: self.lines,
            tokens: self.tokens,
        }
    }
}

/// Lexes one file into per-line code/comment views and a token stream.
pub fn lex(source: &str) -> Lexed {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        lines: vec![LineView::default()],
        tokens: Vec::new(),
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_lines(src: &str) -> Vec<String> {
        lex(src).lines.into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comment_split() {
        let l = lex("let x = 1; // HashMap here");
        assert_eq!(l.lines[0].code, "let x = 1; ");
        assert_eq!(l.lines[0].comment, "// HashMap here");
    }

    #[test]
    fn string_contents_blanked_but_tokenized() {
        let l = lex(r#"let s = "HashMap";"#);
        assert_eq!(l.lines[0].code, r#"let s = "";"#);
        assert!(l.tokens.iter().any(|t| t.tok == Tok::Str("HashMap".into())));
    }

    #[test]
    fn escaped_quotes_stay_inside_the_string() {
        assert_eq!(
            code_lines(r#"let s = "a\"b HashMap";"#)[0],
            r#"let s = "";"#
        );
    }

    #[test]
    fn block_comment_spans_lines() {
        let src = "let a = 1;\n/* HashMap\n   Instant::now\n*/\nlet b = 2;";
        let lines = code_lines(src);
        assert_eq!(lines[0], "let a = 1;");
        assert!(!lines[1].contains("HashMap"));
        assert!(!lines[2].contains("Instant"));
        assert_eq!(lines[4], "let b = 2;");
        let l = lex(src);
        assert!(l.lines[1].comment.contains("HashMap"));
        assert!(l.lines[2].comment.contains("Instant::now"));
    }

    #[test]
    fn block_comments_nest() {
        let src = "/* outer /* inner */ still comment */ let x = 1;";
        assert_eq!(code_lines(src)[0], "  let x = 1;");
    }

    #[test]
    fn raw_strings_hide_their_body() {
        let src = "let s = r#\"uses HashMap\ninside\"#; let t = 1;";
        let lines = code_lines(src);
        assert_eq!(lines[0], "let s = \"");
        assert_eq!(lines[1], "\"; let t = 1;");
        let l = lex(src);
        assert!(l
            .tokens
            .iter()
            .any(|t| matches!(&t.tok, Tok::Str(s) if s.contains("HashMap"))));
    }

    #[test]
    fn raw_string_hash_counting() {
        // The `"#` inside is not a terminator for a two-hash raw string.
        let src = "let s = r##\"quote \"# here\"##; let x = 1;";
        assert_eq!(code_lines(src)[0], "let s = \"\"; let x = 1;");
    }

    #[test]
    fn lifetimes_survive_char_literals_blank() {
        assert_eq!(
            code_lines("fn f<'a>(x: &'a str) -> &'a str { x }")[0],
            "fn f<'a>(x: &'a str) -> &'a str { x }"
        );
        assert_eq!(code_lines("let c = 'x';")[0], "let c = '';");
        assert_eq!(
            code_lines("let q = '\"'; let h = HashMap;")[0],
            "let q = ''; let h = HashMap;"
        );
        assert_eq!(code_lines("let n = '\\n';")[0], "let n = '';");
        assert_eq!(code_lines("let u = '\\u{1F600}';")[0], "let u = '';");
    }

    #[test]
    fn a_char_literal_quote_does_not_open_a_string() {
        // The old per-line stripper treated the `'"'` as opening a string
        // and swallowed the rest of the line.
        let src = "let sep = '\"'; use std::collections::HashMap;";
        assert!(code_lines(src)[0].contains("HashMap"));
    }

    #[test]
    fn byte_literals() {
        assert_eq!(
            code_lines("let b = b\"bytes HashMap\";")[0],
            "let b = \"\";"
        );
        assert_eq!(code_lines("let c = b'x';")[0], "let c = '';");
    }

    #[test]
    fn multiline_string_with_continuation() {
        let src = "let s = \"line one \\\n  HashMap\";\nlet x = 1;";
        let lines = code_lines(src);
        assert!(!lines[0].contains("HashMap"));
        assert!(!lines[1].contains("HashMap"));
        assert_eq!(lines[2], "let x = 1;");
    }

    #[test]
    fn tokens_carry_lines_and_parens() {
        let l = lex("stream(seed,\n  \"arrivals\")");
        let kinds: Vec<&Tok> = l.tokens.iter().map(|t| &t.tok).collect();
        assert_eq!(
            kinds,
            vec![
                &Tok::Ident("stream".into()),
                &Tok::Open,
                &Tok::Ident("seed".into()),
                &Tok::Str("arrivals".into()),
                &Tok::Close,
            ]
        );
        assert_eq!(l.tokens[3].line, 2);
    }

    #[test]
    fn comment_inside_string_is_not_a_comment() {
        let l = lex("let s = \"// not a comment\"; let x = 1;");
        assert_eq!(l.lines[0].code, "let s = \"\"; let x = 1;");
        assert!(l.lines[0].comment.is_empty());
    }

    #[test]
    fn directive_in_string_is_not_in_comment_view() {
        let l = lex("let m = \"um-tidy: allow(async-in-sim) -- nope\";");
        assert!(l.lines[0].comment.is_empty());
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        lex("/* never closed");
        lex("let s = \"never closed");
        lex("let r = r#\"never closed");
        lex("let c = '");
    }
}
