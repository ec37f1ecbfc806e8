//! A zero-dependency Rust lexer producing a spanned token stream.
//!
//! This is the foundation the whole rule engine stands on: every rule matches
//! token sequences, never raw text, so comments, string literals, attribute
//! arguments, and identifiers that merely *contain* a banned word can never
//! trigger a finding. The lexer subsumes the old `sanitize.rs` line scanner
//! and fixes its blind spots for real: raw (byte) strings with arbitrary `#`
//! fences, nested block comments, char literals vs `'a` lifetimes, numeric
//! literals with type suffixes (`0i64`), and multi-line attributes.
//!
//! The lexer is *lossy by design*: it keeps what the rules need —
//!
//! - [`Lexed::tokens`]: the code tokens, with attribute spans removed (an
//!   attribute argument like `#[doc = "call unwrap()"]` is trivia, not code);
//! - [`Lexed::comments`]: every comment with its text and line span, for
//!   pragma parsing and doc-comment attachment;
//! - [`Lexed::attributes`]: every `#[...]`/`#![...]` with a
//!   whitespace-squeezed normalized form, for `#[cfg(test)]` region tracking.
//!
//! Multi-character operators (`::`, `->`, `+=`, `==`, ...) are joined into
//! single [`TokKind::Punct`] tokens so rules can match on operator identity.

/// Kind of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `self`, `HashMap`, ...).
    Ident,
    /// Lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// Integer literal, suffix included (`42`, `0i64`, `0xFF`, `1_000u32`).
    Int,
    /// Float literal, suffix included (`1.0`, `2e9`, `0.5f32`).
    Float,
    /// String literal of any flavour (`"..."`, `r#"..."#`, `b"..."`).
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Punctuation; multi-char operators are one token (`::`, `+=`, `->`).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text. For [`TokKind::Str`] this is the *opening delimiter
    /// only* (`"`/`r#"`) — interiors are deliberately dropped so no rule can
    /// ever match inside a literal.
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: usize,
}

impl Token {
    /// True when this token is the identifier `s`.
    pub fn is(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A comment lifted out of the source.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line on which the comment starts.
    pub line: usize,
    /// Raw comment text including the `//` / `/*` introducer.
    pub text: String,
    /// Number of source lines the comment spans (1 for line comments).
    pub span_lines: usize,
}

/// An attribute (`#[...]` / `#![...]`) lifted out of the token stream.
#[derive(Debug, Clone)]
pub struct Attribute {
    /// 1-based line on which the attribute starts.
    pub line: usize,
    /// Index into [`Lexed::tokens`] of the first token *after* the
    /// attribute — i.e. the start of the item it decorates.
    pub tok_index: usize,
    /// Attribute text with whitespace squeezed out, e.g. `#[cfg(test)]`.
    pub normalized: String,
    /// True for inner attributes (`#![...]`).
    pub inner: bool,
}

/// Output of [`lex`]: the code token stream plus extracted trivia.
#[derive(Debug)]
pub struct Lexed {
    /// Code tokens in source order, attribute spans removed.
    pub tokens: Vec<Token>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
    /// All attributes, in source order.
    pub attributes: Vec<Attribute>,
    /// Total number of source lines.
    pub n_lines: usize,
}

impl Lexed {
    /// Index of the matching close brace for the `{` at `open` (same-token
    /// fallback when unbalanced: returns the last token index).
    pub fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for (i, t) in self.tokens.iter().enumerate().skip(open) {
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.tokens.len().saturating_sub(1)
    }

    /// End of the item starting at token `start`: the index of the `;` that
    /// terminates it at its own brace depth, or of the `}` closing its first
    /// body brace. Used for `#[cfg(test)]`/`mod tests` span tracking.
    pub fn item_end(&self, start: usize) -> usize {
        let mut i = start;
        let mut paren = 0i32;
        while i < self.tokens.len() {
            let t = &self.tokens[i];
            match t.text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                ";" if paren == 0 => return i,
                "{" if paren == 0 => return self.match_brace(i),
                "}" if paren == 0 => return i, // enclosing item list ended
                _ => {}
            }
            i += 1;
        }
        self.tokens.len().saturating_sub(1)
    }

    /// Line of token `i`, or the last line for out-of-range indices.
    pub fn line_of(&self, i: usize) -> usize {
        self.tokens
            .get(i)
            .map(|t| t.line)
            .unwrap_or_else(|| self.n_lines.max(1))
    }
}

/// Lexes `src` into tokens, comments, and attributes.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut tokens: Vec<Token> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    let n = chars.len();

    while i < n {
        let c = chars[i];
        let next = chars.get(i + 1).copied();

        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (incl. doc comments).
        if c == '/' && next == Some('/') {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            comments.push(Comment {
                line,
                text: chars[start..i].iter().collect(),
                span_lines: 1,
            });
            continue;
        }
        // Nested block comment.
        if c == '/' && next == Some('*') {
            let start = i;
            let start_line = line;
            let mut depth = 1u32;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            comments.push(Comment {
                line: start_line,
                text: chars[start..i.min(n)].iter().collect(),
                span_lines: line - start_line + 1,
            });
            continue;
        }
        // Raw (byte) strings: r"..", r#".."#, br##".."##. Only when `r`/`br`
        // is not the tail of a longer identifier.
        if (c == 'r' || (c == 'b' && next == Some('r'))) && !prev_is_ident(&chars, i) {
            let fence_start = if c == 'b' { i + 2 } else { i + 1 };
            let mut hashes = 0usize;
            let mut j = fence_start;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                let open: String = chars[i..=j].iter().collect();
                let tok_line = line;
                i = j + 1;
                // Scan to the closing `"` + fence.
                while i < n {
                    if chars[i] == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                        i += hashes + 1;
                        break;
                    }
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Str,
                    text: open,
                    line: tok_line,
                });
                continue;
            }
        }
        // Plain and byte strings.
        if c == '"' || (c == 'b' && next == Some('"') && !prev_is_ident(&chars, i)) {
            let tok_line = line;
            i += if c == 'b' { 2 } else { 1 };
            while i < n {
                match chars[i] {
                    '\\' => {
                        if chars.get(i + 1) == Some(&'\n') {
                            line += 1;
                        }
                        i += 2;
                    }
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            tokens.push(Token {
                kind: TokKind::Str,
                text: "\"".to_string(),
                line: tok_line,
            });
            continue;
        }
        // Char literal vs lifetime. A char literal is `'` + (escape | one
        // char) + `'`; anything else after `'` is a lifetime.
        if c == '\'' || (c == 'b' && next == Some('\'') && !prev_is_ident(&chars, i)) {
            let q = if c == 'b' { i + 1 } else { i };
            let after = chars.get(q + 1).copied();
            let is_char = match after {
                Some('\\') => true,
                Some(a) if a != '\'' => chars.get(q + 2) == Some(&'\''),
                _ => false,
            };
            if is_char {
                let tok_line = line;
                i = q + 1;
                if chars.get(i) == Some(&'\\') {
                    i += 2; // escape payload
                            // Multi-char escapes (\u{..}, \x..): scan to the quote.
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
                i += 1; // closing quote
                tokens.push(Token {
                    kind: TokKind::Char,
                    text: "'".to_string(),
                    line: tok_line,
                });
                continue;
            }
            if c == '\'' {
                // Lifetime: consume `'ident`.
                let mut j = i + 1;
                while j < n && is_ident_char(chars[j]) {
                    j += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Lifetime,
                    text: chars[i..j].iter().collect(),
                    line,
                });
                i = j;
                continue;
            }
        }
        // Numbers (int or float, with suffixes and separators).
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            i += 1;
            if c == '0' && matches!(next, Some('x' | 'X' | 'b' | 'B' | 'o' | 'O')) {
                i += 1;
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            } else {
                while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                    i += 1;
                }
                // Fraction: `1.5` but not `1..2` (range) or `1.method()`.
                if chars.get(i) == Some(&'.')
                    && chars.get(i + 1).map(|d| d.is_ascii_digit()) == Some(true)
                {
                    is_float = true;
                    i += 1;
                    while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                        i += 1;
                    }
                }
                // Exponent.
                if matches!(chars.get(i), Some('e' | 'E'))
                    && (chars.get(i + 1).map(|d| d.is_ascii_digit()) == Some(true)
                        || (matches!(chars.get(i + 1), Some('+' | '-'))
                            && chars.get(i + 2).map(|d| d.is_ascii_digit()) == Some(true)))
                {
                    is_float = true;
                    i += 2;
                    while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                        i += 1;
                    }
                }
                // Type suffix (`u64`, `f32`, ...).
                let suffix_start = i;
                while i < n && is_ident_char(chars[i]) {
                    i += 1;
                }
                let suffix: String = chars[suffix_start..i].iter().collect();
                if suffix.starts_with('f') {
                    is_float = true;
                }
            }
            tokens.push(Token {
                kind: if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Identifiers and keywords (incl. raw identifiers `r#name`).
        if c.is_alphabetic() || c == '_' {
            let start = i;
            i += 1;
            while i < n && is_ident_char(chars[i]) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Punctuation: greedily join multi-char operators.
        let joined = join_punct(&chars, i);
        tokens.push(Token {
            kind: TokKind::Punct,
            text: chars[i..i + joined].iter().collect(),
            line,
        });
        i += joined;
    }

    let n_lines = src.lines().count().max(1);
    let (tokens, attributes) = extract_attributes(tokens);
    Lexed {
        tokens,
        comments,
        attributes,
        n_lines,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && is_ident_char(chars[i - 1])
}

/// Multi-char operators, longest first so the greedy join is unambiguous.
const OPERATORS: [&str; 25] = [
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..", "#!",
];

/// Length of the operator starting at `i` (1 when it's a lone punct char).
fn join_punct(chars: &[char], i: usize) -> usize {
    for op in OPERATORS {
        if chars[i..].starts_with(&op.chars().collect::<Vec<_>>()[..]) {
            // `#!` only fuses for inner attributes (`#![`): a shebang line is
            // handled as a comment upstream and `#` is otherwise alone.
            if op == "#!" && chars.get(i + 2) != Some(&'[') {
                continue;
            }
            return op.len();
        }
    }
    1
}

/// Splits attribute spans (`#[...]` / `#![...]`) out of the raw token list.
fn extract_attributes(raw: Vec<Token>) -> (Vec<Token>, Vec<Attribute>) {
    let mut tokens = Vec::with_capacity(raw.len());
    let mut attributes = Vec::new();
    let mut i = 0usize;
    while i < raw.len() {
        let t = &raw[i];
        let inner = t.is_punct("#!");
        let opens =
            (t.is_punct("#") || inner) && raw.get(i + 1).map(|t| t.is_punct("[")).unwrap_or(false);
        if !opens {
            tokens.push(raw[i].clone());
            i += 1;
            continue;
        }
        let line = t.line;
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut normalized = String::from(if inner { "#![" } else { "#[" });
        let mut end = None;
        while j < raw.len() {
            let a = &raw[j];
            if a.is_punct("[") {
                depth += 1;
            } else if a.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    end = Some(j);
                    break;
                }
            }
            if depth >= 1 && !a.is_punct("[") {
                normalized.push_str(&a.text);
            }
            j += 1;
        }
        let Some(end) = end else {
            // Unbalanced attribute (mid-edit source): keep tokens as-is.
            tokens.push(raw[i].clone());
            i += 1;
            continue;
        };
        normalized.push(']');
        attributes.push(Attribute {
            line,
            tok_index: tokens.len(),
            normalized,
            inner,
        });
        i = end + 1;
    }
    (tokens, attributes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(l: &Lexed) -> Vec<String> {
        l.tokens.iter().map(|t| t.text.clone()).collect()
    }

    fn has_ident(l: &Lexed, s: &str) -> bool {
        l.tokens.iter().any(|t| t.is(s))
    }

    // ----- ported from the old sanitize.rs test suite -------------------

    #[test]
    fn strips_line_and_block_comments() {
        let l = lex("let x = 1; // unwrap() here\n/* multi\nline */ let y = 2;\n");
        assert!(!has_ident(&l, "unwrap"));
        assert!(!has_ident(&l, "multi"));
        assert!(has_ident(&l, "y"));
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 2);
        assert_eq!(l.comments[1].span_lines, 2);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("a /* x /* y */ z */ b\n");
        assert!(has_ident(&l, "a"));
        assert!(has_ident(&l, "b"));
        assert!(!has_ident(&l, "y"));
        assert!(!has_ident(&l, "z"));
        assert_eq!(l.comments.len(), 1);
    }

    #[test]
    fn strips_string_interiors_keeps_lines() {
        let l = lex("let s = \"rand::thread_rng()\";\nlet t = 1;\n");
        assert!(!has_ident(&l, "thread_rng"));
        let t = l.tokens.iter().find(|t| t.is("t")).expect("t");
        assert_eq!(t.line, 2);
    }

    #[test]
    fn raw_strings_with_fences() {
        let l = lex("let s = r#\"has \"quotes\" and unwrap()\"#; let x = 3;\n");
        assert!(!has_ident(&l, "unwrap"));
        assert!(!has_ident(&l, "quotes"));
        assert!(has_ident(&l, "x"));
        let l = lex("let b = br##\"bytes \"# inside\"##; let y = 4;\n");
        assert!(!has_ident(&l, "inside"));
        assert!(has_ident(&l, "y"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let l = lex("fn f<'a>(x: &'a str) -> char { '{' }\n");
        // The lifetime must survive as a Lifetime token; the char-literal
        // brace must not unbalance the stream.
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        let braces: i32 = l
            .tokens
            .iter()
            .map(|t| match t.text.as_str() {
                "{" => 1,
                "}" => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0, "char-literal brace leaked into the stream");
        let l2 = lex("let c = '\\n'; let d = 'x';\n");
        assert!(!has_ident(&l2, "x"));
        assert_eq!(
            l2.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            2
        );
    }

    #[test]
    fn string_escapes_do_not_end_early() {
        let l = lex("let s = \"a\\\"b unwrap() c\"; let k = 5;\n");
        assert!(!has_ident(&l, "unwrap"));
        assert!(has_ident(&l, "k"));
    }

    #[test]
    fn attributes_extracted_but_not_code() {
        let src = "#[cfg(test)]\nmod tests {}\n#[doc = \"pub fn fake\"]\npub fn real() {}\n";
        let l = lex(src);
        assert!(has_ident(&l, "tests"));
        assert!(!has_ident(&l, "cfg"));
        assert!(!has_ident(&l, "fake"));
        assert_eq!(l.attributes.len(), 2);
        assert_eq!(l.attributes[0].normalized, "#[cfg(test)]");
        assert_eq!(l.attributes[0].line, 1);
        // tok_index points at the decorated item.
        assert!(l.tokens[l.attributes[0].tok_index].is("mod"));
    }

    #[test]
    fn comment_text_preserved_for_pragmas() {
        let l = lex("let x = 1; // mitt-lint: allow(D003, \"reason\")\n");
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("mitt-lint: allow(D003"));
    }

    // ----- lexer-specific coverage --------------------------------------

    #[test]
    fn numeric_literals_with_suffixes() {
        let l = lex("let a = 0i64; let b = 1_000u32; let c = 1.5f64; let d = 2e9; let e = 0xFFu8;");
        let kinds: Vec<(String, TokKind)> = l
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| (t.text.clone(), t.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("0i64".to_string(), TokKind::Int),
                ("1_000u32".to_string(), TokKind::Int),
                ("1.5f64".to_string(), TokKind::Float),
                ("2e9".to_string(), TokKind::Float),
                ("0xFFu8".to_string(), TokKind::Int),
            ]
        );
    }

    #[test]
    fn range_is_not_a_float() {
        let l = lex("for i in 0..10 { let _ = i; }");
        assert!(l.tokens.iter().any(|t| t.is_punct("..")));
        assert!(!l.tokens.iter().any(|t| t.kind == TokKind::Float));
    }

    #[test]
    fn multichar_operators_fuse() {
        let l = lex("a += 1; b :: c; d -> e; f == g; h <<= 2;");
        for op in ["+=", "::", "->", "==", "<<="] {
            assert!(l.tokens.iter().any(|t| t.is_punct(op)), "missing {op}");
        }
    }

    #[test]
    fn multiline_attribute_spans_are_tracked() {
        let src = "#[derive(\n    Debug,\n    Clone\n)]\npub struct S;\n";
        let l = lex(src);
        assert_eq!(l.attributes.len(), 1);
        assert_eq!(l.attributes[0].line, 1);
        assert!(l.tokens[l.attributes[0].tok_index].is("pub"));
    }

    #[test]
    fn item_end_and_brace_matching() {
        let l = lex("fn f() { if x { y(); } }\nfn g();\n");
        // item_end from the first token walks to the outer closing brace.
        let end = l.item_end(0);
        assert!(l.tokens[end].is_punct("}"));
        assert_eq!(l.line_of(end), 1);
        let g_pos = l.tokens.iter().position(|t| t.is("g")).unwrap();
        let end = l.item_end(g_pos);
        assert!(l.tokens[end].is_punct(";"));
    }

    #[test]
    fn byte_char_and_byte_string() {
        let l = lex("let a = b'x'; let s = b\"unwrap()\"; let k = 1;");
        assert!(!has_ident(&l, "x"));
        assert!(!has_ident(&l, "unwrap"));
        assert!(has_ident(&l, "k"));
    }

    #[test]
    fn stream_is_plausible_for_real_code() {
        let l = lex("impl S { pub fn f(&self) -> u64 { self.m.keys().count() as u64 } }");
        assert_eq!(
            texts(&l),
            vec![
                "impl", "S", "{", "pub", "fn", "f", "(", "&", "self", ")", "->", "u64", "{",
                "self", ".", "m", ".", "keys", "(", ")", ".", "count", "(", ")", "as", "u64", "}",
                "}"
            ]
        );
    }
}
