//! The determinism and invariant rules.
//!
//! Every rule works on the spanned token stream produced by [`crate::lexer`],
//! so comments, string literals, and attribute arguments can never trigger a
//! finding, and semantic analyses (statement extraction, loop-body effect
//! classification, assert-guard matching) have real structure to stand on.
//! See DESIGN.md "Determinism rules" and "mitt-lint v2" for the rationale
//! behind each rule ID.

use crate::lexer::{lex, Lexed, TokKind, Token};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock use (`Instant`, `SystemTime`, TSC reads) outside the lint
    /// crate.
    D001,
    /// External entropy (`rand::`, `thread_rng`, ...) outside `simcore::rng`.
    D002,
    /// Order-dependent iteration over `HashMap`/`HashSet`.
    D003,
    /// Host-environment escape hatches (`thread::sleep`, `std::process`,
    /// `env::var`) inside simulation crates.
    D004,
    /// `unwrap()`/`expect()` in non-test library code of the core crates.
    R001,
    /// Direct `eprintln!` in a figure binary (`crates/bench/src/bin/`);
    /// progress notes must go through `mitt_bench::progress` so `--quiet`
    /// works and stderr stays reserved for real errors.
    O001,
    /// Truncating `as` cast of a virtual-clock quantity, or arithmetic mixing
    /// differently-suffixed time units (`x_ns + y_us`, `a_ns * b_ns`).
    T001,
    /// `f32`/`f64` in digest-bearing simulation state: float-typed
    /// time-suffixed fields/params, or `==`/`!=` against a float literal.
    T002,
    /// Waiver ratchet: a per-rule waiver count grew past the committed
    /// `baselines/LINT_baseline.json`.
    W001,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 9] = [
        Rule::D001,
        Rule::D002,
        Rule::D003,
        Rule::D004,
        Rule::R001,
        Rule::O001,
        Rule::T001,
        Rule::T002,
        Rule::W001,
    ];

    /// The stable rule ID used in reports and pragmas.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::R001 => "R001",
            Rule::O001 => "O001",
            Rule::T001 => "T001",
            Rule::T002 => "T002",
            Rule::W001 => "W001",
        }
    }

    /// One-line description used in report headers.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D001 => "wall-clock time source in simulation code",
            Rule::D002 => "ambient entropy outside simcore::rng",
            Rule::D003 => "order-dependent HashMap/HashSet iteration",
            Rule::D004 => "host-environment access in a simulation crate",
            Rule::R001 => "unwrap()/expect() in core library code",
            Rule::O001 => "direct eprintln! in a figure binary",
            Rule::T001 => "truncating cast or mixed-unit arithmetic on virtual time",
            Rule::T002 => "float time state or float-literal equality in sim code",
            Rule::W001 => "waiver count grew past the committed baseline",
        }
    }

    /// Parses a rule ID as written in a pragma.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == s)
    }
}

/// Where a file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` of a crate: all rules apply.
    Library,
    /// `tests/`, `benches/`, or `examples/`: exempt from [`Rule::D003`],
    /// [`Rule::R001`] and the T-rules.
    TestOnly,
}

/// One rule finding at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative display path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// What specifically matched.
    pub message: String,
    /// A mechanical rewrite suggestion, when one is safe to propose.
    pub suggestion: Option<String>,
}

/// A violation silenced by a `// mitt-lint: allow(...)` pragma.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule that would have fired.
    pub rule: Rule,
    /// Workspace-relative display path.
    pub file: String,
    /// 1-based line number of the silenced finding.
    pub line: usize,
    /// Justification text from the pragma.
    pub reason: String,
}

/// A parsed `mitt-lint: allow(RULE, "reason")` pragma.
#[derive(Debug, Clone)]
struct Pragma {
    line: usize,
    rule: Rule,
    reason: String,
    used: bool,
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Findings that survived pragma filtering.
    pub violations: Vec<Violation>,
    /// Findings silenced by a pragma.
    pub suppressed: Vec<Suppression>,
    /// Pragmas that matched no finding (kept visible so stale pragmas rot
    /// loudly instead of silently).
    pub unused_pragmas: Vec<(usize, String)>,
    /// Pragma comments that failed to parse.
    pub malformed_pragmas: Vec<(usize, String)>,
}

/// Simulation crates for [`Rule::D004`] and the T-rules: everything driven by
/// virtual time.
const SIM_CRATES: [&str; 9] = [
    "simcore", "device", "sched", "oscache", "core", "workload", "lsm", "beyond", "cluster",
];

/// Crates whose library code must be panic-free for [`Rule::R001`].
const R001_CRATES: [&str; 4] = ["simcore", "core", "sched", "device"];

/// Scans one file's source text and applies every applicable rule.
///
/// `crate_name` is the workspace directory name (`simcore`, `core`, ...) or
/// `"."` for the root crate; `display_path` is used verbatim in findings.
pub fn scan_source(
    crate_name: &str,
    kind: FileKind,
    display_path: &str,
    source: &str,
) -> FileOutcome {
    let lx = lex(source);
    let original_lines: Vec<&str> = source.lines().collect();
    let test_lines = test_region_lines(&lx);
    let fns = collect_fns(&lx);
    let mut out = FileOutcome::default();
    let mut pragmas = collect_pragmas(&lx, &mut out.malformed_pragmas);

    let mut raw: Vec<Violation> = Vec::new();
    let ctx = Ctx {
        crate_name,
        kind,
        display_path,
        lx: &lx,
        original_lines: &original_lines,
        test_lines: &test_lines,
        fns: &fns,
    };
    rule_d001(&ctx, &mut raw);
    rule_d002(&ctx, &mut raw);
    rule_d003(&ctx, &mut raw);
    rule_d004(&ctx, &mut raw);
    rule_r001(&ctx, &mut raw);
    rule_o001(&ctx, &mut raw);
    rule_t001(&ctx, &mut raw);
    rule_t002(&ctx, &mut raw);
    raw.sort_by_key(|a| (a.line, a.rule));
    raw.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);

    for v in raw {
        // A pragma suppresses a finding on its own line or the line below it.
        let hit = pragmas
            .iter_mut()
            .find(|p| p.rule == v.rule && (p.line == v.line || p.line + 1 == v.line));
        if let Some(p) = hit {
            p.used = true;
            out.suppressed.push(Suppression {
                rule: v.rule,
                file: v.file,
                line: v.line,
                reason: p.reason.clone(),
            });
        } else {
            out.violations.push(v);
        }
    }
    for p in pragmas {
        if !p.used {
            out.unused_pragmas
                .push((p.line, format!("allow({}) matched no finding", p.rule.id())));
        }
    }
    out
}

/// Shared per-file context handed to each rule.
struct Ctx<'a> {
    crate_name: &'a str,
    kind: FileKind,
    display_path: &'a str,
    lx: &'a Lexed,
    original_lines: &'a [&'a str],
    test_lines: &'a [bool],
    fns: &'a [FnItem],
}

impl Ctx<'_> {
    fn in_test(&self, line_1based: usize) -> bool {
        self.test_lines
            .get(line_1based - 1)
            .copied()
            .unwrap_or(false)
    }

    fn snippet(&self, line_1based: usize) -> String {
        self.original_lines
            .get(line_1based - 1)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    }

    fn push(&self, out: &mut Vec<Violation>, rule: Rule, line: usize, message: String) {
        self.push_fix(out, rule, line, message, None);
    }

    fn push_fix(
        &self,
        out: &mut Vec<Violation>,
        rule: Rule,
        line: usize,
        message: String,
        suggestion: Option<String>,
    ) {
        out.push(Violation {
            rule,
            file: self.display_path.to_string(),
            line,
            snippet: self.snippet(line),
            message,
            suggestion,
        });
    }

    fn toks(&self) -> &[Token] {
        &self.lx.tokens
    }

    /// True when tokens starting at `i` match `pat` texts exactly.
    fn matches(&self, i: usize, pat: &[&str]) -> bool {
        let toks = self.toks();
        pat.len() <= toks.len().saturating_sub(i)
            && pat.iter().enumerate().all(|(k, p)| toks[i + k].text == *p)
    }

    /// Index of the first token of the statement containing token `i`: scans
    /// backward to the nearest `;`/`{`/`}` at or outside the current nesting.
    fn stmt_start(&self, i: usize) -> usize {
        let toks = self.toks();
        let mut depth = 0i32;
        let mut j = i;
        while j > 0 {
            let t = &toks[j - 1];
            match t.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" => depth -= 1,
                ";" | "{" | "}" if depth <= 0 => return j,
                _ => {}
            }
            j -= 1;
        }
        0
    }

    /// Index of the token that ends the statement containing token `i`: the
    /// `;` terminating it, the `{` opening its block, or the `}` closing the
    /// enclosing block, whichever comes first at nesting depth zero.
    fn stmt_end(&self, i: usize) -> usize {
        let toks = self.toks();
        let mut depth = 0i32;
        let mut j = i;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" | "{" | "}" if depth <= 0 => return j,
                _ => {}
            }
            j += 1;
        }
        toks.len().saturating_sub(1)
    }
}

/// One `fn` item found in the file.
struct FnItem {
    /// The function's name.
    name: String,
    /// Token index of the name.
    name_tok: usize,
    /// Token range (open-brace index, close-brace index) of the body, when
    /// the item has one (trait-method declarations don't).
    body: Option<(usize, usize)>,
}

/// Extracts every `fn` item (free function or method) in the file.
fn collect_fns(lx: &Lexed) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let toks = &lx.tokens;
    for i in 0..toks.len() {
        if !toks[i].is("fn") {
            continue;
        }
        let Some(name_t) = toks.get(i + 1) else {
            continue;
        };
        if name_t.kind != TokKind::Ident {
            continue; // `fn(..)` pointer type
        }
        // Walk to the body `{` or terminating `;` at paren depth zero.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut body = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body = Some((j, lx.match_brace(j)));
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        fns.push(FnItem {
            name: name_t.text.clone(),
            name_tok: i + 1,
            body,
        });
    }
    fns
}

// ---------------------------------------------------------------------------
// Test-region tracking
// ---------------------------------------------------------------------------

/// Returns, for each line (0-based index), whether it lies inside a test
/// region: an item annotated `#[cfg(test)]`/`#[test]`, or a `mod tests` block.
fn test_region_lines(lx: &Lexed) -> Vec<bool> {
    let mut flags = vec![false; lx.n_lines.max(1)];
    let mut mark = |from_line: usize, to_line: usize| {
        for l in from_line..=to_line {
            if let Some(f) = flags.get_mut(l - 1) {
                *f = true;
            }
        }
    };

    // Attribute triggers: #[test], #[cfg(test)], #[cfg(all(test, ...))] ...
    // but not #[cfg(not(test))], which marks *non*-test code.
    for attr in &lx.attributes {
        let a = attr.normalized.as_str();
        let is_test_attr = a.ends_with("[test]")
            || (a.contains("cfg(") && contains_word(a, "test") && !a.contains("not(test"));
        if !is_test_attr {
            continue;
        }
        if attr.inner {
            // `#![cfg(test)]` gates the whole file.
            mark(1, lx.n_lines.max(1));
        } else if attr.tok_index < lx.tokens.len() {
            let end = lx.item_end(attr.tok_index);
            mark(attr.line, lx.line_of(end));
        }
    }

    // `mod tests {` / `mod test {` triggers (belt and braces: such modules are
    // conventionally cfg(test)-gated, but track them even when the attribute
    // is missing).
    for i in 0..lx.tokens.len() {
        let t = &lx.tokens[i];
        if t.is("mod")
            && lx
                .tokens
                .get(i + 1)
                .map(|n| n.is("tests") || n.is("test"))
                .unwrap_or(false)
        {
            let end = lx.item_end(i);
            mark(t.line, lx.line_of(end));
        }
    }
    flags
}

/// Whole-word containment check for normalized attribute text.
fn contains_word(hay: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(word) {
        let abs = start + pos;
        let before = hay[..abs].chars().next_back().unwrap_or(' ');
        let after = hay[abs + word.len()..].chars().next().unwrap_or(' ');
        let word_char = |c: char| c.is_alphanumeric() || c == '_';
        if !word_char(before) && !word_char(after) {
            return true;
        }
        start = abs + word.len();
    }
    false
}

// ---------------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------------

/// Extracts `mitt-lint: allow(RULE, "reason")` pragmas from comments;
/// unparseable ones are reported through `malformed`.
fn collect_pragmas(lx: &Lexed, malformed: &mut Vec<(usize, String)>) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for c in &lx.comments {
        // A pragma must be the comment's own content ("// mitt-lint: ..."),
        // not a mention of the syntax somewhere inside documentation prose.
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        if !body.starts_with("mitt-lint:") {
            continue;
        }
        let rest = body["mitt-lint:".len()..].trim_start();
        // A multi-line block comment pragma applies below its end line.
        let line = c.line + c.span_lines - 1;
        if let Some((rule, reason)) = parse_allow(rest) {
            pragmas.push(Pragma {
                line,
                rule,
                reason,
                used: false,
            });
        } else {
            malformed.push((
                line,
                format!("unparseable pragma (want `mitt-lint: allow(RULE, \"reason\")`): {rest}"),
            ));
        }
    }
    pragmas
}

/// Parses `allow(RULE, "reason")`; returns the rule and reason.
fn parse_allow(s: &str) -> Option<(Rule, String)> {
    let s = s.strip_prefix("allow(")?;
    let comma = s.find(',')?;
    let rule = Rule::parse(s[..comma].trim())?;
    let rest = s[comma + 1..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let endq = rest.find('"')?;
    let reason = rest[..endq].to_string();
    let after = rest[endq + 1..].trim_start();
    if !after.starts_with(')') || reason.is_empty() {
        return None;
    }
    Some((rule, reason))
}

// ---------------------------------------------------------------------------
// Simple token-pattern rules: D001, D002, D004, O001
// ---------------------------------------------------------------------------

/// Wall-clock sources: std's clocks and the CPU timestamp counter, which
/// is a faster read of the same host time.
const WALL_CLOCKS: [&str; 5] = ["Instant", "SystemTime", "UNIX_EPOCH", "_rdtsc", "__rdtscp"];

fn rule_d001(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if ctx.crate_name == "lint" {
        return;
    }
    for t in ctx.toks() {
        if WALL_CLOCKS.iter().any(|c| t.is(c)) {
            ctx.push(
                out,
                Rule::D001,
                t.line,
                format!("`{}` reads the wall clock; use virtual `SimTime`", t.text),
            );
        }
    }
}

fn rule_d002(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if ctx.display_path.ends_with("simcore/src/rng.rs") {
        return;
    }
    let toks = ctx.toks();
    for (i, t) in toks.iter().enumerate() {
        let pat = if t.is("rand") && ctx.matches(i + 1, &["::"]) {
            Some("rand::")
        } else if t.is("thread_rng") {
            Some("thread_rng")
        } else if t.is("from_entropy") {
            Some("from_entropy")
        } else if t.is("OsRng") {
            Some("OsRng")
        } else if t.is("getrandom") {
            Some("getrandom")
        } else {
            None
        };
        if let Some(pat) = pat {
            ctx.push(
                out,
                Rule::D002,
                t.line,
                format!("`{pat}` is ambient entropy; seed through `simcore::rng::SimRng`"),
            );
        }
    }
}

fn rule_d004(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if !SIM_CRATES.contains(&ctx.crate_name) {
        return;
    }
    const PATTERNS: [(&str, [&str; 3]); 6] = [
        ("thread::sleep", ["thread", "::", "sleep"]),
        ("std::process", ["std", "::", "process"]),
        ("process::exit", ["process", "::", "exit"]),
        ("env::var", ["env", "::", "var"]),
        ("env::args", ["env", "::", "args"]),
        ("Command::new", ["Command", "::", "new"]),
    ];
    let toks = ctx.toks();
    for (i, t) in toks.iter().enumerate() {
        for (label, pat) in &PATTERNS {
            if ctx.matches(i, pat) {
                ctx.push(
                    out,
                    Rule::D004,
                    t.line,
                    format!("`{label}` reaches the host environment from a simulation crate"),
                );
                break;
            }
        }
    }
}

fn rule_o001(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if ctx.crate_name != "bench" || !ctx.display_path.contains("src/bin/") {
        return;
    }
    let toks = ctx.toks();
    for (i, t) in toks.iter().enumerate() {
        if t.is("eprintln") && ctx.matches(i + 1, &["!"]) && !ctx.in_test(t.line) {
            ctx.push(
                out,
                Rule::O001,
                t.line,
                "`eprintln!` in a figure binary bypasses `--quiet` and pollutes \
                 stderr captures; use `mitt_bench::progress!` (or `progress::note`)"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// D003 — order-dependent HashMap/HashSet iteration
// ---------------------------------------------------------------------------

/// Iteration methods whose order is unspecified on hash containers. All are
/// zero-argument, so the match requires `.name()` exactly.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Hash-container type names: std's, and `mitt_sim::hash`'s deterministic
/// aliases (whose iteration order is just as unspecified).
const HASH_CONTAINERS: [&str; 4] = ["HashMap", "HashSet", "FastMap", "FastSet"];

fn is_hash_container(t: &Token) -> bool {
    HASH_CONTAINERS.iter().any(|n| t.is(n))
}

/// Integer types whose `+=` accumulation is order-insensitive.
const INT_TYPES: [&str; 12] = [
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize",
];

/// Method names that conventionally mutate their receiver: calling one of
/// these on non-loop-local state inside an iteration loop makes hash order
/// observable.
const MUTATING_METHODS: [&str; 16] = [
    "push",
    "push_back",
    "push_front",
    "insert",
    "remove",
    "extend",
    "append",
    "clear",
    "drain",
    "pop",
    "retain",
    "truncate",
    "emit",
    "send",
    "set",
    "write",
];

fn rule_d003(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if ctx.kind == FileKind::TestOnly {
        return;
    }
    let names = hash_container_names(ctx);
    if names.is_empty() {
        return;
    }
    let toks = ctx.toks();
    for i in 0..toks.len() {
        let Some((name_tok, name)) = d003_trigger(ctx, i, &names) else {
            continue;
        };
        let line = toks[name_tok].line;
        if ctx.in_test(line) {
            continue;
        }
        let s = ctx.stmt_start(name_tok);
        let e = ctx.stmt_end(name_tok);
        if stmt_has_order_insensitive_sink(ctx, s, e) {
            continue;
        }
        if collect_binding_sorted_later(ctx, s, e) {
            continue;
        }
        if toks[s].is("for") && toks[e].is_punct("{") && loop_body_is_order_free(ctx, e) {
            continue;
        }
        ctx.push_fix(
            out,
            Rule::D003,
            line,
            format!(
                "iteration over hash container `{name}` has unspecified order; \
                 sort, use BTreeMap, or justify with a pragma"
            ),
            Some(format!(
                "collect and sort before iterating: `let mut items: Vec<_> = \
                 {name}.iter().collect(); items.sort_unstable_by_key(|&(k, _)| k);`"
            )),
        );
    }
}

/// If token `i` starts a D003 trigger (hash-container iteration), returns the
/// token index and name of the iterated container.
fn d003_trigger(ctx: &Ctx<'_>, i: usize, names: &[String]) -> Option<(usize, String)> {
    let toks = ctx.toks();
    let t = &toks[i];
    // `name.iter()` / `self.name.keys()` / any `.name.drain()` chain.
    if t.kind == TokKind::Ident && names.contains(&t.text) && ctx.matches(i + 1, &["."]) {
        if let Some(m) = toks.get(i + 2) {
            if ITER_METHODS.contains(&m.text.as_str())
                && ctx.matches(i + 3, &["(", ")"])
                // Exclude the *declaration* `name: HashMap<..>` (the previous
                // token is `:`), which is not a use site.
                && i.checked_sub(1).map(|p| !toks[p].is_punct(":")).unwrap_or(true)
            {
                return Some((i, t.text.clone()));
            }
        }
    }
    // `for pat in [&[mut]] [self.]name {`.
    if t.is("in") {
        let mut j = i + 1;
        if toks.get(j).map(|t| t.is_punct("&")).unwrap_or(false) {
            j += 1;
        }
        if toks.get(j).map(|t| t.is("mut")).unwrap_or(false) {
            j += 1;
        }
        if ctx.matches(j, &["self", "."]) {
            j += 2;
        }
        let name_t = toks.get(j)?;
        if name_t.kind == TokKind::Ident
            && names.contains(&name_t.text)
            && toks.get(j + 1).map(|t| t.is_punct("{")).unwrap_or(false)
        {
            // Confirm this `in` belongs to a `for` (not `impl X in ...`).
            let s = ctx.stmt_start(i);
            if ctx.toks()[s..i].iter().any(|t| t.is("for")) {
                return Some((j, name_t.text.clone()));
            }
        }
    }
    None
}

/// Collects identifiers bound to a hash container ([`HASH_CONTAINERS`]) in
/// this file: typed bindings/fields (`name: HashMap<...>`), inferred
/// constructor bindings
/// (`let name = HashMap::new()`), and bindings of calls to local functions
/// declared to return a hash container (`let name = build_index()`).
fn hash_container_names(ctx: &Ctx<'_>) -> Vec<String> {
    let toks = ctx.toks();
    let mut names: Vec<String> = Vec::new();
    let push_unique = |names: &mut Vec<String>, name: &str| {
        if !names.iter().any(|n| n == name) {
            names.push(name.to_string());
        }
    };
    for i in 0..toks.len() {
        let t = &toks[i];
        if !is_hash_container(t) {
            continue;
        }
        // `name: [&][mut] HashMap<` (field, param, or ascribed let).
        if toks.get(i + 1).map(|n| n.is_punct("<")).unwrap_or(false) {
            let mut j = i;
            while j > 0
                && (toks[j - 1].is_punct("&")
                    || toks[j - 1].is("mut")
                    || toks[j - 1].kind == TokKind::Lifetime)
            {
                j -= 1;
            }
            if j >= 2 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokKind::Ident {
                push_unique(&mut names, &toks[j - 2].text);
            }
        }
        // `let [mut] name = HashMap::new()` / `::with_capacity` /
        // `FastMap::default()`.
        if toks.get(i + 1).map(|n| n.is_punct("::")).unwrap_or(false)
            && i >= 2
            && toks[i - 1].is_punct("=")
            && toks[i - 2].kind == TokKind::Ident
        {
            push_unique(&mut names, &toks[i - 2].text);
        }
    }
    // A binding of a call to a local function whose declared return type is a
    // hash container is itself a hash container, even with no type ascription
    // at the call site: `let m = build_index(); for k in m.keys()` fires.
    for f in hash_returning_fns(ctx) {
        for c in 0..toks.len() {
            if !toks[c].is(&f) || !ctx.matches(c + 1, &["("]) {
                continue;
            }
            let mut p = c; // token index just past the binding target
            if p >= 2
                && (toks[p - 1].is_punct(".") && toks[p - 2].is("self")
                    || toks[p - 1].is_punct("::") && toks[p - 2].is("Self"))
            {
                p -= 2;
            }
            if p >= 2 && toks[p - 1].is_punct("=") && toks[p - 2].kind == TokKind::Ident {
                push_unique(&mut names, &toks[p - 2].text);
            }
        }
    }
    names.sort();
    names
}

/// Names of functions declared in this file whose signature returns a hash
/// container, directly or wrapped (`Option<HashMap<..>>`,
/// `&HashMap<..>`). Token-based, so rustfmt-wrapped signatures just work.
fn hash_returning_fns(ctx: &Ctx<'_>) -> Vec<String> {
    let toks = ctx.toks();
    let mut fns = Vec::new();
    for f in ctx.fns {
        // Scan the signature: from the name to the body `{` (or item end).
        let sig_end = f
            .body
            .map(|(open, _)| open)
            .unwrap_or_else(|| ctx.lx().item_end(f.name_tok));
        let Some(arrow) = (f.name_tok..sig_end).find(|&j| toks[j].is_punct("->")) else {
            continue;
        };
        if toks[arrow..sig_end].iter().any(is_hash_container) && !fns.contains(&f.name) {
            fns.push(f.name.clone());
        }
    }
    fns
}

impl<'a> Ctx<'a> {
    fn lx(&self) -> &'a Lexed {
        self.lx
    }
}

/// True when the statement `[s, e]` ends in an order-insensitive sink:
/// `count`/`sum`/`product`, argument-free `min()`/`max()`, `any(`/`all(`,
/// any `.sort*`, or a collect into a hash container or a `BTreeMap`.
fn stmt_has_order_insensitive_sink(ctx: &Ctx<'_>, s: usize, e: usize) -> bool {
    let toks = ctx.toks();
    for i in s..=e.min(toks.len().saturating_sub(1)) {
        if !toks[i].is_punct(".") {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        if m.kind != TokKind::Ident {
            continue;
        }
        let name = m.text.as_str();
        let insensitive = matches!(name, "count" | "sum" | "product")
            || (matches!(name, "min" | "max") && ctx.matches(i + 2, &["(", ")"]))
            || (matches!(name, "any" | "all") && ctx.matches(i + 2, &["("]))
            || name.starts_with("sort")
            || (name == "collect"
                && ctx.matches(i + 2, &["::", "<"])
                && toks
                    .get(i + 4)
                    .map(|t| is_hash_container(t) || t.is("BTreeMap"))
                    .unwrap_or(false));
        if insensitive {
            return true;
        }
    }
    false
}

/// True when statement `[s, e]` is `let [mut] X ... = ....collect...;` and a
/// later statement within 12 lines sorts `X` — the multi-statement form of
/// the collect-then-sort exemption.
fn collect_binding_sorted_later(ctx: &Ctx<'_>, s: usize, e: usize) -> bool {
    let toks = ctx.toks();
    if !toks[s].is("let") {
        return false;
    }
    let mut j = s + 1;
    if toks.get(j).map(|t| t.is("mut")).unwrap_or(false) {
        j += 1;
    }
    let Some(bind) = toks.get(j) else {
        return false;
    };
    if bind.kind != TokKind::Ident {
        return false;
    }
    let has_collect = (s..e).any(|i| toks[i].is_punct(".") && ctx.matches(i + 1, &["collect"]));
    if !has_collect {
        return false;
    }
    sorted_within(ctx, &bind.text, e + 1, ctx.lx.line_of(e) + 12)
}

/// True when `name.sort*(` appears in tokens from `from` while the token line
/// stays at or below `line_cap`.
fn sorted_within(ctx: &Ctx<'_>, name: &str, from: usize, line_cap: usize) -> bool {
    let toks = ctx.toks();
    let mut i = from;
    while i < toks.len() && toks[i].line <= line_cap {
        if toks[i].is(name)
            && ctx.matches(i + 1, &["."])
            && toks
                .get(i + 2)
                .map(|t| t.kind == TokKind::Ident && t.text.starts_with("sort"))
                .unwrap_or(false)
        {
            return true;
        }
        i += 1;
    }
    false
}

/// Decides whether a `for` loop over a hash container is order-free: the body
/// must contain at least one recognized commutative effect (integer
/// accumulation into a pre-declared integer local, or pushes into a local
/// `Vec` that is sorted right after the loop) and nothing whose outcome could
/// depend on iteration order (early exits, writes to outer state, mutating
/// calls, macros). Zero-effect bodies are NOT exempt: a loop that does
/// nothing order-relevant has no business iterating a hash container.
fn loop_body_is_order_free(ctx: &Ctx<'_>, open: usize) -> bool {
    let toks = ctx.toks();
    let close = ctx.lx.match_brace(open);
    let for_tok = ctx.stmt_start(open.saturating_sub(1));

    // Loop-locals: idents bound by the `for` pattern and by `let` bindings
    // inside the body. Writes to these die with the iteration.
    let mut locals: Vec<String> = Vec::new();
    for t in toks.iter().take(open).skip(for_tok) {
        if t.kind == TokKind::Ident && !t.is("for") && !t.is("in") {
            locals.push(t.text.clone());
        }
        if t.is("in") {
            break; // pattern ends; the iterated expression is not a binding
        }
    }
    let mut j = open + 1;
    while j < close {
        if toks[j].is("let") {
            let stop = ctx.stmt_end(j);
            for t in toks.iter().take(stop).skip(j + 1) {
                if t.is_punct("=") {
                    break;
                }
                if t.kind == TokKind::Ident && !t.is("mut") {
                    locals.push(t.text.clone());
                }
            }
        }
        j += 1;
    }

    let mut allowed_effects = 0usize;
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        // Order-dependent control flow: the first match wins under one order
        // and a different one under another.
        if t.is("break") || t.is("return") || t.is_punct("?") {
            return false;
        }
        // Macro invocation: opaque side effects.
        if t.kind == TokKind::Ident && ctx.matches(i + 1, &["!"]) {
            return false;
        }
        // Compound assignment.
        if matches!(t.text.as_str(), "+=" | "-=" | "|=" | "&=" | "^=") {
            let Some(target) = toks.get(i.wrapping_sub(1)) else {
                return false;
            };
            if target.kind != TokKind::Ident {
                return false; // `self.x += ...` and friends: outer state
            }
            if locals.contains(&target.text) {
                i += 1;
                continue; // scratch accumulation into a per-iteration local
            }
            if !is_pre_loop_int_local(ctx, for_tok, &target.text) {
                return false;
            }
            // RHS must not read the accumulator, or ordering leaks back in.
            let rhs_end = ctx.stmt_end(i);
            if (i + 1..rhs_end).any(|k| toks[k].is(&target.text)) {
                return false;
            }
            allowed_effects += 1;
            i += 1;
            continue;
        }
        if matches!(t.text.as_str(), "*=" | "/=" | "%=" | "<<=" | ">>=") {
            return false;
        }
        // Plain assignment: fine for `let` bindings and loop-locals, an
        // order-observable write otherwise.
        if t.is_punct("=") {
            let s = ctx.stmt_start(i);
            let is_let = toks[s..i].iter().any(|t| t.is("let"));
            let to_local =
                i >= 1 && toks[i - 1].kind == TokKind::Ident && locals.contains(&toks[i - 1].text);
            if !is_let && !to_local {
                return false;
            }
        }
        // Mutating method call.
        if t.is_punct(".")
            && toks
                .get(i + 1)
                .map(|m| MUTATING_METHODS.contains(&m.text.as_str()))
                .unwrap_or(false)
            && ctx.matches(i + 2, &["("])
        {
            let recv_ok = i >= 1 && toks[i - 1].kind == TokKind::Ident;
            let recv = if recv_ok {
                toks[i - 1].text.as_str()
            } else {
                ""
            };
            let chained = i >= 2 && recv_ok && toks[i - 2].is_punct(".");
            if recv_ok && !chained && locals.contains(&toks[i - 1].text) {
                i += 1;
                continue; // mutation of a per-iteration scratch value
            }
            let is_push = toks[i + 1].is("push");
            if is_push
                && recv_ok
                && !chained
                && is_pre_loop_vec_local(ctx, for_tok, recv)
                && sorted_within(ctx, recv, close + 1, ctx.lx.line_of(close) + 12)
            {
                allowed_effects += 1;
                i += 1;
                continue;
            }
            return false;
        }
        i += 1;
    }
    allowed_effects >= 1
}

/// True when `name` is declared before the loop (searching back through the
/// enclosing scope) as `let mut name = <int literal>` or with an explicit
/// integer type ascription.
fn is_pre_loop_int_local(ctx: &Ctx<'_>, for_tok: usize, name: &str) -> bool {
    pre_loop_let(ctx, for_tok, name)
        .map(|after| match after {
            LetInit::Typed(ty) => INT_TYPES.contains(&ty.as_str()),
            LetInit::Literal(kind) => kind == TokKind::Int,
            LetInit::Other => false,
        })
        .unwrap_or(false)
}

/// True when `name` is declared before the loop as a `Vec` local
/// (`let mut name: Vec<..> = ...`, `= Vec::new()`, or `= vec![..]`).
fn is_pre_loop_vec_local(ctx: &Ctx<'_>, for_tok: usize, name: &str) -> bool {
    pre_loop_let(ctx, for_tok, name)
        .map(|after| match after {
            LetInit::Typed(ty) => ty == "Vec",
            LetInit::Literal(_) => false,
            LetInit::Other => false,
        })
        .unwrap_or(false)
}

/// How a `let mut name ...` declaration initializes its binding.
enum LetInit {
    /// `let mut name: TY ... = ...` — the first type token after `:`.
    Typed(String),
    /// `let mut name = <literal>` — the literal's token kind.
    Literal(TokKind),
    /// Anything else (`= some_call()`, destructuring, ...).
    Other,
}

/// Finds the nearest `let mut name` before `for_tok` and classifies its
/// initializer. `Vec::new()` and `vec![..]` count as `Typed("Vec")`.
fn pre_loop_let(ctx: &Ctx<'_>, for_tok: usize, name: &str) -> Option<LetInit> {
    let toks = ctx.toks();
    let mut i = for_tok;
    while i >= 2 {
        i -= 1;
        if !(toks[i].is(name) && toks[i - 1].is("mut") && i >= 2 && toks[i - 2].is("let")) {
            continue;
        }
        let next = toks.get(i + 1)?;
        if next.is_punct(":") {
            // Skip `&`/`mut`/lifetimes to the first type ident.
            let mut j = i + 2;
            while toks
                .get(j)
                .map(|t| t.is_punct("&") || t.is("mut") || t.kind == TokKind::Lifetime)
                .unwrap_or(false)
            {
                j += 1;
            }
            return Some(LetInit::Typed(toks.get(j)?.text.clone()));
        }
        if next.is_punct("=") {
            let init = toks.get(i + 2)?;
            if matches!(init.kind, TokKind::Int | TokKind::Float) {
                return Some(LetInit::Literal(init.kind));
            }
            if init.is("Vec") || (init.is("vec") && ctx.matches(i + 3, &["!"])) {
                return Some(LetInit::Typed("Vec".to_string()));
            }
            return Some(LetInit::Other);
        }
        return Some(LetInit::Other);
    }
    None
}

// ---------------------------------------------------------------------------
// R001 — unwrap/expect in core library code
// ---------------------------------------------------------------------------

fn rule_r001(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if !R001_CRATES.contains(&ctx.crate_name) || ctx.kind != FileKind::Library {
        return;
    }
    let toks = ctx.toks();
    for i in 0..toks.len() {
        let t = &toks[i];
        let label = if t.is("unwrap") {
            "unwrap()"
        } else if t.is("expect") {
            "expect("
        } else {
            continue;
        };
        if i == 0 || !toks[i - 1].is_punct(".") || !ctx.matches(i + 1, &["("]) {
            continue;
        }
        if ctx.in_test(t.line) {
            continue;
        }
        if assert_guards_receiver(ctx, i) {
            continue;
        }
        ctx.push(
            out,
            Rule::R001,
            t.line,
            format!(
                "`{label}` can panic in library code; return an error, use a \
                 total method, or justify with a pragma"
            ),
        );
    }
}

/// True when an earlier `assert!`/`debug_assert!` in the same function body
/// names a dotted path that is a prefix of the `unwrap`/`expect` receiver —
/// e.g. `assert!(!self.samples.is_empty())` guards
/// `self.samples.last().expect(..)`. The guard proves the panic is
/// unreachable, so the call is total in practice.
fn assert_guards_receiver(ctx: &Ctx<'_>, unwrap_tok: usize) -> bool {
    let toks = ctx.toks();
    let Some(f) = ctx.fns.iter().find(|f| {
        f.body
            .map(|(o, c)| o < unwrap_tok && unwrap_tok < c)
            .unwrap_or(false)
    }) else {
        return false;
    };
    let (open, _) = f.body.expect("checked above");
    let receiver = receiver_path(ctx, unwrap_tok);
    if receiver.is_empty() {
        return false;
    }
    let mut i = open + 1;
    while i < unwrap_tok {
        if (toks[i].is("assert") || toks[i].is("debug_assert")) && ctx.matches(i + 1, &["!", "("]) {
            let close = matching_paren(ctx, i + 2);
            for guard in dotted_paths(ctx, i + 3, close) {
                // Drop the trailing method (`is_empty`, `len`, ...) to get
                // the guarded receiver prefix.
                if guard.len() >= 2 && receiver.starts_with(&guard[..guard.len() - 1]) {
                    return true;
                }
            }
            i = close;
        }
        i += 1;
    }
    false
}

/// The dotted receiver path of the method call at `call_tok` (the method-name
/// token), outermost first: `self.samples.last().expect(..)` → `[self,
/// samples, last]`.
fn receiver_path(ctx: &Ctx<'_>, call_tok: usize) -> Vec<String> {
    let toks = ctx.toks();
    let mut rev: Vec<String> = Vec::new();
    let mut i = call_tok.checked_sub(1); // the `.` before the method name
    while let Some(dot) = i {
        if !toks[dot].is_punct(".") {
            break;
        }
        let Some(mut p) = dot.checked_sub(1) else {
            break;
        };
        // Skip a call's argument list backward: `last ( )` ← from `)`.
        if toks[p].is_punct(")") {
            let mut depth = 1i32;
            while p > 0 && depth > 0 {
                p -= 1;
                match toks[p].text.as_str() {
                    ")" => depth += 1,
                    "(" => depth -= 1,
                    _ => {}
                }
            }
            let Some(q) = p.checked_sub(1) else { break };
            p = q;
        }
        if toks[p].kind != TokKind::Ident {
            break;
        }
        rev.push(toks[p].text.clone());
        i = p.checked_sub(1);
    }
    rev.reverse();
    rev
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(ctx: &Ctx<'_>, open: usize) -> usize {
    let toks = ctx.toks();
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// All maximal dotted ident paths (`a.b.c`) in the token range `[from, to)`.
fn dotted_paths(ctx: &Ctx<'_>, from: usize, to: usize) -> Vec<Vec<String>> {
    let toks = ctx.toks();
    let mut paths = Vec::new();
    let mut i = from;
    while i < to.min(toks.len()) {
        if toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let mut path = vec![toks[i].text.clone()];
        let mut j = i + 1;
        while j + 1 < toks.len() && toks[j].is_punct(".") && toks[j + 1].kind == TokKind::Ident {
            path.push(toks[j + 1].text.clone());
            j += 2;
        }
        paths.push(path);
        i = j;
    }
    paths
}

// ---------------------------------------------------------------------------
// T001 — truncating casts and mixed-unit arithmetic on virtual time
// ---------------------------------------------------------------------------

/// Integer/float types too narrow to hold a virtual-clock quantity.
const NARROW_TYPES: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Duration accessors whose result is a time quantity.
const TIME_ACCESSORS: [&str; 3] = ["as_nanos", "as_micros", "as_millis"];

/// The time-unit class of an identifier, by suffix convention.
fn time_unit(name: &str) -> Option<&'static str> {
    if name.ends_with("_ns") || name.ends_with("_nanos") {
        Some("ns")
    } else if name.ends_with("_us") || name.ends_with("_micros") {
        Some("us")
    } else if name.ends_with("_ms") || name.ends_with("_millis") {
        Some("ms")
    } else {
        None
    }
}

fn rule_t001(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if !SIM_CRATES.contains(&ctx.crate_name) || ctx.kind != FileKind::Library {
        return;
    }
    let toks = ctx.toks();
    for i in 0..toks.len() {
        let t = &toks[i];
        if ctx.in_test(t.line) {
            continue;
        }
        // Truncating cast: `<time expr> as <narrow type>`.
        if t.is("as")
            && toks
                .get(i + 1)
                .map(|n| NARROW_TYPES.contains(&n.text.as_str()))
                .unwrap_or(false)
            && i >= 1
        {
            let narrow = &toks[i + 1].text;
            let prev = &toks[i - 1];
            let src = if prev.kind == TokKind::Ident && time_unit(&prev.text).is_some() {
                Some(prev.text.clone())
            } else if prev.is_punct(")")
                && i >= 4
                && toks[i - 2].is_punct("(")
                && TIME_ACCESSORS.contains(&toks[i - 3].text.as_str())
            {
                Some(format!("{}()", toks[i - 3].text))
            } else {
                None
            };
            if let Some(src) = src {
                ctx.push_fix(
                    out,
                    Rule::T001,
                    t.line,
                    format!(
                        "`{src} as {narrow}` truncates a virtual-clock quantity; \
                         virtual time must stay in 64-bit integers"
                    ),
                    Some(format!("widen the cast: `{src} as u64` (or i64)")),
                );
            }
        }
        // Mixed-unit `+`/`-`/comparison, and time×time multiplication.
        if matches!(
            t.text.as_str(),
            "+" | "-" | "<" | ">" | "<=" | ">=" | "==" | "!=" | "*"
        ) && i >= 1
        {
            let (Some(a), Some(b)) = (toks.get(i - 1), toks.get(i + 1)) else {
                continue;
            };
            if a.kind != TokKind::Ident || b.kind != TokKind::Ident {
                continue;
            }
            let (Some(ua), Some(ub)) = (time_unit(&a.text), time_unit(&b.text)) else {
                continue;
            };
            if t.is_punct("*") {
                ctx.push(
                    out,
                    Rule::T001,
                    t.line,
                    format!(
                        "`{} * {}` multiplies two time quantities — the result is \
                         time-squared (or an overflow); one operand should be a \
                         dimensionless count",
                        a.text, b.text
                    ),
                );
            } else if ua != ub {
                ctx.push_fix(
                    out,
                    Rule::T001,
                    t.line,
                    format!(
                        "`{} {} {}` mixes {ua} and {ub} quantities; convert to a \
                         common unit first",
                        a.text, t.text, b.text
                    ),
                    Some(format!(
                        "convert explicitly, e.g. `{} {} {} * 1_000`",
                        a.text, t.text, b.text
                    )),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// T002 — floats in digest-bearing simulation state
// ---------------------------------------------------------------------------

fn rule_t002(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if !SIM_CRATES.contains(&ctx.crate_name) || ctx.kind != FileKind::Library {
        return;
    }
    let toks = ctx.toks();
    for i in 0..toks.len() {
        let t = &toks[i];
        if ctx.in_test(t.line) {
            continue;
        }
        // Float-typed time-suffixed field or parameter: `frob_ns: f64`.
        if t.kind == TokKind::Ident && time_unit(&t.text).is_some() && ctx.matches(i + 1, &[":"]) {
            let mut j = i + 2;
            while toks
                .get(j)
                .map(|x| x.is_punct("&") || x.is("mut") || x.kind == TokKind::Lifetime)
                .unwrap_or(false)
            {
                j += 1;
            }
            if toks
                .get(j)
                .map(|x| x.is("f32") || x.is("f64"))
                .unwrap_or(false)
            {
                ctx.push_fix(
                    out,
                    Rule::T002,
                    t.line,
                    format!(
                        "`{}: {}` stores a time quantity as a float; float \
                         rounding drifts across platforms and breaks digest \
                         stability — keep time in integer nanoseconds",
                        t.text, toks[j].text
                    ),
                    Some(format!("store as `{}: u64` (integer ns)", t.text)),
                );
            }
        }
        // Float-literal equality: `x == 0.0`, `1.0 != y`.
        if matches!(t.text.as_str(), "==" | "!=") {
            let lf = i >= 1 && toks[i - 1].kind == TokKind::Float;
            let rf = toks
                .get(i + 1)
                .map(|x| x.kind == TokKind::Float)
                .unwrap_or(false);
            if lf || rf {
                ctx.push_fix(
                    out,
                    Rule::T002,
                    t.line,
                    "float equality comparison in simulation code; exact float \
                     compares are brittle under recomputation — compare integers \
                     or use an explicit tolerance"
                        .to_string(),
                    Some("compare with a tolerance: `(a - b).abs() < f64::EPSILON`".to_string()),
                );
            }
        }
    }
}
