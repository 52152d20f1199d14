//! `um-tidy`: the workspace's determinism-and-invariant static analysis
//! pass.
//!
//! The simulator's headline guarantees — bit-identical results at any
//! `UM_THREADS`, cycle-exact latency conservation, seeded fault plans —
//! are only as strong as the code's discipline about ordered iteration,
//! seeded randomness and overflow-safe cycle arithmetic. This crate
//! enforces that discipline statically, the way rust-lang/rust's `tidy`
//! pass guards its tree, with file:line diagnostics and an explicit
//! escape hatch:
//!
//! ```text
//! // um-tidy: allow(float-accumulation) -- serial fold over a fixed order
//! ```
//!
//! The directive goes on the offending line or the line directly above it,
//! and the `-- <reason>` justification is mandatory — an allow without a
//! reason is itself a violation. Every allow that actually suppresses a
//! diagnostic is *debt*, tracked per rule in the committed ledger
//! `results/tidy_debt.txt` (regenerate with `um-tidy --debt`), next to one
//! row per compiler lint that an `#[allow]` or `#[expect]` attribute names;
//! CI diffs the ledger against a fresh run so debt can only grow through an
//! explicit, reviewed commit.
//!
//! Bans on a named type, method, macro or attribute are not here: the
//! root `clippy.toml` and the `[workspace.lints]` table hold them, where
//! the compiler resolves aliases and re-exports a lexer cannot see.
//!
//! # Architecture (v2)
//!
//! The original pass stripped strings and `//` comments one line at a
//! time, which cannot see a `/* ... */` spanning lines, a raw string
//! carrying `HashMap`, or `'a'` vs `'a`. v2 lexes every file fully
//! ([`lexer`]) into per-line code/comment views plus a token stream, and
//! tracks `#[cfg(test)]` scopes by brace nesting, so test exemptions end
//! where the test module ends. On top of the per-file rules sits a
//! *workspace* pass ([`check_files`] / [`workspace_report`]) for hazards
//! no single file shows — today that is `duplicate-seed-stream`, which
//! collects every string tag passed to `um_sim::rng::stream` /
//! `stream_indexed` across the tree and flags the same tag reused by
//! distinct files (two components sharing a tag draw *identical* random
//! streams). Diagnostics and the debt ledger are byte-stable regardless of
//! directory iteration order because every output is keyed on the sorted
//! workspace-relative path.
//!
//! # Rules
//!
//! See [`Rule`] (one variant per rule) or `um-tidy --list-rules`; the
//! table in DESIGN.md is generated from `um-tidy --rule-table` and CI
//! diffs the two so they cannot drift.
//!
//! "Sim-state crates" are every `crates/*` member except `um-bench`
//! (which measures wall time by design), `um-serve` and `um-tidy`
//! itself. Test code — files under a `tests/` directory and regions
//! inside `#[cfg(test)]` items — is exempt from the rules that only
//! protect simulation state, because a test-local fold or sort whose
//! order never reaches a result cannot break reproducibility.

#![warn(missing_docs)]

pub mod lexer;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{LineView, Tok};

/// Every rule the pass knows, in diagnostic-id order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Truncating cast on a cycle/latency-named value.
    CycleTruncCast,
    /// Float equality on a cycle/latency-named value.
    CycleFloatCmp,
    /// The same RNG stream tag constructed in two different files.
    DuplicateSeedStream,
    /// Order-dependent float accumulation (`+=` / `sum()`) in sim state.
    FloatAccumulation,
    /// Float sorts via `partial_cmp().unwrap()` / unstable float sorts.
    PartialCmpSort,
    /// async/tokio types inside the std-only sim core.
    AsyncInSim,
    /// Malformed or unknown `um-tidy:` directive.
    AllowSyntax,
}

impl Rule {
    /// All rules, for `--list-rules` and the allow-directive parser.
    pub const ALL: [Rule; 7] = [
        Rule::CycleTruncCast,
        Rule::CycleFloatCmp,
        Rule::DuplicateSeedStream,
        Rule::FloatAccumulation,
        Rule::PartialCmpSort,
        Rule::AsyncInSim,
        Rule::AllowSyntax,
    ];

    /// Number of rules; the debt ledger opens with one row per rule.
    pub const COUNT: usize = Rule::ALL.len();

    /// Position of this rule in [`Rule::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The id used in diagnostics and `allow(...)` directives.
    pub fn id(self) -> &'static str {
        match self {
            Rule::CycleTruncCast => "cycle-trunc-cast",
            Rule::CycleFloatCmp => "cycle-float-cmp",
            Rule::DuplicateSeedStream => "duplicate-seed-stream",
            Rule::FloatAccumulation => "float-accumulation",
            Rule::PartialCmpSort => "partial-cmp-sort",
            Rule::AsyncInSim => "async-in-sim",
            Rule::AllowSyntax => "allow-syntax",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::CycleTruncCast => {
                "truncating casts on cycle/latency values silently wrap; use u64/u128 totals \
                 or checked/saturating conversions"
            }
            Rule::CycleFloatCmp => {
                "float equality on cycle/latency values is precision-dependent; compare in \
                 integer Cycles or use an epsilon"
            }
            Rule::DuplicateSeedStream => {
                "two components constructing um_sim::rng streams with the same tag draw \
                 identical random sequences; every component needs a unique stream tag"
            }
            Rule::FloatAccumulation => {
                "float += / sum() folds are order-dependent; a parallel or reordered reduction \
                 changes the result bit-for-bit — accumulate via um-stats sample sets or \
                 justify the fixed serial order"
            }
            Rule::PartialCmpSort => {
                "sort_by(partial_cmp().unwrap()) panics on NaN and unstable float sorts \
                 reorder ties nondeterministically; use total_cmp with a stable sort"
            }
            Rule::AsyncInSim => {
                "async/tokio inside the sim core pulls executor scheduling into the \
                 deterministic kernel; even um-serve serves with std threads only"
            }
            Rule::AllowSyntax => {
                "um-tidy directives must be `um-tidy: allow(<rule>) -- <reason>` with a \
                 known rule id and a nonempty reason"
            }
        }
    }

    /// What the rule denies — the DESIGN.md table's second column.
    pub fn denies(self) -> &'static str {
        match self {
            Rule::CycleTruncCast => "`as u32`/`as usize`/… on cycle/latency values",
            Rule::CycleFloatCmp => "`==`/`!=` on float cycle/latency values",
            Rule::DuplicateSeedStream => {
                "one `rng::stream`/`stream_indexed` tag constructed in two files"
            }
            Rule::FloatAccumulation => "float `+=`/`sum()` (order-dependent reduction)",
            Rule::PartialCmpSort => {
                "`sort_by`/`select_nth_unstable_by` with `partial_cmp`, `sort_unstable_by` on \
                 float keys"
            }
            Rule::AsyncInSim => "`async`/`await`/`tokio` in the sim core",
            Rule::AllowSyntax => "malformed/unknown `um-tidy:` directives",
        }
    }

    /// Where the rule applies — the DESIGN.md table's third column.
    pub fn applies_where(self) -> &'static str {
        match self {
            Rule::CycleTruncCast => "non-test code",
            Rule::CycleFloatCmp => "non-test code",
            Rule::DuplicateSeedStream => "workspace-wide (cross-file), non-test code",
            Rule::FloatAccumulation => "sim-state crates except `um-stats`, non-test code",
            Rule::PartialCmpSort => "sim-state crates, non-test code",
            Rule::AsyncInSim => "sim-state crates, non-test code",
            Rule::AllowSyntax => "everywhere",
        }
    }

    fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }
}

/// The markdown rule table DESIGN.md embeds between
/// `<!-- um-tidy:rule-table:begin -->` / `end` markers; CI diffs the
/// committed table against this output.
pub fn rule_table() -> String {
    let mut out = String::from("| Rule | Denies | Where |\n|------|--------|-------|\n");
    for rule in Rule::ALL {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            rule.id(),
            rule.denies(),
            rule.applies_where()
        ));
    }
    out
}

/// One finding: a rule violated at a file:line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// The result of a whole-workspace (or multi-file) run: diagnostics plus
/// the debt accounting the ledger renders.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All diagnostics, sorted by (path, line).
    pub diagnostics: Vec<Diagnostic>,
    /// Suppressed-diagnostic count per rule, indexed by [`Rule::index`].
    pub debt: Vec<usize>,
    /// `#[allow]`/`#[expect]` attributes per lint they name.
    pub lint_debt: BTreeMap<String, usize>,
    /// Files scanned.
    pub files: usize,
    /// Source lines scanned.
    pub lines: usize,
}

impl Report {
    /// Total debt: suppressed diagnostics plus lint attributes.
    pub fn total_debt(&self) -> usize {
        self.debt.iter().sum::<usize>() + self.lint_debt.values().sum::<usize>()
    }
}

/// Where a file sits in the workspace, deciding which rules apply.
#[derive(Clone, Debug)]
struct FileContext {
    /// `crates/<name>/…` member name, if any.
    krate: Option<String>,
    /// The whole file is test code (under a `tests/` directory).
    test_file: bool,
}

impl FileContext {
    fn from_path(rel_path: &str) -> Self {
        let norm = rel_path.replace('\\', "/");
        let krate = norm
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_owned);
        let test_file = norm.starts_with("tests/") || norm.contains("/tests/");
        Self { krate, test_file }
    }

    /// Sim-state crates: every workspace member under `crates/` except the
    /// bench harness (wall-clock by design), the service layer (env-sized
    /// worker pool, outside the determinism boundary) and this pass itself.
    fn is_sim_state_crate(&self) -> bool {
        matches!(&self.krate, Some(k) if k != "bench" && k != "tidy" && k != "serve")
    }

    /// Float accumulation is banned in sim-state crates except `um-stats`,
    /// whose whole job is exact, ordered sample-set folds.
    fn bans_float_accumulation(&self) -> bool {
        self.is_sim_state_crate() && !matches!(&self.krate, Some(k) if k == "stats")
    }

    /// Seed-stream tags are harvested everywhere except this crate (whose
    /// fixtures and messages mention tags deliberately).
    fn harvests_seed_streams(&self) -> bool {
        !matches!(&self.krate, Some(k) if k == "tidy")
    }
}

/// Whether `hay` contains `needle` as a standalone word (no identifier
/// character on either side).
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Whether the line mentions a cycle/latency-ish quantity.
fn names_cycles(cleaned_lower: &str) -> bool {
    cleaned_lower.contains("cycle") || cleaned_lower.contains("latency")
}

/// Whether the line contains float evidence: an `as f64`/`as f32` cast or
/// a floating-point literal (`digit . digit`).
fn has_float(cleaned: &str) -> bool {
    if cleaned.contains(" as f64") || cleaned.contains(" as f32") {
        return true;
    }
    let bytes = cleaned.as_bytes();
    bytes
        .windows(3)
        .any(|w| w[1] == b'.' && w[0].is_ascii_digit() && w[2].is_ascii_digit())
}

/// Stronger float evidence for the accumulation rule: a float literal, a
/// float cast, or an `f64`/`f32` type mention.
fn has_float_type(cleaned: &str) -> bool {
    has_float(cleaned) || contains_word(cleaned, "f64") || contains_word(cleaned, "f32")
}

/// Whether the statement ending at line `idx` satisfies `pred` on any of
/// its lines. A statement is bounded above by a line whose code ends in
/// `;`, `{` or `}` (the previous statement/block), and the walk is capped
/// at 6 lines — enough for the workspace's formatted iterator chains.
fn statement_scan(lines: &[LineView], idx: usize, pred: impl Fn(&str) -> bool) -> bool {
    if pred(&lines[idx].code) {
        return true;
    }
    let mut i = idx;
    for _ in 0..6 {
        if i == 0 {
            break;
        }
        i -= 1;
        let code = lines[i].code.trim_end();
        if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') {
            break;
        }
        if pred(&lines[i].code) {
            return true;
        }
    }
    false
}

/// Parses every `um-tidy:` directive in a line's comment text.
///
/// Returns the successfully parsed allowed rules and pushes `allow-syntax`
/// diagnostics for malformed ones.
fn parse_directives(
    raw: &str,
    path: &str,
    line_no: usize,
    diags: &mut Vec<Diagnostic>,
) -> Vec<Rule> {
    let mut allowed = Vec::new();
    let mut search = 0;
    while let Some(pos) = raw[search..].find("um-tidy:") {
        let at = search + pos;
        let rest = &raw[at + "um-tidy:".len()..];
        search = at + "um-tidy:".len();
        let rest = rest.trim_start();
        if !rest.starts_with("allow") {
            // Prose mentioning "um-tidy:" (docs, this file) is not a
            // directive attempt; only `allow...` shapes are validated.
            continue;
        }
        let Some(args) = rest.strip_prefix("allow(") else {
            diags.push(Diagnostic {
                path: path.to_owned(),
                line: line_no,
                rule: Rule::AllowSyntax,
                message: "directive must be `um-tidy: allow(<rule>) -- <reason>`".into(),
            });
            continue;
        };
        let Some(close) = args.find(')') else {
            diags.push(Diagnostic {
                path: path.to_owned(),
                line: line_no,
                rule: Rule::AllowSyntax,
                message: "unterminated `allow(` directive".into(),
            });
            continue;
        };
        let ids = &args[..close];
        let tail = args[close + 1..].trim_start();
        let reason_ok = tail
            .strip_prefix("--")
            .is_some_and(|r| !r.trim().is_empty());
        if !reason_ok {
            diags.push(Diagnostic {
                path: path.to_owned(),
                line: line_no,
                rule: Rule::AllowSyntax,
                message: format!(
                    "allow({ids}) needs a justification: `-- <reason>` after the closing paren"
                ),
            });
            continue;
        }
        for id in ids.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Rule::from_id(id) {
                Some(rule) => allowed.push(rule),
                None => diags.push(Diagnostic {
                    path: path.to_owned(),
                    line: line_no,
                    rule: Rule::AllowSyntax,
                    message: format!("unknown rule `{id}` in allow directive"),
                }),
            }
        }
    }
    allowed
}

/// Lints named by the `#[allow(...)]` and `#[expect(...)]` attributes
/// (outer or inner) in a file's code view, in source order. The lexer
/// blanks string contents, so a `reason = "..."` cannot leak a name.
fn lint_attributes(lines: &[LineView]) -> Vec<String> {
    let code: Vec<&str> = lines.iter().map(|l| l.code.as_str()).collect();
    let code = code.join("\n");
    let mut lints = Vec::new();
    let mut rest = code.as_str();
    while let Some(at) = rest.find('#') {
        rest = &rest[at + 1..];
        let attr = rest.trim_start_matches('!').trim_start();
        let Some(attr) = attr.strip_prefix('[') else {
            continue;
        };
        let attr = attr.trim_start();
        let Some(args) = ["allow", "expect"]
            .iter()
            .find_map(|kind| attr.strip_prefix(kind)?.trim_start().strip_prefix('('))
        else {
            continue;
        };
        let Some(close) = args.find(')') else { break };
        for arg in args[..close].split(',') {
            let lint: String = arg.split_whitespace().collect();
            if !lint.is_empty() && !lint.contains('=') {
                lints.push(lint);
            }
        }
    }
    lints
}

/// Tracks `#[cfg(test)]` scopes by brace nesting: the exemption starts at
/// the attribute and ends at the closing brace of the item it gates (or
/// at the item's `;` for brace-less items), instead of extending to the
/// end of the file the way the v1 line scanner did.
#[derive(Default)]
struct TestScope {
    depth: usize,
    /// Brace depths at which an active `#[cfg(test)]` scope opened.
    open_at: Vec<usize>,
    /// A `#[cfg(test)]` attribute was seen and its item has not started.
    armed: bool,
}

impl TestScope {
    /// Whether the *upcoming* line is test-scoped, then folds the line's
    /// braces into the tracker.
    fn observe(&mut self, code: &str) -> bool {
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            self.armed = true;
        }
        let in_test = !self.open_at.is_empty() || self.armed;
        for c in code.chars() {
            match c {
                '{' => {
                    if self.armed {
                        self.open_at.push(self.depth);
                        self.armed = false;
                    }
                    self.depth += 1;
                }
                '}' => {
                    self.depth = self.depth.saturating_sub(1);
                    if self.open_at.last() == Some(&self.depth) {
                        self.open_at.pop();
                    }
                }
                // A brace-less gated item (`#[cfg(test)] use …;`) ends at
                // its semicolon.
                ';' => self.armed = false,
                _ => {}
            }
        }
        in_test
    }
}

/// One `rng::stream`/`stream_indexed` construction site, harvested for
/// the cross-file duplicate-tag pass.
#[derive(Clone, Debug)]
struct SeedSite {
    tag: String,
    line: usize,
    allowed: bool,
}

/// Everything one file contributes to a workspace run.
#[derive(Debug, Default)]
struct FileAnalysis {
    diags: Vec<Diagnostic>,
    seed_sites: Vec<SeedSite>,
    /// Suppressed diagnostics per rule, indexed by [`Rule::index`].
    used_allows: Vec<usize>,
    /// Lints named by `#[allow]`/`#[expect]` attributes.
    lint_attributes: Vec<String>,
    lines: usize,
}

fn analyze_source(rel_path: &str, source: &str) -> FileAnalysis {
    let ctx = FileContext::from_path(rel_path);
    let path = rel_path.replace('\\', "/");
    let lexed = lexer::lex(source);
    let mut out = FileAnalysis {
        used_allows: vec![0; Rule::COUNT],
        lint_attributes: lint_attributes(&lexed.lines),
        lines: lexed.lines.len(),
        ..FileAnalysis::default()
    };
    let mut scope = TestScope::default();
    // Directives on their own comment line apply to the next code line.
    let mut pending_allows: Vec<Rule> = Vec::new();
    // Per-line flags the token-level seed-stream harvest consults.
    let mut line_test = vec![false; lexed.lines.len()];
    let mut line_allows_dup = vec![false; lexed.lines.len()];

    for (idx, view) in lexed.lines.iter().enumerate() {
        let line_no = idx + 1;
        let cleaned = view.code.as_str();
        let line_allows = if view.comment.is_empty() {
            Vec::new()
        } else {
            parse_directives(&view.comment, &path, line_no, &mut out.diags)
        };
        let in_test = ctx.test_file || scope.observe(cleaned);
        line_test[idx] = in_test;
        if cleaned.trim().is_empty() && !view.comment.trim().is_empty() {
            // Pure comment line: its allows stack for the next code line.
            pending_allows.extend(line_allows);
            continue;
        }
        let mut allows = line_allows;
        allows.append(&mut pending_allows);
        line_allows_dup[idx] = allows.contains(&Rule::DuplicateSeedStream);

        let mut firings: Vec<(Rule, String)> = Vec::new();

        // -- cycle-arithmetic rules -------------------------------------
        if !in_test {
            let lower = cleaned.to_lowercase();
            if names_cycles(&lower) {
                for cast in [" as u32", " as usize", " as u16", " as u8"] {
                    if cleaned.contains(cast) {
                        firings.push((
                            Rule::CycleTruncCast,
                            format!(
                                "truncating `{}` on a cycle/latency value can silently wrap at \
                                 long horizons; accumulate in u64/u128 or use try_into/checked \
                                 conversions",
                                cast.trim_start()
                            ),
                        ));
                        break;
                    }
                }
                if (cleaned.contains("==") || cleaned.contains("!="))
                    && !cleaned.contains("==>")
                    && has_float(cleaned)
                {
                    firings.push((
                        Rule::CycleFloatCmp,
                        "float equality on a cycle/latency value depends on rounding; compare \
                         integer Cycles or use an explicit tolerance"
                            .into(),
                    ));
                }
            }

            // -- determinism: float reductions --------------------------
            if ctx.bans_float_accumulation() {
                let fires = (cleaned.contains("+=")
                    && statement_scan(&lexed.lines, idx, has_float_type))
                    || cleaned.contains(".sum::<f64>")
                    || cleaned.contains(".sum::<f32>")
                    || (cleaned.contains(".sum()")
                        && statement_scan(&lexed.lines, idx, has_float_type));
                if fires {
                    firings.push((
                        Rule::FloatAccumulation,
                        "order-dependent float accumulation in sim state: a parallel or \
                         reordered reduction changes the sum bit-for-bit; fold through \
                         um-stats' exact sample sets or justify the fixed serial order with \
                         an allow"
                            .into(),
                    ));
                }
            }

            // -- determinism: float sorts -------------------------------
            if ctx.is_sim_state_crate() {
                // Selection orders floats too: `select_nth_unstable_by`
                // with `partial_cmp` panics on NaN like the sorts do.
                let has_sort = |code: &str| {
                    code.contains("sort_by")
                        || code.contains("sort_unstable_by")
                        || code.contains("select_nth_unstable_by")
                };
                let fires = (cleaned.contains("partial_cmp")
                    && statement_scan(&lexed.lines, idx, has_sort))
                    || (cleaned.contains("sort_unstable_by")
                        && statement_scan(&lexed.lines, idx, has_float_type));
                if fires {
                    firings.push((
                        Rule::PartialCmpSort,
                        "float sort via partial_cmp/unstable ordering: partial_cmp().unwrap() \
                         panics on NaN and unstable sorts reorder equal keys \
                         nondeterministically; use total_cmp with a stable sort"
                            .into(),
                    ));
                }
            }

            // -- service-layer fence ------------------------------------
            if ctx.is_sim_state_crate()
                && (contains_word(cleaned, "async")
                    || cleaned.contains(".await")
                    || contains_word(cleaned, "tokio")
                    || contains_word(cleaned, "async_std"))
            {
                firings.push((
                    Rule::AsyncInSim,
                    "async construct inside the std-only sim core: executor scheduling is \
                     nondeterministic; the service layer lives outside crates/* and talks \
                     to the kernel through its synchronous API"
                        .into(),
                ));
            }
        }

        for (rule, message) in firings {
            if allows.contains(&rule) {
                out.used_allows[rule.index()] += 1;
            } else {
                out.diags.push(Diagnostic {
                    path: path.clone(),
                    line: line_no,
                    rule,
                    message,
                });
            }
        }
    }

    // -- seed-stream harvest (token level, for the cross-file pass) -----
    if ctx.harvests_seed_streams() {
        let toks = &lexed.tokens;
        for (i, tok) in toks.iter().enumerate() {
            let Tok::Ident(name) = &tok.tok else { continue };
            if name != "stream" && name != "stream_indexed" {
                continue;
            }
            if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Open)) {
                continue;
            }
            // First string literal inside the call's own parens is the tag.
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < toks.len() && depth > 0 {
                match &toks[j].tok {
                    Tok::Open => depth += 1,
                    Tok::Close => depth -= 1,
                    Tok::Str(s) if depth == 1 => {
                        let line = toks[j].line;
                        let at = line
                            .saturating_sub(1)
                            .min(line_test.len().saturating_sub(1));
                        if !ctx.test_file && !line_test.get(at).copied().unwrap_or(false) {
                            out.seed_sites.push(SeedSite {
                                tag: s.clone(),
                                line,
                                allowed: line_allows_dup.get(at).copied().unwrap_or(false),
                            });
                        }
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }

    out
}

/// Checks one file's source, returning diagnostics in line order.
///
/// `rel_path` decides which rules apply (crate membership, test files) and
/// appears verbatim in diagnostics. Cross-file rules (today:
/// `duplicate-seed-stream`) need [`check_files`] or [`workspace_report`];
/// a single file cannot collide with itself.
pub fn check_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    analyze_source(rel_path, source).diags
}

/// Runs the whole pass — per-file rules plus the cross-file workspace
/// rules — over an in-memory set of `(relative path, source)` files.
///
/// Inputs are sorted internally, so callers need not pre-sort; the
/// returned report is byte-stable for a given file set.
pub fn check_files(files: &[(String, String)]) -> Report {
    let mut sorted: Vec<&(String, String)> = files.iter().collect();
    sorted.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
    let analyses: Vec<(String, FileAnalysis)> = sorted
        .iter()
        .map(|(rel, src)| (rel.replace('\\', "/"), analyze_source(rel, src)))
        .collect();
    aggregate(analyses)
}

/// Folds per-file analyses (already in sorted path order) into a report,
/// running the cross-file rules.
fn aggregate(analyses: Vec<(String, FileAnalysis)>) -> Report {
    let mut report = Report {
        debt: vec![0; Rule::COUNT],
        files: analyses.len(),
        ..Report::default()
    };
    // tag -> sites as (path, line, allowed), in sorted-path order.
    let mut streams: BTreeMap<String, Vec<(String, usize, bool)>> = BTreeMap::new();
    for (path, analysis) in analyses {
        report.diagnostics.extend(analysis.diags);
        report.lines += analysis.lines;
        for (i, used) in analysis.used_allows.iter().enumerate() {
            report.debt[i] += used;
        }
        for lint in analysis.lint_attributes {
            *report.lint_debt.entry(lint).or_default() += 1;
        }
        for site in analysis.seed_sites {
            streams
                .entry(site.tag)
                .or_default()
                .push((path.clone(), site.line, site.allowed));
        }
    }

    // -- cross-file: duplicate-seed-stream ------------------------------
    for (tag, sites) in &streams {
        let mut paths: Vec<&str> = sites.iter().map(|(p, _, _)| p.as_str()).collect();
        paths.dedup();
        if paths.len() < 2 {
            continue;
        }
        for (path, line, allowed) in sites {
            if *allowed {
                report.debt[Rule::DuplicateSeedStream.index()] += 1;
                continue;
            }
            let others: Vec<&str> = paths.iter().copied().filter(|p| p != path).collect();
            report.diagnostics.push(Diagnostic {
                path: path.clone(),
                line: *line,
                rule: Rule::DuplicateSeedStream,
                message: format!(
                    "seed stream tag \"{tag}\" is also constructed in {}: components sharing \
                     a tag draw identical random sequences; give every component a unique tag",
                    others.join(", ")
                ),
            });
        }
    }

    report
        .diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    report
}

/// Recursively collects the workspace's own `.rs` files under `root`,
/// sorted by their workspace-relative path bytes so diagnostic order (and
/// with it the debt ledger) is identical across filesystems and directory
/// iteration orders.
///
/// Skips `vendor/` (third-party subsets), `target/`, `.git/`, and
/// `tests/fixtures/` trees (deliberate rule violations used as test data).
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "vendor" | "target" | ".git") {
                    continue;
                }
                if name == "fixtures" && dir.ends_with("tests") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    // Sort by the *relative string* form (the form diagnostics print and
    // the ledger is keyed on), not PathBuf's component order, so output
    // is byte-stable everywhere.
    files.sort_by(|a, b| {
        let ka = a
            .strip_prefix(root)
            .unwrap_or(a)
            .to_string_lossy()
            .replace('\\', "/");
        let kb = b
            .strip_prefix(root)
            .unwrap_or(b)
            .to_string_lossy()
            .replace('\\', "/");
        ka.as_bytes().cmp(kb.as_bytes()).then_with(|| a.cmp(b))
    });
    Ok(files)
}

/// Runs the whole pass over a workspace root, returning the full report.
/// Files are analyzed in sorted order, so the output is byte-stable.
///
/// # Errors
///
/// Propagates the first directory-walk or file-read error.
pub fn workspace_report(root: &Path) -> std::io::Result<Report> {
    let mut analyses = Vec::new();
    for file in collect_rs_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        let analysis = analyze_source(&rel, &source);
        analyses.push((rel, analysis));
    }
    Ok(aggregate(analyses))
}

/// Renders the committed debt ledger (`results/tidy_debt.txt`): one row
/// per rule counting diagnostics suppressed by allow directives, one row
/// per compiler lint an `#[allow]`/`#[expect]` attribute names, plus a
/// total. CI regenerates this and diffs it against the committed file, so
/// debt growth is always an explicit, reviewed change.
pub fn render_debt(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("# um-tidy debt ledger\n");
    out.push_str("# One row per um-tidy rule: diagnostics suppressed by `um-tidy: allow(...)`\n");
    out.push_str("# directives in the live tree. Then one row per compiler lint named by an\n");
    out.push_str("# `#[allow]` or `#[expect]` attribute. CI diffs this file against a fresh\n");
    out.push_str("# run; debt may only change together with a regenerated, committed ledger.\n");
    out.push_str(
        "# Regenerate: cargo run --release -p um-tidy -- --debt > results/tidy_debt.txt\n",
    );
    let rows = Rule::ALL
        .iter()
        .map(|rule| (rule.id(), report.debt[rule.index()]))
        .chain(report.lint_debt.iter().map(|(lint, &n)| (lint.as_str(), n)));
    for (name, n) in rows.chain([("total", report.total_debt())]) {
        out.push_str(&format!("{name:<32} {n}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_line(line: &str) -> String {
        lexer::lex(line).lines[0].code.clone()
    }

    #[test]
    fn clean_strips_comments_and_strings() {
        assert_eq!(clean_line("let x = 1; // HashMap here"), "let x = 1; ");
        assert_eq!(clean_line(r#"let s = "HashMap";"#), r#"let s = "";"#);
        assert_eq!(clean_line(r#"let s = "a\"b HashMap";"#), r#"let s = "";"#);
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("pub async fn poll() {}", "async"));
        assert!(!contains_word("let asynchrony = 1;", "async"));
        assert!(contains_word("let x: f64 = 1.0;", "f64"));
        assert!(!contains_word("my_f64_like", "f64"));
    }

    #[test]
    fn sim_state_crate_classification() {
        assert!(FileContext::from_path("crates/net/src/mesh.rs").is_sim_state_crate());
        assert!(!FileContext::from_path("crates/bench/src/lib.rs").is_sim_state_crate());
        assert!(!FileContext::from_path("crates/tidy/src/lib.rs").is_sim_state_crate());
        assert!(!FileContext::from_path("tests/determinism.rs").is_sim_state_crate());
        assert!(FileContext::from_path("crates/net/tests/transit_math.rs").test_file);
        assert!(!FileContext::from_path("crates/stats/src/samples.rs").bans_float_accumulation());
        assert!(FileContext::from_path("crates/core/src/system.rs").bans_float_accumulation());
    }

    #[test]
    fn async_flagged_only_outside_tests() {
        let src = "pub async fn a() {}\n#[cfg(test)]\nmod tests {\n    async fn b() {}\n}\n";
        let diags = check_source("crates/net/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[0].rule, Rule::AsyncInSim);
    }

    #[test]
    fn test_scope_ends_at_module_close() {
        // v1 treated everything after the first #[cfg(test)] as test code;
        // the nesting-aware tracker resumes linting after the close brace.
        let src = "#[cfg(test)]\nmod tests {\n    async fn b() {}\n}\npub async fn a() {}\n";
        let diags = check_source("crates/net/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn braceless_cfg_test_item_scopes_one_item() {
        let src = "#[cfg(test)]\nuse tokio::spawn;\nuse tokio::sync;\n";
        let diags = check_source("crates/net/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn block_comments_and_raw_strings_do_not_trip_rules() {
        let src = "/*\n  async fn in a block comment\n*/\nlet s = r#\"tokio in a raw string\"#;\nlet l: &'static str = \"x\";\n";
        assert!(check_source("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_on_same_line_and_above() {
        let same =
            "pub async fn a() {} // um-tidy: allow(async-in-sim) -- never awaited in the kernel\n";
        assert!(check_source("crates/net/src/x.rs", same).is_empty());
        let above =
            "// um-tidy: allow(async-in-sim) -- never awaited in the kernel\npub async fn a() {}\n";
        assert!(check_source("crates/net/src/x.rs", above).is_empty());
    }

    #[test]
    fn allow_without_reason_rejected() {
        let src = "pub async fn a() {} // um-tidy: allow(async-in-sim)\n";
        let diags = check_source("crates/net/src/x.rs", src);
        assert!(diags.iter().any(|d| d.rule == Rule::AllowSyntax));
        assert!(diags.iter().any(|d| d.rule == Rule::AsyncInSim));
    }

    #[test]
    fn unknown_allow_rule_rejected() {
        let src = "let x = 1; // um-tidy: allow(no-such-rule) -- because\n";
        let diags = check_source("crates/net/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::AllowSyntax);
    }

    #[test]
    fn cycle_cast_needs_cycle_name() {
        let flagged = "let x = total_cycles as u32;\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", flagged)[0].rule,
            Rule::CycleTruncCast
        );
        let fine = "let x = index as usize;\n";
        assert!(check_source("crates/core/src/x.rs", fine).is_empty());
    }

    #[test]
    fn cycle_float_cmp_needs_float_evidence() {
        let flagged = "if latency_us == 0.0 {\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", flagged)[0].rule,
            Rule::CycleFloatCmp
        );
        let fine = "if cycles == other_cycles {\n";
        assert!(check_source("crates/core/src/x.rs", fine).is_empty());
    }

    #[test]
    fn doc_comments_do_not_trip_rules() {
        let src = "/// An async-like handoff; see the tokio docs.\nlet x = 1;\n";
        assert!(check_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_accumulation_flagged_in_sim_state() {
        let src = "total += delta as f64;\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", src)[0].rule,
            Rule::FloatAccumulation
        );
        // um-stats owns the exact sample sets; integer folds are fine.
        assert!(check_source("crates/stats/src/x.rs", src).is_empty());
        assert!(check_source("crates/core/src/x.rs", "count += 1;\n").is_empty());
        let turbo = "let s = xs.iter().sum::<f64>();\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", turbo)[0].rule,
            Rule::FloatAccumulation
        );
    }

    #[test]
    fn float_accumulation_sees_multiline_statements() {
        let src = "let extra: f64 = (1..=n)\n    .map(|k| p.powi(k))\n    .sum();\n";
        let diags = check_source("crates/workload/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::FloatAccumulation);
        assert_eq!(diags[0].line, 3);
        // An integer chain with the same shape stays clean.
        let int = "let n: u64 = (1..=n)\n    .map(|k| k * 2)\n    .sum();\n";
        assert!(check_source("crates/workload/src/x.rs", int).is_empty());
    }

    #[test]
    fn partial_cmp_sort_flagged() {
        let src = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        assert_eq!(
            check_source("crates/stats/src/x.rs", src)[0].rule,
            Rule::PartialCmpSort
        );
        let select = "v.select_nth_unstable_by(k, |a, b| a.partial_cmp(b).unwrap());\n";
        assert_eq!(
            check_source("crates/stats/src/x.rs", select)[0].rule,
            Rule::PartialCmpSort
        );
        // Selecting by total_cmp is exact and deterministic.
        let exact = "v.select_nth_unstable_by(k, f64::total_cmp);\n";
        assert!(check_source("crates/stats/src/x.rs", exact).is_empty());
        let unstable = "v.sort_unstable_by(|a, b| (a.0 as f64).total_cmp(&(b.0 as f64)));\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", unstable)[0].rule,
            Rule::PartialCmpSort
        );
        // A stable integer sort is fine, as is total_cmp without floats.
        assert!(check_source("crates/core/src/x.rs", "v.sort_by_key(|x| x.id);\n").is_empty());
        // partial_cmp alone (a PartialOrd impl) is not a sort.
        assert!(check_source(
            "crates/sim/src/x.rs",
            "fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n"
        )
        .is_empty());
    }

    #[test]
    fn async_fenced_out_of_sim_core() {
        for src in [
            "pub async fn serve() {}\n",
            "let h = tokio::spawn(work());\n",
            "let v = fut.await;\n",
        ] {
            let diags = check_source("crates/sched/src/x.rs", src);
            assert_eq!(
                diags.first().map(|d| d.rule),
                Some(Rule::AsyncInSim),
                "{src}"
            );
        }
        assert!(check_source("crates/sched/src/x.rs", "let asynchrony = 1;\n").is_empty());
        assert!(check_source("src/service.rs", "pub async fn serve() {}\n").is_empty());
    }

    #[test]
    fn duplicate_seed_streams_flagged_across_files() {
        let files = vec![
            (
                "crates/net/src/a.rs".to_string(),
                "pub fn mk(seed: u64) { let _r = rng::stream(seed, \"fabric\"); }\n".to_string(),
            ),
            (
                "crates/sched/src/b.rs".to_string(),
                "pub fn mk(seed: u64) { let _r = rng::stream_indexed(seed, \"fabric\", 0); }\n"
                    .to_string(),
            ),
            (
                "crates/mem/src/c.rs".to_string(),
                "pub fn mk(seed: u64) { let _r = rng::stream(seed, \"unique\"); }\n".to_string(),
            ),
        ];
        let report = check_files(&files);
        assert_eq!(report.diagnostics.len(), 2, "{:?}", report.diagnostics);
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.rule == Rule::DuplicateSeedStream));
        assert_eq!(report.diagnostics[0].path, "crates/net/src/a.rs");
        assert_eq!(report.diagnostics[1].path, "crates/sched/src/b.rs");
    }

    #[test]
    fn duplicate_seed_stream_same_file_and_tests_exempt() {
        let files = vec![
            (
                "crates/net/src/a.rs".to_string(),
                "pub fn mk(seed: u64) { let _a = rng::stream(seed, \"t\"); let _b = rng::stream(seed, \"t\"); }\n"
                    .to_string(),
            ),
            (
                "crates/net/tests/t.rs".to_string(),
                "fn mk(seed: u64) { let _r = rng::stream(seed, \"t\"); }\n".to_string(),
            ),
        ];
        assert!(check_files(&files).diagnostics.is_empty());
    }

    #[test]
    fn duplicate_seed_stream_allow_feeds_debt() {
        let files = vec![
            (
                "crates/net/src/a.rs".to_string(),
                "pub fn mk(seed: u64) { let _r = rng::stream(seed, \"shared\"); } // um-tidy: allow(duplicate-seed-stream) -- intentional shared stream\n"
                    .to_string(),
            ),
            (
                "crates/sched/src/b.rs".to_string(),
                "// um-tidy: allow(duplicate-seed-stream) -- intentional shared stream\npub fn mk(seed: u64) { let _r = rng::stream(seed, \"shared\"); }\n"
                    .to_string(),
            ),
        ];
        let report = check_files(&files);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.debt[Rule::DuplicateSeedStream.index()], 2);
    }

    #[test]
    fn used_allows_count_as_debt() {
        let files = vec![(
            "crates/net/src/a.rs".to_string(),
            "pub async fn a() {} // um-tidy: allow(async-in-sim) -- never awaited in the kernel\n"
                .to_string(),
        )];
        let report = check_files(&files);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.debt[Rule::AsyncInSim.index()], 1);
        assert_eq!(report.total_debt(), 1);
        // An allow that suppresses nothing is not debt.
        let unused = vec![(
            "crates/net/src/a.rs".to_string(),
            "let x = 1; // um-tidy: allow(async-in-sim) -- nothing here\n".to_string(),
        )];
        assert_eq!(check_files(&unused).total_debt(), 0);
    }

    #[test]
    fn lint_attributes_count_as_debt() {
        let src = "#![expect(clippy::disallowed_types, reason = \"a, b\")]\n\
                   #[allow(\n    clippy::too_many_arguments,\n    unused_mut,\n    reason = \"why\"\n)]\n\
                   fn f() {}\n\
                   #[expect(clippy::disallowed_types)]\n\
                   #[cfg_attr(test, allow(dead_code))]\n\
                   // #[allow(dead_code)] in a comment\n\
                   let s = \"#[allow(dead_code)] in a string\";\n";
        let report = check_files(&[("src/x.rs".to_string(), src.to_string())]);
        let lints: Vec<(&str, usize)> = report
            .lint_debt
            .iter()
            .map(|(lint, &n)| (lint.as_str(), n))
            .collect();
        assert_eq!(
            lints,
            [
                ("clippy::disallowed_types", 2),
                ("clippy::too_many_arguments", 1),
                ("unused_mut", 1),
            ]
        );
        assert_eq!(report.total_debt(), 4);
        assert!(render_debt(&report).contains("clippy::disallowed_types         2\n"));
    }

    #[test]
    fn debt_ledger_renders_every_rule() {
        let report = check_files(&[]);
        let ledger = render_debt(&report);
        for rule in Rule::ALL {
            assert!(ledger.contains(rule.id()), "ledger misses {}", rule.id());
        }
        assert!(ledger.ends_with(&format!("{:<32} 0\n", "total")));
    }

    #[test]
    fn rule_table_covers_all_rules() {
        let table = rule_table();
        for rule in Rule::ALL {
            assert!(table.contains(rule.id()), "table misses {}", rule.id());
        }
        assert_eq!(table.lines().count(), 2 + Rule::COUNT);
    }

    #[test]
    fn rule_ids_roundtrip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
            assert!(!rule.summary().is_empty());
            assert!(!rule.denies().is_empty());
            assert!(!rule.applies_where().is_empty());
        }
        assert_eq!(Rule::from_id("nope"), None);
        assert_eq!(Rule::ALL[Rule::AllowSyntax.index()], Rule::AllowSyntax);
    }
}
