//! Fiber-hazard lints for the uni-address runtime (ISSUE 8).
//!
//! Three rule families, all source-level (a hand-rolled scanner — the
//! offline build has no `syn`; the grammar subset we need is small and
//! the scanner is deliberately conservative in what it claims):
//!
//! - **Rule A — TLS across context switches** (the PR 6 bug class). A
//!   fiber may suspend inside a context-saving routine
//!   ([`CROSSING_MARKERS`]) and resume on a *different OS thread*
//!   (steal migration), so a thread-local address
//!   computed before the switch is a dangling worker's after it. The
//!   compiler caches TLS addresses when it can see both accesses in one
//!   function body, so the safe pattern is to confine every TLS access
//!   to an `#[inline(never)]` accessor (`Runtime::current`). Flagged:
//!   - `tls-in-crossing-fn`: a function body that both accesses a
//!     `thread_local!` static directly and calls the suspension
//!     primitive — the cache window is right there in one body;
//!   - `tls-helper-inlinable`: a TLS-accessing helper without
//!     `#[inline(never)]` that a suspension-crossing function calls —
//!     inlining re-creates the window the helper was meant to close.
//!
//! - **Rule B — THE-word ordering allowlist**. Every atomic access to a
//!   THE-layout control word (`lock` / `top` / `bottom`) — an atomic
//!   method on the word's field, or a deque placement op naming it as
//!   `Word::Top` — must use an
//!   ordering listed in [`uat_deque::layout::ORDERING_ALLOWLIST`] — the
//!   table distilled from what the `uat-check` release/acquire explorer
//!   proved sufficient. An access outside the table is either a
//!   downgrade the explorer would catch (run it!) or an upgrade that
//!   silently re-pessimizes a hot path; both deserve a human look.
//!
//! - **Rule C — SAFETY invariant references**. Workspace policy already
//!   denies undocumented unsafe (`clippy::undocumented_unsafe_blocks`);
//!   this rule additionally requires each `// SAFETY:` comment on an
//!   `unsafe` block or impl to cite at least one tagged invariant
//!   `[I<n>]` from the DESIGN.md §7.6 catalogue, so every proof
//!   obligation is traceable to a named, centrally documented invariant
//!   rather than a local plausibility argument.
//!
//! - **Rule D — fork-safety of the multiprocess bootstrap window**. A
//!   forked child inherits the parent's memory but only the forking
//!   thread survives, so a lock another thread held at `fork()` is held
//!   *forever* in the child — and the allocator's internal locks are the
//!   classic victim. The multiprocess backend therefore requires the
//!   window between `fork()` and worker-loop entry (invariant \[I15\]) to
//!   perform no heap allocation and take no lock. The window is exactly
//!   the bodies of functions named `mp_bootstrap*` plus their one-level
//!   callees, and this rule scans those bodies for allocating or
//!   locking constructs (`Box::new`, `vec!`, `format!`, `Mutex`,
//!   `.lock()`, `println!`, …). The dynamic half of the check is the
//!   counting-allocator regression test in `tests/mp_fork_safety.rs`;
//!   this rule is the static half, and also covers locks, which the
//!   allocation probe cannot see.
//!
//! The scanner masks out comments and string/char literals before
//! matching (so `unsafe` in a doc comment or `top` in a string never
//! fires), attributes lines to functions by brace matching, and builds
//! a one-level call map by function name. Known limits: function
//! extraction keys on `fn name` at code level (closures are attributed
//! to their enclosing function, which is the right scope for the TLS
//! rules), and the call map is name-based, not path-resolved — good
//! enough for a codebase this size, and false *negatives* from a missed
//! edge are backstopped by the runtime regression test in `uat-fiber`.

use std::fmt;
use std::path::{Path, PathBuf};

/// Function names whose call saves the caller's continuation and
/// transfers control off the current stack, so that the caller may
/// resume on a different OS thread (fiber suspension): the paper's
/// listing, and the two transfers both runtimes make. `resume_context`
/// / `switch_stack_and_call` save nothing — nobody comes back from them
/// — so they are deliberately not listed.
pub const CROSSING_MARKERS: &[&str] = &["save_context_and_call", "switch_to", "switch_to_fresh"];

/// Atomic methods whose call sites rule B inspects.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    pub file: PathBuf,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A1/A2: direct TLS access in a function that also suspends.
    TlsInCrossingFn,
    /// A4: an inlinable TLS helper reachable from a suspending function.
    TlsHelperInlinable,
    /// B: control-word atomic access outside the layout allowlist.
    OrderingAllowlist,
    /// C: SAFETY comment without a `[I<n>]` invariant reference.
    SafetyInvariantRef,
    /// D: allocation or lock inside the fork→worker-loop window (\[I15\]).
    ForkSafety,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::TlsInCrossingFn => "tls-in-crossing-fn",
            Rule::TlsHelperInlinable => "tls-helper-inlinable",
            Rule::OrderingAllowlist => "ordering-allowlist",
            Rule::SafetyInvariantRef => "safety-invariant-ref",
            Rule::ForkSafety => "fork-safety",
        }
    }
}

// ---------------------------------------------------------------------
// Source masking: classify every byte as code / comment / literal.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Code,
    Comment,
    Literal,
}

/// Byte-classify Rust source. Handles line + nested block comments,
/// string/char/byte literals (including `\"` escapes and raw strings
/// `r#"…"#`), which is the full set the scanned crates use. Lifetimes
/// (`'a`) are disambiguated from char literals by length-checking the
/// closing quote.
fn classify(src: &str) -> Vec<Class> {
    let b = src.as_bytes();
    let mut cls = vec![Class::Code; b.len()];
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    cls[i] = Class::Comment;
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 0;
                loop {
                    if i + 1 < b.len() && b[i] == b'/' && b[i + 1] == b'*' {
                        depth += 1;
                        cls[i] = Class::Comment;
                        cls[i + 1] = Class::Comment;
                        i += 2;
                    } else if i + 1 < b.len() && b[i] == b'*' && b[i + 1] == b'/' {
                        depth -= 1;
                        cls[i] = Class::Comment;
                        cls[i + 1] = Class::Comment;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else if i < b.len() {
                        cls[i] = Class::Comment;
                        i += 1;
                    } else {
                        break;
                    }
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Possible raw string r"…" / r#"…"#.
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    let close: Vec<u8> = std::iter::once(b'"')
                        .chain(std::iter::repeat_n(b'#', hashes))
                        .collect();
                    let mut k = j + 1;
                    while k < b.len() && !b[k..].starts_with(&close) {
                        k += 1;
                    }
                    let end = (k + close.len()).min(b.len());
                    for c in cls.iter_mut().take(end).skip(i) {
                        *c = Class::Literal;
                    }
                    i = end;
                } else {
                    i += 1;
                }
            }
            b'"' => {
                cls[i] = Class::Literal;
                i += 1;
                while i < b.len() {
                    cls[i] = Class::Literal;
                    if b[i] == b'\\' && i + 1 < b.len() {
                        cls[i + 1] = Class::Literal;
                        i += 2;
                    } else if b[i] == b'"' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal ('x', '\n', '\u{…}') vs lifetime ('a).
                let mut j = i + 1;
                if j < b.len() && b[j] == b'\\' {
                    j += 2;
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                } else if j < b.len() {
                    j += 1;
                }
                if j < b.len() && b[j] == b'\'' {
                    for c in cls.iter_mut().take(j + 1).skip(i) {
                        *c = Class::Literal;
                    }
                    i = j + 1;
                } else {
                    i += 1; // lifetime; leave as code
                }
            }
            _ => i += 1,
        }
    }
    cls
}

/// The source with comments and literals blanked to spaces: safe to
/// regex-scan for code tokens. Newlines survive so line numbers hold.
fn code_only(src: &str, cls: &[Class]) -> String {
    src.bytes()
        .zip(cls.iter())
        .map(|(c, k)| match (c, k) {
            (b'\n', _) => '\n',
            (c, Class::Code) => c as char,
            _ => ' ',
        })
        .collect()
}

fn line_of(src: &str, pos: usize) -> usize {
    src.as_bytes()[..pos]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// All positions where `word` occurs as a standalone identifier in
/// `code` (which must be comment/literal-blanked).
fn ident_positions(code: &str, word: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = code[from..].find(word) {
        let start = from + off;
        let end = start + word.len();
        let left_ok = start == 0 || !is_ident(b[start - 1]);
        let right_ok = end >= b.len() || !is_ident(b[end]);
        if left_ok && right_ok {
            out.push(start);
        }
        from = start + 1;
    }
    out
}

/// Whether `body` (comment/literal-blanked) calls `name`: the
/// identifier followed by `(`, or by a turbofish `::<…>` and then `(` —
/// the way generic code names its callees (`current::<P>()`).
fn calls(body: &str, name: &str) -> bool {
    ident_positions(body, name).iter().any(|&p| {
        let mut rest = body[p + name.len()..].trim_start();
        if let Some(args) = rest.strip_prefix("::<") {
            let mut depth = 1;
            let close = args.char_indices().find_map(|(i, c)| {
                depth += match c {
                    '<' => 1,
                    '>' => -1,
                    _ => 0,
                };
                (depth == 0).then_some(i + 1)
            });
            let Some(close) = close else { return false };
            rest = args[close..].trim_start();
        }
        rest.starts_with('(')
    })
}

// ---------------------------------------------------------------------
// Function extraction.
// ---------------------------------------------------------------------

struct Func {
    name: String,
    /// Body span in byte offsets (inclusive of braces).
    body: (usize, usize),
    inline_never: bool,
}

fn extract_functions(src: &str, code: &str) -> Vec<Func> {
    let b = code.as_bytes();
    let mut funcs = Vec::new();
    for pos in ident_positions(code, "fn") {
        // Name follows the keyword.
        let mut i = pos + 2;
        while i < b.len() && (b[i] as char).is_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < b.len() && is_ident(b[i]) {
            i += 1;
        }
        if i == name_start {
            continue; // `fn` in `impl Fn(...)`-like position
        }
        let name = code[name_start..i].to_string();
        // Find the body's opening brace at angle-bracket depth 0; a `;`
        // first means a declaration (trait method, extern block).
        let mut angle = 0i32;
        let mut open = None;
        while i < b.len() {
            match b[i] {
                b'<' => angle += 1,
                b'>' => angle -= 1,
                b';' if angle <= 0 => break,
                b'{' if angle <= 0 => {
                    open = Some(i);
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let Some(open) = open else { continue };
        // Matching close brace.
        let mut depth = 0i32;
        let mut close = None;
        for (j, &c) in b.iter().enumerate().skip(open) {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { continue };
        // Attributes: walk source lines directly above the `fn` line
        // (skipping doc comments) looking for #[inline(never)].
        let fn_line = line_of(code, pos);
        let mut inline_never = false;
        let lines: Vec<&str> = src.lines().collect();
        let mut l = fn_line.saturating_sub(2); // 0-based index of line above
        while let Some(text) = lines.get(l).map(|t| t.trim()) {
            if text.starts_with("#[") || text.starts_with("///") || text.starts_with("//") {
                // Only real attribute lines count — a comment *mentioning*
                // the attribute (e.g. "// BAD: no #[inline(never)]") must not.
                if text.starts_with("#[") && text.replace(' ', "").contains("#[inline(never)]") {
                    inline_never = true;
                }
                if l == 0 {
                    break;
                }
                l -= 1;
            } else {
                break;
            }
        }
        funcs.push(Func {
            name,
            body: (open, close),
            inline_never,
        });
    }
    funcs
}

/// Innermost function containing `pos` (functions nest via closures and
/// test modules; innermost is the scope the compiler inlines within).
fn enclosing(funcs: &[Func], pos: usize) -> Option<&Func> {
    funcs
        .iter()
        .filter(|f| f.body.0 <= pos && pos <= f.body.1)
        .min_by_key(|f| f.body.1 - f.body.0)
}

// ---------------------------------------------------------------------
// Per-file scan state shared by the rules.
// ---------------------------------------------------------------------

struct FileScan {
    path: PathBuf,
    src: String,
    code: String,
    funcs: Vec<Func>,
    /// Names declared inside `thread_local! { … }` in this file, with
    /// the macro span (accesses inside the declaration don't count).
    tls: Vec<(String, (usize, usize))>,
}

fn scan_file_state(path: &Path, src: String) -> FileScan {
    let cls = classify(&src);
    let code = code_only(&src, &cls);
    let funcs = extract_functions(&src, &code);
    let mut tls = Vec::new();
    for pos in ident_positions(&code, "thread_local") {
        let b = code.as_bytes();
        let Some(open_rel) = code[pos..].find('{') else {
            continue;
        };
        let open = pos + open_rel;
        let mut depth = 0i32;
        let mut close = open;
        for (j, &c) in b.iter().enumerate().skip(open) {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        for sp in ident_positions(&code[open..close], "static") {
            let after = &code[open + sp + 6..close];
            let name: String = after
                .chars()
                .skip_while(|c| c.is_whitespace())
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                tls.push((name, (pos, close)));
            }
        }
    }
    FileScan {
        path: path.to_path_buf(),
        src,
        code,
        funcs,
        tls,
    }
}

// ---------------------------------------------------------------------
// Rule A: TLS across suspension points.
// ---------------------------------------------------------------------

fn rule_tls(files: &[FileScan], findings: &mut Vec<Finding>) {
    // Global TLS name set (cross-file accesses are rare but cheap to
    // cover: `runtime::CURRENT` would still contain the ident).
    let tls_names: Vec<&str> = files
        .iter()
        .flat_map(|f| f.tls.iter().map(|(n, _)| n.as_str()))
        .collect();
    if tls_names.is_empty() {
        return;
    }

    // Per function: does it directly access TLS / directly suspend?
    struct Info<'a> {
        file: &'a FileScan,
        func: &'a Func,
        tls_access: Option<usize>,
        /// The [`CROSSING_MARKERS`] entry the body calls, if any.
        crossing: Option<&'static str>,
    }
    let mut infos: Vec<Info> = Vec::new();
    for file in files {
        for func in &file.funcs {
            let body = &file.code[func.body.0..func.body.1];
            let mut tls_access = None;
            for name in &tls_names {
                for p in ident_positions(body, name) {
                    let abs = func.body.0 + p;
                    // Skip the declaration span itself.
                    let in_decl = file
                        .tls
                        .iter()
                        .any(|(n, span)| n == name && span.0 <= abs && abs <= span.1);
                    // Skip positions inside *nested* functions (they get
                    // their own entry).
                    let innermost = enclosing(&file.funcs, abs)
                        .map(|f| std::ptr::eq(f, func))
                        .unwrap_or(false);
                    if !in_decl && innermost {
                        tls_access = Some(abs);
                        break;
                    }
                }
            }
            let crossing = CROSSING_MARKERS.iter().copied().find(|m| {
                ident_positions(body, m).iter().any(|&p| {
                    enclosing(&file.funcs, func.body.0 + p)
                        .map(|f| std::ptr::eq(f, func))
                        .unwrap_or(false)
                })
            });
            infos.push(Info {
                file,
                func,
                tls_access,
                crossing,
            });
        }
    }

    // A2: both in one body.
    for i in &infos {
        if let (Some(pos), Some(marker)) = (i.tls_access, i.crossing) {
            findings.push(Finding {
                rule: Rule::TlsInCrossingFn,
                file: i.file.path.clone(),
                line: line_of(&i.file.code, pos),
                message: format!(
                    "`{}` accesses a thread-local directly and also suspends \
                     (calls {}); the TLS address can be cached across the \
                     switch and the fiber may resume on another thread — \
                     route the access through an #[inline(never)] accessor",
                    i.func.name, marker,
                ),
            });
        }
    }

    // A4: inlinable TLS helper called from a crossing function.
    let crossing_bodies: Vec<(&FileScan, &Func)> = infos
        .iter()
        .filter(|i| i.crossing.is_some())
        .map(|i| (i.file, i.func))
        .collect();
    for i in &infos {
        let Some(pos) = i.tls_access else { continue };
        if i.func.inline_never || i.crossing.is_some() {
            continue; // crossing case already reported above
        }
        let called_by: Vec<&str> = crossing_bodies
            .iter()
            .filter(|(file, cf)| calls(&file.code[cf.body.0..cf.body.1], &i.func.name))
            .map(|(_, cf)| cf.name.as_str())
            .collect();
        if !called_by.is_empty() {
            findings.push(Finding {
                rule: Rule::TlsHelperInlinable,
                file: i.file.path.clone(),
                line: line_of(&i.file.code, pos),
                message: format!(
                    "`{}` accesses a thread-local and is called from \
                     suspension-crossing {:?} but is not #[inline(never)]; \
                     inlining would cache the TLS address across the switch",
                    i.func.name, called_by,
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule B: THE-word ordering allowlist.
// ---------------------------------------------------------------------

fn allowed_orderings(field: &str, op: &str) -> Option<&'static [&'static str]> {
    // compare_exchange_weak shares compare_exchange's row.
    let op = if op == "compare_exchange_weak" {
        "compare_exchange"
    } else {
        op
    };
    uat_deque::layout::ORDERING_ALLOWLIST
        .iter()
        .find(|(f, o, _)| *f == field && *o == op)
        .map(|(_, _, a)| *a)
}

/// Rule B over both forms of a THE-word access: an atomic method on the
/// word's field (`w.top.load(Ordering::Acquire)`), and a placement op
/// (`uat_deque::Placement`) that names its word — `load(mem, Word::Top,
/// Ordering::Acquire)`, `store(…, Word::Bottom, b, Ordering::Release)`,
/// `put(…, Word::Top, t, Ordering::SeqCst)` — or reads both ends,
/// `fetch_ends(…, Ordering::Relaxed, Ordering::SeqCst)` (top's load, then
/// bottom's).
fn rule_ordering(files: &[FileScan], findings: &mut Vec<Finding>) {
    let fields: std::collections::BTreeSet<&str> = uat_deque::layout::ORDERING_ALLOWLIST
        .iter()
        .map(|(f, _, _)| *f)
        .collect();
    let ident = |c: &u8| is_ident(*c);
    for file in files {
        let code = &file.code;
        for method in ATOMIC_METHODS.iter().chain(&["put", "fetch_ends"]) {
            for pos in ident_positions(code, method) {
                // A method call, `recv.method(args)`.
                let Some(recv) = code[..pos].strip_suffix('.') else {
                    continue;
                };
                let recv = recv.trim_end();
                let open = pos + method.len();
                if !code[open..].starts_with('(') {
                    continue;
                }
                let mut depth = 0;
                let Some(close) = code[open..].find(|c| {
                    depth += (c == '(') as i32 - (c == ')') as i32;
                    depth == 0
                }) else {
                    continue;
                };
                let args = &code[open..open + close];
                // The word: the receiver's field, both ends, or the
                // `Word::X` argument.
                let field_len = recv.bytes().rev().take_while(ident).count();
                let field = &recv[recv.len() - field_len..];
                let word = args.find("Word::").map(|w| {
                    let name = &args[w + "Word::".len()..];
                    name[..name.bytes().take_while(ident).count()].to_lowercase()
                });
                let words: Vec<String> =
                    if fields.contains(field) && recv[..recv.len() - field_len].ends_with('.') {
                        vec![field.to_string(); 2]
                    } else if *method == "fetch_ends" {
                        vec!["top".into(), "bottom".into()]
                    } else if let Some(word) = word.filter(|w| fields.contains(w.as_str())) {
                        vec![word; 2]
                    } else {
                        continue;
                    };
                let op = match *method {
                    "put" => "store",
                    "fetch_ends" => "load",
                    m => m,
                };
                let ords = args.split("Ordering::").skip(1);
                for (field, ord) in words.iter().zip(ords) {
                    let ord = &ord[..ord.bytes().take_while(ident).count()];
                    let allowed = allowed_orderings(field, op);
                    if allowed.is_some_and(|a| a.contains(&ord)) {
                        continue;
                    }
                    findings.push(Finding {
                        rule: Rule::OrderingAllowlist,
                        file: file.path.clone(),
                        line: line_of(code, pos),
                        message: format!(
                            "`{field}.{op}` with Ordering::{ord} is not in the \
                             layout allowlist ({}); if intentional, prove it with \
                             `uat_check --memory-model ra` and extend \
                             uat_deque::layout::ORDERING_ALLOWLIST",
                            allowed
                                .map(|a| a.join("/"))
                                .unwrap_or_else(|| "no entry for this op".into()),
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule C: SAFETY comments must cite a §7.6 invariant tag.
// ---------------------------------------------------------------------

fn has_invariant_tag(text: &str) -> bool {
    let b = text.as_bytes();
    for p in 0..b.len().saturating_sub(3) {
        if b[p] == b'[' && b[p + 1] == b'I' && b[p + 2].is_ascii_digit() {
            let mut q = p + 3;
            while q < b.len() && b[q].is_ascii_digit() {
                q += 1;
            }
            if q < b.len() && b[q] == b']' {
                return true;
            }
        }
    }
    false
}

fn rule_safety(files: &[FileScan], findings: &mut Vec<Finding>) {
    for file in files {
        let code = &file.code;
        let src_lines: Vec<&str> = file.src.lines().collect();
        for pos in ident_positions(code, "unsafe") {
            let rest = code[pos + "unsafe".len()..].trim_start();
            // Only block/impl forms carry SAFETY comments (an `unsafe
            // fn`'s contract lives in its doc; extern blocks have none).
            if !(rest.starts_with('{') || rest.starts_with("impl")) {
                continue;
            }
            let line = line_of(code, pos);
            // Contiguous comment block directly above (attributes may
            // sit between for impls).
            let mut l = line.saturating_sub(2); // 0-based line above
            let mut comment = String::new();
            while let Some(text) = src_lines.get(l).map(|t| t.trim()) {
                if text.starts_with("//") {
                    comment.push_str(text);
                    comment.push('\n');
                } else if !(text.starts_with("#[") || text.starts_with("#![")) {
                    break;
                }
                if l == 0 {
                    break;
                }
                l -= 1;
            }
            if !comment.contains("SAFETY") {
                findings.push(Finding {
                    rule: Rule::SafetyInvariantRef,
                    file: file.path.clone(),
                    line,
                    message: "unsafe without a `// SAFETY:` comment directly above".into(),
                });
            } else if !has_invariant_tag(&comment) {
                findings.push(Finding {
                    rule: Rule::SafetyInvariantRef,
                    file: file.path.clone(),
                    line,
                    message: "SAFETY comment cites no invariant tag [I<n>] \
                              from the DESIGN.md §7.6 catalogue"
                        .into(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule D: fork-safety of the multiprocess bootstrap window.
// ---------------------------------------------------------------------

/// Constructs banned inside the fork→worker-loop window, with the
/// hazard each one carries. Substring patterns with punctuation match
/// literally; bare identifiers match at ident boundaries.
const FORK_BANNED: &[(&str, &str)] = &[
    ("Box::new", "heap allocation"),
    ("vec!", "heap allocation"),
    ("Vec::new", "heap allocation"),
    ("Vec::with_capacity", "heap allocation"),
    ("format!", "heap allocation"),
    ("String::from", "heap allocation"),
    (".to_string(", "heap allocation"),
    (".to_vec(", "heap allocation"),
    (".to_owned(", "heap allocation"),
    (
        "Mutex",
        "pthread lock — may be held forever by a thread that did not survive fork",
    ),
    (
        "RwLock",
        "pthread lock — may be held forever by a thread that did not survive fork",
    ),
    (".lock()", "lock acquisition"),
    ("println!", "stdio lock and possible allocation"),
    ("eprintln!", "stdio lock and possible allocation"),
];

/// Positions where `pat` occurs in `code`. Pure-ident patterns are
/// matched at ident boundaries; patterns with punctuation are matched
/// as literal substrings.
fn banned_positions(code: &str, pat: &str) -> Vec<usize> {
    if pat.bytes().all(is_ident) {
        return ident_positions(code, pat);
    }
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = code[from..].find(pat) {
        out.push(from + off);
        from = from + off + 1;
    }
    out
}

fn rule_fork_safety(files: &[FileScan], findings: &mut Vec<Finding>) {
    // Roots: every function named `mp_bootstrap*` — the code that runs
    // between fork() and worker-loop entry ([I15]).
    let roots: Vec<(&FileScan, &Func)> = files
        .iter()
        .flat_map(|f| {
            f.funcs
                .iter()
                .filter(|fun| fun.name.starts_with("mp_bootstrap"))
                .map(move |fun| (f, fun))
        })
        .collect();
    if roots.is_empty() {
        return;
    }

    // One-level callees: functions *defined in the scanned set* whose
    // name a root body calls. Name-based resolution, so skip ambiguous
    // names (two definitions — `new`, `default`, …): a false edge to
    // the wrong body would fire on code outside the window.
    let mut def_count = std::collections::BTreeMap::<&str, usize>::new();
    for f in files {
        for fun in &f.funcs {
            *def_count.entry(fun.name.as_str()).or_insert(0) += 1;
        }
    }
    // (file, func, how-it-is-in-the-window)
    let mut window: Vec<(&FileScan, &Func, String)> = roots
        .iter()
        .map(|&(f, fun)| (f, fun, "runs in the bootstrap window".to_string()))
        .collect();
    for &(rf, root) in &roots {
        let body = &rf.code[root.body.0..root.body.1];
        for file in files {
            for fun in &file.funcs {
                if fun.name.starts_with("mp_bootstrap") || def_count[fun.name.as_str()] != 1 {
                    continue;
                }
                if calls(body, &fun.name) {
                    window.push((file, fun, format!("is called from `{}`", root.name)));
                }
            }
        }
    }

    for (file, fun, how) in window {
        let body = &file.code[fun.body.0..fun.body.1];
        for (pat, why) in FORK_BANNED {
            for p in banned_positions(body, pat) {
                let abs = fun.body.0 + p;
                // Nested functions get their own entry only if they are
                // themselves in the window; a closure stays attributed
                // here, which is the scope that executes in the window.
                let innermost = enclosing(&file.funcs, abs)
                    .map(|f| std::ptr::eq(f, fun))
                    .unwrap_or(false);
                if !innermost {
                    continue;
                }
                findings.push(Finding {
                    rule: Rule::ForkSafety,
                    file: file.path.clone(),
                    line: line_of(&file.code, abs),
                    message: format!(
                        "`{}` {how} (fork→worker-loop, [I15]) but contains \
                         `{pat}` ({why}); a forked child inherits locks held \
                         by threads that no longer exist, so this window must \
                         not allocate or lock",
                        fun.name,
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------

/// Which rule families to run (rule C only applies to the crates with
/// `unsafe`; running it over fixture directories is the tests' business).
#[derive(Clone, Copy)]
pub struct RuleSet {
    pub tls: bool,
    pub ordering: bool,
    pub safety: bool,
    pub fork_safety: bool,
}

impl RuleSet {
    pub fn all() -> Self {
        RuleSet {
            tls: true,
            ordering: true,
            safety: true,
            fork_safety: true,
        }
    }
}

/// Lint in-memory sources (used by the fixture tests).
pub fn lint_sources(sources: &[(&Path, &str)], rules: RuleSet) -> Vec<Finding> {
    let files: Vec<FileScan> = sources
        .iter()
        .map(|(p, s)| scan_file_state(p, (*s).to_string()))
        .collect();
    let mut findings = Vec::new();
    if rules.tls {
        rule_tls(&files, &mut findings);
    }
    if rules.ordering {
        rule_ordering(&files, &mut findings);
    }
    if rules.safety {
        rule_safety(&files, &mut findings);
    }
    if rules.fork_safety {
        rule_fork_safety(&files, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Recursively collect `.rs` files under each path (a file path is
/// taken as-is), lint them all as one unit (the TLS call map is built
/// across the whole set), and return the findings.
pub fn lint_paths(paths: &[PathBuf], rules: RuleSet) -> std::io::Result<Vec<Finding>> {
    let mut rs_files = Vec::new();
    for p in paths {
        collect_rs(p, &mut rs_files)?;
    }
    rs_files.sort();
    let mut loaded = Vec::new();
    for f in &rs_files {
        loaded.push((f.clone(), std::fs::read_to_string(f)?));
    }
    let refs: Vec<(&Path, &str)> = loaded
        .iter()
        .map(|(p, s)| (p.as_path(), s.as_str()))
        .collect();
    Ok(lint_sources(&refs, rules))
}

fn collect_rs(p: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if p.is_dir() {
        for entry in std::fs::read_dir(p)? {
            collect_rs(&entry?.path(), out)?;
        }
    } else if p.extension().is_some_and(|e| e == "rs") {
        out.push(p.to_path_buf());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn lint_one(src: &str, rules: RuleSet) -> Vec<Finding> {
        lint_sources(&[(Path::new("t.rs"), src)], rules)
    }

    #[test]
    fn masking_ignores_comments_and_strings() {
        let src = r#"
// unsafe { } in a comment
fn f() { let s = "unsafe { tricky }"; let c = '"'; }
"#;
        assert!(lint_one(src, RuleSet::all()).is_empty());
    }

    #[test]
    fn tls_in_crossing_fn_is_flagged() {
        let src = r#"
thread_local! { static CURRENT: usize = 0; }
fn suspends() {
    let x = CURRENT.with(|c| *c);
    save_context_and_call(p, f, a);
    use_it(x);
}
"#;
        // Whichever routine saves the continuation, and named.
        for marker in CROSSING_MARKERS {
            let f = lint_one(
                &src.replace("save_context_and_call", marker),
                RuleSet::all(),
            );
            assert_eq!(f.len(), 1, "{marker}: {f:?}");
            assert_eq!(f[0].rule, Rule::TlsInCrossingFn);
            assert_eq!(f[0].line, 4);
            assert!(f[0].message.contains(&format!("(calls {marker})")), "{f:?}");
        }
    }

    #[test]
    fn inline_never_accessor_passes_and_inlinable_is_flagged() {
        let good = r#"
thread_local! { static CURRENT: usize = 0; }
#[inline(never)]
fn current() -> usize { CURRENT.with(|c| *c) }
fn suspends() { let x = current(); save_context_and_call(p, f, a); use_it(x); }
"#;
        for marker in CROSSING_MARKERS {
            let good = good.replace("save_context_and_call", marker);
            assert!(lint_one(&good, RuleSet::all()).is_empty(), "{marker}");

            let bad = good.replace("#[inline(never)]\n", "");
            let f = lint_one(&bad, RuleSet::all());
            assert_eq!(f.len(), 1, "{marker}: {f:?}");
            assert_eq!(f[0].rule, Rule::TlsHelperInlinable);
        }
    }

    #[test]
    fn a_turbofish_call_is_a_call() {
        let body =
            "let w = current::<P>(); spawn_on::<P, Vec<u8>, _>(jb, 0, f); current; x.current(); ";
        assert!(calls(body, "current"));
        assert!(calls(body, "spawn_on"));
        assert!(!calls("current::<P>; let c = current;", "current"));
        // An inlinable accessor is flagged through a generic caller too.
        let src = r#"
thread_local! { static CURRENT: usize = 0; }
fn current<P>() -> usize { CURRENT.with(|c| *c) }
fn suspends<P>() { let x = current::<P>(); switch_to(p, t); use_it(x); }
"#;
        let f = lint_one(src, RuleSet::all());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::TlsHelperInlinable);
    }

    #[test]
    fn tls_access_without_suspension_passes() {
        // worker_loop-style: direct TLS use on the worker's own stack,
        // no suspension primitive in the body.
        let src = r#"
thread_local! { static CURRENT: usize = 0; }
fn worker_loop() { CURRENT.with(|c| *c); resume_context(p); }
"#;
        assert!(lint_one(src, RuleSet::all()).is_empty());
    }

    #[test]
    fn disallowed_ordering_is_flagged_and_allowed_passes() {
        let src = r#"
fn f(d: &D) {
    d.top.store(1, Ordering::SeqCst);
    d.bottom.store(2, Ordering::Release);
}
"#;
        assert!(lint_one(src, RuleSet::all()).is_empty());
        let bad = src.replace("Ordering::Release", "Ordering::Relaxed");
        // bottom.store Relaxed is allowed (locked take) — use top instead.
        assert!(lint_one(&bad, RuleSet::all()).is_empty());
        let worse = src.replace(
            "d.top.store(1, Ordering::SeqCst)",
            "d.top.store(1, Ordering::Release)",
        );
        let f = lint_one(&worse, RuleSet::all());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::OrderingAllowlist);
        assert!(f[0].message.contains("top.store"));
    }

    #[test]
    fn placement_ops_are_checked_by_the_word_they_name() {
        // The deque body's form: the word is an argument.
        let src = r#"
fn f(s: &S, mem: &mut M) {
    let t = s.load(mem, Word::Top, Ordering::Acquire);
    s.store(mem, Word::Bottom, t, Ordering::Release);
    s.put(mem, by, at, Word::Top, t + 1, Ordering::SeqCst);
    s.fetch_ends(mem, by, at, Ordering::Relaxed, Ordering::SeqCst);
    w.lock
        .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed);
}
"#;
        assert!(lint_one(src, RuleSet::all()).is_empty());
        for (good, bad, access) in [
            (
                "Word::Top, t + 1, Ordering::SeqCst",
                "Word::Top, t + 1, Ordering::Relaxed",
                "top.store",
            ),
            (
                "Word::Bottom, t, Ordering::Release",
                "Word::Bottom, t, Ordering::AcqRel",
                "bottom.store",
            ),
            (
                "Ordering::Relaxed, Ordering::SeqCst",
                "Ordering::Relaxed, Ordering::Release",
                "bottom.load",
            ),
            // A field access split across lines is still one.
            (
                "Ordering::Acquire, Ordering::Relaxed",
                "Ordering::Release, Ordering::Relaxed",
                "lock.compare_exchange",
            ),
        ] {
            let f = lint_one(&src.replace(good, bad), RuleSet::all());
            assert_eq!(f.len(), 1, "{bad}: {f:?}");
            assert_eq!(f[0].rule, Rule::OrderingAllowlist);
            assert!(f[0].message.contains(&format!("`{access}`")), "{f:?}");
        }
    }

    #[test]
    fn cas_failure_ordering_is_checked_too() {
        let src = r#"
fn f(d: &D) {
    d.lock.compare_exchange(0, 1, Ordering::Acquire, Ordering::SeqCst).ok();
}
"#;
        let f = lint_one(src, RuleSet::all());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SeqCst"));
    }

    #[test]
    fn safety_tag_required() {
        let tagged = r#"
fn f() {
    // SAFETY: [I1] the slot is unpublished.
    unsafe { g() };
}
"#;
        assert!(lint_one(tagged, RuleSet::all()).is_empty());
        let untagged = tagged.replace("[I1] ", "");
        let f = lint_one(&untagged, RuleSet::all());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::SafetyInvariantRef);
        let undocumented = "fn f() {\n    unsafe { g() };\n}\n";
        let f = lint_one(undocumented, RuleSet::all());
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("without"));
    }

    #[test]
    fn fork_safety_flags_bootstrap_and_one_level_callees() {
        let src = r#"
fn helper(n: usize) -> usize { let v = Vec::with_capacity(n); v.len() }
fn mp_bootstrap_x(n: usize) {
    let b = Box::new(n);
    helper(n);
    enter_loop();
}
fn unrelated() { let s = String::from("fine outside the window"); }
"#;
        let f = lint_one(src, RuleSet::all());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::ForkSafety));
        assert!(f.iter().any(|x| x
            .message
            .contains("`mp_bootstrap_x` runs in the bootstrap window")
            && x.message.contains("Box::new")));
        assert!(f.iter().any(|x| x
            .message
            .contains("`helper` is called from `mp_bootstrap_x`")
            && x.message.contains("Vec::with_capacity")));
    }

    #[test]
    fn fork_safety_skips_ambiguous_callee_names_and_locks_are_banned() {
        let src = r#"
struct A; impl A { fn new() -> A { let _ = vec![1]; A } }
struct B; impl B { fn new() -> B { B } }
fn mp_bootstrap_y(m: &M) {
    let a = new();
    let local = std::sync::Mutex::new(0u32);
    let g = m.lock();
}
"#;
        let f = lint_one(src, RuleSet::all());
        // `new` is ambiguous (two defs) so its vec! is NOT attributed to
        // the window; Mutex + .lock() in the root body both fire.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("Mutex")));
        assert!(f.iter().any(|x| x.message.contains(".lock()")));
    }

    #[test]
    fn fork_safety_quiet_without_bootstrap_fns() {
        let src = "fn f() { let v = vec![1, 2]; let s = format!(\"x\"); }\n";
        assert!(lint_one(src, RuleSet::all()).is_empty());
    }

    #[test]
    fn unsafe_impl_with_tagged_safety_passes() {
        let src = r#"
// SAFETY: [I4] the lock serializes all access.
unsafe impl Sync for D {}
"#;
        assert!(lint_one(src, RuleSet::all()).is_empty());
    }
}
