//! The workspace symbol/reference graph the cross-file concurrency rules
//! walk.
//!
//! Built from the same blanked, line-oriented scan the per-line rules use
//! (no `syn`, no AST): a token walk over every file extracts each
//! function, the ordered *events* inside its body — lock acquisitions,
//! atomic operations, wall-clock reads, thread/channel creations and
//! calls to other functions — and enough structure (brace depth, `let`
//! bindings, `drop()` calls) for [`crate::lockorder`] to replay guard
//! lifetimes. Call sites are then resolved heuristically: same file
//! first, then same crate, then a unique workspace-wide match, always
//! filtered by the crate dependency edges parsed from `crates/*/
//! Cargo.toml` — a callee in a crate the caller cannot even name is
//! never linked. Unresolvable calls (std, closures, trait objects) stay
//! unresolved, which keeps every rule built on the graph
//! under-approximate: it may miss, it does not invent edges.
//!
//! Lock and atomic identity is `Container::field` (the enclosing `impl`
//! type, or the file stem for free functions), with all-caps statics kept
//! global (`REF_CACHE`). Two locks with the same canonical name are
//! treated as one lock *class*: per-shard instances of
//! `Shard::queue` intentionally collapse, which is exactly the
//! granularity lock-order discipline is defined at.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use minijson::{Map, Value};

use crate::lexer::ScannedFile;
use crate::LintConfig;

/// An unresolved reference to a callee, as written at the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallRef {
    /// Last path segment — the function name.
    pub name: String,
    /// Preceding `::` path segments (`Shard::new` → `["Shard"]`),
    /// empty for bare and method calls.
    pub qual: Vec<String>,
    /// Whether the call was a method call (`x.f(…)`).
    pub method: bool,
    /// For method calls: the receiver path segments (`self.queue` →
    /// `["self", "queue"]`); empty when the receiver is opaque (a call
    /// result, an index expression, …).
    pub receiver: Vec<String>,
}

/// One ordered event inside a function body.
#[derive(Debug, Clone)]
pub enum Event {
    /// A primitive lock acquisition (`….lock()`, empty-arg `.read()` /
    /// `.write()` on what the walker canonicalizes to `lock`).
    Lock {
        /// 1-based source line.
        line: u32,
        /// Canonical lock class name.
        lock: String,
        /// The guard's `let` binding, when the statement binds it — a
        /// bound guard is held until `drop()` or end of block.
        binding: Option<String>,
        /// Brace depth (within the function) at the acquisition.
        depth: u32,
    },
    /// A call to something that may itself acquire locks / read clocks.
    Call {
        /// 1-based source line.
        line: u32,
        /// What was called, as written.
        callee: CallRef,
        /// The `let` binding of the call's result, if any (matters when
        /// the callee returns a guard).
        binding: Option<String>,
        /// Brace depth at the call.
        depth: u32,
    },
    /// An atomic operation with explicit orderings.
    Atomic {
        /// 1-based source line.
        line: u32,
        /// Canonical atomic name (`Container::field`).
        atomic: String,
        /// The method: `load`, `store`, `fetch_add`, ….
        op: String,
        /// Every `Ordering::X` named in the call, in argument order.
        orderings: Vec<String>,
    },
    /// A wall-clock read (`Instant::now` / `SystemTime::now`).
    Clock {
        /// 1-based source line.
        line: u32,
        /// `Instant` or `SystemTime`.
        source: String,
        /// Whether an inline `wall-clock` waiver audits this site — a
        /// waived site is a taint *stop*, not a taint source.
        waived: bool,
    },
    /// A thread spawn site (`thread::spawn`, `scope.spawn`).
    Spawn {
        /// 1-based source line.
        line: u32,
    },
    /// A channel creation site (`mpsc::channel`, `sync_channel`).
    Channel {
        /// 1-based source line.
        line: u32,
        /// `channel` or `sync_channel`.
        kind: String,
    },
    /// An explicit `drop(x)` of a bound variable.
    DropVar {
        /// The dropped binding.
        name: String,
    },
    /// A brace closed: bindings opened at depths greater than `depth`
    /// are dead.
    Close {
        /// The depth after the close.
        depth: u32,
    },
}

/// One function (or method) extracted from the scan.
#[derive(Debug)]
pub struct FunctionNode {
    /// Workspace-relative file path.
    pub file: String,
    /// Crate directory name (`gpusim`, `serve`, …; `suite` for the
    /// root-level facade tree).
    pub crate_name: String,
    /// Enclosing `impl` self type, if any.
    pub container: Option<String>,
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the function lives in a test region or test-context file.
    pub in_test: bool,
    /// Whether the signature returns a lock guard (`MutexGuard`,
    /// `RwLock*Guard`) — calls to it are acquisitions of
    /// [`FunctionNode::guard_lock`].
    pub returns_guard: bool,
    /// The lock class a guard-returning helper acquires (its first
    /// direct [`Event::Lock`]).
    pub guard_lock: Option<String>,
    /// Ordered body events.
    pub events: Vec<Event>,
}

/// The resolved workspace graph.
pub struct ConcGraph {
    /// Every extracted function.
    pub functions: Vec<FunctionNode>,
    /// `functions` index by bare name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Crate dir → crate dirs it may call into (reflexive).
    crate_deps: BTreeMap<String, BTreeSet<String>>,
}

/// Rust keywords and control words that look like calls but are not.
fn is_keyword(id: &str) -> bool {
    matches!(
        id,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "in"
            | "as"
            | "loop"
            | "move"
            | "else"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "pub"
            | "use"
            | "mod"
            | "where"
            | "unsafe"
            | "ref"
            | "fn"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "union"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "dyn"
            | "box"
            | "await"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
            | "Box"
            | "Vec"
            | "String"
            | "Arc"
            | "Rc"
            | "Cell"
            | "RefCell"
            | "Default"
            | "drop"
    )
}

/// Atomic RMW / access method names that take an `Ordering`.
fn is_atomic_op(id: &str) -> bool {
    matches!(
        id,
        "load"
            | "store"
            | "swap"
            | "fetch_add"
            | "fetch_sub"
            | "fetch_and"
            | "fetch_or"
            | "fetch_xor"
            | "fetch_max"
            | "fetch_min"
            | "fetch_update"
            | "compare_exchange"
            | "compare_exchange_weak"
    )
}

/// Walks `.`-separated receiver segments backwards from byte `pos`
/// (exclusive). Stops at anything that is not `ident.ident.…` — an index
/// `]`, a call `)`, an operator — returning what was collected (possibly
/// empty for an opaque receiver).
fn receiver_before(code: &str, pos: usize) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut segs: Vec<String> = Vec::new();
    let mut i = pos;
    loop {
        // Expect a `.` then an identifier before it.
        while i > 0 && (bytes[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        if i == 0 || bytes[i - 1] as char != '.' {
            break;
        }
        i -= 1; // consume '.'
        while i > 0 && (bytes[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        let end = i;
        while i > 0 {
            let c = bytes[i - 1] as char;
            if c.is_ascii_alphanumeric() || c == '_' {
                i -= 1;
            } else {
                break;
            }
        }
        if i == end {
            // Opaque segment (index/call result); receiver unknowable
            // past this point — keep what we have.
            break;
        }
        segs.push(code[i..end].to_owned());
    }
    segs.reverse();
    segs
}

/// Walks `::`-separated qualifier segments backwards from byte `pos`.
fn qualifier_before(code: &str, pos: usize) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut segs: Vec<String> = Vec::new();
    let mut i = pos;
    loop {
        while i > 0 && (bytes[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        if i < 2 || &code[i - 2..i] != "::" {
            break;
        }
        i -= 2;
        // Skip a turbofish / generic argument list: `BTreeMap::<…>::new`.
        while i > 0 && (bytes[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        if i > 0 && bytes[i - 1] as char == '>' {
            let mut angle = 0i32;
            while i > 0 {
                match bytes[i - 1] as char {
                    '>' => angle += 1,
                    '<' => angle -= 1,
                    _ => {}
                }
                i -= 1;
                if angle == 0 {
                    break;
                }
            }
        }
        let end = i;
        while i > 0 {
            let c = bytes[i - 1] as char;
            if c.is_ascii_alphanumeric() || c == '_' {
                i -= 1;
            } else {
                break;
            }
        }
        if i == end {
            break;
        }
        segs.push(code[i..end].to_owned());
    }
    segs.reverse();
    segs
}

/// Does `::now` follow the identifier ending at `end`?
fn followed_by_now(code: &str, end: usize) -> bool {
    let rest: String = code[end..].chars().filter(|c| !c.is_whitespace()).collect();
    rest.starts_with("::now")
}

/// The first non-space char strictly before byte `pos`.
fn char_before(code: &str, pos: usize) -> Option<char> {
    code[..pos].chars().rev().find(|c| !c.is_whitespace())
}

/// The first non-space char at or after byte `pos`.
fn char_after(code: &str, pos: usize) -> Option<char> {
    code[pos..].chars().find(|c| !c.is_whitespace())
}

/// Identifier occurrences in a line: `(byte_offset, ident)`.
fn idents(code: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() {
                let c = bytes[i] as char;
                if c.is_ascii_alphanumeric() || c == '_' {
                    i += 1;
                } else {
                    break;
                }
            }
            out.push((start, code[start..i].to_owned()));
        } else {
            i += 1;
        }
    }
    out
}

/// `Ordering::X` names appearing at or after byte `pos` on the line.
fn orderings_after(code: &str, pos: usize) -> Vec<String> {
    let mut out = Vec::new();
    let tail = &code[pos..];
    let mut search = 0;
    while let Some(found) = tail[search..].find("Ordering") {
        let at = search + found + "Ordering".len();
        let rest: String = tail[at..].chars().filter(|c| !c.is_whitespace()).collect();
        if let Some(name) = rest.strip_prefix("::") {
            let ord: String = name
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !ord.is_empty() {
                out.push(ord);
            }
        }
        search = at;
    }
    out
}

/// The `let` binding a call/lock at byte `pos` flows into, if the line
/// reads `let [mut] <ident> = … <site> …`.
fn let_binding_before(code: &str, pos: usize) -> Option<String> {
    let head = &code[..pos];
    let eq = head.rfind('=')?;
    // Reject `==`, `<=`, `+=` … : the char before `=` must not be an
    // operator and the char after must not be `=`.
    if head[eq + 1..].starts_with('=') {
        return None;
    }
    let before_eq = head[..eq].trim_end();
    if before_eq.ends_with(['=', '<', '>', '+', '-', '*', '/', '!', '&', '|']) {
        return None;
    }
    let mut toks: Vec<&str> = before_eq.split_whitespace().collect();
    let name = toks.pop()?;
    if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    if toks.last().copied() == Some("mut") {
        toks.pop();
    }
    (toks.last().copied() == Some("let")).then(|| name.to_owned())
}

/// Whether `file.waivers` carries a well-formed waiver for `rule`
/// covering `line` (its own line or the one above).
fn waived_at(file: &ScannedFile, rule: &str, line: u32) -> bool {
    file.waivers.iter().any(|w| {
        (line == w.line || line == w.line + 1)
            && w.reason.is_some()
            && w.rules.iter().any(|r| r == rule)
    })
}

/// Canonicalizes a lock/atomic receiver into a class name.
///
/// `self.queue` in `impl Shard` → `Shard::queue`; a bare local (`state`)
/// in `impl ServerState` → `ServerState::state`; an all-caps static
/// (`REF_CACHE`) stays global; an opaque receiver yields `None`.
fn canonical_target(
    receiver: &[String],
    container: Option<&str>,
    file_stem: &str,
) -> Option<String> {
    let segs: Vec<&String> = receiver.iter().filter(|s| *s != "self").collect();
    let last = segs.last()?;
    if last
        .chars()
        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
    {
        return Some((*last).clone());
    }
    let scope = container.unwrap_or(file_stem);
    Some(format!("{scope}::{last}"))
}

/// The crate directory name a workspace-relative path belongs to.
/// Root-level `src/`, `tests/`, `examples/` map to the facade crate
/// `suite`, which may call anything.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_owned();
        }
    }
    "suite".to_owned()
}

/// Context-stack entry kinds for the extraction walker.
enum Ctx {
    Impl(String),
    Fn(usize),
    Other,
}

/// Extracts every function and its events from one scanned file.
fn extract_file(
    rel: &str,
    scanned: &ScannedFile,
    file_test_context: bool,
    out: &mut Vec<FunctionNode>,
) {
    let crate_name = crate_of(rel);
    let file_stem = Path::new(rel)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();

    let mut stack: Vec<Ctx> = Vec::new();
    let mut depth: u32 = 0;
    // A pending item waiting for its `{`.
    enum Pending {
        Fn {
            name: String,
            line: u32,
            sig: String,
        },
        Impl {
            header: String,
        },
        None,
    }
    let mut pending = Pending::None;
    let mut prev_ident: Option<String> = None;

    for (idx, line) in scanned.lines.iter().enumerate() {
        let lineno = idx as u32 + 1;
        // Accumulate signature / impl-header text while pending.
        match &mut pending {
            Pending::Fn { sig, .. } => {
                sig.push(' ');
                sig.push_str(&line.code);
            }
            Pending::Impl { header } => {
                header.push(' ');
                header.push_str(&line.code);
            }
            Pending::None => {}
        }

        let toks = idents(&line.code);
        let mut ti = 0;
        let code = &line.code;
        // Char walk interleaving idents and braces so depth is exact.
        let chars: Vec<char> = code.chars().collect();
        let mut ci = 0;
        while ci < chars.len() {
            // An identifier starting here?
            if ti < toks.len() && toks[ti].0 == ci {
                let (pos, ident) = (&toks[ti].0, toks[ti].1.clone());
                let pos = *pos;
                let end = pos + ident.len();
                ti += 1;
                ci = end;

                // Item starts.
                if prev_ident.as_deref() == Some("fn") {
                    pending = Pending::Fn {
                        name: ident.clone(),
                        line: lineno,
                        sig: code[end..].to_owned(),
                    };
                    prev_ident = Some(ident);
                    continue;
                }
                if ident == "impl" {
                    pending = Pending::Impl {
                        header: code[end..].to_owned(),
                    };
                    prev_ident = Some(ident);
                    continue;
                }

                // Body events: only inside a function.
                let fn_idx = stack.iter().rev().find_map(|c| match c {
                    Ctx::Fn(i) => Some(*i),
                    _ => None,
                });
                if let Some(fi) = fn_idx {
                    let container = stack.iter().rev().find_map(|c| match c {
                        Ctx::Impl(t) => Some(t.as_str()),
                        _ => None,
                    });
                    let is_call = char_after(code, end) == Some('(');
                    let is_macro = char_after(code, end) == Some('!');
                    let after_dot = char_before(code, pos) == Some('.');

                    if is_macro {
                        // Macros never become events.
                    } else if (ident == "Instant" || ident == "SystemTime")
                        && followed_by_now(code, end)
                    {
                        let waived = waived_at(scanned, crate::rules::WALL_CLOCK, lineno);
                        out[fi].events.push(Event::Clock {
                            line: lineno,
                            source: ident.clone(),
                            waived,
                        });
                    } else if ident == "drop" && is_call {
                        // `drop(x)` releases x.
                        let rest = &code[end..];
                        let inner: String = rest
                            .chars()
                            .skip_while(|c| *c != '(')
                            .skip(1)
                            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                            .collect();
                        if !inner.is_empty() {
                            out[fi].events.push(Event::DropVar { name: inner });
                        }
                    } else if ident == "spawn"
                        && is_call
                        && matches!(char_before(code, pos), Some('.' | ':'))
                    {
                        out[fi].events.push(Event::Spawn { line: lineno });
                    } else if (ident == "channel" || ident == "sync_channel")
                        && char_before(code, pos) == Some(':')
                        && matches!(char_after(code, end), Some('(' | ':'))
                    {
                        out[fi].events.push(Event::Channel {
                            line: lineno,
                            kind: ident.clone(),
                        });
                    } else if is_call && after_dot {
                        let receiver = receiver_before(code, pos);
                        let rel_depth = depth;
                        if ident == "lock"
                            || ((ident == "read" || ident == "write")
                                && code[end..]
                                    .chars()
                                    .filter(|c| !c.is_whitespace())
                                    .take(2)
                                    .collect::<String>()
                                    == "()")
                        {
                            // `self.lock(…)` is a helper call; a receiver
                            // with a field/static is a primitive site.
                            let target = canonical_target(&receiver, container, &file_stem);
                            if receiver == ["self"] || receiver.is_empty() {
                                out[fi].events.push(Event::Call {
                                    line: lineno,
                                    callee: CallRef {
                                        name: ident.clone(),
                                        qual: Vec::new(),
                                        method: true,
                                        receiver,
                                    },
                                    binding: let_binding_before(code, pos),
                                    depth: rel_depth,
                                });
                            } else if let Some(lock) = target {
                                out[fi].events.push(Event::Lock {
                                    line: lineno,
                                    lock,
                                    binding: let_binding_before(code, pos),
                                    depth: rel_depth,
                                });
                            }
                        } else if is_atomic_op(&ident) {
                            let ords = orderings_after(code, end);
                            if !ords.is_empty() {
                                if let Some(atomic) =
                                    canonical_target(&receiver, container, &file_stem)
                                {
                                    out[fi].events.push(Event::Atomic {
                                        line: lineno,
                                        atomic,
                                        op: ident.clone(),
                                        orderings: ords,
                                    });
                                }
                            }
                        } else if ident == "wait" || ident == "notify_one" || ident == "notify_all"
                        {
                            // Condvar traffic: neutral for ordering.
                        } else if !is_keyword(&ident) {
                            out[fi].events.push(Event::Call {
                                line: lineno,
                                callee: CallRef {
                                    name: ident.clone(),
                                    qual: Vec::new(),
                                    method: true,
                                    receiver,
                                },
                                binding: let_binding_before(code, pos),
                                depth: rel_depth,
                            });
                        }
                    } else if is_call && !is_keyword(&ident) {
                        let qual = qualifier_before(code, pos);
                        out[fi].events.push(Event::Call {
                            line: lineno,
                            callee: CallRef {
                                name: ident.clone(),
                                qual,
                                method: false,
                                receiver: Vec::new(),
                            },
                            binding: let_binding_before(code, pos),
                            depth,
                        });
                    }
                }
                prev_ident = Some(ident);
                continue;
            }
            let c = chars[ci];
            match c {
                '{' => {
                    let ctx = match std::mem::replace(&mut pending, Pending::None) {
                        Pending::Fn { name, line, sig } => {
                            let sig_head = sig.split('{').next().unwrap_or("");
                            let returns_guard = sig_head.contains("MutexGuard")
                                || sig_head.contains("RwLockReadGuard")
                                || sig_head.contains("RwLockWriteGuard")
                                || sig_head.contains("SeamGuard");
                            let container = stack.iter().rev().find_map(|c| match c {
                                Ctx::Impl(t) => Some(t.clone()),
                                _ => None,
                            });
                            out.push(FunctionNode {
                                file: rel.to_owned(),
                                crate_name: crate_name.clone(),
                                container,
                                name,
                                line,
                                in_test: file_test_context
                                    || scanned.lines[(line as usize).saturating_sub(1)].in_test,
                                returns_guard,
                                guard_lock: None,
                                events: Vec::new(),
                            });
                            Ctx::Fn(out.len() - 1)
                        }
                        Pending::Impl { header } => {
                            Ctx::Impl(impl_self_type(&header).unwrap_or_default())
                        }
                        Pending::None => Ctx::Other,
                    };
                    stack.push(ctx);
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    stack.pop();
                    // Tell the innermost enclosing fn a scope closed.
                    if let Some(fi) = stack.iter().rev().find_map(|c| match c {
                        Ctx::Fn(i) => Some(*i),
                        _ => None,
                    }) {
                        out[fi].events.push(Event::Close { depth });
                    }
                }
                // A braceless pending item (trait method sig, unit
                // struct) dies here.
                ';' if matches!(pending, Pending::Fn { .. } | Pending::Impl { .. })
                    && !matches!(char_after(code, ci + 1), Some('{')) =>
                {
                    pending = Pending::None;
                }
                _ => {}
            }
            ci += 1;
        }
    }

    // Derive guard locks for guard-returning helpers.
    for f in out.iter_mut().filter(|f| f.file == rel && f.returns_guard) {
        f.guard_lock = f.events.iter().find_map(|e| match e {
            Event::Lock { lock, .. } => Some(lock.clone()),
            _ => None,
        });
    }
}

/// Extracts the self type from an `impl` header (the text after the
/// `impl` keyword, up to the body brace): `Hooks for NullHooks` →
/// `NullHooks`, `<H: Hooks> Foo<H>` → `Foo`.
fn impl_self_type(header: &str) -> Option<String> {
    let head = header.split('{').next().unwrap_or(header);
    // Strip a leading generic parameter list.
    let mut rest = head.trim_start();
    if rest.starts_with('<') {
        let mut angle = 0i32;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => angle += 1,
                '>' => {
                    angle -= 1;
                    if angle == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &rest[cut..];
    }
    // `Trait for Type` → the Type side; otherwise the first ident.
    let side = match rest.find(" for ") {
        Some(i) => &rest[i + 5..],
        None => rest,
    };
    let name: String = side
        .trim_start_matches(|c: char| !(c.is_ascii_alphabetic() || c == '_'))
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

impl ConcGraph {
    /// Builds the graph from the full file scan. `kind_of` comes from the
    /// config so test-context files are marked; crate dependency edges
    /// are parsed from `crates/*/Cargo.toml` under `root` (missing
    /// manifests degrade to allow-all, never to a hard error).
    pub fn build(config: &LintConfig, scanned: &BTreeMap<String, ScannedFile>) -> ConcGraph {
        let mut functions = Vec::new();
        for (rel, file) in scanned {
            let test_context = rel
                .split('/')
                .any(|c| matches!(c, "tests" | "benches" | "examples" | "fixtures"));
            extract_file(rel, file, test_context, &mut functions);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in functions.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let crate_deps = parse_crate_deps(&config.root);
        ConcGraph {
            functions,
            by_name,
            crate_deps,
        }
    }

    /// Whether crate `from` may reference crate `to`.
    fn crate_visible(&self, from: &str, to: &str) -> bool {
        if from == to || from == "suite" {
            return true;
        }
        match self.crate_deps.get(from) {
            Some(deps) => deps.contains(to),
            // No manifest information: stay permissive.
            None => true,
        }
    }

    /// Resolves a call site made from `caller` to a function index, or
    /// `None` for std / closures / ambiguity. Preference order: an
    /// explicit `Type::f` qualifier matches containers anywhere visible;
    /// otherwise same file, then same crate, then a unique workspace
    /// match.
    pub fn resolve(&self, caller: usize, callee: &CallRef) -> Option<usize> {
        let from = &self.functions[caller];
        let cands = self.by_name.get(&callee.name)?;
        let visible: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| i != caller)
            .filter(|&i| self.crate_visible(&from.crate_name, &self.functions[i].crate_name))
            .collect();
        if visible.is_empty() {
            return None;
        }
        // Qualified: `Shard::push` → container match.
        if let Some(q) = callee.qual.last() {
            let by_container: Vec<usize> = visible
                .iter()
                .copied()
                .filter(|&i| self.functions[i].container.as_deref() == Some(q))
                .collect();
            if by_container.len() == 1 {
                return Some(by_container[0]);
            }
            if by_container.len() > 1 {
                // Prefer same file among equal containers.
                return by_container
                    .iter()
                    .copied()
                    .find(|&i| self.functions[i].file == from.file)
                    .or(Some(by_container[0]));
            }
            return None;
        }
        // Method on an explicit `self` receiver: same container first.
        if callee.method && callee.receiver.first().map(String::as_str) == Some("self") {
            let same_container: Vec<usize> = visible
                .iter()
                .copied()
                .filter(|&i| {
                    self.functions[i].container.is_some()
                        && self.functions[i].container == from.container
                })
                .collect();
            if same_container.len() == 1 {
                return Some(same_container[0]);
            }
        }
        // Same file, then same crate, then unique global.
        let same_file: Vec<usize> = visible
            .iter()
            .copied()
            .filter(|&i| self.functions[i].file == from.file)
            .collect();
        if same_file.len() == 1 {
            return Some(same_file[0]);
        }
        if same_file.len() > 1 {
            return None;
        }
        let same_crate: Vec<usize> = visible
            .iter()
            .copied()
            .filter(|&i| self.functions[i].crate_name == from.crate_name)
            .collect();
        if same_crate.len() == 1 {
            return Some(same_crate[0]);
        }
        if same_crate.len() > 1 {
            return None;
        }
        (visible.len() == 1).then(|| visible[0])
    }

    /// Per-function *transitive* lock-acquisition sets (lock class
    /// names), computed by fixpoint over resolved calls. Guard-returning
    /// helpers contribute their guard lock.
    pub fn transitive_acquires(&self) -> Vec<BTreeSet<String>> {
        let mut acq: Vec<BTreeSet<String>> = self
            .functions
            .iter()
            .map(|f| {
                let mut s = BTreeSet::new();
                for e in &f.events {
                    if let Event::Lock { lock, .. } = e {
                        s.insert(lock.clone());
                    }
                }
                s
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..self.functions.len() {
                let mut add: Vec<String> = Vec::new();
                for e in &self.functions[i].events {
                    if let Event::Call { callee, .. } = e {
                        if let Some(j) = self.resolve(i, callee) {
                            add.extend(acq[j].iter().cloned());
                            if let Some(g) = &self.functions[j].guard_lock {
                                add.push(g.clone());
                            }
                        }
                    }
                }
                for a in add {
                    changed |= acq[i].insert(a);
                }
            }
            if !changed {
                break;
            }
        }
        acq
    }

    /// The `zatel-concmap-v1` document: every spawn site, channel, lock
    /// class, atomic and wall-clock read in non-test code, with audit
    /// status. Deterministically ordered.
    pub fn to_concmap_json(&self, config: &LintConfig) -> Value {
        let mut spawns = Vec::new();
        let mut channels = Vec::new();
        let mut locks: BTreeMap<String, Vec<Value>> = BTreeMap::new();
        let mut atomics: BTreeMap<String, (Vec<Value>, bool, bool)> = BTreeMap::new();
        let mut clocks = Vec::new();
        for f in self.functions.iter().filter(|f| !f.in_test) {
            let site = |line: u32| {
                let mut m = Map::new();
                m.insert("file".to_owned(), Value::from(f.file.as_str()));
                m.insert("line".to_owned(), Value::from(line));
                m.insert("function".to_owned(), Value::from(f.name.as_str()));
                Value::Object(m)
            };
            for e in &f.events {
                match e {
                    Event::Spawn { line } => spawns.push(site(*line)),
                    Event::Channel { line, kind } => {
                        let mut m = Map::new();
                        m.insert("file".to_owned(), Value::from(f.file.as_str()));
                        m.insert("line".to_owned(), Value::from(*line));
                        m.insert("function".to_owned(), Value::from(f.name.as_str()));
                        m.insert("kind".to_owned(), Value::from(kind.as_str()));
                        channels.push(Value::Object(m));
                    }
                    Event::Lock { line, lock, .. } => {
                        locks.entry(lock.clone()).or_default().push(site(*line));
                    }
                    Event::Atomic {
                        line,
                        atomic,
                        op,
                        orderings,
                    } => {
                        let mut m = Map::new();
                        m.insert("file".to_owned(), Value::from(f.file.as_str()));
                        m.insert("line".to_owned(), Value::from(*line));
                        m.insert("op".to_owned(), Value::from(op.as_str()));
                        m.insert(
                            "orderings".to_owned(),
                            Value::Array(
                                orderings.iter().map(|o| Value::from(o.as_str())).collect(),
                            ),
                        );
                        let entry = atomics.entry(atomic.clone()).or_default();
                        entry.0.push(Value::Object(m));
                        let relaxed = orderings.iter().any(|o| o == "Relaxed");
                        entry.1 |= relaxed;
                        entry.2 |= relaxed
                            && config
                                .atomics_allow
                                .iter()
                                .any(|a| crate::atomics::allowance_covers(atomic, &f.file, a));
                    }
                    Event::Clock {
                        line,
                        source,
                        waived,
                    } => {
                        let mut m = Map::new();
                        m.insert("file".to_owned(), Value::from(f.file.as_str()));
                        m.insert("line".to_owned(), Value::from(*line));
                        m.insert("function".to_owned(), Value::from(f.name.as_str()));
                        m.insert("source".to_owned(), Value::from(source.as_str()));
                        m.insert("audited_waiver".to_owned(), Value::from(*waived));
                        clocks.push(Value::Object(m));
                    }
                    _ => {}
                }
            }
        }
        let mut doc = Map::new();
        doc.insert("format".to_owned(), Value::from("zatel-concmap-v1"));
        doc.insert("spawn_sites".to_owned(), Value::Array(spawns));
        doc.insert("channels".to_owned(), Value::Array(channels));
        doc.insert(
            "locks".to_owned(),
            Value::Array(
                locks
                    .into_iter()
                    .map(|(id, sites)| {
                        let mut m = Map::new();
                        m.insert("id".to_owned(), Value::from(id.as_str()));
                        m.insert("sites".to_owned(), Value::Array(sites));
                        Value::Object(m)
                    })
                    .collect(),
            ),
        );
        doc.insert(
            "atomics".to_owned(),
            Value::Array(
                atomics
                    .into_iter()
                    .map(|(id, (sites, any_relaxed, allowlisted))| {
                        let mut m = Map::new();
                        m.insert("id".to_owned(), Value::from(id.as_str()));
                        let audit = if !any_relaxed {
                            "ordered"
                        } else if allowlisted {
                            "relaxed-allowlisted"
                        } else {
                            "relaxed-unaudited"
                        };
                        m.insert("audit".to_owned(), Value::from(audit));
                        m.insert("sites".to_owned(), Value::Array(sites));
                        Value::Object(m)
                    })
                    .collect(),
            ),
        );
        doc.insert("wall_clocks".to_owned(), Value::Array(clocks));
        Value::Object(doc)
    }
}

/// Parses the crate dependency edges from `crates/*/Cargo.toml`. A crate
/// depends on another when its manifest names the workspace dependency
/// key (`zatel-gpusim`, plain `zatel`, `minijson`, …).
fn parse_crate_deps(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut out = BTreeMap::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return out;
    };
    let dirs: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    for dir in &dirs {
        let Ok(manifest) = std::fs::read_to_string(crates_dir.join(dir).join("Cargo.toml")) else {
            continue;
        };
        let mut deps = BTreeSet::new();
        for other in &dirs {
            if other == dir {
                continue;
            }
            let key = match other.as_str() {
                "zatel" => "zatel".to_owned(),
                "minijson" => "minijson".to_owned(),
                o => format!("zatel-{o}"),
            };
            let named = manifest.lines().any(|l| {
                let l = l.trim_start();
                l.starts_with(&format!("{key}.workspace"))
                    || l.starts_with(&format!("{key} ="))
                    || l.starts_with(&format!("{key}="))
            });
            if named {
                deps.insert(other.clone());
            }
        }
        out.insert(dir.clone(), deps);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn graph_of(files: &[(&str, &str)]) -> ConcGraph {
        let scanned: BTreeMap<String, ScannedFile> = files
            .iter()
            .map(|(n, s)| ((*n).to_owned(), scan(s)))
            .collect();
        let config = crate::LintConfig {
            root: std::path::PathBuf::from("/nonexistent"),
            scan_dirs: vec![],
            result_affecting: vec![],
            thread_watch: vec![],
            unsafe_allow: vec![],
            thread_allow: vec![],
            obs_ban: vec![],
            obs_allow: vec![],
            atomics_allow: vec![],
            seam: None,
        };
        ConcGraph::build(&config, &scanned)
    }

    #[test]
    fn extracts_functions_with_containers() {
        let g = graph_of(&[(
            "a.rs",
            "impl Shard {\n    fn push(&self) {}\n}\nfn free() {}\n",
        )]);
        let names: Vec<(Option<&str>, &str)> = g
            .functions
            .iter()
            .map(|f| (f.container.as_deref(), f.name.as_str()))
            .collect();
        assert_eq!(names, vec![(Some("Shard"), "push"), (None, "free")]);
    }

    #[test]
    fn impl_self_type_handles_generics_and_for() {
        assert_eq!(impl_self_type("Shard {"), Some("Shard".to_owned()));
        assert_eq!(
            impl_self_type("<H: Hooks> Hooks for Option<H> {"),
            Some("Option".to_owned())
        );
        assert_eq!(
            impl_self_type("Drop for AbortOnPanic<'_> {"),
            Some("AbortOnPanic".to_owned())
        );
    }

    #[test]
    fn lock_sites_canonicalize_and_track_bindings() {
        let g = graph_of(&[(
            "a.rs",
            "impl Shard {\n    fn go(&self) {\n        let mut q = self.queue.lock().unwrap();\n        q.push(1);\n        drop(q);\n    }\n}\n",
        )]);
        let f = &g.functions[0];
        let locks: Vec<(&str, Option<&str>)> = f
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Lock { lock, binding, .. } => Some((lock.as_str(), binding.as_deref())),
                _ => None,
            })
            .collect();
        assert_eq!(locks, vec![("Shard::queue", Some("q"))]);
        assert!(f
            .events
            .iter()
            .any(|e| matches!(e, Event::DropVar { name } if name == "q")));
    }

    #[test]
    fn all_caps_statics_stay_global() {
        let g = graph_of(&[(
            "b.rs",
            "fn f() {\n    REF_CACHE.lock().unwrap().insert(1);\n}\n",
        )]);
        assert!(g.functions[0]
            .events
            .iter()
            .any(|e| matches!(e, Event::Lock { lock, .. } if lock == "REF_CACHE")));
    }

    #[test]
    fn guard_returning_helper_is_detected() {
        let g = graph_of(&[(
            "r.rs",
            "impl Router {\n    fn lock(&self) -> MutexGuard<'_, State> {\n        self.state.lock().unwrap()\n    }\n    fn take(&self) {\n        let s = self.lock();\n        let _ = s;\n    }\n}\n",
        )]);
        let helper = &g.functions[0];
        assert!(helper.returns_guard);
        assert_eq!(helper.guard_lock.as_deref(), Some("Router::state"));
        let take = &g.functions[1];
        let call = take
            .events
            .iter()
            .find_map(|e| match e {
                Event::Call {
                    callee, binding, ..
                } if callee.name == "lock" => Some((callee.clone(), binding.clone())),
                _ => None,
            })
            .expect("helper call recorded");
        assert_eq!(call.0.receiver, vec!["self".to_owned()]);
        assert_eq!(call.1.as_deref(), Some("s"));
        let resolved = g.resolve(1, &call.0).expect("resolves to helper");
        assert_eq!(g.functions[resolved].name, "lock");
    }

    #[test]
    fn atomics_capture_orderings() {
        let g = graph_of(&[(
            "a.rs",
            "impl C {\n    fn bump(&self) {\n        self.hits.fetch_add(1, Ordering::Relaxed);\n        self.flag.store(true, Ordering::SeqCst);\n    }\n}\n",
        )]);
        let atomics: Vec<(&str, &str, Vec<&str>)> = g.functions[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Atomic {
                    atomic,
                    op,
                    orderings,
                    ..
                } => Some((
                    atomic.as_str(),
                    op.as_str(),
                    orderings.iter().map(String::as_str).collect(),
                )),
                _ => None,
            })
            .collect();
        assert_eq!(
            atomics,
            vec![
                ("C::hits", "fetch_add", vec!["Relaxed"]),
                ("C::flag", "store", vec!["SeqCst"]),
            ]
        );
    }

    #[test]
    fn clock_sites_mark_waivers() {
        let src = "fn a() {\n    let t = std::time::Instant::now();\n}\nfn b() {\n    // zatel-lint: allow(wall-clock, reason = \"audited telemetry\")\n    let t = std::time::Instant::now();\n}\n";
        let g = graph_of(&[("c.rs", src)]);
        let clocks: Vec<bool> = g
            .functions
            .iter()
            .flat_map(|f| &f.events)
            .filter_map(|e| match e {
                Event::Clock { waived, .. } => Some(*waived),
                _ => None,
            })
            .collect();
        assert_eq!(clocks, vec![false, true]);
    }

    #[test]
    fn transitive_acquires_propagate_through_calls() {
        let g = graph_of(&[(
            "a.rs",
            "fn low() {\n    M.lock().unwrap();\n}\nfn high() {\n    low();\n}\n",
        )]);
        let acq = g.transitive_acquires();
        assert!(acq[1].contains("M"), "{acq:?}");
    }

    #[test]
    fn resolution_prefers_same_file_and_respects_visibility() {
        let g = graph_of(&[
            (
                "crates/a/src/x.rs",
                "fn helper() {}\nfn caller() { helper(); }\n",
            ),
            ("crates/b/src/y.rs", "fn helper() {}\n"),
        ]);
        let caller = g
            .functions
            .iter()
            .position(|f| f.name == "caller")
            .expect("caller");
        let call = CallRef {
            name: "helper".to_owned(),
            qual: vec![],
            method: false,
            receiver: vec![],
        };
        let r = g.resolve(caller, &call).expect("resolved");
        assert_eq!(g.functions[r].file, "crates/a/src/x.rs");
    }
}
