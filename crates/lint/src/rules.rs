//! The determinism rules.
//!
//! Each rule walks one file's token stream (comments and test items already
//! removed) and returns [`Finding`]s. The rules are deliberately heuristic —
//! this is a linter, not a compiler — but every heuristic is pinned by the
//! fixture corpus in `tests/fixtures/`, so a behaviour change is a visible
//! test diff, never a silent drift.

use std::collections::BTreeSet;

use crate::lexer::{TokKind, Token};

/// Rule id: HashMap/HashSet iteration in a deterministic crate.
pub const NO_HASH_ITER: &str = "no-hash-iter";
/// Rule id: wall-clock reads outside the telemetry allowlist.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// Rule id: nondeterministic std surface (`sleep`, `process::id`,
/// `RandomState`, env reads).
pub const NO_NONDET_STD: &str = "no-nondeterministic-std";
/// Rule id: deep-cloning a frame outside the corruption seam.
pub const NO_FRAME_DEEP_CLONE: &str = "no-frame-deep-clone";
/// Rule id: `Vec::new()`/`vec![]` inside a per-event hot-path handler.
pub const HOT_PATH_VEC_NEW: &str = "hot-path-vec-new";
/// Rule id: RNG label extraction / registry problems.
pub const RNG_LABEL_REGISTRY: &str = "rng-label-registry";
/// Meta rule id: malformed, unknown-rule, or unused waivers.
pub const WAIVER: &str = "waiver";

/// Every real (waivable-in-principle) rule id, for waiver validation.
pub const RULES: &[&str] = &[
    NO_HASH_ITER,
    NO_WALL_CLOCK,
    NO_NONDET_STD,
    NO_FRAME_DEEP_CLONE,
    HOT_PATH_VEC_NEW,
    RNG_LABEL_REGISTRY,
];

/// One lint finding at a source location.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired (one of the `pub const` ids above).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// The waiver reason, when an inline waiver suppressed this finding.
    pub waive_reason: Option<String>,
}

impl Finding {
    /// A fresh, unwaived finding.
    pub fn new(rule: &'static str, file: &str, line: u32, message: String) -> Finding {
        Finding { rule, file: file.to_string(), line, message, waive_reason: None }
    }
}

/// Is `tokens[i..]` the two-character path separator `::`?
fn path_sep(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
}

/// Methods whose call on a hash collection observes its (randomised,
/// allocation-dependent) iteration order.
const ORDER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Collects identifiers bound to one of `types` in this file, from type
/// annotations (`name: [path::]Type<…>` — struct fields, lets, fn params,
/// struct-literal fields) and constructor assignments
/// (`name = [path::]Type::new()` and friends).
fn typed_names(tokens: &[Token], types: &[&str]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.kind == TokKind::Ident && types.contains(&t.text.as_str())) {
            continue;
        }
        // Walk left across a `seg::seg::` path prefix.
        let mut j = i;
        while j >= 3 && path_sep(tokens, j - 2) && tokens[j - 3].kind == TokKind::Ident {
            j -= 3;
        }
        // …and across `&` / `&mut` in front of the type.
        let mut k = j;
        while k >= 1 && (tokens[k - 1].is_punct('&') || tokens[k - 1].is_ident("mut")) {
            k -= 1;
        }
        // `name : Type` (single colon — a double colon is a path, handled
        // by the walk above).
        if k >= 2
            && tokens[k - 1].is_punct(':')
            && !(k >= 3 && tokens[k - 2].is_punct(':'))
            && tokens[k - 2].kind == TokKind::Ident
        {
            names.insert(tokens[k - 2].text.clone());
        }
        // `name = HashMap::new()` — the binding carries no annotation.
        if j >= 2 && tokens[j - 1].is_punct('=') && tokens[j - 2].kind == TokKind::Ident {
            names.insert(tokens[j - 2].text.clone());
        }
    }
    names
}

/// `no-hash-iter`: flags order-observing method calls and `for … in` loops
/// over identifiers bound to `HashMap`/`HashSet` in this file. Keyed access
/// (`get`/`insert`/`remove`/`entry`/`contains_key`) is deliberately allowed:
/// the contract forbids observing the randomised order, not the collection.
pub fn no_hash_iter(tokens: &[Token], file: &str) -> Vec<Finding> {
    let tracked = typed_names(tokens, &["HashMap", "HashSet"]);
    if tracked.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        // `name.iter()` / `self.name.drain(..)` — the receiver is the ident
        // right before the dot.
        if tokens[i].is_punct('.')
            && i >= 1
            && tokens[i - 1].kind == TokKind::Ident
            && tracked.contains(&tokens[i - 1].text)
            && tokens.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident && ORDER_METHODS.contains(&t.text.as_str())
            })
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            let recv = &tokens[i - 1].text;
            let method = &tokens[i + 1].text;
            out.push(Finding::new(
                NO_HASH_ITER,
                file,
                tokens[i + 1].line,
                format!(
                    "`{recv}.{method}()` observes HashMap/HashSet iteration order, which is \
                     randomised per process — use a BTreeMap/BTreeSet, a dense Vec table, or \
                     collect-and-sort"
                ),
            ));
        }
        if tokens[i].is_ident("for") {
            if let Some(f) = for_loop_over_tracked(tokens, i, &tracked, file) {
                out.push(f);
            }
        }
    }
    out
}

/// Checks the `for … in <expr> {` starting at the `for` token at `i` and
/// returns a finding when `<expr>` is a plain (borrowed) reference to a
/// tracked hash collection. Expressions with calls or indexing are left to
/// the method check.
fn for_loop_over_tracked(
    tokens: &[Token],
    i: usize,
    tracked: &BTreeSet<String>,
    file: &str,
) -> Option<Finding> {
    // Find the loop's `in` at bracket depth 0 (the pattern may contain
    // tuples: `for (k, v) in …`), giving up at the body brace. `impl X for
    // Y` has no `in` and is skipped naturally.
    let mut depth = 0i32;
    let mut j = i + 1;
    let in_idx = loop {
        let t = tokens.get(j)?;
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') | TokKind::Punct(';') => return None,
            TokKind::Ident if depth == 0 && t.text == "in" => break j,
            _ => {}
        }
        j += 1;
    };
    let body = (in_idx + 1..tokens.len()).find(|&k| tokens[k].is_punct('{'))?;
    let expr = &tokens[in_idx + 1..body];
    // Plain reference shapes only: `[&][mut] [self.]name`.
    let simple = expr
        .iter()
        .all(|t| matches!(t.kind, TokKind::Ident | TokKind::Punct('&') | TokKind::Punct('.')));
    if !simple || expr.is_empty() {
        return None;
    }
    let name = expr.iter().rev().find(|t| t.kind == TokKind::Ident)?;
    if !tracked.contains(&name.text) {
        return None;
    }
    Some(Finding::new(
        NO_HASH_ITER,
        file,
        tokens[i].line,
        format!(
            "`for … in {}{}` iterates a HashMap/HashSet, whose order is randomised per \
             process — use a BTreeMap/BTreeSet, a dense Vec table, or collect-and-sort",
            if expr.iter().any(|t| t.is_punct('&')) { "&" } else { "" },
            name.text
        ),
    ))
}

/// `no-wall-clock`: flags `Instant::now` and any mention of `SystemTime`.
/// Simulated time comes from the event clock; wall-clock reads belong only
/// to the telemetry layer (exec, experiment binaries, devtools).
pub fn no_wall_clock(tokens: &[Token], file: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("Instant")
            && path_sep(tokens, i + 1)
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(Finding::new(
                NO_WALL_CLOCK,
                file,
                t.line,
                "`Instant::now()` reads the wall clock — simulated components must take time \
                 from the event clock; telemetry belongs in wmn_exec"
                    .to_string(),
            ));
        }
        if t.is_ident("SystemTime") {
            out.push(Finding::new(
                NO_WALL_CLOCK,
                file,
                t.line,
                "`SystemTime` is wall-clock state — nothing in a simulated run may depend on \
                 when it was executed"
                    .to_string(),
            ));
        }
    }
    out
}

/// Environment readers under `std::env` that make a run depend on ambient
/// process state.
const ENV_READERS: &[&str] = &["var", "var_os", "vars", "vars_os"];

/// `no-nondeterministic-std`: flags `thread::sleep`, `process::id`,
/// `RandomState`, and `env::var`-family reads. Env reads inside a function
/// named `from_env` are exempt — that is the repo's designated config
/// boundary (`ExpConfig::from_env`), and funnelling every ambient read
/// through it is exactly what this rule enforces.
pub fn no_nondet_std(tokens: &[Token], file: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    // Enclosing-function tracking for the `from_env` exemption: remember,
    // per open brace, whether it is the body of a fn named `from_env`.
    let mut pending_fn: Option<String> = None;
    let mut brace_is_from_env: Vec<bool> = Vec::new();
    let mut from_env_depth = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokKind::Ident if t.text == "fn" => {
                if let Some(name) = tokens.get(i + 1) {
                    if name.kind == TokKind::Ident {
                        pending_fn = Some(name.text.clone());
                    }
                }
            }
            TokKind::Punct(';') => pending_fn = None,
            TokKind::Punct('{') => {
                let is_from_env = pending_fn.take().as_deref() == Some("from_env");
                brace_is_from_env.push(is_from_env);
                from_env_depth += usize::from(is_from_env);
            }
            TokKind::Punct('}') => {
                if let Some(was) = brace_is_from_env.pop() {
                    from_env_depth -= usize::from(was);
                }
            }
            _ => {}
        }

        if t.is_ident("thread")
            && path_sep(tokens, i + 1)
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("sleep"))
        {
            out.push(Finding::new(
                NO_NONDET_STD,
                file,
                t.line,
                "`thread::sleep` injects wall-clock timing into the run — simulated delays \
                 must be event-queue timers"
                    .to_string(),
            ));
        }
        if t.is_ident("process")
            && path_sep(tokens, i + 1)
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("id"))
        {
            out.push(Finding::new(
                NO_NONDET_STD,
                file,
                t.line,
                "`process::id()` differs every run — nothing result-bearing may incorporate it"
                    .to_string(),
            ));
        }
        if t.is_ident("RandomState") {
            out.push(Finding::new(
                NO_NONDET_STD,
                file,
                t.line,
                "`RandomState` is the randomised hasher behind HashMap — deterministic code \
                 must not name it, let alone seed containers with it"
                    .to_string(),
            ));
        }
        if t.is_ident("env")
            && path_sep(tokens, i + 1)
            && tokens
                .get(i + 3)
                .is_some_and(|t| t.kind == TokKind::Ident && ENV_READERS.contains(&t.text.as_str()))
            && from_env_depth == 0
        {
            out.push(Finding::new(
                NO_NONDET_STD,
                file,
                t.line,
                format!(
                    "`env::{}` reads ambient process state — route configuration through \
                     `ExpConfig::from_env` (the one sanctioned boundary) instead",
                    tokens[i + 3].text
                ),
            ));
        }
    }
    out
}

/// Is `tokens[i..]` the shape `.name(` for one of `names`? Returns the
/// matched method name.
fn dot_call<'t>(tokens: &'t [Token], i: usize, names: &[&str]) -> Option<&'t str> {
    if !tokens[i].is_punct('.') {
        return None;
    }
    let m = tokens.get(i + 1)?;
    if m.kind == TokKind::Ident
        && names.contains(&m.text.as_str())
        && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
    {
        Some(&m.text)
    } else {
        None
    }
}

/// The frame types whose `.clone()` deep-copies payload state. `Packet` is
/// deliberately absent: its clone is a header copy plus an `Arc` refcount
/// bump on the pooled body — the sanctioned cheap fan-out — and `Arc<Frame>`
/// handles never match the binding shapes below, so refcount bumps are
/// never flagged either.
const FRAME_TYPES: &[&str] = &["Frame", "DataFrame", "AckFrame", "Subframe", "RxFrame"];

/// Identifiers bound to a frame type: the annotation/constructor shapes of
/// [`typed_names`], plus single-ident variant patterns `Frame::Data(x)` /
/// `Frame::Ack(x)` — the shape the engine uses to name a received frame's
/// payload in match arms and if-lets.
fn frame_bound_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = typed_names(tokens, FRAME_TYPES);
    for i in 0..tokens.len() {
        if tokens[i].is_ident("Frame")
            && path_sep(tokens, i + 1)
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("Data") || t.is_ident("Ack"))
            && tokens.get(i + 4).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 5).is_some_and(|t| t.kind == TokKind::Ident)
            && tokens.get(i + 6).is_some_and(|t| t.is_punct(')'))
        {
            names.insert(tokens[i + 5].text.clone());
        }
    }
    names
}

/// `no-frame-deep-clone` (deterministic crates only): flags `.clone()` on a
/// binding typed as a frame (`Frame`/`DataFrame`/`AckFrame`/`Subframe`/
/// `RxFrame`). The zero-copy receive path shares one broadcast allocation
/// by `Arc` across every receiver; a deep frame clone anywhere else defeats
/// it silently — throughput sags but every test stays green. The one
/// legitimate copy is the corruption seam (`stack/decode.rs`), which is
/// waived inline. Field access through a frame binding (`sf.packet.clone()`)
/// is not flagged: `Packet` clones are shallow by design.
pub fn no_frame_deep_clone(tokens: &[Token], file: &str) -> Vec<Finding> {
    let tracked = frame_bound_names(tokens);
    if tracked.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if dot_call(tokens, i, &["clone"]).is_some()
            && i >= 1
            && tokens[i - 1].kind == TokKind::Ident
            && tracked.contains(&tokens[i - 1].text)
        {
            let recv = &tokens[i - 1].text;
            out.push(Finding::new(
                NO_FRAME_DEEP_CLONE,
                file,
                tokens[i + 1].line,
                format!(
                    "`{recv}.clone()` deep-copies a frame — receivers share the broadcast \
                     allocation by `Arc` (`RxFrame::Shared`); only the corruption seam in \
                     `stack/decode.rs` may copy, under an inline waiver"
                ),
            ));
        }
    }
    out
}

/// Function names that run once per dispatched event: the `MacEntity` trait
/// handlers (the shared `wmn_mac::csma` core names its per-event entry
/// points after the handlers they serve, so its inherent methods are
/// covered too), that core's transmit/acknowledge steps, plus the station
/// stack's per-event handlers — everything reachable from one dispatch
/// step. Setup fns (`build`, `new`) and result collection are deliberately
/// absent: pre-sizing at construction time is the sanctioned place to
/// allocate.
const HOT_HANDLERS: &[&str] = &[
    // MacEntity trait surface.
    "on_enqueue",
    "on_busy",
    "on_idle",
    "on_frame_rx",
    "on_tx_end",
    "on_timer",
    // The shared CSMA sender's steps behind those handlers.
    "try_progress",
    "transmit_data",
    "apply_ack",
    // The station stack's per-event handlers.
    "dispatch",
    "with_mac",
    "apply_mac_actions",
    "start_transmission",
    "handle_delivery",
    "broadcast",
    // What a transmission and each of its receptions call below the stack.
    "plan_transmission_into",
    "decode_frame",
];

/// `hot-path-vec-new` (deterministic crates only): flags `Vec::new()` and
/// `vec![…]` inside `impl … MacEntity for …` bodies and inside the named
/// per-event handlers of `HOT_HANDLERS`. The steady-state allocation
/// budget (`ci/alloc_budget.json`) holds because those paths reuse pooled
/// buffers (`SlotPool`/`FramePool`) and drained sinks (`ActionSink`); a
/// fresh `Vec` there reintroduces per-frame churn that no functional test
/// notices — only the bench gate does, long after the PR that caused it.
/// Cold-path allocation (constructors, setup, result collection) is fine
/// and out of scope.
pub fn hot_path_vec_new(tokens: &[Token], file: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    // Region tracking: one entry per `{`, true when that brace opens a
    // MacEntity impl body or a hot handler's fn body. Nested braces push
    // `false` but `hot_depth` keeps the region hot until its own `}` pops.
    let mut stack: Vec<bool> = Vec::new();
    let mut hot_depth = 0usize;
    let mut pending_fn_hot = false;
    // Between `impl` and its `{`: does the header name the MacEntity trait?
    let mut impl_header = false;
    let mut impl_macentity = false;
    let mut impl_for = false;
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokKind::Ident if t.text == "impl" => {
                impl_header = true;
                impl_macentity = false;
                impl_for = false;
            }
            TokKind::Ident if t.text == "fn" => {
                pending_fn_hot = tokens.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident && HOT_HANDLERS.contains(&n.text.as_str())
                });
            }
            TokKind::Ident if impl_header && t.text == "MacEntity" => impl_macentity = true,
            TokKind::Ident if impl_header && t.text == "for" => impl_for = true,
            // A trait-method declaration (`fn on_idle(…);`) has no body.
            TokKind::Punct(';') => pending_fn_hot = false,
            TokKind::Punct('{') => {
                let hot = std::mem::take(&mut pending_fn_hot)
                    || (impl_header && impl_macentity && impl_for);
                impl_header = false;
                stack.push(hot);
                hot_depth += usize::from(hot);
            }
            TokKind::Punct('}') => {
                if let Some(was) = stack.pop() {
                    hot_depth -= usize::from(was);
                }
            }
            _ => {}
        }
        if hot_depth == 0 {
            continue;
        }
        if t.is_ident("Vec")
            && path_sep(tokens, i + 1)
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("new"))
            && tokens.get(i + 4).is_some_and(|t| t.is_punct('('))
        {
            out.push(Finding::new(
                HOT_PATH_VEC_NEW,
                file,
                t.line,
                "`Vec::new()` allocates inside a per-event handler — steady-state MAC and \
                 engine code reuses pooled buffers (`SlotPool`/`FramePool`) or a drained \
                 `ActionSink`; allocate in the constructor and recycle here"
                    .to_string(),
            ));
        }
        if t.is_ident("vec") && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            out.push(Finding::new(
                HOT_PATH_VEC_NEW,
                file,
                t.line,
                "`vec![…]` allocates inside a per-event handler — steady-state MAC and \
                 engine code reuses pooled buffers (`SlotPool`/`FramePool`) or a drained \
                 `ActionSink`; allocate in the constructor and recycle here"
                    .to_string(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_items};

    fn run<F>(src: &str, rule: F) -> Vec<Finding>
    where
        F: Fn(&[Token], &str) -> Vec<Finding>,
    {
        let tokens = strip_test_items(lex(src).tokens);
        rule(&tokens, "test.rs")
    }

    #[test]
    fn hash_iter_flags_methods_on_annotated_fields() {
        let src = "
            struct S { table: HashMap<u32, u32> }
            impl S {
                fn bad(&mut self) {
                    for v in self.table.values() { use_it(v); }
                }
            }
        ";
        let found = run(src, no_hash_iter);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("values"));
    }

    #[test]
    fn hash_iter_flags_for_loops_and_constructor_bindings() {
        let src = "
            fn f() {
                let mut seen = std::collections::HashSet::new();
                for x in &seen { touch(x); }
            }
        ";
        let found = run(src, no_hash_iter);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("for … in &seen"), "{}", found[0].message);
    }

    #[test]
    fn hash_iter_allows_keyed_access_and_btree_iteration() {
        let src = "
            fn f(m: &mut HashMap<u32, u32>, b: &BTreeMap<u32, u32>) {
                m.insert(1, 2);
                let _ = m.get(&1);
                m.remove(&1);
                m.entry(3).or_default();
                for (k, v) in b.iter() { use_it(k, v); }
                for x in 0..m.len() { use_it(x); }
            }
        ";
        assert!(run(src, no_hash_iter).is_empty());
    }

    #[test]
    fn hash_iter_ignores_vecs_named_like_maps() {
        let src = "
            fn f(pending: &mut Vec<u32>, set: HashSet<u32>) {
                for p in pending.drain(..) { use_it(p); }
                let _ = set.contains(&1);
            }
        ";
        assert!(run(src, no_hash_iter).is_empty());
    }

    #[test]
    fn wall_clock_flags_instant_now_and_system_time() {
        let found = run("fn f() { let t = Instant::now(); }", no_wall_clock);
        assert_eq!(found.len(), 1);
        let found = run("fn f() -> SystemTime { SystemTime::now() }", no_wall_clock);
        assert_eq!(found.len(), 2, "both mentions: {found:?}");
        // `Instant` as a stored type alone is not a read.
        assert!(run("struct T { at: Instant }", no_wall_clock).is_empty());
    }

    #[test]
    fn nondet_std_flags_the_forbidden_surface() {
        let src = "
            fn f() {
                thread::sleep(d);
                let p = std::process::id();
                let h: RandomState = RandomState::new();
                let v = std::env::var(\"X\");
            }
        ";
        let found = run(src, no_nondet_std);
        let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
        assert_eq!(rules.len(), 5, "sleep, id, 2x RandomState, env::var: {found:?}");
    }

    #[test]
    fn nondet_std_exempts_from_env() {
        let src = "
            impl ExpConfig {
                pub fn from_env() -> Self {
                    let v = std::env::var(\"RIPPLE_REPRO\").ok();
                    Self { v }
                }
            }
            fn elsewhere() { let _ = std::env::var(\"X\"); }
        ";
        let found = run(src, no_nondet_std);
        assert_eq!(found.len(), 1, "only the read outside from_env: {found:?}");
        assert!(found[0].message.contains("env::var"));
    }

    #[test]
    fn frame_deep_clone_flags_typed_and_pattern_bindings() {
        let src = "
            fn f(frame: &Frame, sf: &Subframe) -> Frame {
                match frame {
                    Frame::Data(d) => relay(d.clone()),
                    Frame::Ack(a) => echo(a.clone()),
                }
                stash(sf.clone());
                frame.clone()
            }
        ";
        let found = run(src, no_frame_deep_clone);
        assert_eq!(found.len(), 4, "{found:?}");
        assert!(found.iter().all(|f| f.message.contains("deep-copies")));
    }

    #[test]
    fn frame_deep_clone_allows_arc_handles_and_packet_fields() {
        let src = "
            fn f(af: &Arc<Frame>, sf: &Subframe, route: &RouteInfo) {
                let shared = Arc::clone(af);
                let handle = af.clone();
                let p = sf.packet.clone();
                let r = route.clone();
            }
        ";
        assert!(run(src, no_frame_deep_clone).is_empty());
    }

    #[test]
    fn hot_path_vec_new_flags_mac_entity_impl_bodies() {
        let src = "
            impl wmn_mac::MacEntity for DcfMac {
                fn on_frame_rx(&mut self, now: SimTime, rx: &RxFrame, sink: &mut ActionSink) {
                    let mut acks = Vec::new();
                    let seqs = vec![1, 2, 3];
                    use_it(acks, seqs);
                }
            }
        ";
        let found = run(src, hot_path_vec_new);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].message.contains("Vec::new()"));
        assert!(found[1].message.contains("vec![…]"));
    }

    #[test]
    fn hot_path_vec_new_flags_named_engine_handlers() {
        let src = "
            impl Runner {
                fn handle_delivery(&mut self, node: NodeId, packet: Packet) {
                    let mut staged = Vec::new();
                    use_it(staged);
                }
                fn dispatch(&mut self, event: Event) {
                    if deep { let nested = vec![event]; use_it(nested); }
                }
            }
        ";
        let found = run(src, hot_path_vec_new);
        assert_eq!(found.len(), 2, "nested braces stay hot: {found:?}");
    }

    #[test]
    fn hot_path_vec_new_allows_constructors_and_cold_impls() {
        let src = "
            impl DcfMac {
                pub fn new(cfg: DcfConfig) -> DcfMac {
                    DcfMac { timer_roles: Vec::new(), pending: vec![] }
                }
            }
            impl Scheme for Dcf {
                fn build_mac(&self) -> Box<dyn MacEntity> {
                    let seeds = Vec::new();
                    make(seeds)
                }
            }
            fn results() -> Vec<u32> { vec![1, 2] }
        ";
        assert!(run(src, hot_path_vec_new).is_empty());
    }

    #[test]
    fn hot_path_vec_new_trait_decl_without_body_does_not_leak() {
        // The `fn on_idle(…);` declaration has no body — its trailing `;`
        // must clear the pending-hot flag so the *next* brace (a cold fn)
        // is not misattributed.
        let src = "
            trait MacEntity {
                fn on_idle(&mut self, now: SimTime, sink: &mut ActionSink);
            }
            fn cold() { let v = Vec::new(); use_it(v); }
        ";
        assert!(run(src, hot_path_vec_new).is_empty());
    }

    #[test]
    fn commented_out_triggers_never_fire() {
        let src = "
            // for v in self.table.values() {}
            /* Instant::now(); thread::sleep(d); */
            fn f() { let s = \"env::var RandomState SystemTime\"; }
        ";
        assert!(run(src, no_hash_iter).is_empty());
        assert!(run(src, no_wall_clock).is_empty());
        assert!(run(src, no_nondet_std).is_empty());
    }
}
