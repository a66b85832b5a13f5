//! The analysis engine: drives every rule over one file.
//!
//! Two passes share one parse:
//!
//! 1. **Lexical** — a token-tree traversal (skipping `#[cfg(test)]`
//!    items, matching on adjacency windows) that dispatches to each
//!    rule's [`Rule::at_token`] hook. The five token rules
//!    (counter-registry, float-total-order, no-f64-kernel,
//!    no-panic-lib, unit-hygiene) live entirely here, pinned by their
//!    good/bad/waived fixtures in `tests/rules.rs`.
//! 2. **Function-level** — [`crate::scopes::ItemTree`] finds the
//!    non-test function bodies, [`crate::dataflow::FnAnalysis`]
//!    linearizes each into an event stream, and every rule's
//!    [`Rule::check_fn`] hook runs on it. The concurrency/durability
//!    pack (lock-order, wal-protocol, untrusted-length,
//!    atomic-ordering) lives here.
//!
//! Waiver filtering and ordering happen in [`crate::lint_source`], not
//! here: the engine reports raw findings.

use syn::{Delimiter, Span, TokenTree};

use crate::dataflow::FnAnalysis;
use crate::rules::{self, Rule};
use crate::scopes::ItemTree;
use crate::{attr_is_cfg_test, is_punct, FileClass, Finding, Registry};

/// Per-file context every rule hook receives.
pub struct FileCtx<'a> {
    /// Repo-relative, `/`-separated path.
    pub rel: &'a str,
    /// Path-derived rule scoping.
    pub class: FileClass,
    /// The instrument-name registry.
    pub registry: &'a Registry,
}

/// Where rules deposit findings.
pub struct Sink {
    file: String,
    pub findings: Vec<Finding>,
}

impl Sink {
    pub fn new(rel: &str) -> Sink {
        Sink { file: rel.to_string(), findings: Vec::new() }
    }

    pub fn push(&mut self, rule: &'static str, span: Span, message: String) {
        self.findings.push(Finding {
            rule,
            file: self.file.clone(),
            line: span.line,
            column: span.column,
            message,
        });
    }
}

/// Runs every rule over one lexed file and returns raw findings.
pub fn run(file: &syn::File, ctx: &FileCtx<'_>) -> Vec<Finding> {
    let rules = rules::all();
    let mut sink = Sink::new(ctx.rel);
    walk_lexical(&file.tokens, ctx, &rules, &mut sink);
    let tree = ItemTree::parse(&file.tokens);
    for item in tree.functions() {
        let fun = FnAnalysis::build(item);
        for rule in &rules {
            rule.check_fn(ctx, &fun, &mut sink);
        }
    }
    sink.findings
}

/// The lexical traversal: identical control flow to the v1 walker —
/// `#[cfg(test)]` arms a skip of the next brace group, `;` disarms it,
/// and skipped groups are not recursed — with rule dispatch hooked out.
fn walk_lexical(tokens: &[TokenTree], ctx: &FileCtx<'_>, rules: &[Box<dyn Rule>], sink: &mut Sink) {
    let mut skip_next_brace = false;
    let mut i = 0;
    while i < tokens.len() {
        if is_punct(tokens.get(i), "#") {
            if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                if g.delimiter() == Delimiter::Bracket {
                    if attr_is_cfg_test(g) {
                        skip_next_brace = true;
                    }
                    i += 2;
                    continue;
                }
            }
        }
        if is_punct(tokens.get(i), ";") {
            skip_next_brace = false;
        }
        if let Some(TokenTree::Group(g)) = tokens.get(i) {
            if g.delimiter() == Delimiter::Brace && skip_next_brace {
                skip_next_brace = false;
                i += 1;
                continue;
            }
        }

        for rule in rules {
            rule.at_token(ctx, tokens, i, sink);
        }

        if let Some(TokenTree::Group(g)) = tokens.get(i) {
            walk_lexical(g.tokens(), ctx, rules, sink);
        }
        i += 1;
    }
}
