//! Property tests for the lexer: arbitrary concatenations of label-call
//! fragments, wrapped in comments or string literals, must never produce a
//! finding or register a label — the whole point of lexing (rather than
//! regex-grepping) is that commented-out or quoted call text is invisible to
//! the registry.

use proptest::prelude::*;
use proptest::{collection, sample};

use wmn_lint::analyze_source;
use wmn_lint::lexer::{lex, TokKind};

/// The three label call shapes, each once with an opaque argument (as live
/// code: a finding) and once with a literal (as live code: a registered
/// label).
const TRIGGERS: &[&str] = &[
    "let r = StreamRng::derive(seed, label);",
    "let r = dir.stream(label);",
    "let r = dir.indexed_stream(prefix, 3);",
    "let r = StreamRng::derive(seed, \"prop/derive\");",
    "let r = dir.stream(\"prop/stream\");",
    "let r = dir.indexed_stream(\"prop/indexed\", 3);",
];

#[test]
fn triggers_fire_as_live_code() {
    for frag in TRIGGERS {
        let fa = analyze_source("prop.rs", "prop", &format!("fn live() {{ {frag} }}\n"));
        assert_eq!(fa.findings.len() + fa.labels.len(), 1, "{frag}: {fa:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn commented_or_quoted_triggers_never_fire(
        picks in collection::vec((0usize..6, 0usize..4), 1..12),
    ) {
        let mut src = String::new();
        for (t, mode) in picks {
            let frag = TRIGGERS[t];
            match mode {
                0 => src.push_str(&format!("// {frag}\n")),
                1 => src.push_str(&format!("/* outer /* {frag} */ still comment */\n")),
                2 => src.push_str(&format!(
                    "fn doc() {{ let _d = \"{}\"; }}\n",
                    frag.replace('\\', "\\\\").replace('"', "\\\"")
                )),
                _ => src.push_str(&format!("fn raw() {{ let _r = r#\"{frag}\"#; }}\n")),
            }
        }
        let fa = analyze_source("prop.rs", "prop", &src);
        prop_assert!(fa.findings.is_empty(), "phantom findings in:\n{src}\n{:?}", fa.findings);
        prop_assert!(fa.waived.is_empty());
        prop_assert!(fa.labels.is_empty(), "labels from non-code: {:?}", fa.labels);
    }

    #[test]
    fn lexing_fragments_jointly_equals_lexing_them_separately(
        picks in sample::subsequence(vec![0usize, 1, 2, 3, 4, 5], 1..7),
    ) {
        // Each trigger is a self-contained single line; lexing the
        // concatenation must yield exactly the per-fragment token streams
        // with lines offset — i.e. no literal or comment state leaks across
        // fragment boundaries.
        let joined: String =
            picks.iter().map(|&i| format!("{}\n", TRIGGERS[i])).collect();
        let got: Vec<(TokKind, String, u32)> =
            lex(&joined).tokens.into_iter().map(|t| (t.kind, t.text, t.line)).collect();
        let mut want = Vec::new();
        for (line0, &i) in picks.iter().enumerate() {
            for t in lex(TRIGGERS[i]).tokens {
                want.push((t.kind, t.text, u32::try_from(line0 + 1).unwrap()));
            }
        }
        prop_assert_eq!(got, want);
    }
}
