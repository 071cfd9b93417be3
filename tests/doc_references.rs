//! The prose documents stay true to the tree: every Rust source path that
//! DESIGN.md, README.md and EXPERIMENTS.md name exists, and every
//! `repro <name>` they mention is an experiment the harness runs.

use std::path::Path;

const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Maximal runs of path characters in `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || "_-./".contains(c)))
        .filter(|w| !w.is_empty())
}

#[test]
fn named_source_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    for doc in DOCS {
        for word in words(&read(doc)) {
            let path = word.trim_end_matches('.');
            let named = ["crates/", "src/", "tests/"]
                .iter()
                .any(|p| path.starts_with(p));
            if named && path.ends_with(".rs") && !root.join(path).is_file() {
                missing.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(missing.is_empty(), "named but missing: {missing:#?}");
}

#[test]
fn named_repro_experiments_exist() {
    let harness = read("crates/bench/src/bin/repro.rs");
    let is_arm = |name: &str| {
        let lit = format!("\"{name}\"");
        harness.contains(&format!("{lit} =>")) || harness.contains(&format!("{lit} |"))
    };
    let mut unknown = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for (at, _) in text.match_indices("repro ") {
            let Some(name) = words(&text[at + "repro ".len()..]).next() else {
                continue;
            };
            let name = name.trim_end_matches('.');
            if !name.starts_with('-') && !is_arm(name) {
                unknown.push(format!("{doc}: repro {name}"));
            }
        }
    }
    assert!(unknown.is_empty(), "not experiments: {unknown:#?}");
}
