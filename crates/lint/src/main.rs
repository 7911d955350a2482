//! `dts-lint` — project-specific lints with a ratcheted baseline.
//!
//! ```text
//! cargo run -p dts-lint                        # report every current violation
//! cargo run -p dts-lint -- --check             # diff against lint-baseline.json (CI gate)
//! cargo run -p dts-lint -- --update-baseline   # regenerate lint-baseline.json
//! ```
//!
//! The scan covers the first-party `src/` trees (`crates/*/src` and the
//! facade's `src/`); `vendor/`, `perfbench/`, `tests/`, `benches/` and
//! `examples/` are out of scope. See [`rules`] for the rule catalogue and
//! [`baseline`] for the ratchet semantics.

mod baseline;
mod rules;
mod scrub;

use rules::Violation;
use std::path::{Path, PathBuf};

const BASELINE_FILE: &str = "lint-baseline.json";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => Mode::Report,
        ["--check"] => Mode::Check,
        ["--update-baseline"] => Mode::Update,
        _ => {
            eprintln!("usage: dts-lint [--check | --update-baseline]");
            return 2;
        }
    };

    // crates/lint/src -> repo root, so the binary works from any cwd.
    let root = match Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
    {
        Some(root) => root.to_path_buf(),
        None => {
            eprintln!("dts-lint: cannot locate the repository root");
            return 2;
        }
    };

    let mut violations = Vec::new();
    for file in source_files(&root) {
        let source = match std::fs::read_to_string(&file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("dts-lint: cannot read {}: {e}", file.display());
                return 2;
            }
        };
        let rel = relative(&root, &file);
        let scrubbed = scrub::scrub(&source);
        violations.extend(rules::check_file(
            &rel,
            &scrubbed,
            deterministic_path(&rel),
            decision_path(&rel),
        ));
    }
    violations.sort();

    match mode {
        Mode::Report => {
            for v in &violations {
                println!("{}", describe(v));
            }
            println!(
                "dts-lint: {} violation(s) across {} file(s)",
                violations.len(),
                baseline::tally(&violations).len()
            );
            0
        }
        Mode::Update => {
            let text = baseline::render(&baseline::tally(&violations));
            if let Err(e) = std::fs::write(root.join(BASELINE_FILE), text) {
                eprintln!("dts-lint: cannot write {BASELINE_FILE}: {e}");
                return 2;
            }
            println!(
                "dts-lint: wrote {BASELINE_FILE} with {} violation(s)",
                violations.len()
            );
            0
        }
        Mode::Check => check(&root, &violations),
    }
}

enum Mode {
    Report,
    Check,
    Update,
}

fn check(root: &Path, violations: &[Violation]) -> i32 {
    let text = match std::fs::read_to_string(root.join(BASELINE_FILE)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dts-lint: cannot read {BASELINE_FILE}: {e}");
            eprintln!("dts-lint: run `cargo run -p dts-lint -- --update-baseline` to create it");
            return 1;
        }
    };
    let base = match baseline::parse(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("dts-lint: {e}");
            return 1;
        }
    };
    let current = baseline::tally(violations);

    let mut failed = false;
    // New debt: any (file, rule) bucket that grew.
    for (file, rules) in &current {
        for (rule, &count) in rules {
            let allowed = base
                .get(file)
                .and_then(|r| r.get(rule))
                .copied()
                .unwrap_or(0);
            if count > allowed {
                failed = true;
                eprintln!(
                    "dts-lint: {file}: {rule} has {count} violation(s), baseline allows {allowed}:"
                );
                for v in violations
                    .iter()
                    .filter(|v| &v.file == file && v.rule == rule)
                {
                    eprintln!("  {}", describe(v));
                }
            }
        }
    }
    // The ratchet: a bucket that shrank means the baseline overstates the
    // debt; it must be regenerated (and committed) with the fix.
    for (file, rules) in &base {
        for (rule, &allowed) in rules {
            let count = current
                .get(file)
                .and_then(|r| r.get(rule))
                .copied()
                .unwrap_or(0);
            if count < allowed {
                failed = true;
                eprintln!(
                    "dts-lint: {file}: {rule} is down to {count} violation(s) but the baseline \
                     still allows {allowed}; run `cargo run -p dts-lint -- --update-baseline` \
                     to ratchet the baseline down and commit it"
                );
            }
        }
    }

    if failed {
        1
    } else {
        println!(
            "dts-lint: clean ({} known violation(s) across {} file(s) in the baseline)",
            violations.len(),
            current.len()
        );
        0
    }
}

fn describe(v: &Violation) -> String {
    format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.message)
}

/// First-party Rust sources: every `.rs` under the facade's `src/` and
/// under `crates/*/src`. Everything else — `vendor/`, the standalone
/// `perfbench/` package, integration tests, benches and examples — lies
/// outside those trees and is out of scope by construction.
fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut stack = vec![root.join("src")];
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        stack.extend(crates.flatten().map(|krate| krate.path().join("src")));
    }
    let mut out = Vec::new();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The deterministic paths guarded by L004: the event-driven executors
/// and the decision engines, which the equivalence suites replay
/// byte-for-byte.
fn deterministic_path(rel: &str) -> bool {
    let file = rel.rsplit('/').next().unwrap_or(rel);
    file.contains("simulate") || file.contains("engine")
}

/// The heuristic decision paths guarded by L005: ordering and placement
/// decisions must consume the durations the cost-model layer materialized
/// into the instance, not re-derive them from raw task fields.
fn decision_path(rel: &str) -> bool {
    rel.starts_with("crates/heuristics/src/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_facade_and_crate_source_trees_are_scanned() {
        let root = std::env::temp_dir().join(format!("dts-lint-scope-{}", std::process::id()));
        let files = [
            "src/lib.rs",
            "crates/a/src/lib.rs",
            "crates/a/src/nested/mod.rs",
            "crates/a/tests/suite.rs",
            "crates/a/benches/bench.rs",
            "perfbench/src/main.rs",
            "vendor/serde/src/lib.rs",
        ];
        for file in files {
            let path = root.join(file);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, "").unwrap();
        }
        let scanned: Vec<String> = source_files(&root)
            .iter()
            .map(|path| relative(&root, path))
            .collect();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(
            scanned,
            [
                "crates/a/src/lib.rs",
                "crates/a/src/nested/mod.rs",
                "src/lib.rs"
            ]
        );
    }
}
