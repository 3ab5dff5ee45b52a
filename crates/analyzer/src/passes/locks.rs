//! **lock-discipline** — library code must not poison and must not panic.
//!
//! Two families of findings, both restricted to [`crate::Category::Lib`]
//! files and skipping `#[cfg(test)] mod` bodies:
//!
//! * `std::sync::Mutex` / `std::sync::RwLock` are banned. The vendored
//!   `parking_lot` is the only lock supplier: the sharded sketch's shard
//!   mutexes and the serve daemon rely on its non-poisoning semantics (a
//!   panicking writer must not wedge every later reader with a
//!   `PoisonError`), so a stray std lock is a semantic regression, not a
//!   style nit.
//! * `.unwrap()`, `.expect(`, and `panic!` are banned: library code
//!   returns `Result` or argues an allowlist entry. Test modules,
//!   `tests/`, `benches/`, `src/bin/` and `examples/` are exempt — panics
//!   are a fine failure mode for code whose only caller is a harness.

use crate::{Category, Finding, SourceFile};

/// Runs the pass over one file.
#[must_use]
pub fn check(src: &SourceFile) -> Vec<Finding> {
    if src.category != Category::Lib {
        return Vec::new();
    }
    let test_ranges = super::test_mod_line_ranges(&src.lexed);
    let mut findings = Vec::new();

    for (idx, line) in src.lexed.scrubbed.lines().enumerate() {
        let line_no = idx + 1;
        if super::in_ranges(&test_ranges, line_no) {
            continue;
        }
        for lock in ["Mutex", "RwLock"] {
            for _ in super::word_occurrences(line, &format!("std::sync::{lock}")) {
                findings.push(Finding {
                    pass: "lock-discipline",
                    file: src.rel_path.clone(),
                    line: line_no,
                    message: format!(
                        "std::sync::{lock} in library code — use parking_lot::{lock}: its \
                         non-poisoning semantics are load-bearing for the concurrent pipeline"
                    ),
                });
            }
        }
        for (token, what) in [(".unwrap()", "unwrap"), (".expect(", "expect")] {
            for _ in find_all(line, token) {
                findings.push(Finding {
                    pass: "lock-discipline",
                    file: src.rel_path.clone(),
                    line: line_no,
                    message: format!(
                        "`.{what}` in non-test library code — propagate a Result or add an \
                         analyzer-allow.toml entry with a reason"
                    ),
                });
            }
        }
        for _ in super::word_occurrences(line, "panic!") {
            findings.push(Finding {
                pass: "lock-discipline",
                file: src.rel_path.clone(),
                line: line_no,
                message: "`panic!` in non-test library code — return an error or add an \
                          analyzer-allow.toml entry with a reason"
                    .to_string(),
            });
        }
    }

    // `use std::sync::{…}` groups can smuggle a lock across lines.
    findings.extend(use_group_locks(src, &test_ranges));
    findings
}

fn find_all(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len();
    }
    out
}

fn use_group_locks(src: &SourceFile, test_ranges: &[(usize, usize)]) -> Vec<Finding> {
    let s = &src.lexed.scrubbed;
    let bytes = s.as_bytes();
    let mut findings = Vec::new();
    for at in find_all(s, "use std::sync::") {
        let mut i = at + "use std::sync::".len();
        i = super::skip_ws(bytes, i);
        if bytes.get(i) != Some(&b'{') {
            continue; // single import: the per-line scan already saw it
        }
        let end = super::match_delim(bytes, i);
        let group = &s[i..end];
        let line_no = src.lexed.line_of(at);
        if super::in_ranges(test_ranges, line_no) {
            continue;
        }
        for lock in ["Mutex", "RwLock"] {
            if !super::word_occurrences(group, lock).is_empty() {
                findings.push(Finding {
                    pass: "lock-discipline",
                    file: src.rel_path.clone(),
                    line: line_no,
                    message: format!(
                        "std::sync::{lock} imported in library code — use parking_lot::{lock}"
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lib_file(src: &str) -> SourceFile {
        SourceFile {
            rel_path: "crates/x/src/thing.rs".to_string(),
            category: Category::Lib,
            lexed: lex(src),
            lines: src.lines().map(str::to_string).collect(),
        }
    }

    #[test]
    fn std_mutex_fires() {
        let f = lib_file("static M: std::sync::Mutex<u32> = std::sync::Mutex::new(0);\n");
        let findings = check(&f);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].message.contains("parking_lot"));
    }

    #[test]
    fn grouped_import_fires() {
        let f = lib_file("use std::sync::{atomic::AtomicU64, RwLock};\n");
        let findings = check(&f);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("RwLock"));
    }

    #[test]
    fn parking_lot_is_fine() {
        let f = lib_file("use parking_lot::{Mutex, RwLock};\nuse std::sync::atomic::AtomicU64;\n");
        assert!(check(&f).is_empty());
    }

    #[test]
    fn unwrap_expect_panic_fire() {
        let f = lib_file("fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g() { panic!(\"boom\") }\nfn h(x: Option<u32>) -> u32 { x.expect(\"present\") }\n");
        assert_eq!(check(&f).len(), 3);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let f = lib_file("fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n");
        assert!(check(&f).is_empty());
    }

    #[test]
    fn test_mod_is_exempt() {
        let f = lib_file(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); panic!(\"ok in tests\") }\n}\n",
        );
        assert!(check(&f).is_empty());
    }

    #[test]
    fn non_lib_categories_exempt() {
        let mut f = lib_file("fn main() { None::<u32>.unwrap(); }\n");
        f.category = Category::Bin;
        assert!(check(&f).is_empty());
    }

    #[test]
    fn mentions_in_comments_and_strings_ignored() {
        let f = lib_file(
            "// std::sync::Mutex would poison; .unwrap() panics.\nconst HELP: &str = \"don't panic!(…)\";\n",
        );
        assert!(check(&f).is_empty());
    }
}
