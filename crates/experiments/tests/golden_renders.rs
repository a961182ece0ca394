//! Golden renders: `repro all` at quick scale must print every registry
//! experiment's table and figure byte for byte as committed in
//! `golden/all-quick.txt` (its stdout without the `run:` banner line,
//! which names a fresh run id and trace id). A refactor that moves any
//! number, label or column fails here, naming the first differing line
//! and the heading of the table it sits in.

use std::process::Command;

const GOLDEN: &str = include_str!("golden/all-quick.txt");

/// The heading of the block holding line `i`: the nearest line at or
/// above it that starts a block (the first line, or one after a blank
/// line) and is not a table's column header (which its dashed rule
/// follows).
fn heading<'a>(lines: &[&'a str], i: usize) -> &'a str {
    (0..=i.min(lines.len().saturating_sub(1)))
        .rev()
        .find(|&j| {
            let starts_block = j == 0 || lines[j - 1].is_empty();
            let is_header = lines.get(j + 1).is_some_and(|l| l.starts_with("---"));
            starts_block && !lines[j].is_empty() && !is_header
        })
        .map_or("", |j| lines[j])
}

#[test]
fn repro_all_quick_matches_the_golden_renders() {
    let dir = std::env::temp_dir().join(format!("repro-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("all").current_dir(&dir);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("REPRO_") {
            cmd.env_remove(name);
        }
    }
    let out = cmd
        .env("REPRO_SCALE", "quick")
        .env("REPRO_TRACE_STORE", "off")
        .output()
        .expect("spawn repro all");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let actual: String = stdout
        .split_inclusive('\n')
        .filter(|l| !l.starts_with("run: "))
        .collect();
    if actual != GOLDEN {
        let (actual, expected): (Vec<&str>, Vec<&str>) =
            (actual.split('\n').collect(), GOLDEN.split('\n').collect());
        let i = (0..actual.len().max(expected.len()))
            .find(|&i| actual.get(i) != expected.get(i))
            .expect("texts differ");
        panic!(
            "render differs from tests/golden/all-quick.txt at line {} (under {:?}):\n  \
             expected: {:?}\n  actual:   {:?}",
            i + 1,
            heading(&expected, i),
            expected.get(i),
            actual.get(i),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
