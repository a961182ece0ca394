//! The `REPRO_*` knob table holds the code to itself: the environment is
//! read only in the knob module, every `REPRO_*` name in the sources is a
//! declared knob, every strict knob stops `repro` before its campaign
//! starts, and the README's knob reference lists exactly the table.

use experiments::knobs::{Knobs, Resume, KNOBS};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `crates/*/src`, test modules included.
fn sources() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    for krate in fs::read_dir(workspace().join("crates")).unwrap().flatten() {
        let src = krate.path().join("src");
        if src.is_dir() {
            walk(&src, &mut out);
        }
    }
    assert!(out.len() > 50, "found only {} sources", out.len());
    out
}

#[test]
fn only_the_knob_module_reads_the_environment() {
    let knob_module = Path::new("experiments/src/knobs.rs");
    let mut readers = Vec::new();
    for path in sources() {
        let text = fs::read_to_string(&path).unwrap();
        if text.contains("env::var") && !path.ends_with(knob_module) {
            readers.push(path.display().to_string());
        }
    }
    assert!(
        readers.is_empty(),
        "environment read outside the knob module: {readers:?}"
    );
}

#[test]
fn every_repro_name_in_the_sources_is_a_declared_knob() {
    let mut undeclared = Vec::new();
    for path in sources() {
        let text = fs::read_to_string(&path).unwrap();
        for (at, _) in text.match_indices("REPRO_") {
            let rest = &text[at..];
            let len = rest
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(rest.len());
            let name = &rest[..len];
            // `REPRO_SERVE_*` names a family: some knob must carry the prefix.
            let declared = if rest[len..].starts_with('*') {
                KNOBS.iter().any(|k| k.name.starts_with(name))
            } else {
                KNOBS.iter().any(|k| k.name == name)
            };
            if !declared {
                undeclared.push(format!("{}: {name}", path.display()));
            }
        }
    }
    assert!(undeclared.is_empty(), "undeclared knobs: {undeclared:?}");
}

#[test]
fn a_malformed_knob_stops_repro_before_its_campaign_starts() {
    const MALFORMED: &str = "bogus";
    // Paths and names accept any value; every other knob has a strict parser.
    let free_form = [
        "REPRO_SAMPLE_DIR",
        "REPRO_JOURNAL_DIR",
        "REPRO_RUN_ID",
        "REPRO_RESUME",
        "REPRO_TRACE_STORE_DIR",
        "REPRO_TELEMETRY_DIR",
        "REPRO_TRACEVIZ_DIR",
        "REPRO_SERVE_ADDR",
        "REPRO_SERVE_ROOT",
        "REPRO_SERVE_ADDR_FILE",
    ];
    let root = std::env::temp_dir().join(format!("repro-knobs-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let mut strict = 0;
    for knob in &KNOBS {
        if Knobs::parse(|n| (n == knob.name).then(|| MALFORMED.to_string())).is_ok() {
            assert!(
                free_form.contains(&knob.name),
                "{} accepts {MALFORMED:?}",
                knob.name
            );
            continue;
        }
        assert!(
            !free_form.contains(&knob.name),
            "{} rejects a path",
            knob.name
        );
        strict += 1;
        let cwd = root.join(knob.name);
        fs::create_dir_all(&cwd).unwrap();
        let journal = cwd.join("journal");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        for (var, _) in std::env::vars() {
            if var.starts_with("REPRO_") {
                cmd.env_remove(var);
            }
        }
        let out = cmd
            .arg("table1")
            .current_dir(&cwd)
            .env("REPRO_SCALE", "quick")
            .env("REPRO_JOURNAL_DIR", &journal)
            .env(knob.name, MALFORMED)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{}: {stderr}", knob.name);
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{}: {stderr}", knob.name);
        assert!(errors[0].contains(knob.name), "{}: {stderr}", knob.name);
        assert!(out.stdout.is_empty(), "{}: the campaign started", knob.name);
        assert!(
            !journal.exists(),
            "{}: a campaign log was created",
            knob.name
        );
        assert!(
            !cwd.join("results").exists(),
            "{}: results were written",
            knob.name
        );
    }
    assert_eq!(strict, KNOBS.len() - free_form.len());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn readme_knob_reference_lists_exactly_the_table() {
    let readme = fs::read_to_string(workspace().join("README.md")).unwrap();
    let rows: Vec<Vec<&str>> = readme
        .lines()
        .filter(|l| l.starts_with("| `REPRO_"))
        .map(|l| l.trim_matches('|').split(" | ").map(str::trim).collect())
        .collect();
    let listed: Vec<(&str, &str, &str)> = rows
        .iter()
        .map(|r| {
            let default = r[1].trim_matches('`');
            (
                r[0].trim_matches('`'),
                if default == "—" { "" } else { default },
                r[3],
            )
        })
        .collect();
    let declared: Vec<(&str, &str)> = KNOBS.iter().map(|k| (k.name, k.default)).collect();
    assert_eq!(
        listed.iter().map(|&(n, d, _)| (n, d)).collect::<Vec<_>>(),
        declared,
        "README knob reference (name, default) differs from the table"
    );
    for (knob, &(_, _, resume)) in KNOBS.iter().zip(&listed) {
        let want = match knob.resume {
            Resume::No => "no",
            Resume::Always(_) => "always",
            Resume::UnlessDefault(_) => "when not default",
        };
        assert!(
            resume.starts_with(want),
            "{}: resume column {resume:?}",
            knob.name
        );
    }
}
