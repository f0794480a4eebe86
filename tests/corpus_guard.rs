//! Every regression corpus replays. The property harness reads
//! `<crate>/tests/corpus/<test_fn>.txt` and takes a missing file for an
//! empty corpus, so a renamed or deleted property would silently stop
//! replaying its counterexamples. This guard fails on any corpus file,
//! at the workspace root or under `crates/*/`, that names no `fn` in
//! its crate's `src/` or `tests/`.

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively; a missing `dir` has none.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The corpus files of the crate at `krate` that name no `fn` in it,
/// and how many corpus files it has.
fn orphans_in(krate: &Path) -> (Vec<PathBuf>, usize) {
    let Ok(entries) = fs::read_dir(krate.join("tests").join("corpus")) else {
        return (Vec::new(), 0);
    };
    let corpora: Vec<PathBuf> = entries
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    let mut sources = Vec::new();
    rust_sources(&krate.join("src"), &mut sources);
    rust_sources(&krate.join("tests"), &mut sources);
    let text: String = sources
        .iter()
        .map(|p| fs::read_to_string(p).expect("readable source"))
        .collect();
    let orphans = corpora
        .iter()
        .filter(|corpus| {
            let name = corpus.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            !text.contains(&format!("fn {name}("))
        })
        .cloned()
        .collect();
    (orphans, corpora.len())
}

/// The orphaned corpus files of the workspace at `root` (the root
/// package plus every `crates/*`), and how many corpus files it has.
fn orphans(root: &Path) -> (Vec<PathBuf>, usize) {
    let mut crates = vec![root.to_path_buf()];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        crates.extend(entries.map(|e| e.expect("readable crate entry").path()));
    }
    let mut found = Vec::new();
    let mut total = 0;
    for krate in crates {
        let (orphans, n) = orphans_in(&krate);
        found.extend(orphans);
        total += n;
    }
    (found, total)
}

#[test]
fn every_regression_corpus_names_a_property_in_its_crate() {
    let (orphans, total) = orphans(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(total > 0, "no corpus file found: the guard checks nothing");
    assert!(
        orphans.is_empty(),
        "corpus files that name no fn in their crate, so never replay: {orphans:?}"
    );
}

#[test]
fn the_guard_catches_a_corpus_left_behind_by_a_rename() {
    let root = std::env::temp_dir().join(format!("fmig-corpus-guard-{}", std::process::id()));
    let krate = root.join("crates").join("demo");
    let corpus = krate.join("tests").join("corpus");
    fs::create_dir_all(&corpus).unwrap();
    fs::create_dir_all(krate.join("src")).unwrap();
    fs::write(
        krate.join("src").join("lib.rs"),
        "proptest! { #[test] fn kept(x in 0u8..4) {} }\n",
    )
    .unwrap();
    for name in ["kept", "renamed_away"] {
        fs::write(corpus.join(format!("{name}.txt")), "-\n").unwrap();
    }
    let (orphans, total) = orphans(&root);
    fs::remove_dir_all(&root).unwrap();
    assert_eq!(total, 2);
    let names: Vec<_> = orphans.iter().filter_map(|p| p.file_stem()).collect();
    assert_eq!(names, ["renamed_away"]);
}
