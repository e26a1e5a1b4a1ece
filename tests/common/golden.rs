//! Golden-file comparison shared by the `*_golden.rs` test binaries
//! (pulled in via `#[path = "common/golden.rs"] mod golden;`).

use std::path::PathBuf;

/// Compare `text` with `tests/golden/<rel>` line by line, naming the first
/// line that differs. With `UPDATE_GOLDEN` set, (re)write the file instead.
pub fn check(rel: &str, text: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(rel);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, text).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {} ({e}); run with UPDATE_GOLDEN=1 to create",
            path.display()
        )
    });
    for (n, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "first difference at line {}", n + 1);
    }
    assert_eq!(text.lines().count(), golden.lines().count());
}
