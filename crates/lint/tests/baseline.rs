//! The shipped `lint.toml` (compiled in as `Config::default()`) names
//! paths that exist — a renamed file must not silently drop out of a
//! rule's scope.

use opaque_lint::Config;
use std::path::Path;

#[test]
fn baseline_scopes_point_at_real_paths() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf();
    let cfg = Config::default();
    for scope in cfg.determinism_scopes.iter().chain(&cfg.unsafe_scopes) {
        assert!(root.join(scope).is_dir(), "scope `{scope}` is not a directory");
    }
    for file in cfg.panic_path_files.iter().chain(&cfg.doc_files) {
        assert!(root.join(file).is_file(), "listed file `{file}` does not exist");
    }
}
