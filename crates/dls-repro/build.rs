//! Captures the git revision of the source tree this crate is built from
//! as `DLS_GIT_REV`, the build identity in journal headers and result-cache
//! keys (`journal::git_rev`): `git rev-parse --short HEAD` in the crate's
//! directory, or `unknown` when that tree is not a git checkout.

use std::path::Path;
use std::process::Command;

/// The trimmed stdout of a successful, non-empty `git` call in `dir`.
fn git(dir: &Path, args: &[&str]) -> Option<String> {
    let out = Command::new("git").current_dir(dir).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

fn main() {
    let dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let dir = Path::new(&dir);
    let rev = git(dir, &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=DLS_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    // Rebuild when HEAD moves: a checkout, a commit on the current branch,
    // or a repack of its ref. Only existing files are watched; cargo
    // would rerun this script on every build for a missing one.
    let branch = git(dir, &["symbolic-ref", "-q", "HEAD"]);
    for name in ["HEAD", "packed-refs"].into_iter().chain(branch.as_deref()) {
        if let Some(path) = git(dir, &["rev-parse", "--git-path", name]) {
            let path = dir.join(path);
            if path.exists() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
    }
}
