//! The `machine` block printed beside every result.

use std::process::Command;

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(command: &mut Command) -> Option<String> {
    let out = command.output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(str::to_owned)
}

/// `{"nproc": .., "cpu": .., "rustc": .., "git_rev": ..}` as one JSON line.
pub fn block() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc =
        command_line(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into());
    // the revision of the working directory itself: git must not climb
    // to a repository above it
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) =
        std::env::current_dir().ok().and_then(|d| d.parent().map(|p| p.to_owned()))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let rev = command_line(&mut git).unwrap_or_else(|| "unknown".into());
    let q = |s: &str| serde_json::to_string(s).expect("strings serialize");
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"git_rev\": {}}}",
        q(&cpu),
        q(&rustc),
        q(&rev)
    )
}
