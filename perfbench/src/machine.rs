//! The machine record printed with every result: what a number needs
//! beside it to be compared with another.

use std::path::{Path, PathBuf};

/// One line describing the host, the worker width and the journal
/// location (relative to the working directory when inside it).
pub fn record(width: usize, journal_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let cwd = std::env::current_dir().unwrap_or_default();
    format!(
        "machine nproc={nproc} cpu=\"{cpu}\" kernel={kernel} width={width} journal_dir={} \
         journal_fs={} commit={}",
        journal_dir.strip_prefix(&cwd).unwrap_or(journal_dir).display(),
        fs_type(journal_dir),
        git_commit().unwrap_or_else(|| "unknown".into()),
    )
}

/// The filesystem type of the mount holding `path` (its nearest
/// existing ancestor), from `/proc/self/mountinfo`.
fn fs_type(path: &Path) -> String {
    let existing = path.ancestors().find_map(|p| p.canonicalize().ok());
    let mountinfo = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let Some(existing) = existing else { return "unknown".into() };
    mountinfo
        .lines()
        .filter_map(|line| {
            let (mount, fs) = line.split_once(" - ")?;
            let point = mount.split(' ').nth(4)?;
            let fs = fs.split(' ').next()?;
            existing.starts_with(point).then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The commit checked out in the nearest enclosing git repository, read
/// straight from `.git` (the benchmark may run in a checkout without
/// one).
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let git: PathBuf = cwd.ancestors().map(|p| p.join(".git")).find(|p| p.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference)?.strip_suffix(' ').map(str::to_string))
}
