//! Process and build facts every result record carries: peak RSS with a
//! per-workload reset, core count, commit, and a digest of the sources
//! the binary was built from.

use std::path::Path;

/// 64-bit FNV-1a: a stable digest that does not depend on the standard
/// library's hasher seeds, so the same bytes digest the same in every
/// run and on every build.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string and a separator, so `("ab","c")` and `("a","bc")`
    /// digest differently.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one string.
pub fn digest(s: &str) -> u64 {
    let mut h = Fnv::default();
    h.write_str(s);
    h.finish()
}

fn proc_status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set since start or since the last [`reset_peak_rss`],
/// in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_kib("VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Current resident set in MiB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    proc_status_kib("VmRSS:").map(|kib| kib as f64 / 1024.0)
}

/// Hands the heap pages the allocator keeps after `free` back to the
/// kernel. How many it keeps after a stage depends on which threads
/// allocated and in what order, so without this the resident set a
/// peak starts from moved by a fifth between runs of the same code.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and may be called
    // from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Resets the peak-RSS mark to the current RSS by writing `5` to
/// `/proc/self/clear_refs`, so a later [`peak_rss_mb`] covers only what
/// ran after the reset rather than set-up or an earlier stage. Freed
/// heap pages are released first, so the mark starts from the memory
/// still in use. Returns whether the reset took effect: the write
/// succeeded and the mark now sits within 1 MiB of the current RSS.
pub fn reset_peak_rss() -> bool {
    release_free_heap();
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        return false;
    }
    match (peak_rss_mb(), rss_mb()) {
        (Some(peak), Some(now)) => peak <= now + 1.0,
        _ => false,
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `"unknown"` when the tree is not a git checkout (the record's
/// `source_digest` still identifies the code).
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of every Rust source and manifest under `root/crates` and
/// `root/perfbench`, visited in sorted path order: two records with the
/// same digest were produced by the same code.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        h.write_str(&f.strip_prefix(root).unwrap_or(f).to_string_lossy());
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}
