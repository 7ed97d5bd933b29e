//! Host facts measured at run time, and the process's peak memory.

use std::path::Path;
use std::process::Command;

/// The repository root: the benchmark package's parent directory.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
}

/// Host facts as one JSON object.
pub fn facts_json() -> String {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    format!(
        "{{\"available_parallelism\":{parallelism},\"git_revision\":\"{}\",\"source_digest\":\"{:016x}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"opt_level\":\"{}\",\"debug\":\"{}\"}}",
        git_revision(),
        source_digest(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_OPT_LEVEL"),
        env!("PERFBENCH_DEBUG"),
    )
}

/// `git rev-parse HEAD`, or `none` outside a git checkout.
fn git_revision() -> String {
    Command::new("git")
        .arg("rev-parse")
        .arg("HEAD")
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|rev| rev.chars().all(|c| c.is_ascii_hexdigit()) && !rev.is_empty())
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a over the program's sources (`crates/`, the root manifest and
/// lock file), in path order: identifies the measured code where no git
/// revision is available.
fn source_digest() -> u64 {
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let name = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in name.as_bytes().iter().chain(&[0]).chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Pins glibc's malloc trim and mmap thresholds at their 128 KiB
/// defaults. By default glibc raises both after a large block is freed,
/// so how much freed memory the process keeps, and with it `VmHWM`,
/// depends on the order earlier jobs ran in; pinned, peak memory tracks
/// what the program holds. Call before any thread is spawned.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_malloc_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    for param in [M_TRIM_THRESHOLD, M_MMAP_THRESHOLD] {
        // SAFETY: `mallopt` only sets allocator parameters, takes plain
        // integers and holds the allocator lock while it does; no thread
        // has been spawned yet.
        unsafe {
            mallopt(param, 128 * 1024);
        }
    }
}

/// Other allocators keep their defaults.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_malloc_thresholds() {}

/// Resets `VmHWM` to the current resident set, so the next read gives
/// the peak since this call. Without kernel support the peak stays the
/// process-wide one.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
