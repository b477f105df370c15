//! Host fingerprint and process memory, printed with every result.

use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `None` outside a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over every regular file under `dirs` (sorted by path): a
/// content identity of the measured source tree, for checkouts that
/// carry no git metadata.
fn source_digest(root: &Path, dirs: &[&str]) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() => walk(&p, out),
                Ok(t) if t.is_file() => out.push(p),
                _ => {}
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        let p = root.join(d);
        if p.is_file() {
            files.push(p);
        } else {
            walk(&p, &mut files);
        }
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        if let Ok(rel) = f.strip_prefix(root) {
            bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
        }
        bytes.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    dosco_core::policy::fnv1a64(&bytes)
}

/// One JSON line describing the host and the code measured (read from
/// the checkout this benchmark was built in): core count,
/// worker-pool width (`DOSCO_THREADS`), the GEMM kernel the SIMD
/// dispatch selected, the git commit (or `null`) plus a digest of the
/// workspace sources, and the run's workload and seed.
pub fn fingerprint(workload: &str, seed: u64, trace: bool) -> String {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let commit = git_commit(root).map_or("null".to_string(), |c| format!("\"{c}\""));
    format!(
        "{{\"nproc\": {nproc}, \"pool_threads\": {}, \"dosco_threads_env\": {}, \
         \"simd\": \"{}\", \"git_commit\": {commit}, \"source_fnv\": \"{:016x}\", \
         \"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}}}",
        dosco_nn::par::configured_threads(),
        std::env::var("DOSCO_THREADS").map_or("null".to_string(), |v| format!("{v:?}")),
        dosco_nn::simd::active().label(),
        source_digest(root, &["crates", "vendor", "Cargo.lock"]),
    )
}
