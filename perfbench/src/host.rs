//! The host and build record printed with every run.

use crate::report::Json;

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git (the benchmark reads only its checkout).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, r) = l.split_once(' ')?;
        (r == name).then(|| id.to_string())
    })
}

/// `true` when span recording was compiled out (`obs-off`).
fn obs_off() -> bool {
    let was = errflow_obs::trace::enabled();
    errflow_obs::trace::set_enabled(true);
    let off = !errflow_obs::trace::enabled();
    errflow_obs::trace::set_enabled(was);
    off
}

fn isa() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut v = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            v.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            v.push("avx512f");
        }
        v
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// The record as one JSON object.
pub fn record() -> Json {
    let pool = errflow_tensor::pool::global();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .num("nproc", nproc as f64)
        .raw(
            "isa",
            format!(
                "[{}]",
                isa()
                    .iter()
                    .map(|f| format!("\"{f}\""))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        )
        .num(
            "hardware_threads",
            errflow_tensor::pool::hardware_threads() as f64,
        )
        .num("max_concurrency", pool.max_concurrency() as f64)
        .str(
            "errflow_threads",
            &std::env::var("ERRFLOW_THREADS").unwrap_or_else(|_| "unset".into()),
        )
        .bool("obs_off", obs_off())
        .str("rustc", env!("PERFBENCH_RUSTC_VERSION"))
        .str("commit", &git_commit().unwrap_or_else(|| "unknown".into()))
}
