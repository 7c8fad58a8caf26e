//! Host fingerprint and process memory, read from Linux procfs/sysfs.

use std::process::Command;

/// Peak resident set of this process (`VmHWM`) in MiB. Each benchmark
/// invocation runs one workload in its own process, so the watermark is
/// that workload's own.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Fresh processes `peak_rss_mb` takes the largest high-water mark of.
const RSS_PROBES: usize = 5;

/// The peak RSS of `RSS_PROBES` fresh processes, run one after another,
/// each of which sets `workload` up, runs its warm-up unit and prints its
/// own `VmHWM`. The allocator's high-water mark differs between processes
/// doing identical work (46, 50 or 60 MiB on `sweep-trace`), so one
/// process's value flips between runs; the largest of five repeats. Each
/// child is waited for before the next starts.
pub fn probe_peak_rss(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = seed.to_string();
    (0..RSS_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed])
                .args(["--seconds", "1", "--trace", "0", "--rss-probe", "1"])
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let peak = text
                .lines()
                .last()
                .and_then(|l| l.trim().parse::<f64>().ok());
            match peak {
                Some(mb) if out.status.success() && mb.is_finite() => Ok(mb),
                _ => Err(format!("probe exited with {}: {text:?}", out.status)),
            }
        })
        .collect()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// First line of a command's standard output, or `"unavailable"`. The
/// child is waited for before returning.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Whether the build asks for `-C target-cpu=native`, through
/// `RUSTFLAGS` or the checkout's `.cargo/config.toml`.
fn target_cpu_native() -> bool {
    let wanted = |s: &str| s.replace([' ', '"', ','], "").contains("target-cpu=native");
    std::env::var("RUSTFLAGS").is_ok_and(|f| wanted(&f))
        || std::fs::read_to_string(".cargo/config.toml").is_ok_and(|c| wanted(&c))
}

/// The host fingerprint stamped on every result, as a JSON object.
pub fn fingerprint_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".to_string());
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map_or_else(|_| "unavailable".to_string(), |s| s.trim().to_string());
    let threads = std::env::var("HOTPOTATO_THREADS").unwrap_or_default();
    format!(
        "{{\"nproc\":{},\"hotpotato_threads\":\"{}\",\"cpu\":\"{}\",\"l3\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\",\"target_cpu_native\":{}}}",
        nproc(),
        escape(&threads),
        escape(&cpu),
        escape(&l3),
        escape(&command_line("rustc", &["-V"])),
        escape(&command_line("git", &["rev-parse", "HEAD"])),
        target_cpu_native()
    )
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
