//! Process-level host measurements: CPU time and peak resident set, read
//! from the process's own `/proc/self` files.

/// User plus system CPU seconds of this process so far (all threads,
/// including ones that have exited). `clk_tck` is the kernel's clock-tick
/// rate, `getconf CLK_TCK`.
pub fn cpu_s(clk_tck: f64) -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields restart after its ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line: indices 11
    // and 12 when the state field after the command name is index 0.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / clk_tck
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_time_grows_with_work() {
        let before = super::cpu_s(100.0);
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 120 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(super::cpu_s(100.0) > before);
        assert!(super::peak_rss_mb() > 0.0);
    }
}
