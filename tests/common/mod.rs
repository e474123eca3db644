//! Helpers shared by the integration tests.

/// How often the calling thread has given up its CPU of its own accord
/// (blocked or slept) so far, or why that cannot be read here.
pub fn voluntary_switches() -> Result<u64, String> {
    let path = "/proc/thread-self/status";
    let status = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("{path}: no voluntary_ctxt_switches line"))
}
