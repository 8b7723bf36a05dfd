//! Exact order statistics, process counters from `/proc/self`, and the
//! PNG well-formedness check.

use std::time::Duration;

/// Kernel clock ticks per second for `/proc/self/stat` times (`USER_HZ`,
/// 100 on Linux).
const USER_HZ: u64 = 100;

/// The `p`-quantile (0 < p ≤ 1) of `sorted` by the nearest-rank rule: an
/// actual sample, never an interpolated or bucketed value. 0 when empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The highest of the usual percentiles that has at least ten samples
/// beyond it, as `(percentile, value)`; `None` below twenty samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [99.99, 99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| sorted.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, quantile(sorted, p / 100.0)))
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// User plus system CPU time of the whole process, all threads included.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after it start
    // past the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<u64> = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    let ticks: u64 = fields.iter().sum();
    Duration::from_micros(ticks * 1_000_000 / USER_HZ)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks a PNG: the signature, then well-formed chunks with correct
/// CRCs, `IHDR` first and `IEND` last.
pub fn check_png(bytes: &[u8]) -> Result<(), String> {
    const SIGNATURE: [u8; 8] = [0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n'];
    if !bytes.starts_with(&SIGNATURE) {
        return Err("no PNG signature".to_string());
    }
    let mut at = SIGNATURE.len();
    let mut first = true;
    while at < bytes.len() {
        let header = bytes.get(at..at + 8).ok_or("truncated PNG chunk header")?;
        let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let kind = &header[4..8];
        let end = at + 8 + len;
        let crc = bytes.get(end..end + 4).ok_or("truncated PNG chunk")?;
        if crc32(&bytes[at + 4..end]).to_be_bytes() != crc {
            return Err(format!(
                "bad CRC on PNG chunk {}",
                String::from_utf8_lossy(kind)
            ));
        }
        if first && kind != b"IHDR" {
            return Err("first PNG chunk is not IHDR".to_string());
        }
        first = false;
        at = end + 4;
        if kind == b"IEND" {
            return if at == bytes.len() {
                Ok(())
            } else {
                Err("bytes after IEND".to_string())
            };
        }
    }
    Err("PNG has no IEND".to_string())
}

/// CRC-32 (IEEE, as PNG uses it), bitwise: an implementation independent
/// of the encoder under test.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_samples() {
        let s = sorted((1..=10).map(f64::from).collect());
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.9), 9.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(tail(&s), None);
        let s = sorted((1..=1000).map(f64::from).collect());
        assert_eq!(tail(&s), Some((99.0, 990.0)));
    }

    #[test]
    fn crc_matches_the_png_reference_value() {
        assert_eq!(crc32(b"IEND"), 0xAE42_6082);
    }
}
