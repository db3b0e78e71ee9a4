//! Peak memory of decoding one large request body.
//!
//! This file holds exactly one test, so the process's `VmHWM` (peak
//! resident set, from `/proc/self/status`) moves for that test alone.

#![cfg(target_os = "linux")]

use fairbridge_serve::wire;

/// The process's peak resident set, in bytes.
fn vm_hwm() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse::<usize>().ok())
        .expect("VmHWM line");
    kib * 1024
}

#[test]
fn a_16_mb_body_of_8m_codes_peaks_under_3x_its_size() {
    const CODES: usize = 8_000_000;
    let head = concat!(
        "{\"dataset\":{\"columns\":[{\"name\":\"g\",\"type\":\"categorical\",",
        "\"role\":\"protected\",\"levels\":[\"a\",\"b\"],\"codes\":["
    );
    let tail = "]}]},\"protected\":[\"g\"]}";
    let mut body = String::with_capacity(head.len() + 2 * CODES + tail.len());
    body.push_str(head);
    for i in 0..CODES {
        body.push_str(if i == 0 { "0" } else { ",0" });
    }
    body.push_str(tail);

    let before = vm_hwm();
    let req = wire::parse_audit_request(body.as_bytes()).expect("the body decodes");
    let growth = vm_hwm().saturating_sub(before);
    assert_eq!(req.dataset.n_rows(), CODES);
    // The codes themselves are 4 bytes a row, 2× the body; a `Value`
    // tree is 32 bytes a row.
    assert!(
        growth <= 3 * body.len(),
        "peak grew {} MiB decoding a {} MiB body",
        growth >> 20,
        body.len() >> 20
    );
}
