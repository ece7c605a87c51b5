//! Shared helpers for the NetDebug benchmark harness.
//!
//! Every bench target regenerates one artifact of the paper (a figure, the
//! case study, or a quantitative experiment implied by a §3 use-case) and
//! prints the rows/series in a stable format. EXPERIMENTS.md records the
//! mapping and the expected shapes.

use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

/// Source MAC used by all bench traffic.
pub fn src_mac() -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, 1)
}

/// Destination MAC used by all bench traffic.
pub fn dst_mac() -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, 2)
}

/// A routable IPv4/UDP frame for the `ipv4_forward` program.
pub fn routable_frame(dst: Ipv4Address) -> Vec<u8> {
    PacketBuilder::ethernet(src_mac(), dst_mac())
        .ipv4(Ipv4Address::new(10, 0, 0, 1), dst)
        .udp(4000, 4001)
        .payload(b"bench")
        .build()
}

/// The malformed (version 5) variant the parser must reject.
pub fn malformed_frame() -> Vec<u8> {
    let mut f = routable_frame(Ipv4Address::new(10, 0, 0, 9));
    f[14] = 0x55;
    f
}

/// An Ethernet template of exactly `size - 28` bytes (so that the generated
/// wire frame, template + 28-byte test header, is `size` bytes).
pub fn template_for(size: usize) -> Vec<u8> {
    PacketBuilder::ethernet(src_mac(), dst_mac())
        .payload(&vec![0x5Au8; size - 28 - 14])
        .build()
}

/// Print a section header in the bench output.
pub fn banner(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Host core count (1 when undetectable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Short git revision of the checkout the numbers were taken at, or
/// `"unknown"` outside a git work tree (tarball builds, sandboxes).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The shared metadata block every `BENCH_*.json` artifact embeds as its
/// `"meta"` member: host cores, the bench's batch size (or equivalent
/// work unit) and the git revision — enough to judge whether two
/// artifacts are comparable.
pub fn meta_json(batch: usize) -> String {
    format!(
        "{{\"cores\": {}, \"batch\": {batch}, \"git_rev\": \"{}\"}}",
        host_cores(),
        git_rev()
    )
}

/// FNV-1a offset basis — the seed for [`fnv`] digests.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running FNV-1a digest. Benches use this to compare
/// observable outcomes (verdicts, clocks, counters) across configurations
/// without storing them: identical behaviour ⇒ identical digest.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}
