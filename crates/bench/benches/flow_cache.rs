//! flow_cache — the epoch-keyed memoized fast path under flow-repetitive
//! vs adversarial traffic.
//!
//! Real validation traffic is heavily flow-repetitive: the same few
//! key-tuples arrive over and over while the table state sits still. The
//! flow cache (`netdebug_dataplane::cache`) memoizes the full compiled
//! execution per (port, length, live bytes of the parsed prefix) and
//! replays it on a hit without entering the interpreter loop: the bytes
//! the program never reads are not part of the key, and a hit passes
//! them through from its own packet. Two programs from the cacheable
//! (stateless, exact-match) class:
//!
//! * **`l2_switch`** — the corpus minimum: one-header parse, one exact
//!   table, one counter. Its engine cost is already close to the
//!   per-packet API floor (output-frame allocation + result delivery),
//!   so the cache's end-to-end margin here is structurally thin; the
//!   rows quantify exactly that floor.
//! * **`exact_router`** — a deeper member of the same class, defined
//!   below: Ethernet/IPv4/UDP parse, three exact-match tables (L2
//!   forward, L3 host screen, L4 service screen), per-port rx counter.
//!   Re-executing it costs several times the API floor, which is where
//!   memoization pays — this is the gated configuration.
//!
//! Two streams per program: **repeated** (8 installed flows cycling
//! through every batch — all-hit after warm-up) and **uniform-random**
//! (65,536 LCG-scattered flow keys, far beyond the cache's slots — the
//! all-miss adversarial bound). `exact_router` gets a third, **swept**:
//! the repeated flows with the UDP source port, which the program never
//! reads, swept over 65,536 frames, so no two frames of a batch are
//! alike and every one hits. Each runs cache-on and cache-off,
//! untraced (`process_batch`) and on the streaming
//! traced path (`process_batch_with` into a `NullSink`, which reads no
//! records, so only the stage lane is recorded, as for a device tap).
//! Numbers and end-of-run `CacheStats` land in `BENCH_flowcache.json`.
//! The all-miss rows measure a **dormant** cache: after 256 lookups with
//! no hit and no install it lets 15 packets in 16 through unprobed, and
//! their `cache_stats` say so in `skipped`.
//!
//! Smoke gates (run in CI), on `exact_router`, untraced: cache-on ≥ 2×
//! cache-off on the repeated stream and on the swept one, whose hit
//! ratio must reach 0.99 (a key over the whole parsed prefix read 0.03
//! there), and the cache (a dormant one's
//! stride counter, plus one filtered first-time miss — one hash + two
//! filter words — per 16 packets) adds ≤ 40 ns/packet on the all-miss
//! stream —
//! an absolute cost, `1/on − 1/off`, because a percentage of the
//! cache-off rate tightens every time the pipeline behind it gets faster.
//! `l2_switch` gets no-collapse floors (repeated must still win; random
//! must stay within noise of its floor-bound baseline), and every
//! configuration must produce FNV-identical verdict streams with the
//! cache on and off. The two cache-off random rows also gate what
//! bit-packed headers cost: `exact_router` (Ethernet + IPv4's nibbles and
//! 3+13-bit pair + UDP, three tables) must reach ≥ 0.25× `l2_switch`
//! (Ethernet only, one table) — it read 0.17× while field access looped
//! over single bits.

use netdebug_bench::{
    banner, dec, fnv, host_cores, row, switch_dataplane, time_ops, Report, Value, FNV_OFFSET,
};
use netdebug_dataplane::{Dataplane, NullSink, Verdict};
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use std::hint::black_box;
use std::process::ExitCode;

const BATCH: usize = 4096;
const ROUNDS: usize = 50;
const TRIALS: usize = 3;
const FLOWS: usize = 8;
const RANDOM_FLOWS: usize = 65_536;

/// The deeper cacheable pipeline: same class as `l2_switch` (stateless,
/// pure exact-match, counters only), three headers and three tables
/// deep. The cache keys on the fields the code reads — the destination
/// MAC, the EtherType, the IPv4 protocol and destination and the UDP
/// destination port — and nothing else of the 42-byte parsed prefix.
const EXACT_ROUTER: &str = r#"
    const bit<16> TYPE_IPV4 = 0x800;
    const bit<8>  PROTO_UDP = 17;

    header ethernet_t {
        bit<48> dstAddr;
        bit<48> srcAddr;
        bit<16> etherType;
    }

    header ipv4_t {
        bit<4>  version;
        bit<4>  ihl;
        bit<8>  diffserv;
        bit<16> totalLen;
        bit<16> identification;
        bit<3>  flags;
        bit<13> fragOffset;
        bit<8>  ttl;
        bit<8>  protocol;
        bit<16> hdrChecksum;
        bit<32> srcAddr;
        bit<32> dstAddr;
    }

    header udp_t {
        bit<16> srcPort;
        bit<16> dstPort;
        bit<16> length_;
        bit<16> checksum;
    }

    struct headers_t {
        ethernet_t ethernet;
        ipv4_t     ipv4;
        udp_t      udp;
    }

    struct metadata_t { bit<8> marks; }

    parser RouterParser(packet_in pkt, out headers_t hdr,
                        inout metadata_t meta,
                        inout standard_metadata_t standard_metadata) {
        state start {
            pkt.extract(hdr.ethernet);
            transition select(hdr.ethernet.etherType) {
                TYPE_IPV4: parse_ipv4;
                default: accept;
            }
        }
        state parse_ipv4 {
            pkt.extract(hdr.ipv4);
            transition select(hdr.ipv4.protocol) {
                PROTO_UDP: parse_udp;
                default: accept;
            }
        }
        state parse_udp {
            pkt.extract(hdr.udp);
            transition accept;
        }
    }

    control RouterIngress(inout headers_t hdr, inout metadata_t meta,
                          inout standard_metadata_t standard_metadata) {
        counter(16) port_rx;

        action set_egress(bit<9> port) {
            standard_metadata.egress_spec = port;
        }
        action drop() { mark_to_drop(); }
        action mark() { meta.marks = meta.marks + 1; }

        table dmac {
            key = { hdr.ethernet.dstAddr: exact; }
            actions = { set_egress; drop; }
            size = 1024;
            default_action = drop();
        }
        table dst_host {
            key = { hdr.ipv4.dstAddr: exact; }
            actions = { mark; NoAction; }
            size = 1024;
            default_action = NoAction();
        }
        table svc {
            key = { hdr.udp.dstPort: exact; }
            actions = { mark; NoAction; }
            size = 1024;
            default_action = NoAction();
        }
        apply {
            port_rx.count(standard_metadata.ingress_port);
            if (hdr.ipv4.isValid() && hdr.udp.isValid()) {
                dmac.apply();
                dst_host.apply();
                svc.apply();
            } else {
                drop();
            }
        }
    }

    control RouterDeparser(packet_out pkt, in headers_t hdr) {
        apply {
            pkt.emit(hdr.ethernet);
            pkt.emit(hdr.ipv4);
            pkt.emit(hdr.udp);
        }
    }

    V1Switch(RouterParser(), RouterIngress(), RouterDeparser()) main;
"#;

fn mac(low: u64) -> EthernetAddress {
    let b = low.to_be_bytes();
    EthernetAddress::new(b[2], b[3], b[4], b[5], b[6], b[7])
}

fn switch() -> Dataplane {
    switch_dataplane(0x0200_0000_0010, FLOWS)
}

fn router() -> Dataplane {
    let ir = netdebug_p4::compile(EXACT_ROUTER).unwrap();
    let mut dp = Dataplane::new(ir);
    for j in 0..FLOWS as u128 {
        dp.install_exact(
            "dmac",
            vec![0x0200_0000_0020 + j],
            "set_egress",
            vec![j % 4 + 1],
        )
        .unwrap();
        dp.install_exact("dst_host", vec![0x0A00_0000 + j], "mark", vec![])
            .unwrap();
        dp.install_exact("svc", vec![4000 + j], "mark", vec![])
            .unwrap();
    }
    dp
}

fn l2_frame(dmac_low: u64) -> Vec<u8> {
    PacketBuilder::ethernet(EthernetAddress::new(2, 0, 0, 0, 0, 1), mac(dmac_low))
        .payload(b"flow-cache-bench")
        .build()
}

fn router_frame(dmac_low: u64, dst: Ipv4Address, sport: u16, dport: u16) -> Vec<u8> {
    PacketBuilder::ethernet(EthernetAddress::new(2, 0, 0, 0, 0, 1), mac(dmac_low))
        .ipv4(Ipv4Address::new(10, 9, 0, 1), dst)
        .udp(sport, dport)
        .payload(b"flow-cache-bench")
        .build()
}

/// An LCG over the same constants the runtime's own shuffles use.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state
}

/// Repeated streams: `FLOWS` installed flow keys cycling every batch
/// (× 4 ingress ports). Random streams: `RANDOM_FLOWS` distinct keys —
/// random dmacs for `l2_switch`, random IPv4 destinations (under a hot
/// installed dmac, so verdicts stay Forward) for `exact_router`.
fn l2_repeated() -> Vec<Vec<u8>> {
    (0..FLOWS as u64)
        .map(|j| l2_frame(0x0200_0000_0010 + j))
        .collect()
}

fn l2_random() -> Vec<Vec<u8>> {
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    (0..RANDOM_FLOWS)
        .map(|_| l2_frame(0x0200_0000_0000 | (lcg(&mut s) >> 24 & 0xFFFF_FFFF)))
        .collect()
}

/// Frame `i` of the repeated router flows, from UDP source port `sport`.
fn router_flow(i: usize, sport: u16) -> Vec<u8> {
    let j = (i % FLOWS) as u64;
    router_frame(
        0x0200_0000_0020 + j,
        Ipv4Address::new(10, 0, 0, j as u8),
        sport,
        4000 + j as u16,
    )
}

fn router_repeated() -> Vec<Vec<u8>> {
    (0..FLOWS).map(|i| router_flow(i, 4000)).collect()
}

/// The repeated flows, each frame from its own UDP source port.
fn router_swept() -> Vec<Vec<u8>> {
    (0..RANDOM_FLOWS)
        .map(|i| router_flow(i, (i / FLOWS) as u16))
        .collect()
}

fn router_random() -> Vec<Vec<u8>> {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    (0..RANDOM_FLOWS)
        .map(|_| {
            let r = lcg(&mut s);
            let b = (r >> 16).to_be_bytes();
            router_frame(
                0x0200_0000_0020,
                Ipv4Address::new(172, b[5], b[6], b[7]),
                4000,
                4000,
            )
        })
        .collect()
}

fn batch_of(frames: &[Vec<u8>], round: usize) -> Vec<(u16, &[u8])> {
    (0..BATCH)
        .map(|i| {
            let k = (round * BATCH + i) % frames.len();
            ((i % 4) as u16, frames[k].as_slice())
        })
        .collect()
}

/// Every distinct batch the stream produces (the flow pool cycles, so
/// rounds repeat after `frames.len() / BATCH` batches) — prebuilt so the
/// timed loop measures the engine, not batch assembly.
fn batches(frames: &[Vec<u8>]) -> Vec<Vec<(u16, &[u8])>> {
    let distinct = frames.len().div_ceil(BATCH).min(ROUNDS);
    (0..distinct).map(|round| batch_of(frames, round)).collect()
}

/// Best-of-`TRIALS` sustained rate, each trial one sweep of `ROUNDS`
/// batches (so the end-of-run `CacheStats` repeat exactly). The harness's
/// untimed first pass is the warm-up: cache population, allocator steady
/// state. `streamed` drives `process_batch_with` + `NullSink` with tracing
/// on — only the stage lane is recorded, nothing is decoded or allocated
/// per packet — instead of untraced `process_batch`.
fn measure(dp: &mut Dataplane, frames: &[Vec<u8>], streamed: bool) -> f64 {
    let prebuilt = batches(frames);
    let mut sink = NullSink;
    let sweep = || {
        for round in 0..ROUNDS {
            let pkts = &prebuilt[round % prebuilt.len()];
            if streamed {
                dp.process_batch_with(pkts, 0, &mut sink);
            } else {
                black_box(dp.process_batch(pkts, 0));
            }
        }
        ROUNDS * BATCH
    };
    time_ops(TRIALS, 0.0, sweep).rate()
}

/// FNV digest over the verdict stream of one pass — the parity witness
/// that cache-on and cache-off are observationally identical.
fn digest(dp: &mut Dataplane, frames: &[Vec<u8>]) -> u64 {
    let mut h = FNV_OFFSET;
    for round in 0..8 {
        let pkts = batch_of(frames, round);
        for (verdict, _) in dp.process_batch(&pkts, 0) {
            match verdict {
                Verdict::Forward { port, data } => {
                    h = fnv(h, &[1]);
                    h = fnv(h, &port.to_le_bytes());
                    h = fnv(h, &data);
                }
                Verdict::Flood { data } => {
                    h = fnv(h, &[2]);
                    h = fnv(h, &data);
                }
                Verdict::Drop(reason) => {
                    h = fnv(h, &[3]);
                    h = fnv(h, format!("{reason:?}").as_bytes());
                }
            }
        }
    }
    h
}

/// One measured program: name, deploy-fn, and its named streams.
type Workload = (
    &'static str,
    fn() -> Dataplane,
    Vec<(&'static str, Vec<Vec<u8>>)>,
);

fn main() -> ExitCode {
    banner("flow_cache: memoized fast path, repeated vs uniform-random flows");
    let mut report = Report::new("flow_cache", "BENCH_flowcache.json", BATCH);
    report.set(
        "programs",
        Value::List(vec!["l2_switch".into(), "exact_router".into()]),
    );
    report.set("batch", BATCH);
    report.set("rounds", ROUNDS);
    report.set("cores", host_cores());
    let programs: [Workload; 2] = [
        (
            "l2_switch",
            switch,
            vec![("repeated", l2_repeated()), ("random", l2_random())],
        ),
        (
            "exact_router",
            router,
            vec![
                ("repeated", router_repeated()),
                ("random", router_random()),
                ("swept", router_swept()),
            ],
        ),
    ];

    let mut rates = std::collections::BTreeMap::new();
    let mut hit_ratios = std::collections::BTreeMap::new();
    for (prog, build, streams) in &programs {
        for (mode_name, streamed) in [("untraced", false), ("streamed", true)] {
            for (stream_name, frames) in streams {
                for cache_on in [false, true] {
                    let mut dp = build();
                    dp.set_tracing(streamed);
                    dp.set_flow_cache(cache_on);
                    let pps = measure(&mut dp, frames, streamed);
                    let stats = dp.cache_stats();
                    let cache_stats = Value::Obj(row!["hits" => stats.hits,
                        "misses" => stats.misses, "skipped" => stats.skipped,
                        "invalidations" => stats.invalidations,
                        "occupancy" => stats.occupancy, "capacity" => stats.capacity]);
                    report.row(row!["program" => *prog, "mode" => mode_name,
                        "stream" => *stream_name, "cache" => cache_on, "pps" => dec(pps, 0),
                        "cache_stats" => cache_stats]);
                    rates.insert((*prog, mode_name, *stream_name, cache_on), pps);
                    let probed = stats.hits + stats.misses + stats.skipped;
                    hit_ratios.insert(
                        (*prog, mode_name, *stream_name, cache_on),
                        stats.hits as f64 / probed.max(1) as f64,
                    );
                }
            }
        }
    }

    // Parity witness: identical verdict digests with the cache on and
    // off, on every stream of both programs (repeated exercises the
    // hit-replay path, random the miss/filter path, swept hits that pass
    // unkeyed bytes through), traced and untraced.
    for (prog, build, streams) in &programs {
        for traced in [true, false] {
            for (stream_name, frames) in streams {
                let [d_on, d_off] = [true, false].map(|cache_on| {
                    let mut dp = build();
                    dp.set_tracing(traced);
                    dp.set_flow_cache(cache_on);
                    digest(&mut dp, frames)
                });
                report.gate(
                    &format!("cache-on and cache-off verdicts agree: {prog}/{stream_name} traced={traced}"),
                    d_on == d_off,
                    format!("0x{d_on:016x} vs 0x{d_off:016x}"),
                );
            }
        }
    }

    // ---- Gates (run in CI) ----
    // The headline, on the exact-match router, untraced: replaying a
    // memoized outcome must be at least twice as fast as re-running the
    // pipeline.
    let rep_on = rates[&("exact_router", "untraced", "repeated", true)];
    let rep_off = rates[&("exact_router", "untraced", "repeated", false)];
    report.gate(
        "the flow cache gives >= 2x on exact_router's repeated flows (untraced)",
        rep_on / rep_off >= 2.0,
        format!("{rep_on:.0} vs {rep_off:.0} pps ({:.2}x)", rep_on / rep_off),
    );
    // The swept stream differs frame to frame only in bytes the program
    // never reads, so it hits as the repeated one does.
    let swept_on = rates[&("exact_router", "untraced", "swept", true)];
    let swept_off = rates[&("exact_router", "untraced", "swept", false)];
    let swept_hits = hit_ratios[&("exact_router", "untraced", "swept", true)];
    report.gate(
        "exact_router's UDP source-port sweep hits (hit ratio >= 0.99, untraced)",
        swept_hits >= 0.99,
        format!("{swept_hits:.4}"),
    );
    report.gate(
        "the flow cache gives >= 2x on exact_router's UDP source-port sweep (untraced)",
        swept_on / swept_off >= 2.0,
        format!(
            "{swept_on:.0} vs {swept_off:.0} pps ({:.2}x)",
            swept_on / swept_off
        ),
    );
    // The bound: on the all-miss stream the cache (dormant after 256
    // lookups, so a filtered miss per 16 packets) must add at most 40 ns
    // per packet to the pipeline run.
    let rnd_on = rates[&("exact_router", "untraced", "random", true)];
    let rnd_off = rates[&("exact_router", "untraced", "random", false)];
    let miss_ns = (1.0 / rnd_on - 1.0 / rnd_off) * 1e9;
    report.gate(
        "a filtered flow-cache miss costs <= 40 ns/packet on exact_router's uniform-random stream",
        miss_ns <= 40.0,
        format!("{rnd_on:.0} vs {rnd_off:.0} pps ({miss_ns:.1} ns)"),
    );
    // Bit-packed headers at word width: three headers and three tables
    // deep must stay within 4x of the corpus minimum on the same stream.
    let l2_rnd_off = rates[&("l2_switch", "untraced", "random", false)];
    report.gate(
        "exact_router reaches >= 0.25x l2_switch with the cache off (uniform-random, untraced)",
        rnd_off / l2_rnd_off >= 0.25,
        format!(
            "{rnd_off:.0} vs {l2_rnd_off:.0} pps ({:.2}x)",
            rnd_off / l2_rnd_off
        ),
    );
    // l2_switch floors: its engine cost sits near the per-packet
    // allocation floor, so the margin is structurally thinner — but
    // repeated flows must still win outright and the all-miss stream
    // must not collapse.
    let l2_ratio = |stream| {
        rates[&("l2_switch", "untraced", stream, true)]
            / rates[&("l2_switch", "untraced", stream, false)]
    };
    let (u_rep, u_rnd) = (l2_ratio("repeated"), l2_ratio("random"));
    report.gate(
        "the flow cache still wins l2_switch's repeated flows (>= 1.05x)",
        u_rep >= 1.05,
        format!("{u_rep:.2}x"),
    );
    report.gate(
        "the flow cache does not collapse l2_switch's all-miss stream (>= 0.75x)",
        u_rnd >= 0.75,
        format!("{u_rnd:.2}x"),
    );
    report.finish()
}
