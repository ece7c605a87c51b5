//! Seeded workload inputs and their independent expectations.
//!
//! Nothing in this file calls the code under test: frames, rules, churn
//! steps and the expected fate of every packet are plain data computed
//! from `--seed` alone, so the oracle cannot inherit a bug from the
//! device it judges. `layers.rs` turns the data into the repo's types.
//!
//! The seed picks identities (addresses, MACs, ports, which rule a stream
//! targets inside its stratum); the *structure* of every workload — how
//! many streams of which kind, which frame size, which prefix length or
//! scan depth each stream exercises — is fixed, so run-to-run spread
//! across seeds measures the machine, not the dice.

/// Frames per dispatch window of a session stream
/// (`NetDebug::STREAM_WINDOW`; asserted equal in `layers.rs`).
pub const WINDOW: u64 = 256;
/// Bytes the generator appends to every template (the test header).
pub const TEST_HEADER_LEN: usize = 28;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    L2LongStream,
    RouterManyFlows,
    AclTernary512,
    FleetPaced,
    L2ChurnSteady,
    CorpusConformance,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::L2LongStream,
        Workload::RouterManyFlows,
        Workload::AclTernary512,
        Workload::FleetPaced,
        Workload::L2ChurnSteady,
        Workload::CorpusConformance,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::L2LongStream => "l2_long_stream",
            Workload::RouterManyFlows => "router_many_flows",
            Workload::AclTernary512 => "acl_ternary_512",
            Workload::FleetPaced => "fleet_paced",
            Workload::L2ChurnSteady => "l2_churn_steady",
            Workload::CorpusConformance => "corpus_conformance",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Deterministic splitmix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    L2Switch,
    Ipv4Forward,
    AclFirewall,
}

/// One table-key pattern.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pat {
    Value(u128),
    Mask { value: u128, mask: u128 },
    Any,
}

impl Pat {
    fn matches(&self, key: u128) -> bool {
        match *self {
            Pat::Value(v) => key == v,
            Pat::Mask { value, mask } => key & mask == value & mask,
            Pat::Any => true,
        }
    }
}

/// One table entry. The action's last argument is the egress port
/// (`forward(port)`, `ipv4_forward(mac, port)`, `allow(port)`); `drop`
/// takes none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    pub patterns: Vec<Pat>,
    pub action: &'static str,
    pub args: Vec<u128>,
    pub priority: i32,
}

impl Rule {
    fn fate(&self) -> Expect {
        match self.args.last() {
            Some(&port) if self.action != "drop" => Expect::Forward(port as u16),
            _ => Expect::Drop,
        }
    }
}

/// What the data plane must do with every packet of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Forward(u16),
    Drop,
}

/// One generated stream: `count` frames of `template`, byte `sweep`
/// advancing by one per packet (so at most 256 distinct frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    pub id: u16,
    pub template: Vec<u8>,
    pub count: u64,
    pub as_port: u16,
    pub sweep: Option<usize>,
    /// Inter-packet gap in device cycles (0 = back-to-back).
    pub gap: u64,
    pub expect: Expect,
    /// The table key tuple of packet 0 …
    pub key: Vec<u128>,
    /// … and which element of it the sweep moves (low byte, wrapping).
    pub key_sweep: Option<usize>,
}

impl Stream {
    /// The table key tuple of packet `seq`.
    pub fn key_at(&self, seq: u64) -> Vec<u128> {
        let mut key = self.key.clone();
        if let Some(i) = self.key_sweep {
            let low = (key[i] as u8).wrapping_add(seq as u8);
            key[i] = (key[i] & !0xFF) | u128::from(low);
        }
        key
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnStep {
    Install(Rule),
    Remove(Rule),
}

/// A traffic workload: one program, one populated table, streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traffic {
    pub program: Program,
    pub table: &'static str,
    /// Initial entries, highest priority first.
    pub rules: Vec<Rule>,
    pub streams: Vec<Stream>,
    /// `(window, step)`: published before that window of stream 0.
    pub churn: Vec<(u64, ChurnStep)>,
    /// Identical devices every stream is aimed at (1 = a session).
    pub devices: usize,
}

impl Traffic {
    pub fn packets_per_unit(&self) -> u64 {
        self.streams.iter().map(|s| s.count).sum::<u64>() * self.devices as u64
    }

    /// The independent oracle: first full match in priority order over
    /// the *generated* rules; a miss drops (both routed programs default
    /// to `drop`; the L2 workloads never miss).
    pub fn fate(&self, key: &[u128]) -> Expect {
        lookup(&self.rules, key).map_or(Expect::Drop, Rule::fate)
    }
}

fn lookup<'a>(rules: &'a [Rule], key: &[u128]) -> Option<&'a Rule> {
    rules
        .iter()
        .find(|r| r.patterns.iter().zip(key).all(|(p, k)| p.matches(*k)))
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    Traffic(Traffic),
    /// The conformance pass has no generated traffic; the seed rotates
    /// the order the corpus programs are checked in.
    Corpus {
        rotation: usize,
    },
}

pub fn generate(workload: Workload, seed: u64) -> Input {
    // Decorrelate workloads that share a seed.
    let mut rng = Rng::new(seed ^ (workload as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    match workload {
        Workload::L2LongStream => Input::Traffic(l2_long_stream(&mut rng)),
        Workload::RouterManyFlows => Input::Traffic(router_many_flows(&mut rng)),
        Workload::AclTernary512 => Input::Traffic(acl_ternary_512(&mut rng)),
        Workload::FleetPaced => Input::Traffic(fleet_paced(&mut rng)),
        Workload::L2ChurnSteady => Input::Traffic(l2_churn_steady(&mut rng)),
        Workload::CorpusConformance => Input::Corpus {
            rotation: rng.next() as usize,
        },
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

const ETHERTYPE_IPV4: u16 = 0x0800;
/// IEEE local-experimental ethertype for the pure-L2 frames.
const ETHERTYPE_LOCAL: u16 = 0x88B5;
const OFF_DMAC_LOW: usize = 5;
const OFF_IP_DST_LOW: usize = 14 + 19;
const OFF_SPORT_LOW: usize = 14 + 20 + 1;

fn mac(rng: &mut Rng) -> u64 {
    // Locally administered, unicast.
    (rng.next() & 0xFCFF_FFFF_FFFF) | 0x0200_0000_0000
}

/// An Ethernet template of `frame_len - 28` bytes (the generator appends
/// the test header, making the wire frame `frame_len`).
fn eth_template(dst: u64, src: u64, ethertype: u16, frame_len: usize) -> Vec<u8> {
    let mut f = Vec::with_capacity(frame_len);
    f.extend_from_slice(&dst.to_be_bytes()[2..]);
    f.extend_from_slice(&src.to_be_bytes()[2..]);
    f.extend_from_slice(&ethertype.to_be_bytes());
    f.resize(frame_len - TEST_HEADER_LEN, 0);
    f
}

struct Ipv4Udp {
    src: u32,
    dst: u32,
    proto: u8,
    sport: u16,
    dport: u16,
}

fn ipv4_template(rng: &mut Rng, h: &Ipv4Udp, frame_len: usize) -> Vec<u8> {
    let mut f = eth_template(mac(rng), mac(rng), ETHERTYPE_IPV4, frame_len);
    let ip_len = (frame_len - 14) as u16;
    let ip = &mut f[14..34];
    ip[0] = 0x45;
    ip[2..4].copy_from_slice(&ip_len.to_be_bytes());
    ip[8] = 64;
    ip[9] = h.proto;
    ip[12..16].copy_from_slice(&h.src.to_be_bytes());
    ip[16..20].copy_from_slice(&h.dst.to_be_bytes());
    let sum = ip
        .chunks(2)
        .map(|c| u32::from(u16::from_be_bytes([c[0], c[1]])))
        .sum::<u32>();
    let folded = (sum & 0xFFFF) + (sum >> 16);
    let csum = !((folded & 0xFFFF) + (folded >> 16)) as u16;
    ip[10..12].copy_from_slice(&csum.to_be_bytes());
    // A 64-byte frame's template ends two bytes into the L4 header (the
    // test header follows); only the routed programs, which never parse
    // L4, get frames that short.
    if f.len() >= 40 {
        f[34..36].copy_from_slice(&h.sport.to_be_bytes());
        f[36..38].copy_from_slice(&h.dport.to_be_bytes());
        f[38..40].copy_from_slice(&(ip_len - 20).to_be_bytes());
    }
    f
}

// ---------------------------------------------------------------------
// 1. l2_long_stream
// ---------------------------------------------------------------------

fn l2_long_stream(rng: &mut Rng) -> Traffic {
    let dst = mac(rng);
    let port = rng.below(4) as u16;
    let rule = Rule {
        patterns: vec![Pat::Value(u128::from(dst))],
        action: "forward",
        args: vec![u128::from(port)],
        priority: 0,
    };
    let stream = Stream {
        id: 1,
        template: eth_template(dst, mac(rng), ETHERTYPE_LOCAL, 64),
        count: 32_768,
        as_port: (port + 1) % 4,
        sweep: None,
        gap: 0,
        expect: Expect::Forward(port),
        key: vec![u128::from(dst)],
        key_sweep: None,
    };
    Traffic {
        program: Program::L2Switch,
        table: "dmac",
        rules: vec![rule],
        streams: vec![stream],
        churn: Vec::new(),
        devices: 1,
    }
}

// ---------------------------------------------------------------------
// 2. router_many_flows (and the routes fleet_paced shares)
// ---------------------------------------------------------------------

fn prefix_mask(len: u32) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

/// `per_len` routes at every prefix length 8..=32, longest first. Lengths
/// up to /24 live under first octets 1..=99, the longer ones under
/// 100..=119, so no generated route ever subdivides a stream's /24 and
/// every packet of a stream shares one longest match. 128..=223 stays
/// empty: the LPM-miss space.
fn routes(rng: &mut Rng, per_len: usize) -> Vec<Rule> {
    let mut seen = std::collections::BTreeSet::new();
    let mut rules = Vec::new();
    for len in (8..=32u32).rev() {
        let mut made = 0;
        while made < per_len {
            let octet = if len <= 24 {
                1 + rng.below(99)
            } else {
                100 + rng.below(20)
            } as u32;
            let prefix = ((octet << 24) | (rng.next() as u32 & 0x00FF_FFFF)) & prefix_mask(len);
            if !seen.insert((len, prefix)) {
                continue;
            }
            made += 1;
            rules.push(Rule {
                patterns: vec![Pat::Mask {
                    value: u128::from(prefix),
                    mask: u128::from(prefix_mask(len)),
                }],
                action: "ipv4_forward",
                args: vec![u128::from(mac(rng)), u128::from(rng.below(4))],
                priority: len as i32,
            });
        }
    }
    rules
}

/// A /24 whose longest match is a route of exactly `len` bits (or, for
/// `None`, no route at all) and which no earlier stream uses.
fn pick_slash24(
    rng: &mut Rng,
    rules: &[Rule],
    len: Option<u32>,
    used: &mut std::collections::BTreeSet<u32>,
) -> u32 {
    loop {
        let base = match len {
            Some(len) => {
                let of_len: Vec<&Rule> =
                    rules.iter().filter(|r| r.priority == len as i32).collect();
                let Pat::Mask { value, mask } =
                    of_len[rng.below(of_len.len() as u64) as usize].patterns[0]
                else {
                    unreachable!("routes are masks")
                };
                (value as u32 | (rng.next() as u32 & !(mask as u32))) & 0xFFFF_FF00
            }
            None => ((128 + rng.below(96) as u32) << 24) | (rng.next() as u32 & 0x00FF_FF00),
        };
        let longest = lookup(rules, &[u128::from(base)]).map(|r| r.priority as u32);
        if longest == len && used.insert(base) {
            return base;
        }
    }
}

/// Stream `i`'s kind is a function of `i` alone: every fifth misses LPM,
/// the rest cycle through the matched prefix lengths 8..=24.
fn routed_dst(
    rng: &mut Rng,
    rules: &[Rule],
    i: usize,
    used: &mut std::collections::BTreeSet<u32>,
) -> u32 {
    if i % 5 == 4 {
        pick_slash24(rng, rules, None, used)
    } else {
        let forward_index = i - i / 5;
        pick_slash24(rng, rules, Some(8 + (forward_index % 17) as u32), used)
    }
}

fn router_many_flows(rng: &mut Rng) -> Traffic {
    const SIZES: [usize; 3] = [64, 256, 1518];
    let rules = routes(rng, 40);
    let mut used = std::collections::BTreeSet::new();
    let mut traffic = Traffic {
        program: Program::Ipv4Forward,
        table: "ipv4_lpm",
        rules,
        streams: Vec::new(),
        churn: Vec::new(),
        devices: 1,
    };
    // 128 streams x 256 packets: the sweep has period 256, so this — not
    // 64 x 512 — is what makes all 32 768 destinations distinct (8x the
    // 4 096 flow-cache slots).
    for i in 0..128usize {
        let bad_version = i == 127;
        let dst = routed_dst(rng, &traffic.rules, i, &mut used);
        let header = Ipv4Udp {
            src: 0x0A00_0000 | (rng.next() as u32 & 0x00FF_FFFF),
            dst,
            proto: 17,
            sport: rng.next() as u16,
            dport: rng.next() as u16,
        };
        let mut template = ipv4_template(rng, &header, SIZES[i % 3]);
        let key = vec![u128::from(dst)];
        let expect = if bad_version {
            // The paper's reject path: IPv4 "version 5" must be dropped
            // by the parser, whatever the table says.
            template[14] = 0x55;
            Expect::Drop
        } else {
            traffic.fate(&key)
        };
        traffic.streams.push(Stream {
            id: i as u16,
            template,
            count: 256,
            as_port: (i % 4) as u16,
            sweep: Some(OFF_IP_DST_LOW),
            gap: 0,
            expect,
            key,
            key_sweep: Some(0),
        });
    }
    traffic
}

// ---------------------------------------------------------------------
// 3. acl_ternary_512
// ---------------------------------------------------------------------

/// (src mask, dst mask, protocol exact?, dst port exact?) — the eight
/// distinct mask tuples the 512 rules are dealt over.
const ACL_TUPLES: [(u32, u32, bool, bool); 8] = [
    (0xFFFF_FFFF, 0xFFFF_FFFF, true, true),
    (0xFFFF_FF00, 0xFFFF_FFFF, true, true),
    (0xFFFF_FFFF, 0xFFFF_FF00, true, true),
    (0xFFFF_FF00, 0xFFFF_FF00, true, true),
    (0xFFFF_0000, 0, true, true),
    (0, 0xFFFF_0000, true, true),
    (0xFFFF_FF00, 0xFFFF_FF00, false, true),
    (0xFFFF_FFFF, 0xFFFF_FFFF, true, false),
];
const ACL_RULES: usize = 512;

fn masked(value: u32, mask: u32) -> Pat {
    if mask == 0 {
        Pat::Any
    } else {
        Pat::Mask {
            value: u128::from(value & mask),
            mask: u128::from(mask),
        }
    }
}

fn acl_ternary_512(rng: &mut Rng) -> Traffic {
    let mut rules = Vec::with_capacity(ACL_RULES);
    for j in 0..ACL_RULES - 1 {
        let (src_mask, dst_mask, proto_exact, dport_exact) = ACL_TUPLES[j % 8];
        let exact = |on: bool, v: u64| {
            if on {
                Pat::Value(u128::from(v))
            } else {
                Pat::Any
            }
        };
        let (action, args) = if j % 4 == 0 {
            ("drop", Vec::new())
        } else {
            ("allow", vec![u128::from(rng.below(4))])
        };
        rules.push(Rule {
            patterns: vec![
                masked(rng.next() as u32, src_mask),
                masked(rng.next() as u32, dst_mask),
                exact(proto_exact, if rng.below(2) == 0 { 6 } else { 17 }),
                exact(dport_exact, rng.below(1 << 16)),
            ],
            action,
            args,
            priority: (ACL_RULES - j) as i32,
        });
    }
    // The lowest-priority catch-all fills the table to its declared size.
    rules.push(Rule {
        patterns: vec![Pat::Any; 4],
        action: "allow",
        args: vec![3],
        priority: 0,
    });
    let mut traffic = Traffic {
        program: Program::AclFirewall,
        table: "acl",
        rules,
        streams: Vec::new(),
        churn: Vec::new(),
        devices: 1,
    };
    // Every fourth stream matches only the catch-all (a full scan); the
    // other 96 each target one rule of their own stratum of the priority
    // order, so the mean scan depth does not depend on the seed. The
    // swept source port is not an ACL key: all 256 packets of a stream
    // match the same rule but miss the flow cache.
    for i in 0..128usize {
        let target = (i % 4 != 3).then(|| {
            let k = i - i / 4;
            let (lo, hi) = (k * (ACL_RULES - 1) / 96, (k + 1) * (ACL_RULES - 1) / 96);
            lo + rng.below((hi - lo) as u64) as usize
        });
        let key = loop {
            let fill = |p: &Pat, random: u128| match *p {
                Pat::Value(v) => v,
                Pat::Mask { value, mask } => value | (random & !mask),
                Pat::Any => random,
            };
            let random = [
                u128::from(rng.next() as u32),
                u128::from(rng.next() as u32),
                if rng.below(2) == 0 { 6 } else { 17 },
                u128::from(rng.next() as u16),
            ];
            let key: Vec<u128> = match target {
                Some(j) => (0..4)
                    .map(|f| fill(&traffic.rules[j].patterns[f], random[f] & 0xFFFF_FFFF))
                    .collect(),
                None => random.to_vec(),
            };
            let hit = lookup(&traffic.rules, &key).expect("the catch-all matches everything");
            if std::ptr::eq(hit, &traffic.rules[target.unwrap_or(ACL_RULES - 1)]) {
                break key;
            }
        };
        let header = Ipv4Udp {
            src: key[0] as u32,
            dst: key[1] as u32,
            proto: key[2] as u8,
            sport: rng.next() as u16,
            dport: key[3] as u16,
        };
        traffic.streams.push(Stream {
            id: i as u16,
            template: ipv4_template(rng, &header, 96),
            count: 256,
            as_port: (i % 4) as u16,
            sweep: Some(OFF_SPORT_LOW),
            gap: 0,
            expect: traffic.fate(&key),
            key,
            key_sweep: None,
        });
    }
    traffic
}

// ---------------------------------------------------------------------
// 4. fleet_paced
// ---------------------------------------------------------------------

/// Four pacing classes; flows of one class collide at the same virtual
/// instants, which is what the timer wheel coalesces into one dispatch.
const PACING: [u64; 4] = [80, 160, 320, 640];

fn fleet_paced(rng: &mut Rng) -> Traffic {
    let rules = routes(rng, 8);
    let mut used = std::collections::BTreeSet::new();
    let mut traffic = Traffic {
        program: Program::Ipv4Forward,
        table: "ipv4_lpm",
        rules,
        streams: Vec::new(),
        churn: Vec::new(),
        devices: 64,
    };
    for j in 0..64usize {
        let dst = routed_dst(rng, &traffic.rules, j, &mut used) | rng.below(256) as u32;
        let header = Ipv4Udp {
            src: 0x0A00_0000 | (rng.next() as u32 & 0x00FF_FFFF),
            dst,
            proto: 17,
            sport: rng.next() as u16,
            dport: rng.next() as u16,
        };
        let key = vec![u128::from(dst)];
        traffic.streams.push(Stream {
            id: j as u16,
            template: ipv4_template(rng, &header, 64),
            count: 16,
            as_port: (j % 4) as u16,
            sweep: None,
            gap: PACING[j % 4],
            expect: traffic.fate(&key),
            key,
            key_sweep: None,
        });
    }
    traffic
}

// ---------------------------------------------------------------------
// 5. l2_churn_steady
// ---------------------------------------------------------------------

pub const CHURN_OCCUPANCY: usize = 2048;
const CHURN_WINDOWS: u64 = 16;
const CHURN_PER_WINDOW: usize = 4;

fn l2_churn_steady(rng: &mut Rng) -> Traffic {
    let flow_base = mac(rng) & !0xFF;
    let port = rng.below(4) as u16;
    let entry = |m: u64, port: u64| Rule {
        patterns: vec![Pat::Value(u128::from(m))],
        action: "forward",
        args: vec![u128::from(port)],
        priority: 0,
    };
    // The 256 swept destinations all forward to one port; the other 1 792
    // entries (and everything churned) share no MAC with the traffic, so
    // the expectation holds at every epoch.
    let mut macs = std::collections::BTreeSet::new();
    let mut fresh = |rng: &mut Rng| loop {
        let m = mac(rng);
        if m & !0xFF != flow_base && macs.insert(m) {
            return m;
        }
    };
    let mut rules: Vec<Rule> = (0..256)
        .map(|b| entry(flow_base | b, u64::from(port)))
        .collect();
    while rules.len() < CHURN_OCCUPANCY {
        let m = fresh(rng);
        rules.push(entry(m, rng.below(4)));
    }
    let mut churn = Vec::new();
    for w in 0..CHURN_WINDOWS {
        for k in 0..CHURN_PER_WINDOW {
            let m = fresh(rng);
            churn.push((w, ChurnStep::Install(entry(m, rng.below(4)))));
            let victim = 256 + w as usize * CHURN_PER_WINDOW + k;
            churn.push((w, ChurnStep::Remove(rules[victim].clone())));
        }
    }
    let stream = Stream {
        id: 1,
        template: eth_template(flow_base, mac(rng), ETHERTYPE_LOCAL, 64),
        count: CHURN_WINDOWS * WINDOW,
        as_port: (port + 1) % 4,
        sweep: Some(OFF_DMAC_LOW),
        gap: 0,
        expect: Expect::Forward(port),
        key: vec![u128::from(flow_base)],
        key_sweep: Some(0),
    };
    Traffic {
        program: Program::L2Switch,
        table: "dmac",
        rules,
        streams: vec![stream],
        churn,
        devices: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let _serial = crate::tests::serial();
        for w in Workload::ALL {
            assert_eq!(generate(w, 7), generate(w, 7), "{}", w.name());
            assert_ne!(generate(w, 7), generate(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// The structure the README promises, and the property the oracle
    /// rests on: every packet of a stream shares the stream's fate.
    #[test]
    fn streams_are_homogeneous_and_shaped_as_documented() {
        let _serial = crate::tests::serial();
        for seed in [1, 2, 3] {
            for w in Workload::ALL {
                let Input::Traffic(t) = generate(w, seed) else {
                    continue;
                };
                for s in &t.streams {
                    if s.template[12..14] == [0x08, 0x00] && s.template[14] != 0x45 {
                        assert_eq!(s.expect, Expect::Drop, "bad version must drop");
                        continue;
                    }
                    for seq in 0..s.count.min(256) {
                        assert_eq!(
                            t.fate(&s.key_at(seq)),
                            s.expect,
                            "{} stream {}",
                            w.name(),
                            s.id
                        );
                    }
                    assert!(s.template.len() + TEST_HEADER_LEN >= 64);
                }
            }
            let Input::Traffic(router) = generate(Workload::RouterManyFlows, seed) else {
                unreachable!()
            };
            assert_eq!(router.rules.len(), 1000);
            assert_eq!(router.packets_per_unit(), 32_768);
            let drops = router
                .streams
                .iter()
                .filter(|s| s.expect == Expect::Drop)
                .count();
            assert_eq!(drops, 26, "25 LPM-miss streams + the version-5 stream");
            let distinct: std::collections::BTreeSet<_> = router
                .streams
                .iter()
                .flat_map(|s| (0..s.count).map(|q| s.key_at(q)))
                .collect();
            assert_eq!(distinct.len(), 32_768, "every destination is distinct");

            let Input::Traffic(acl) = generate(Workload::AclTernary512, seed) else {
                unreachable!()
            };
            assert_eq!(acl.rules.len(), 512);
            let catch_all = acl
                .streams
                .iter()
                .filter(|s| lookup(&acl.rules, &s.key).map(|r| r.priority) == Some(0));
            assert_eq!(
                catch_all.count(),
                32,
                "25% of flows match only the catch-all"
            );

            let Input::Traffic(fleet) = generate(Workload::FleetPaced, seed) else {
                unreachable!()
            };
            assert_eq!(fleet.packets_per_unit(), 64 * 64 * 16);
        }
    }

    #[test]
    fn churn_holds_occupancy_and_never_touches_the_traffic() {
        let _serial = crate::tests::serial();
        let Input::Traffic(t) = generate(Workload::L2ChurnSteady, 5) else {
            unreachable!()
        };
        assert_eq!(t.churn.len(), 128, "128 publications per unit");
        let mut installed: std::collections::BTreeSet<Vec<Pat>> =
            t.rules.iter().map(|r| r.patterns.clone()).collect();
        assert_eq!(installed.len(), CHURN_OCCUPANCY);
        for (_, step) in &t.churn {
            match step {
                ChurnStep::Install(r) => assert!(installed.insert(r.patterns.clone())),
                ChurnStep::Remove(r) => assert!(installed.remove(&r.patterns)),
            }
            assert!(installed.len().abs_diff(CHURN_OCCUPANCY) <= 8);
            for seq in 0..256 {
                let key: Vec<Pat> = t.streams[0]
                    .key_at(seq)
                    .into_iter()
                    .map(Pat::Value)
                    .collect();
                assert!(installed.contains(&key));
            }
        }
        assert_eq!(installed.len(), CHURN_OCCUPANCY);
    }

    #[test]
    fn ipv4_header_checksum_verifies() {
        let mut rng = Rng::new(1);
        let h = Ipv4Udp {
            src: 1,
            dst: 2,
            proto: 17,
            sport: 3,
            dport: 4,
        };
        let f = ipv4_template(&mut rng, &h, 64);
        let sum: u32 = f[14..34]
            .chunks(2)
            .map(|c| u32::from(u16::from_be_bytes([c[0], c[1]])))
            .sum();
        let folded = (sum & 0xFFFF) + (sum >> 16);
        assert_eq!((folded & 0xFFFF) + (folded >> 16), 0xFFFF);
    }
}
