//! Built-in corpus of P4 programs.
//!
//! These are the data-plane programs used throughout the reproduction:
//! the applications a NetFPGA/SDNet user would actually deploy (IPv4 router,
//! L2 switch, ACL firewall, …) plus small single-feature programs that the
//! *compiler check* and *architecture check* use-cases sweep across backends.
//!
//! `ipv4_forward` is the program of the paper's §4 case study: its parser
//! `reject`s malformed IPv4 packets, which is exactly the path the SDNet
//! backend mis-compiles.

/// Whether a corpus program is an application or a feature probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// A realistic application program.
    App,
    /// A minimal program exercising one language/architecture feature.
    Feature,
}

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusProgram {
    /// Short unique name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Which kind of program.
    pub category: Category,
    /// P4 source text.
    pub source: &'static str,
}

/// The paper's case-study program: an IPv4 router whose parser **rejects**
/// malformed packets (bad version). On a correct target, rejected packets
/// are dropped; SDNet's missing reject support forwards them — the bug
/// NetDebug catches.
pub const IPV4_FORWARD: &str = "\n        const bit<16> TYPE_IPV4 = 0x800;\n\n        header ethernet_t {\n            bit<48> dstAddr;\n            bit<48> srcAddr;\n            bit<16> etherType;\n        }\n\n        header ipv4_t {\n            bit<4>  version;\n            bit<4>  ihl;\n            bit<8>  diffserv;\n            bit<16> totalLen;\n            bit<16> identification;\n            bit<3>  flags;\n            bit<13> fragOffset;\n            bit<8>  ttl;\n            bit<8>  protocol;\n            bit<16> hdrChecksum;\n            bit<32> srcAddr;\n            bit<32> dstAddr;\n        }\n\n        struct headers_t {\n            ethernet_t ethernet;\n            ipv4_t     ipv4;\n        }\n\n        struct metadata_t { bit<1> unused; }\n\n        parser IPv4Parser(packet_in pkt, out headers_t hdr,\n                          inout metadata_t meta,\n                          inout standard_metadata_t standard_metadata) {\n            state start {\n                pkt.extract(hdr.ethernet);\n                transition select(hdr.ethernet.etherType) {\n                    TYPE_IPV4: parse_ipv4;\n                    default: accept;\n                }\n            }\n            state parse_ipv4 {\n                pkt.extract(hdr.ipv4);\n                transition select(hdr.ipv4.version) {\n                    4: accept;\n                    default: reject;\n                }\n            }\n        }\n\n        control IPv4Ingress(inout headers_t hdr, inout metadata_t meta,\n                            inout standard_metadata_t standard_metadata) {\n            action drop() { mark_to_drop(); }\n            action ipv4_forward(bit<48> dstAddr, bit<9> port) {\n                standard_metadata.egress_spec = port;\n                hdr.ethernet.srcAddr = hdr.ethernet.dstAddr;\n                hdr.ethernet.dstAddr = dstAddr;\n                hdr.ipv4.ttl = hdr.ipv4.ttl - 1;\n            }\n            // Note: `NoAction` is deliberately NOT in the action list — an\n            // entry bound to NoAction would leave the packet with neither a\n            // drop nor an egress decision, which spec-level verification\n            // (netdebug-verify) correctly reports as a NoVerdict path.\n            table ipv4_lpm {\n                key = { hdr.ipv4.dstAddr: lpm; }\n                actions = { ipv4_forward; drop; }\n                size = 1024;\n                default_action = drop();\n            }\n            apply {\n                if (hdr.ipv4.isValid()) {\n                    if (hdr.ipv4.ttl == 0) {\n                        drop();\n                    } else {\n                        ipv4_lpm.apply();\n                    }\n                } else {\n                    drop();\n                }\n            }\n        }\n\n        control IPv4Deparser(packet_out pkt, in headers_t hdr) {\n            apply {\n                pkt.emit(hdr.ethernet);\n                pkt.emit(hdr.ipv4);\n            }\n        }\n\n        V1Switch(IPv4Parser(), IPv4Ingress(), IPv4Deparser()) main;\n    ";

/// L2 learning-less switch: exact dmac match, flood (egress 511) on miss.
pub const L2_SWITCH: &str = r#"
    header ethernet_t {
        bit<48> dstAddr;
        bit<48> srcAddr;
        bit<16> etherType;
    }

    struct headers_t { ethernet_t ethernet; }
    struct metadata_t { bit<1> unused; }

    parser L2Parser(packet_in pkt, out headers_t hdr,
                    inout metadata_t meta,
                    inout standard_metadata_t standard_metadata) {
        state start {
            pkt.extract(hdr.ethernet);
            transition accept;
        }
    }

    control L2Ingress(inout headers_t hdr, inout metadata_t meta,
                      inout standard_metadata_t standard_metadata) {
        counter(512) port_rx;

        action forward(bit<9> port) {
            standard_metadata.egress_spec = port;
        }
        action flood() {
            standard_metadata.egress_spec = 511;
        }
        table dmac {
            key = { hdr.ethernet.dstAddr: exact; }
            actions = { forward; flood; }
            size = 4096;
            default_action = flood();
        }
        apply {
            port_rx.count(standard_metadata.ingress_port);
            dmac.apply();
        }
    }

    control L2Deparser(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.ethernet); }
    }

    V1Switch(L2Parser(), L2Ingress(), L2Deparser()) main;
"#;

/// Stateless ACL firewall: allow-listed 5-tuples forwarded, everything else
/// dropped; ternary matching with priorities.
pub const ACL_FIREWALL: &str = r#"
    const bit<16> TYPE_IPV4 = 0x800;
    const bit<8>  PROTO_TCP = 6;
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

    header ports_t {
        bit<16> srcPort;
        bit<16> dstPort;
    }

    struct headers_t {
        ethernet_t ethernet;
        ipv4_t     ipv4;
        ports_t    ports;
    }

    struct metadata_t { bit<1> allowed; }

    parser AclParser(packet_in pkt, out headers_t hdr,
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
                PROTO_TCP: parse_ports;
                PROTO_UDP: parse_ports;
                default: accept;
            }
        }
        state parse_ports {
            pkt.extract(hdr.ports);
            transition accept;
        }
    }

    control AclIngress(inout headers_t hdr, inout metadata_t meta,
                       inout standard_metadata_t standard_metadata) {
        counter(8) acl_drops;

        action drop() {
            acl_drops.count(standard_metadata.ingress_port);
            mark_to_drop();
        }
        action allow(bit<9> port) {
            standard_metadata.egress_spec = port;
        }
        table acl {
            key = {
                hdr.ipv4.srcAddr: ternary;
                hdr.ipv4.dstAddr: ternary;
                hdr.ipv4.protocol: ternary;
                hdr.ports.dstPort: ternary;
            }
            actions = { allow; drop; }
            size = 512;
            default_action = drop();
        }
        apply {
            if (hdr.ipv4.isValid() && hdr.ports.isValid()) {
                acl.apply();
            } else {
                drop();
            }
        }
    }

    control AclDeparser(packet_out pkt, in headers_t hdr) {
        apply {
            pkt.emit(hdr.ethernet);
            pkt.emit(hdr.ipv4);
            pkt.emit(hdr.ports);
        }
    }

    V1Switch(AclParser(), AclIngress(), AclDeparser()) main;
"#;

/// VLAN-aware router: 802.1Q tag parsed, VID selects a forwarding table.
pub const VLAN_ROUTER: &str = r#"
    const bit<16> TYPE_IPV4 = 0x800;
    const bit<16> TYPE_VLAN = 0x8100;

    header ethernet_t {
        bit<48> dstAddr;
        bit<48> srcAddr;
        bit<16> etherType;
    }

    header vlan_t {
        bit<3>  pcp;
        bit<1>  dei;
        bit<12> vid;
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

    struct headers_t {
        ethernet_t ethernet;
        vlan_t     vlan;
        ipv4_t     ipv4;
    }

    struct metadata_t { bit<12> vid; }

    parser VlanParser(packet_in pkt, out headers_t hdr,
                      inout metadata_t meta,
                      inout standard_metadata_t standard_metadata) {
        state start {
            pkt.extract(hdr.ethernet);
            transition select(hdr.ethernet.etherType) {
                TYPE_VLAN: parse_vlan;
                TYPE_IPV4: parse_ipv4;
                default: accept;
            }
        }
        state parse_vlan {
            pkt.extract(hdr.vlan);
            meta.vid = hdr.vlan.vid;
            transition select(hdr.vlan.etherType) {
                TYPE_IPV4: parse_ipv4;
                default: accept;
            }
        }
        state parse_ipv4 {
            pkt.extract(hdr.ipv4);
            transition select(hdr.ipv4.version) {
                4: accept;
                default: reject;
            }
        }
    }

    control VlanIngress(inout headers_t hdr, inout metadata_t meta,
                        inout standard_metadata_t standard_metadata) {
        action drop() { mark_to_drop(); }
        action route(bit<9> port) {
            standard_metadata.egress_spec = port;
            hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
        }
        table vlan_route {
            key = {
                meta.vid: exact;
                hdr.ipv4.dstAddr: lpm;
            }
            actions = { route; drop; }
            size = 256;
            default_action = drop();
        }
        apply {
            if (hdr.vlan.isValid() && hdr.ipv4.isValid()) {
                vlan_route.apply();
            } else {
                drop();
            }
        }
    }

    control VlanDeparser(packet_out pkt, in headers_t hdr) {
        apply {
            pkt.emit(hdr.ethernet);
            pkt.emit(hdr.vlan);
            pkt.emit(hdr.ipv4);
        }
    }

    V1Switch(VlanParser(), VlanIngress(), VlanDeparser()) main;
"#;

/// Per-port byte/packet accounting with registers and counters.
pub const FLOW_COUNTER: &str = r#"
    header ethernet_t {
        bit<48> dstAddr;
        bit<48> srcAddr;
        bit<16> etherType;
    }

    struct headers_t { ethernet_t ethernet; }
    struct metadata_t { bit<32> bytes_so_far; }

    parser CntParser(packet_in pkt, out headers_t hdr,
                     inout metadata_t meta,
                     inout standard_metadata_t standard_metadata) {
        state start {
            pkt.extract(hdr.ethernet);
            transition accept;
        }
    }

    control CntIngress(inout headers_t hdr, inout metadata_t meta,
                       inout standard_metadata_t standard_metadata) {
        register<bit<32>>(512) rx_bytes;
        counter(512) rx_pkts;

        action drop() { mark_to_drop(); }
        action forward(bit<9> port) {
            standard_metadata.egress_spec = port;
        }
        table fwd {
            key = { standard_metadata.ingress_port: exact; }
            actions = { forward; drop; }
            size = 16;
            default_action = drop();
        }
        apply {
            rx_pkts.count(standard_metadata.ingress_port);
            rx_bytes.read(meta.bytes_so_far, (bit<32>) standard_metadata.ingress_port);
            meta.bytes_so_far = meta.bytes_so_far + standard_metadata.packet_length;
            rx_bytes.write((bit<32>) standard_metadata.ingress_port, meta.bytes_so_far);
            fwd.apply();
        }
    }

    control CntDeparser(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.ethernet); }
    }

    V1Switch(CntParser(), CntIngress(), CntDeparser()) main;
"#;

/// Per-port policing with a meter: red packets are dropped.
pub const RATE_LIMITER: &str = r#"
    header ethernet_t {
        bit<48> dstAddr;
        bit<48> srcAddr;
        bit<16> etherType;
    }

    struct headers_t { ethernet_t ethernet; }
    struct metadata_t { bit<2> color; }

    parser RlParser(packet_in pkt, out headers_t hdr,
                    inout metadata_t meta,
                    inout standard_metadata_t standard_metadata) {
        state start {
            pkt.extract(hdr.ethernet);
            transition accept;
        }
    }

    control RlIngress(inout headers_t hdr, inout metadata_t meta,
                      inout standard_metadata_t standard_metadata) {
        meter(16) port_meter;

        action drop() { mark_to_drop(); }
        action forward(bit<9> port) {
            standard_metadata.egress_spec = port;
        }
        table fwd {
            key = { standard_metadata.ingress_port: exact; }
            actions = { forward; drop; }
            size = 16;
            default_action = drop();
        }
        apply {
            port_meter.execute((bit<32>) standard_metadata.ingress_port, meta.color);
            if (meta.color == 2) {
                mark_to_drop();
            } else {
                fwd.apply();
            }
        }
    }

    control RlDeparser(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.ethernet); }
    }

    V1Switch(RlParser(), RlIngress(), RlDeparser()) main;
"#;

/// Bounces every packet back out of its ingress port with MACs swapped —
/// the classic loopback-test program.
pub const REFLECTOR: &str = r#"
    header ethernet_t {
        bit<48> dstAddr;
        bit<48> srcAddr;
        bit<16> etherType;
    }

    struct headers_t { ethernet_t ethernet; }
    struct metadata_t { bit<48> tmp; }

    parser RefParser(packet_in pkt, out headers_t hdr,
                     inout metadata_t meta,
                     inout standard_metadata_t standard_metadata) {
        state start {
            pkt.extract(hdr.ethernet);
            transition accept;
        }
    }

    control RefIngress(inout headers_t hdr, inout metadata_t meta,
                       inout standard_metadata_t standard_metadata) {
        apply {
            meta.tmp = hdr.ethernet.dstAddr;
            hdr.ethernet.dstAddr = hdr.ethernet.srcAddr;
            hdr.ethernet.srcAddr = meta.tmp;
            standard_metadata.egress_spec = standard_metadata.ingress_port;
        }
    }

    control RefDeparser(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.ethernet); }
    }

    V1Switch(RefParser(), RefIngress(), RefDeparser()) main;
"#;

/// Adds a custom tunnel header on ingress (setValid + emit ordering).
pub const TUNNEL_ENCAP: &str = r#"
    const bit<16> TYPE_IPV4 = 0x800;
    const bit<16> TYPE_TUNNEL = 0x1212;

    header ethernet_t {
        bit<48> dstAddr;
        bit<48> srcAddr;
        bit<16> etherType;
    }

    header tunnel_t {
        bit<16> proto_id;
        bit<16> dst_id;
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

    struct headers_t {
        ethernet_t ethernet;
        tunnel_t   tunnel;
        ipv4_t     ipv4;
    }

    struct metadata_t { bit<1> unused; }

    parser TunParser(packet_in pkt, out headers_t hdr,
                     inout metadata_t meta,
                     inout standard_metadata_t standard_metadata) {
        state start {
            pkt.extract(hdr.ethernet);
            transition select(hdr.ethernet.etherType) {
                TYPE_TUNNEL: parse_tunnel;
                TYPE_IPV4: parse_ipv4;
                default: accept;
            }
        }
        state parse_tunnel {
            pkt.extract(hdr.tunnel);
            transition select(hdr.tunnel.proto_id) {
                TYPE_IPV4: parse_ipv4;
                default: accept;
            }
        }
        state parse_ipv4 {
            pkt.extract(hdr.ipv4);
            transition accept;
        }
    }

    control TunIngress(inout headers_t hdr, inout metadata_t meta,
                       inout standard_metadata_t standard_metadata) {
        action drop() { mark_to_drop(); }
        action encap(bit<16> dst_id, bit<9> port) {
            hdr.tunnel.setValid();
            hdr.tunnel.proto_id = hdr.ethernet.etherType;
            hdr.tunnel.dst_id = dst_id;
            hdr.ethernet.etherType = TYPE_TUNNEL;
            standard_metadata.egress_spec = port;
        }
        action decap(bit<9> port) {
            hdr.ethernet.etherType = hdr.tunnel.proto_id;
            hdr.tunnel.setInvalid();
            standard_metadata.egress_spec = port;
        }
        // Encap and decap live in separate tables guarded by tunnel
        // validity: `decap` reads hdr.tunnel, which is only sound when the
        // tunnel header was actually parsed (netdebug-verify enforces this).
        table tunnel_fwd {
            key = { hdr.ipv4.dstAddr: lpm; }
            actions = { encap; drop; }
            size = 128;
            default_action = drop();
        }
        table tunnel_term {
            key = { hdr.ipv4.dstAddr: lpm; }
            actions = { decap; drop; }
            size = 128;
            default_action = drop();
        }
        apply {
            if (hdr.ipv4.isValid()) {
                if (hdr.tunnel.isValid()) {
                    tunnel_term.apply();
                } else {
                    tunnel_fwd.apply();
                }
            } else {
                drop();
            }
        }
    }

    control TunDeparser(packet_out pkt, in headers_t hdr) {
        apply {
            pkt.emit(hdr.ethernet);
            pkt.emit(hdr.tunnel);
            pkt.emit(hdr.ipv4);
        }
    }

    V1Switch(TunParser(), TunIngress(), TunDeparser()) main;
"#;

// ---------------------------------------------------------------------
// Feature probes for the compiler/architecture check use-cases.
// ---------------------------------------------------------------------

/// Minimal reject-path program (the feature SDNet lacked).
pub const FEATURE_REJECT: &str = r#"
    header byte_t { bit<8> tag; }
    struct headers_t { byte_t b; }
    struct metadata_t { bit<1> u; }
    parser FP(packet_in pkt, out headers_t hdr, inout metadata_t meta,
              inout standard_metadata_t standard_metadata) {
        state start {
            pkt.extract(hdr.b);
            transition select(hdr.b.tag) {
                0xAA: accept;
                default: reject;
            }
        }
    }
    control FI(inout headers_t hdr, inout metadata_t meta,
               inout standard_metadata_t standard_metadata) {
        apply { standard_metadata.egress_spec = 1; }
    }
    control FD(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.b); }
    }
    V1Switch(FP(), FI(), FD()) main;
"#;

/// Select with range patterns.
pub const FEATURE_RANGE_SELECT: &str = r#"
    header byte_t { bit<8> tag; }
    struct headers_t { byte_t b; }
    struct metadata_t { bit<1> u; }
    parser FP(packet_in pkt, out headers_t hdr, inout metadata_t meta,
              inout standard_metadata_t standard_metadata) {
        state start {
            pkt.extract(hdr.b);
            transition select(hdr.b.tag) {
                0 .. 63: low;
                64 .. 127: accept;
                default: reject;
            }
        }
        state low { transition accept; }
    }
    control FI(inout headers_t hdr, inout metadata_t meta,
               inout standard_metadata_t standard_metadata) {
        apply { standard_metadata.egress_spec = 1; }
    }
    control FD(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.b); }
    }
    V1Switch(FP(), FI(), FD()) main;
"#;

/// Select with mask patterns.
pub const FEATURE_MASK_SELECT: &str = r#"
    header word_t { bit<16> tag; }
    struct headers_t { word_t w; }
    struct metadata_t { bit<1> u; }
    parser FP(packet_in pkt, out headers_t hdr, inout metadata_t meta,
              inout standard_metadata_t standard_metadata) {
        state start {
            pkt.extract(hdr.w);
            transition select(hdr.w.tag) {
                0x0800 &&& 0xFF00: accept;
                default: reject;
            }
        }
    }
    control FI(inout headers_t hdr, inout metadata_t meta,
               inout standard_metadata_t standard_metadata) {
        apply { standard_metadata.egress_spec = 1; }
    }
    control FD(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.w); }
    }
    V1Switch(FP(), FI(), FD()) main;
"#;

/// A 128-bit ternary key (wide-key support probe).
pub const FEATURE_WIDE_KEY: &str = r#"
    header wide_t { bit<128> big; }
    struct headers_t { wide_t w; }
    struct metadata_t { bit<1> u; }
    parser FP(packet_in pkt, out headers_t hdr, inout metadata_t meta,
              inout standard_metadata_t standard_metadata) {
        state start { pkt.extract(hdr.w); transition accept; }
    }
    control FI(inout headers_t hdr, inout metadata_t meta,
               inout standard_metadata_t standard_metadata) {
        action drop() { mark_to_drop(); }
        action fwd(bit<9> p) { standard_metadata.egress_spec = p; }
        table wide {
            key = { hdr.w.big: ternary; }
            actions = { fwd; drop; }
            size = 64;
            default_action = drop();
        }
        apply { wide.apply(); }
    }
    control FD(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.w); }
    }
    V1Switch(FP(), FI(), FD()) main;
"#;

/// Deep parser: eight chained headers (parser-depth probe).
pub const FEATURE_DEEP_PARSER: &str = r#"
    header seg_t { bit<8> next; bit<8> val; }
    struct headers_t {
        seg_t s0; seg_t s1; seg_t s2; seg_t s3;
        seg_t s4; seg_t s5; seg_t s6; seg_t s7;
    }
    struct metadata_t { bit<1> u; }
    parser FP(packet_in pkt, out headers_t hdr, inout metadata_t meta,
              inout standard_metadata_t standard_metadata) {
        state start { pkt.extract(hdr.s0); transition select(hdr.s0.next) { 1: p1; default: accept; } }
        state p1 { pkt.extract(hdr.s1); transition select(hdr.s1.next) { 1: p2; default: accept; } }
        state p2 { pkt.extract(hdr.s2); transition select(hdr.s2.next) { 1: p3; default: accept; } }
        state p3 { pkt.extract(hdr.s3); transition select(hdr.s3.next) { 1: p4; default: accept; } }
        state p4 { pkt.extract(hdr.s4); transition select(hdr.s4.next) { 1: p5; default: accept; } }
        state p5 { pkt.extract(hdr.s5); transition select(hdr.s5.next) { 1: p6; default: accept; } }
        state p6 { pkt.extract(hdr.s6); transition select(hdr.s6.next) { 1: p7; default: accept; } }
        state p7 { pkt.extract(hdr.s7); transition accept; }
    }
    control FI(inout headers_t hdr, inout metadata_t meta,
               inout standard_metadata_t standard_metadata) {
        apply { standard_metadata.egress_spec = 1; }
    }
    control FD(packet_out pkt, in headers_t hdr) {
        apply {
            pkt.emit(hdr.s0); pkt.emit(hdr.s1); pkt.emit(hdr.s2); pkt.emit(hdr.s3);
            pkt.emit(hdr.s4); pkt.emit(hdr.s5); pkt.emit(hdr.s6); pkt.emit(hdr.s7);
        }
    }
    V1Switch(FP(), FI(), FD()) main;
"#;

/// Twelve chained tables (stage-budget probe).
pub const FEATURE_MANY_TABLES: &str = r#"
    header byte_t { bit<8> v; }
    struct headers_t { byte_t b; }
    struct metadata_t { bit<8> acc; }
    parser FP(packet_in pkt, out headers_t hdr, inout metadata_t meta,
              inout standard_metadata_t standard_metadata) {
        state start { pkt.extract(hdr.b); transition accept; }
    }
    control FI(inout headers_t hdr, inout metadata_t meta,
               inout standard_metadata_t standard_metadata) {
        action bump() { meta.acc = meta.acc + 1; }
        table t0 { key = { hdr.b.v: exact; } actions = { bump; NoAction; } default_action = bump(); }
        table t1 { key = { hdr.b.v: exact; } actions = { bump; NoAction; } default_action = bump(); }
        table t2 { key = { hdr.b.v: exact; } actions = { bump; NoAction; } default_action = bump(); }
        table t3 { key = { hdr.b.v: exact; } actions = { bump; NoAction; } default_action = bump(); }
        table t4 { key = { hdr.b.v: exact; } actions = { bump; NoAction; } default_action = bump(); }
        table t5 { key = { hdr.b.v: exact; } actions = { bump; NoAction; } default_action = bump(); }
        table t6 { key = { hdr.b.v: exact; } actions = { bump; NoAction; } default_action = bump(); }
        table t7 { key = { hdr.b.v: exact; } actions = { bump; NoAction; } default_action = bump(); }
        table t8 { key = { hdr.b.v: exact; } actions = { bump; NoAction; } default_action = bump(); }
        table t9 { key = { hdr.b.v: exact; } actions = { bump; NoAction; } default_action = bump(); }
        table t10 { key = { hdr.b.v: exact; } actions = { bump; NoAction; } default_action = bump(); }
        table t11 { key = { hdr.b.v: exact; } actions = { bump; NoAction; } default_action = bump(); }
        apply {
            t0.apply(); t1.apply(); t2.apply(); t3.apply();
            t4.apply(); t5.apply(); t6.apply(); t7.apply();
            t8.apply(); t9.apply(); t10.apply(); t11.apply();
            standard_metadata.egress_spec = (bit<9>) meta.acc;
        }
    }
    control FD(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.b); }
    }
    V1Switch(FP(), FI(), FD()) main;
"#;

/// Registers, counters and meters together (stateful-extern probe).
pub const FEATURE_STATEFUL: &str = r#"
    header byte_t { bit<8> v; }
    struct headers_t { byte_t b; }
    struct metadata_t { bit<32> tmp; bit<2> color; }
    parser FP(packet_in pkt, out headers_t hdr, inout metadata_t meta,
              inout standard_metadata_t standard_metadata) {
        state start { pkt.extract(hdr.b); transition accept; }
    }
    control FI(inout headers_t hdr, inout metadata_t meta,
               inout standard_metadata_t standard_metadata) {
        register<bit<32>>(64) r;
        counter(64) c;
        meter(64) m;
        apply {
            c.count(0);
            r.read(meta.tmp, 0);
            meta.tmp = meta.tmp + 1;
            r.write(0, meta.tmp);
            m.execute(0, meta.color);
            standard_metadata.egress_spec = 1;
        }
    }
    control FD(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.b); }
    }
    V1Switch(FP(), FI(), FD()) main;
"#;

/// Bit slices and concatenation in actions.
pub const FEATURE_SLICE_CONCAT: &str = r#"
    header word_t { bit<16> a; bit<16> b; bit<32> c; }
    struct headers_t { word_t w; }
    struct metadata_t { bit<1> u; }
    parser FP(packet_in pkt, out headers_t hdr, inout metadata_t meta,
              inout standard_metadata_t standard_metadata) {
        state start { pkt.extract(hdr.w); transition accept; }
    }
    control FI(inout headers_t hdr, inout metadata_t meta,
               inout standard_metadata_t standard_metadata) {
        apply {
            hdr.w.c = hdr.w.a ++ hdr.w.b;
            hdr.w.a[7:0] = hdr.w.b[15:8];
            standard_metadata.egress_spec = 1;
        }
    }
    control FD(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.w); }
    }
    V1Switch(FP(), FI(), FD()) main;
"#;

/// The `exit` statement.
pub const FEATURE_EXIT: &str = r#"
    header byte_t { bit<8> v; }
    struct headers_t { byte_t b; }
    struct metadata_t { bit<1> u; }
    parser FP(packet_in pkt, out headers_t hdr, inout metadata_t meta,
              inout standard_metadata_t standard_metadata) {
        state start { pkt.extract(hdr.b); transition accept; }
    }
    control FI(inout headers_t hdr, inout metadata_t meta,
               inout standard_metadata_t standard_metadata) {
        apply {
            if (hdr.b.v == 0xFF) {
                mark_to_drop();
                exit;
            }
            standard_metadata.egress_spec = 1;
        }
    }
    control FD(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.b); }
    }
    V1Switch(FP(), FI(), FD()) main;
"#;

/// The full corpus, applications first.
pub fn corpus() -> Vec<CorpusProgram> {
    vec![
        CorpusProgram {
            name: "ipv4_forward",
            description: "IPv4 LPM router; parser rejects malformed packets (paper §4 case study)",
            category: Category::App,
            source: IPV4_FORWARD,
        },
        CorpusProgram {
            name: "l2_switch",
            description: "L2 switch: exact dmac forwarding, flood on miss, per-port counters",
            category: Category::App,
            source: L2_SWITCH,
        },
        CorpusProgram {
            name: "acl_firewall",
            description: "Stateless 5-tuple ACL firewall with ternary rules, default drop",
            category: Category::App,
            source: ACL_FIREWALL,
        },
        CorpusProgram {
            name: "vlan_router",
            description: "802.1Q-aware IPv4 router keyed on (VID, dst LPM)",
            category: Category::App,
            source: VLAN_ROUTER,
        },
        CorpusProgram {
            name: "flow_counter",
            description: "Per-port packet and byte accounting via counters and registers",
            category: Category::App,
            source: FLOW_COUNTER,
        },
        CorpusProgram {
            name: "rate_limiter",
            description: "Per-port policing with a meter; red packets dropped",
            category: Category::App,
            source: RATE_LIMITER,
        },
        CorpusProgram {
            name: "reflector",
            description: "Swap MACs and bounce packets back out the ingress port",
            category: Category::App,
            source: REFLECTOR,
        },
        CorpusProgram {
            name: "tunnel_encap",
            description: "Custom tunnel encap/decap exercising setValid and emit order",
            category: Category::App,
            source: TUNNEL_ENCAP,
        },
        CorpusProgram {
            name: "feature_reject",
            description: "Parser reject path (the feature SDNet silently dropped)",
            category: Category::Feature,
            source: FEATURE_REJECT,
        },
        CorpusProgram {
            name: "feature_range_select",
            description: "Range patterns in parser select",
            category: Category::Feature,
            source: FEATURE_RANGE_SELECT,
        },
        CorpusProgram {
            name: "feature_mask_select",
            description: "Mask (&&&) patterns in parser select",
            category: Category::Feature,
            source: FEATURE_MASK_SELECT,
        },
        CorpusProgram {
            name: "feature_wide_key",
            description: "128-bit ternary table key",
            category: Category::Feature,
            source: FEATURE_WIDE_KEY,
        },
        CorpusProgram {
            name: "feature_deep_parser",
            description: "Eight chained extracts (parser depth probe)",
            category: Category::Feature,
            source: FEATURE_DEEP_PARSER,
        },
        CorpusProgram {
            name: "feature_many_tables",
            description: "Twelve sequential tables (stage budget probe)",
            category: Category::Feature,
            source: FEATURE_MANY_TABLES,
        },
        CorpusProgram {
            name: "feature_stateful",
            description: "Registers, counters and meters together",
            category: Category::Feature,
            source: FEATURE_STATEFUL,
        },
        CorpusProgram {
            name: "feature_slice_concat",
            description: "Bit slices and ++ concatenation",
            category: Category::Feature,
            source: FEATURE_SLICE_CONCAT,
        },
        CorpusProgram {
            name: "feature_exit",
            description: "The exit statement",
            category: Category::Feature,
            source: FEATURE_EXIT,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn every_corpus_program_compiles() {
        for prog in corpus() {
            let compiled = compile(prog.source);
            assert!(
                compiled.is_ok(),
                "corpus program `{}` failed to compile: {}",
                prog.name,
                compiled.unwrap_err()
            );
        }
    }

    #[test]
    fn corpus_names_are_unique() {
        let mut names: Vec<_> = corpus().iter().map(|p| p.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn ipv4_forward_has_reject_path() {
        let ir = compile(IPV4_FORWARD).unwrap();
        let has_reject = ir.parser.states.iter().any(|s| {
            matches!(&s.transition, crate::ir::IrTransition::Select { arms, .. }
                if arms.iter().any(|a| matches!(a.target, crate::ir::TransTarget::Reject)))
        });
        assert!(has_reject, "case-study program must have a reject edge");
    }
}
