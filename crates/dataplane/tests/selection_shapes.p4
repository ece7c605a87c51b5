// One statement per IR shape the lowering's instruction selection looks
// at: `compile.rs::selection_is_pinned` asserts the opcode each gets,
// `prop.rs::engines_agree_on_selection_shapes` runs both engines over it.
header shapes_t { bit<8> a; bit<8> b; bit<8> x; bit<8> y; }
struct headers_t { shapes_t h; }
struct metadata_t { bit<8> m; }
parser SP(packet_in pkt, out headers_t hdr, inout metadata_t meta,
          inout standard_metadata_t standard_metadata) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control SI(inout headers_t hdr, inout metadata_t meta,
           inout standard_metadata_t standard_metadata) {
    action mark(bit<8> bits) { hdr.h.y = hdr.h.y | bits; }
    table by_field { key = { hdr.h.a: exact; } actions = { mark; NoAction; } default_action = NoAction(); }
    table by_meta { key = { meta.m: exact; } actions = { mark; NoAction; } default_action = NoAction(); }
    table by_pair { key = { hdr.h.a: exact; hdr.h.b: exact; } actions = { mark; NoAction; } default_action = NoAction(); }
    apply {
        standard_metadata.egress_spec = 1;
        if (hdr.h.a == hdr.h.b) { hdr.h.y = 1; }
        if (hdr.h.a < 5) { hdr.h.y = hdr.h.y + 2; }
        if (5 < hdr.h.b) { hdr.h.y = hdr.h.y + 4; }
        hdr.h.x = 1 - hdr.h.x;
        hdr.h.x = hdr.h.x - 1;
        meta.m = hdr.h.b;
        by_meta.apply();
        by_pair.apply();
        if (by_field.apply().hit) { hdr.h.y = hdr.h.y + 8; }
    }
}
control SD(packet_out pkt, in headers_t hdr) {
    apply { pkt.emit(hdr.h); }
}
V1Switch(SP(), SI(), SD()) main;
