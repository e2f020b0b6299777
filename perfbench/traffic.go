package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
	"dejavu/internal/scenario"
)

// class is a packet's traffic class; the expected result of every
// class comes from the §5 scenario, never from the program's own trace.
type class uint8

const (
	clsFull   class = iota // VIP:443: FW permits, LB DNATs, exits port 8
	clsMedium              // tenant-bound: VGW encapsulates, exits port 9
	clsBasic               // Internet-bound: routed, exits port 1
	clsDrop                // VIP on another port: the FW drops it
)

var classNames = [...]string{"full", "medium", "basic", "drop"}

// exitPort is the front-panel port each delivered class must leave on.
var exitPort = [...]asic.PortID{clsFull: scenario.PortBackends, clsMedium: scenario.PortVTEP, clsBasic: scenario.PortUpstream}

// frameLen is the minimum Ethernet frame without FCS the traffic uses.
const frameLen = 64

// Byte offsets into an Ethernet/IPv4 frame.
const (
	offEthType = 12
	offTTL     = 22
	offProto   = 23
	offSrcIP   = 26
	offDstIP   = 30
	offSrcPort = 34
	offDstPort = 36
	offVNI     = 46 // 14 eth + 20 ip + 8 udp + 4 vxlan flags
	offInnerIP = 64 // 14 + 20 + 8 + 8 + 14 inner eth
)

// flow is one established (or churned) VIP:443 flow.
type flow struct {
	src     packet.IP4
	sport   uint16
	backend packet.IP4 // the scenario's LB policy: backends[hash % n]
	hash    uint32
}

// frameExp is what the scenario says must happen to one frame.
type frameExp struct {
	cls  class
	dst  packet.IP4 // full: backend, medium: inner (tenant) dst, basic: dst
	punt bool       // first packet of a churned flow: misses lb_session
}

// backends is the VIP's pool, in config order.
var backends = []packet.IP4{scenario.Backend1, scenario.Backend2}

// vipFlowHash is the CRC32 5-tuple hash the paper's LB keys sessions
// on (Fig. 4).
func vipFlowHash(src packet.IP4, sport uint16) uint32 {
	return packet.FiveTuple{Src: src, Dst: scenario.VIP, Proto: packet.ProtoTCP, SrcPort: sport, DstPort: 443}.Hash()
}

// newFlow draws a VIP flow whose session hash is not yet in used, so
// no two flows ever share an lb_session entry.
func newFlow(rng *rand.Rand, blocks int, used map[uint32]bool) flow {
	for {
		b := rng.Intn(blocks)
		src := clientBlock(b)
		src[3] = byte(1 + rng.Intn(254))
		sport := uint16(1024 + rng.Intn(64000))
		h := vipFlowHash(src, sport)
		if used[h] {
			continue
		}
		used[h] = true
		return flow{src: src, sport: sport, hash: h, backend: backends[int(h)%len(backends)]}
	}
}

// genFlows draws n distinct-hash VIP flows.
func genFlows(rng *rand.Rand, n, blocks int, used map[uint32]bool) []flow {
	out := make([]flow, n)
	for i := range out {
		out[i] = newFlow(rng, blocks, used)
	}
	return out
}

// ring is one worker's cyclic frame sequence with its expectations.
type ring struct {
	frames [][]byte
	exp    []frameExp
	// Churned rings: slotFrames[s] lists the frames of flow slot s,
	// renumbered with fresh flows before every pass.
	slotFrames [][]int32
}

// frameBuilder serializes generated packets into 64-byte frames.
type frameBuilder struct {
	buf []byte
}

func (fb *frameBuilder) tcp(src, dst packet.IP4, sport, dport uint16) []byte {
	p := packet.NewTCP(packet.TCPOpts{
		SrcMAC: scenario.ClientMAC, DstMAC: scenario.GatewayMAC,
		Src: src, Dst: dst, SrcPort: sport, DstPort: dport,
		Payload: make([]byte, frameLen-54),
	})
	return fb.serialize(p)
}

func (fb *frameBuilder) udp(src, dst packet.IP4, sport, dport uint16) []byte {
	p := packet.NewUDP(packet.UDPOpts{
		SrcMAC: scenario.ClientMAC, DstMAC: scenario.GatewayMAC,
		Src: src, Dst: dst, SrcPort: sport, DstPort: dport,
		Payload: make([]byte, frameLen-42),
	})
	return fb.serialize(p)
}

func (fb *frameBuilder) serialize(p *packet.Parsed) []byte {
	out, err := p.Serialize(fb.buf[:0])
	if err != nil {
		panic(fmt.Sprintf("perfbench: serializing a generated frame: %v", err)) // generated packets are well-formed
	}
	fb.buf = out
	return append([]byte(nil), out...)
}

// pickClass draws a frame's class: 5% VIP traffic to other ports, the
// rest split 50/30/20 over the full/medium/basic SFC paths.
func pickClass(rng *rand.Rand) class {
	if rng.Float64() < 0.05 {
		return clsDrop
	}
	switch v := rng.Float64(); {
	case v < 0.5:
		return clsFull
	case v < 0.8:
		return clsMedium
	default:
		return clsBasic
	}
}

// clientAddr draws a client source address and port.
func (wl *workload) clientAddr(rng *rand.Rand) (packet.IP4, uint16) {
	src := clientBlock(rng.Intn(wl.clientBlocks))
	src[3] = byte(1 + rng.Intn(254))
	return src, uint16(1024 + rng.Intn(64000))
}

// basicDst draws an Internet destination: with generated routes, most
// land inside one of them; the rest (and all on the base tables) hit
// the default route from the 198.18.0.0/15 benchmark range.
func (wl *workload) basicDst(rng *rand.Rand) packet.IP4 {
	if len(wl.routed) > 0 && rng.Float64() < 0.7 {
		p := wl.routed[rng.Intn(len(wl.routed))]
		host := rng.Uint32() & (^uint32(0) >> p.plen)
		return packet.IP4FromUint32(p.addr | host)
	}
	return packet.IP4{198, 18 + byte(rng.Intn(2)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))}
}

var dropPorts = []uint16{80, 22, 8080, 25}

// buildFrame generates one non-churned frame of class c.
func (wl *workload) buildFrame(fb *frameBuilder, rng *rand.Rand, c class, flows []flow) ([]byte, frameExp) {
	switch c {
	case clsFull:
		f := flows[rng.Intn(len(flows))]
		return fb.tcp(f.src, scenario.VIP, f.sport, 443), frameExp{cls: c, dst: f.backend}
	case clsMedium:
		src, sport := wl.clientAddr(rng)
		dst := wl.tenantHosts[rng.Intn(len(wl.tenantHosts))]
		return fb.tcp(src, dst, sport, 8080), frameExp{cls: c, dst: dst}
	case clsBasic:
		src, sport := wl.clientAddr(rng)
		dst := wl.basicDst(rng)
		return fb.udp(src, dst, sport, 53), frameExp{cls: c, dst: dst}
	default:
		src, sport := wl.clientAddr(rng)
		return fb.tcp(src, scenario.VIP, sport, dropPorts[rng.Intn(len(dropPorts))]), frameExp{cls: clsDrop}
	}
}

// buildRing generates a worker's frames. Established-flow rings draw
// full-path frames from flows; churned rings lay VIP flows out in
// rounds of eight bursts, packet j of each flow in burst j of its
// round at a fixed position, so a flow's first packet always misses
// and its later ones (one burst apart, after the punt was serviced)
// hit.
func (wl *workload) buildRing(rng *rand.Rand, size int, flows []flow) *ring {
	fb := &frameBuilder{}
	r := &ring{frames: make([][]byte, size), exp: make([]frameExp, size)}
	if !wl.churn {
		for i := range r.frames {
			r.frames[i], r.exp[i] = wl.buildFrame(fb, rng, pickClass(rng), flows)
		}
		return r
	}
	round := burstSize * churnFlowLen
	for base := 0; base+round <= size; base += round {
		for k := 0; k < burstSize; k++ {
			if pickClass(rng) != clsFull {
				for j := 0; j < churnFlowLen; j++ {
					i := base + j*burstSize + k
					c := pickClass(rng)
					for c == clsFull { // full-path traffic only comes in flow slots
						c = pickClass(rng)
					}
					r.frames[i], r.exp[i] = wl.buildFrame(fb, rng, c, flows)
				}
				continue
			}
			idx := make([]int32, churnFlowLen)
			for j := 0; j < churnFlowLen; j++ {
				i := base + j*burstSize + k
				idx[j] = int32(i)
				r.frames[i] = fb.tcp(packet.IP4{}, scenario.VIP, 0, 443)
				r.exp[i] = frameExp{cls: clsFull, punt: j == 0}
			}
			r.slotFrames = append(r.slotFrames, idx)
		}
	}
	return r
}

// renumber gives every flow slot of a churned ring a fresh flow,
// patching source address and port in place.
func (r *ring) renumber(fresh []flow) {
	for s, idx := range r.slotFrames {
		f := fresh[s]
		for _, i := range idx {
			fr := r.frames[i]
			copy(fr[offSrcIP:offSrcIP+4], f.src[:])
			binary.BigEndian.PutUint16(fr[offSrcPort:], f.sport)
			r.exp[i].dst = f.backend
		}
	}
}

// checker validates delivered packets against the scenario. Its
// expected constants are fields so a test can corrupt one and prove the
// check is live.
type checker struct {
	backendMAC, upstreamMAC, gatewayMAC packet.MAC
	localVTEP, remoteVTEP               packet.IP4
	vni                                 uint32
	ports                               [3]asic.PortID
}

func newChecker() *checker {
	return &checker{
		backendMAC: scenario.WorkloadMAC, upstreamMAC: scenario.UpstreamMAC, gatewayMAC: scenario.GatewayMAC,
		localVTEP: scenario.LocalVTEP, remoteVTEP: scenario.RemoteVTEP, vni: scenario.TenantVNI,
		ports: exitPort,
	}
}

// frame checks one serialized delivered packet. No SFC header may leave
// the switch (EtherType must be IPv4), the router must have rewritten
// the MACs and decremented the TTL, and each class must carry its
// class's rewrite: DNAT to the flow's backend, or VXLAN toward the
// tenant VTEP with the tenant VNI, or the untouched destination.
func (c *checker) frame(b []byte, e frameExp) bool {
	if len(b) < offDstPort+2 || binary.BigEndian.Uint16(b[offEthType:]) != packet.EtherTypeIPv4 || b[offTTL] != 63 {
		return false
	}
	dstMAC, srcMAC := c.backendMAC, c.gatewayMAC
	if e.cls == clsBasic {
		dstMAC = c.upstreamMAC
	}
	if !bytes.Equal(b[0:6], dstMAC[:]) || !bytes.Equal(b[6:12], srcMAC[:]) {
		return false
	}
	switch e.cls {
	case clsFull:
		return b[offProto] == packet.ProtoTCP && bytes.Equal(b[offDstIP:offDstIP+4], e.dst[:]) &&
			binary.BigEndian.Uint16(b[offDstPort:]) == 443
	case clsMedium:
		return len(b) >= offInnerIP+20 && b[offProto] == packet.ProtoUDP &&
			bytes.Equal(b[offSrcIP:offSrcIP+4], c.localVTEP[:]) &&
			bytes.Equal(b[offDstIP:offDstIP+4], c.remoteVTEP[:]) &&
			binary.BigEndian.Uint16(b[offDstPort:]) == packet.VXLANPort &&
			binary.BigEndian.Uint32(b[offVNI-1:])&0xFFFFFF == c.vni &&
			bytes.Equal(b[offInnerIP+16:offInnerIP+20], e.dst[:])
	case clsBasic:
		return b[offProto] == packet.ProtoUDP && bytes.Equal(b[offDstIP:offDstIP+4], e.dst[:])
	}
	return false
}

// reinjected checks the trace of a punted packet the controller
// reinjected: it must leave once, on the full path's exit, DNATed to
// the backend the scenario's LB policy assigns its flow.
func (c *checker) reinjected(tr *asic.Trace, buf []byte) bool {
	if tr == nil || tr.Dropped || len(tr.Out) != 1 || tr.Out[0].Port != c.ports[clsFull] {
		return false
	}
	p := tr.Out[0].Pkt
	if !p.Valid(packet.HdrTCP) {
		return false
	}
	h := vipFlowHash(p.IPv4.Src, p.TCP.SrcPort)
	out, err := p.Serialize(buf[:0])
	if err != nil {
		return false
	}
	return c.frame(out, frameExp{cls: clsFull, dst: backends[int(h)%len(backends)]})
}
