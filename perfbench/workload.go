package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"dejavu/internal/config"
	"dejavu/internal/intent"
	"dejavu/internal/packet"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlEdgecloud = "edgecloud"
	wlBigtables = "bigtables"
	wlFlowchurn = "flowchurn"
	wlReconfig  = "reconfig"
)

var workloadNames = []string{wlEdgecloud, wlBigtables, wlFlowchurn, wlReconfig}

// Traffic and table sizes. The edge-cloud numbers follow the §5
// deployment; the bigtables numbers are production-size tables.
const (
	burstSize         = 64
	flowsPerWorker    = 1024 // established VIP flows per edgecloud worker
	bigSessions       = 60000
	bigClassRules     = 254 // generated on top of the 2 base rules
	bigACLRules       = 2046
	bigRoutes         = 16384
	churnFlowLen      = 8
	churnEpochFlows   = 60000 // new flows per flowchurn deployment
	churnLBCapacity   = 65536
	staticExitPort    = 5 // the traffic-free control chain exits here
	staticExitChain   = 40
	tenantPrefixHosts = 254
)

// workload is one benchmark scenario: its base intent, the traffic it
// generates and how the run is driven.
type workload struct {
	name string
	doc  *intent.Document

	ringSize int  // frames per worker ring
	sessions int  // established LB sessions, split over workers
	churn    bool // VIP traffic arrives as new 8-packet flows
	control  bool // the control script runs alongside the datapath
	// maxWorkers caps datapath workers (flowchurn and reconfig run one).
	maxWorkers int

	// Address pools traffic draws from.
	clientBlocks int          // client /24 blocks sources come from
	tenantHosts  []packet.IP4 // medium-path destinations
	routed       []prefix     // generated router prefixes (basic traffic hits them)
}

// prefix is one generated IPv4 prefix.
type prefix struct {
	addr uint32
	plen int
}

func (p prefix) String() string {
	return fmt.Sprintf("%s/%d", packet.IP4FromUint32(p.addr), p.plen)
}

// loadBaseFile reads the paper's edge-cloud deployment from the repo's
// shipped config, strictly (unknown keys are errors).
func loadBaseFile(root string) (config.File, error) {
	var f config.File
	data, err := os.ReadFile(filepath.Join(root, "configs", "edgecloud.json"))
	if err != nil {
		return f, fmt.Errorf("reading base config: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return f, fmt.Errorf("parsing base config: %w", err)
	}
	if f.LB == nil || f.Firewall == nil || f.Classifier == nil || f.Router == nil || f.VGW == nil {
		return f, fmt.Errorf("base config lacks one of the five edge-cloud NFs")
	}
	return f, nil
}

// fig9Placement pins the NFs where the paper's Fig. 9 puts them: the
// classifier faces external traffic on ingress 0, FW and VGW share
// egress 1, LB and router share ingress 1, which only loopback ports
// reach, so every chain recirculates exactly once. The shipped config
// leaves placement to its optimizer; the hints make the benchmark
// measure the paper's deployment.
func fig9Placement() map[string]string {
	return map[string]string{
		"classifier": "ingress 0", "fw": "egress 1", "vgw": "egress 1",
		"lb": "ingress 1", "router": "ingress 1",
	}
}

// clientBlock returns the /24 client block b (b < 16384) inside
// 100.64.0.0/10; traffic sources and generated rules use it.
func clientBlock(b int) packet.IP4 {
	return packet.IP4{100, byte(64 + b>>8), byte(b), 0}
}

// newWorkload builds the named workload for the given worker count.
func newWorkload(root, name string, workers int, seed int64) (*workload, error) {
	f, err := loadBaseFile(root)
	if err != nil {
		return nil, err
	}
	f.Telemetry = true
	wl := &workload{
		name:         name,
		ringSize:     8192,
		clientBlocks: 16384,
		tenantHosts:  []packet.IP4{{10, 0, 2, 5}},
	}
	switch name {
	case wlEdgecloud:
		wl.sessions = flowsPerWorker * workers
	case wlBigtables:
		wl.sessions = bigSessions
		wl.ringSize = 65536
		wl.clientBlocks = 2560 // rules cover blocks 0..2045; the rest fall to the bottom
		growTables(&f, wl, seed)
	case wlFlowchurn:
		wl.churn = true
		f.LB.SessionCapacity = churnLBCapacity
		// One worker: workers share the switch's one CPU queue, so with
		// several the burst tail measured whose Poll drained whose
		// punts, not the punt path.
		wl.maxWorkers = 1
	case wlReconfig:
		wl.sessions = flowsPerWorker
		wl.control = true
		wl.maxWorkers = 1
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	// Every workload's control script runs on its own deployment. A
	// traffic-free chain with a static exit gives exit-port failures a
	// chain to re-point; no classifier rule steers traffic onto it.
	f.Chains = append(f.Chains, config.ChainSpec{
		PathID: staticExitChain, NFs: []string{"classifier", "router"},
		Weight: 0.05, ExitPipeline: 0, StaticExitPort: staticExitPort,
	})
	if need := wl.sessions + 64; f.LB.SessionCapacity < need {
		f.LB.SessionCapacity = need
	}
	wl.doc = &intent.Document{SchemaVersion: intent.Version, Name: "perfbench-" + name, File: f, Placement: fig9Placement()}
	if err := wl.doc.Validate(); err != nil {
		return nil, err
	}
	return wl, nil
}

// growTables loads production-size rule sets that leave every expected
// disposition unchanged: classifier and ACL rules match the same
// traffic classes as the base rules (per client block, at higher
// priority), and generated routes all lead to the default next hop.
// Traffic from blocks past the generated ones falls through to the
// base rules at the bottom of each table.
func growTables(f *config.File, wl *workload, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed7ab1e))
	vip := "203.0.113.80/32"
	for j := 0; j < bigClassRules; j++ {
		src := fmt.Sprintf("%s/24", clientBlock(j))
		rule := config.ClassMap{Src: src, Priority: 100 + j}
		switch j % 3 {
		case 0:
			rule.Dst, rule.Proto, rule.Path, rule.InitialIndex, rule.Tenant = vip, "tcp", 10, 5, 42
		case 1:
			rule.Dst, rule.Path, rule.InitialIndex, rule.Tenant = "10.0.2.0/24", 20, 3, 42
		default:
			rule.Proto, rule.Path, rule.InitialIndex = "udp", 30, 2
		}
		f.Classifier.Rules = append(f.Classifier.Rules, rule)
	}
	for j := 0; j < bigACLRules; j++ {
		rule := config.ACLRule{Src: fmt.Sprintf("%s/24", clientBlock(j)), Dst: vip, Proto: "tcp", Priority: 100 + j}
		if j%2 == 0 {
			rule.DstPort, rule.Permit = 443, true
		} else {
			rule.DstPort, rule.Permit = 80, false
		}
		f.Firewall.Rules = append(f.Firewall.Rules, rule)
	}
	for h := 1; h <= tenantPrefixHosts; h++ {
		if h == 5 {
			continue // the base config's tenant host
		}
		ip := packet.IP4{10, 0, 2, byte(h)}
		f.VGW.Encap = append(f.VGW.Encap, config.EncapRule{
			InnerDst: ip.String(), VNI: 5001, Remote: "172.16.0.9", NextMAC: "02:de:1a:00:00:05",
		})
		wl.tenantHosts = append(wl.tenantHosts, ip)
	}
	upstream := f.Router.Routes[len(f.Router.Routes)-1] // the default route's next hop
	seen := make(map[prefix]bool, bigRoutes)
	for len(wl.routed) < bigRoutes {
		plen := 16 + rng.Intn(9)
		addr := rng.Uint32() & (^uint32(0) << (32 - plen))
		p := prefix{addr: addr, plen: plen}
		if seen[p] || reservedPrefix(p) {
			continue
		}
		seen[p] = true
		wl.routed = append(wl.routed, p)
		f.Router.Routes = append(f.Router.Routes, config.RouteSpec{
			Prefix: p.String(), Port: upstream.Port, DstMAC: upstream.DstMAC, SrcMAC: upstream.SrcMAC,
		})
	}
}

// reservedPrefix rejects generated prefixes that would overlap the
// scenario's own addresses (private space, the VIP and client nets,
// the default-route test range) or multicast/reserved space.
func reservedPrefix(p prefix) bool {
	first := p.addr >> 24
	switch {
	case first == 0 || first == 10 || first == 100 || first == 127 || first >= 198:
		return true
	case first == 172 && (p.addr>>20)&0xF == 1:
		return true
	}
	return false
}
