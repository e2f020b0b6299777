package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/compose"
	"dejavu/internal/config"
	"dejavu/internal/core"
	"dejavu/internal/mau"
	"dejavu/internal/nf"
	"dejavu/internal/nsh"
	"dejavu/internal/packet"
)

// Standalone layer timings for the traced run. A recording rig runs
// the workload's sample packets once through the pipelet programs that
// core.Composer(cfg).FuncFor(pl) composes over the live deployment's
// own NF objects, capturing the input of every pipelet pass and every
// NF execution; each layer is then timed replaying those inputs. The
// benchmark wraps NFs and stage programs from the outside: nothing in
// the program under test is instrumented.

// pipeletNames are the four pipelets of the Wedge-100B profile, in the
// order a recirculating packet visits them.
var pipeletNames = []struct {
	pl   asic.PipeletID
	name string
}{
	{asic.PipeletID{Pipeline: 0, Dir: asic.Ingress}, "ingress0"},
	{asic.PipeletID{Pipeline: 1, Dir: asic.Egress}, "egress1"},
	{asic.PipeletID{Pipeline: 1, Dir: asic.Ingress}, "ingress1"},
	{asic.PipeletID{Pipeline: 0, Dir: asic.Egress}, "egress0"},
}

// stageIn is one recorded pipelet input.
type stageIn struct {
	meta asic.Meta
	pkt  packet.Parsed
}

// decideArgs are one recorded branching decision's inputs.
type decideArgs struct {
	path    uint16
	index   uint8
	curr    int
	outPort asic.PortID
}

// rig records layer inputs.
type rig struct {
	recording bool
	stages    map[asic.PipeletID][]stageIn
	nfIn      map[string][]packet.Parsed
	decides   []decideArgs
}

// recNF wraps an NF so the rig sees the header each execution gets.
type recNF struct {
	nf.NF
	rig *rig
}

func (r *recNF) Execute(hdr *packet.Parsed) {
	if r.rig.recording {
		r.rig.nfIn[r.Name()] = append(r.rig.nfIn[r.Name()], *hdr)
	}
	r.NF.Execute(hdr)
}

func (rg *rig) wrap(pl asic.PipeletID, fn asic.StageFunc) asic.StageFunc {
	return func(ctx *asic.Ctx) {
		if rg.recording {
			rg.stages[pl] = append(rg.stages[pl], stageIn{meta: ctx.Meta, pkt: *ctx.Pkt})
		}
		fn(ctx)
		if rg.recording && pl.Dir == asic.Ingress && !ctx.Meta.Drop && !ctx.Meta.ToCPU && ctx.Pkt.SFC.ServicePathID != 0 {
			h := &ctx.Pkt.SFC
			rg.decides = append(rg.decides, decideArgs{h.ServicePathID, h.ServiceIndex, pl.Pipeline, asic.PortID(h.Meta.OutPort)})
		}
	}
}

// sink keeps measured results alive so calls are not optimized away.
var sink uint64

// perItemNs times call over items after restore, subtracting the cost
// of restore alone, and returns the median over repetitions in ns per
// item. Item counts adapt so one repetition takes about 10 ms.
func perItemNs(n int, restore, call func(i int)) float64 {
	if n == 0 {
		return 0
	}
	probe := n
	if probe > 64 {
		probe = 64
	}
	t := time.Now()
	for i := 0; i < probe; i++ {
		restore(i)
		call(i)
	}
	est := float64(time.Since(t)) / float64(probe)
	items := int(10e6 / (est + 1))
	if items < probe {
		items = probe
	}
	const reps = 7
	diffs := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < items; i++ {
			restore(i % n)
		}
		base := time.Since(t0)
		t1 := time.Now()
		for i := 0; i < items; i++ {
			restore(i % n)
			call(i % n)
		}
		diffs = append(diffs, float64(time.Since(t1)-base)/float64(items))
	}
	return median(diffs)
}

// layerSample returns parsed sample packets of the workload's traffic
// mix, with their sessions installed on the live deployment.
func (e *env) layerSample() ([]*packet.Parsed, []flow, error) {
	flows := e.flows
	var r *ring
	rng := rand.New(rand.NewSource(e.seed*977 + 5))
	if e.wl.churn {
		flows = genFlows(rng, 512, e.wl.clientBlocks, e.churnUsed)
		plain := *e.wl
		plain.churn = false
		r = plain.buildRing(rng, 4096, flows)
	} else {
		r = e.wl.buildRing(rng, 4096, flows)
	}
	// The live deployment may be a fresh one (a flowchurn epoch, a
	// reconfig redeploy) that has not learned these flows' sessions.
	if err := installSessions(e.dep.Load(), flows); err != nil {
		return nil, nil, err
	}
	out := make([]*packet.Parsed, len(r.frames))
	for i, f := range r.frames {
		out[i] = new(packet.Parsed)
		if err := out[i].Parse(f); err != nil {
			return nil, nil, err
		}
	}
	return out, flows, nil
}

// measureLayers times every layer standalone; it returns per-layer
// metrics, table rows for the in-switch split, and the per-packet sum of
// the in-switch layers (compose self, NF execute, telemetry).
func (e *env) measureLayers(tr *tracer) (map[string]float64, []layerRow, float64, error) {
	m := map[string]float64{}
	var rows []layerRow
	d := e.dep.Load()
	sample, flows, err := e.layerSample()
	if err != nil {
		return nil, nil, 0, err
	}
	req := int64(0)
	span := func(name string, f func()) {
		req++
		tr.timed("layer."+name, req, f)
	}

	// Record: compose the live deployment's placement over wrapped NFs
	// and run the sample through a plain switch carrying the programs.
	rg := &rig{stages: map[asic.PipeletID][]stageIn{}, nfIn: map[string][]packet.Parsed{}}
	cfg := d.Config
	cfg.Placement = d.Placement
	wrapped := make(nf.List, len(cfg.NFs))
	for i, f := range cfg.NFs {
		wrapped[i] = &recNF{NF: f, rig: rg}
	}
	cfg.NFs = wrapped
	comp, _, err := core.Composer(cfg)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("layers: composing: %w", err)
	}
	sw, err := rigSwitch(cfg, comp, rg)
	if err != nil {
		return nil, nil, 0, err
	}
	rg.recording = true
	for _, p := range sample {
		if _, err := sw.Inject(workerPorts[0], p.Clone()); err != nil {
			return nil, nil, 0, fmt.Errorf("layers: recording: %w", err)
		}
	}
	rg.recording = false
	nSample := float64(len(sample))

	// nf: execute time per execution on each NF's recorded inputs.
	nfNs := map[string]float64{}
	var scratch packet.Parsed
	perPacketNF := 0.0
	for _, f := range d.Config.NFs {
		name := f.Name()
		ins := rg.nfIn[name]
		span("nf."+name, func() {
			nfNs[name] = perItemNs(len(ins), func(i int) { scratch = ins[i] }, func(int) { f.Execute(&scratch) })
		})
		m["nf."+name+".execute_ns"] = nfNs[name]
		perPacketNF += nfNs[name] * float64(len(ins)) / nSample
	}
	rows = append(rows, layerRow{"nf (per packet)", perPacketNF, "ns/pkt", "all NF executions a packet sees"})

	// compose: pipelet program time per packet minus the NFs it hosts.
	ctx := &asic.Ctx{}
	for _, pn := range pipeletNames {
		fn := comp.FuncFor(pn.pl)
		ins := rg.stages[pn.pl]
		var progNs float64
		span("compose."+pn.name, func() {
			progNs = perItemNs(len(ins), func(i int) {
				scratch = ins[i].pkt
				*ctx = asic.Ctx{Pkt: &scratch, Meta: ins[i].meta, Pipelet: pn.pl}
			}, func(int) { fn(ctx) })
		})
		hosted := 0.0
		for _, name := range comp.PipeletNFOrder(pn.pl) {
			hosted += nfNs[name] * float64(len(rg.nfIn[name]))
		}
		self := (progNs*float64(len(ins)) - hosted) / nSample
		m["compose."+pn.name+".self_ns"] = self
		rows = append(rows, layerRow{"compose." + pn.name + ".self", self, "ns/pkt",
			fmt.Sprintf("%d passes, hosts %v", len(ins), comp.PipeletNFOrder(pn.pl))})
	}
	for _, f := range d.Config.NFs {
		rows = append(rows, layerRow{"nf." + f.Name() + ".execute", nfNs[f.Name()], "ns/exec",
			fmt.Sprintf("%d executions per %d packets", len(rg.nfIn[f.Name()]), len(sample))})
	}

	// route: branching decisions and next-NF lookups.
	br := comp.Branching
	span("route.decide", func() {
		m["route.decide_ns"] = perItemNs(len(rg.decides), func(int) {}, func(i int) {
			a := rg.decides[i]
			sink += uint64(br.Decide(a.path, a.index, a.curr, a.outPort).Port)
		})
	})
	var nextArgs []decideArgs
	var hdrs []nsh.Header
	for _, f := range d.Config.NFs {
		for _, p := range rg.nfIn[f.Name()] {
			if p.Valid(packet.HdrSFC) {
				nextArgs = append(nextArgs, decideArgs{path: p.SFC.ServicePathID, index: p.SFC.ServiceIndex})
				hdrs = append(hdrs, p.SFC)
			}
		}
	}
	span("route.nextnf", func() {
		m["route.nextnf_ns"] = perItemNs(len(nextArgs), func(int) {}, func(i int) {
			name, _ := br.NextNF(nextArgs[i].path, nextArgs[i].index)
			sink += uint64(len(name))
		})
	})

	// nsh: one hop's context work on a recorded SFC header.
	var h nsh.Header
	span("nsh.context", func() {
		m["nsh.context_ns"] = perItemNs(len(hdrs), func(i int) { h = hdrs[i] }, func(i int) {
			_ = h.SetContext(nsh.KeyDebug, uint16(i))
			v, _ := h.LookupContext(nsh.KeyTenantID)
			sink += uint64(v) + uint64(h.Advance())
		})
	})

	// packet: the five-tuple hash the LB keys sessions on.
	span("packet.hash", func() {
		m["packet.hash_ns"] = perItemNs(len(sample), func(int) {}, func(i int) {
			ft, _ := sample[i].FiveTuple()
			sink += uint64(ft.Hash())
		})
	})

	// mau: standalone tables loaded with the benchmark's rule sets.
	if err := e.measureMAU(m, rg, flows, span); err != nil {
		return nil, nil, 0, err
	}

	// telemetry and asic: counters on versus off on the live switch.
	e.measureTelemetry(m, d, sample, span)

	// core: a full deployment build of the workload's intent.
	dcfg, err := e.wl.doc.BuildConfig()
	if err != nil {
		return nil, nil, 0, err
	}
	var deployMs []float64
	for i := 0; i < 3; i++ {
		var derr error
		span("core.deploy", func() {
			start := time.Now()
			_, derr = core.Deploy(*dcfg)
			deployMs = append(deployMs, float64(time.Since(start))/1e6)
		})
		if derr != nil {
			return nil, nil, 0, derr
		}
	}
	m["core.deploy_ms"] = median(deployMs)
	inSwitch := perPacketNF + m["telemetry.overhead_ns"]
	for _, pn := range pipeletNames {
		inSwitch += m["compose."+pn.name+".self_ns"]
	}
	return m, rows, inSwitch, nil
}

// rigSwitch installs comp's pipelet programs, wrapped for recording,
// on a fresh switch with the deployment's loopback ports.
func rigSwitch(cfg core.Config, comp *compose.Composer, rg *rig) (*asic.Switch, error) {
	sw := asic.New(cfg.Prof)
	loops := map[int]asic.PortID{}
	for _, p := range cfg.LoopbackPorts {
		if err := sw.SetLoopback(p, asic.LoopbackOnChip); err != nil {
			return nil, err
		}
		if _, ok := loops[cfg.Prof.PipelineOf(p)]; !ok {
			loops[cfg.Prof.PipelineOf(p)] = p
		}
	}
	comp.Branching.SetLoopbackChooser(func(pipe int) asic.PortID {
		if p, ok := loops[pipe]; ok {
			return p
		}
		return asic.RecircPort(pipe)
	})
	for pipe := 0; pipe < cfg.Prof.Pipelines; pipe++ {
		in := asic.PipeletID{Pipeline: pipe, Dir: asic.Ingress}
		eg := asic.PipeletID{Pipeline: pipe, Dir: asic.Egress}
		if err := sw.InstallIngress(pipe, rg.wrap(in, comp.FuncFor(in))); err != nil {
			return nil, err
		}
		if err := sw.InstallEgress(pipe, rg.wrap(eg, comp.FuncFor(eg))); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// fiveTupleKey is the 13-byte ternary key layout the classifier and
// firewall match on: src(4) dst(4) proto(1) sport(2) dport(2).
func fiveTupleKey(ft packet.FiveTuple) []byte {
	k := make([]byte, 13)
	copy(k[0:4], ft.Src[:])
	copy(k[4:8], ft.Dst[:])
	k[8] = ft.Proto
	binary.BigEndian.PutUint16(k[9:], ft.SrcPort)
	binary.BigEndian.PutUint16(k[11:], ft.DstPort)
	return k
}

// cidr parses an optional "a.b.c.d/n" into value and mask (empty = any).
func cidr(s string) (packet.IP4, packet.IP4, error) {
	if s == "" {
		return packet.IP4{}, packet.IP4{}, nil
	}
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return packet.IP4{}, packet.IP4{}, err
	}
	mask := packet.IP4FromUint32(^uint32(0) << (32 - p.Bits()))
	if p.Bits() == 0 {
		mask = packet.IP4{}
	}
	return packet.IP4(p.Addr().As4()), mask, nil
}

// aclEntry encodes one ACL rule the way the firewall's table holds it.
func aclEntry(r config.ACLRule) (value, mask []byte, err error) {
	value, mask = make([]byte, 13), make([]byte, 13)
	src, sm, err := cidr(r.Src)
	if err != nil {
		return nil, nil, err
	}
	dst, dm, err := cidr(r.Dst)
	if err != nil {
		return nil, nil, err
	}
	copy(value[0:4], src[:])
	copy(mask[0:4], sm[:])
	copy(value[4:8], dst[:])
	copy(mask[4:8], dm[:])
	switch r.Proto {
	case "tcp":
		value[8], mask[8] = packet.ProtoTCP, 0xFF
	case "udp":
		value[8], mask[8] = packet.ProtoUDP, 0xFF
	}
	if r.SrcPort != 0 {
		binary.BigEndian.PutUint16(value[9:], r.SrcPort)
		mask[9], mask[10] = 0xFF, 0xFF
	}
	if r.DstPort != 0 {
		binary.BigEndian.PutUint16(value[11:], r.DstPort)
		mask[11], mask[12] = 0xFF, 0xFF
	}
	return value, mask, nil
}

// measureMAU times each match engine on a standalone table loaded with
// the rule set the benchmark generated for the NF that uses it, keyed
// by the inputs that NF actually saw.
func (e *env) measureMAU(m map[string]float64, rg *rig, flows []flow, span func(string, func())) error {
	doc := e.wl.doc
	tern := mau.NewTernaryTable()
	for _, r := range doc.Firewall.Rules {
		v, mk, err := aclEntry(r)
		if err != nil {
			return err
		}
		action := "deny"
		if r.Permit {
			action = "permit"
		}
		if err := tern.Insert(v, mk, r.Priority, mau.Entry{Action: action}); err != nil {
			return err
		}
	}
	var ternKeys [][]byte
	for _, p := range rg.nfIn["fw"] {
		if ft, ok := p.FiveTuple(); ok {
			ternKeys = append(ternKeys, fiveTupleKey(ft))
		}
	}
	span("mau.ternary", func() {
		m["mau.ternary.lookup_ns"] = perItemNs(len(ternKeys), func(int) {}, func(i int) {
			en, _ := tern.Lookup(ternKeys[i])
			sink += uint64(len(en.Action))
		})
	})

	lpm := mau.NewLPM32()
	for i, r := range doc.Router.Routes {
		p, err := netip.ParsePrefix(r.Prefix)
		if err != nil {
			return err
		}
		if err := lpm.Insert(binary.BigEndian.Uint32(p.Addr().AsSlice()), p.Bits(), mau.Entry{Action: "forward", Params: []uint64{uint64(i)}}); err != nil {
			return err
		}
	}
	var lpmKeys []uint32
	for _, p := range rg.nfIn["router"] {
		lpmKeys = append(lpmKeys, p.IPv4.Dst.Uint32())
	}
	span("mau.lpm", func() {
		m["mau.lpm.lookup_ns"] = perItemNs(len(lpmKeys), func(int) {}, func(i int) {
			en, _ := lpm.Lookup(lpmKeys[i])
			sink += uint64(len(en.Params))
		})
	})

	exact := mau.NewExactTable(doc.LB.SessionCapacity)
	key := func(h uint32) []byte { return []byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)} }
	for _, f := range flows {
		if err := exact.Insert(key(f.hash), mau.Entry{Action: "modify_dstIp", Params: []uint64{uint64(f.backend.Uint32())}}); err != nil {
			return err
		}
	}
	var exactKeys [][]byte
	for _, p := range rg.nfIn["lb"] {
		if ft, ok := p.FiveTuple(); ok {
			exactKeys = append(exactKeys, key(ft.Hash()))
		}
	}
	span("mau.exact.lookup", func() {
		m["mau.exact.lookup_ns"] = perItemNs(len(exactKeys), func(int) {}, func(i int) {
			en, _ := exact.Lookup(exactKeys[i])
			sink += uint64(len(en.Params))
		})
	})

	rng := rand.New(rand.NewSource(e.seed*613 + 11))
	newKeys := make([][]byte, 4096)
	for i := range newKeys {
		newKeys[i] = key(rng.Uint32())
	}
	var fresh *mau.ExactTable
	span("mau.exact.insert", func() {
		m["mau.exact.insert_ns"] = perItemNs(len(newKeys), func(i int) {
			if i == 0 {
				fresh = mau.NewExactTable(0)
			}
		}, func(i int) {
			_ = fresh.Insert(newKeys[i], mau.Entry{Action: "modify_dstIp", Params: []uint64{1}})
		})
	})
	return nil
}

// measureTelemetry times bursts of the sample through the live switch
// with the datapath counters attached and detached, alternating rounds,
// and counts the allocations of the counted path.
func (e *env) measureTelemetry(m map[string]float64, d *core.Deployment, sample []*packet.Parsed, span func(string, func())) {
	batch := make([]*packet.Parsed, burstSize)
	for i := range batch {
		batch[i] = new(packet.Parsed)
	}
	const bursts = 128
	run := func() float64 {
		start := time.Now()
		for b := 0; b < bursts; b++ {
			for i := range batch {
				batch[i].CopyFrom(sample[(b*burstSize+i)%len(sample)])
			}
			br := d.Switch.InjectQuietBatch(workerPorts[0], batch)
			sink += uint64(br.Delivered)
		}
		return float64(time.Since(start)) / float64(bursts*burstSize)
	}
	dp := d.Switch.Telemetry()
	var diffs []float64
	span("telemetry.overhead", func() {
		for r := 0; r < 7; r++ {
			on := run()
			d.Switch.SetTelemetry(nil)
			off := run()
			d.Switch.SetTelemetry(dp)
			diffs = append(diffs, on-off)
		}
	})
	m["telemetry.overhead_ns"] = median(diffs)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	n := float64(bursts * burstSize)
	m["asic.allocs_per_pkt"] = float64(after.Mallocs-before.Mallocs) / n
	m["asic.bytes_per_pkt"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	d.Switch.DrainCPU()

	var scrape []float64
	span("telemetry.scrape", func() {
		for i := 0; i < 21; i++ {
			start := time.Now()
			if dp != nil {
				snap := dp.Snapshot()
				sink += snap.Delivered + uint64(len(dp.Gather()))
			}
			scrape = append(scrape, float64(time.Since(start))/1e6)
		}
	})
	m["telemetry.scrape_ms"] = median(scrape)
}
