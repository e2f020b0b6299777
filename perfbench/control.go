package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/cluster"
	"dejavu/internal/config"
	"dejavu/internal/core"
	"dejavu/internal/fabricplace"
	"dejavu/internal/fault"
	"dejavu/internal/intent"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/pipeline"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

// Control-plane workload: operator edits through the intent applier,
// port events through the single-switch reconciler, and switch/wire
// faults on a 4-switch fabric, each followed by one reconcile round.

// fabricSwitches is the size of the control workload's fabric, wired
// like `dejavu fabricchaos`: a spine on port 10, skip wires on port 11.
const fabricSwitches = 4

// opKind classifies control operations by the end-to-end metric they
// feed.
type opKind uint8

const (
	opApply opKind = iota
	opHeal
	opFabric
)

// op is one step of the control script.
type op struct {
	kind opKind
	name string
	// opApply: edit turns the current intent into the next one;
	// noop marks a re-apply that must come back as a proved no-op.
	edit func(d *intent.Document)
	noop bool
	// opHeal: a port event. grace marks a loopback port's recovery,
	// which runs with no burst in flight (controlPlane.grace).
	ev    fault.Event
	grace bool
	// opFabric: a fault applied to the fabric before the round.
	fab func(f *cluster.Fabric) error
}

// stageNames are the build pipeline stages whose times each apply
// reports.
var stageNames = []string{
	pipeline.StageParserMerge, pipeline.StagePlacement, pipeline.StageComposition,
	pipeline.StageAllocation, pipeline.StageRouting, pipeline.StageLint,
}

// controlPlane replays the seeded control script against one applier,
// one core reconciler and one fabric.
type controlPlane struct {
	app  *intent.Applier
	rec  *core.Reconciler
	cur  *intent.Document
	fab  *cluster.Fabric
	fd   *cluster.FabricDeployment
	frec *cluster.Reconciler
	chk  *checker
	// probeBackend is the backend the fabric LB's pre-installed session
	// for the full-path probe maps to.
	probeBackend packet.IP4
	// publish hands a deployment the applier (re)built to the datapath.
	publish func(*core.Deployment)
	// grace, when set, is locked around a loopback port's recovery. It
	// waits out bursts that started before it: core.HandlePortUp turns
	// loopback on in a new switch snapshot, then returns the port to the
	// recirculation rotation, which lives outside the snapshot. A burst
	// still running on the older snapshot can pick the port from the
	// rotation and send its packet out of the front panel mid-chain.
	grace sync.Locker

	script []op // one cycle; ends where it started

	res controlResult
}

// controlResult accumulates what the control phase measured.
type controlResult struct {
	// Every operation's CPU time (ms) by the metric it feeds. Runs
	// replay whole cycles only, so each holds the cycle's operation mix
	// an exact number of times.
	apply, heal, reconcile []float64
	attempted, failed      int
	cycles                 int
	failures               []string
	// byOp holds every sample per operation name, for the breakdown.
	byOp map[string][]float64

	// First-cycle counts: identical for a given seed.
	firstApplies, firstRounds, firstOps int
	deltaEntries, programReloads        int
	switchesReprogrammed                int
	driverAttempts                      int

	// Pipeline stage time and cache accounting over every apply.
	stageNs             map[string]int64
	cacheHits, cacheAll int
	probes              int
}

// newControlPlane takes over app, which holds doc deployed, binds a
// core reconciler to it and builds the fabric with its initial
// reconcile.
func newControlPlane(app *intent.Applier, doc *intent.Document, chk *checker) (*controlPlane, error) {
	cp := &controlPlane{app: app, cur: doc.Clone(), chk: chk, publish: func(*core.Deployment) {}}
	cp.res.stageNs = make(map[string]int64)
	cp.res.byOp = make(map[string][]float64)
	cp.rec = core.NewReconciler(cp.app.Deployment(), 0)
	cp.app.Bind(cp.rec)
	if err := cp.buildFabric(doc); err != nil {
		return nil, err
	}
	cp.script = buildScript(doc, cp.fab.Wires())
	return cp, nil
}

// buildFabric wires the 4-switch fabric, deploys the workload's three
// edge-cloud chains, with its tables, over it (NFs inflated to 8 stages each, so chains segment
// across switches) and runs the initial reconcile.
func (cp *controlPlane) buildFabric(doc *intent.Document) error {
	base := doc.File
	var chains []config.ChainSpec
	for _, c := range base.Chains {
		if c.PathID != staticExitChain {
			chains = append(chains, c)
		}
	}
	base.Chains = chains
	cfg, err := base.Build()
	if err != nil {
		return fmt.Errorf("control: fabric config: %w", err)
	}
	f, err := cluster.NewFabric(cfg.Prof, fabricSwitches)
	if err != nil {
		return err
	}
	for i := 0; i < fabricSwitches-1; i++ {
		if err := f.Connect(i, 10, i+1, 10); err != nil {
			return err
		}
	}
	for i := 0; i < fabricSwitches-2; i++ {
		if err := f.Connect(i, 11, i+2, 11); err != nil {
			return err
		}
	}
	demand := make(map[string]int)
	for _, n := range []string{"classifier", "fw", "vgw", "lb", "router"} {
		demand[n] = 8
	}
	fd, err := cluster.NewFabricDeployment(f, cfg.Chains, cfg.NFs, demand)
	if err != nil {
		return err
	}
	lb, ok := cfg.NFs.ByName("lb").(*nf.LoadBalancer)
	if !ok {
		return fmt.Errorf("control: fabric chain set has no load balancer")
	}
	pf, _ := scenario.ClientTCP(443).FiveTuple()
	cp.probeBackend = backends[int(pf.Hash())%len(backends)]
	if err := lb.InstallSession(pf.Hash(), cp.probeBackend); err != nil {
		return err
	}
	cp.fab, cp.fd, cp.frec = f, fd, cluster.NewReconciler(fd)
	if _, err := cp.frec.Reconcile(); err != nil {
		return fmt.Errorf("control: initial fabric reconcile: %w", err)
	}
	return nil
}

// buildScript lays out one cycle of control operations. Every block
// undoes itself, so the cycle ends in the state it started from and can
// repeat for as long as the run lasts. The layout is fixed, not seeded:
// what an apply costs depends on the operations before it (the same
// firewall-rule redeploy took 80 ms after one neighbour and 145 ms after
// another), so a seeded order would make the apply percentiles depend
// on the seed rather than on the program.
func buildScript(doc *intent.Document, wires []cluster.Wire) []op {
	apply := func(name string, edit func(*intent.Document)) op {
		return op{kind: opApply, name: name, edit: edit}
	}
	noop := op{kind: opApply, name: "reapply-unchanged", edit: func(*intent.Document) {}, noop: true}
	heal := func(kind fault.Kind, port asic.PortID) op {
		return op{kind: opHeal, name: fmt.Sprintf("%s-%d", kind, port), ev: fault.Event{Kind: kind, Port: port}}
	}
	applies := [][]op{
		{apply("add-chain", func(d *intent.Document) {
			d.Chains = append(d.Chains, config.ChainSpec{PathID: 50, NFs: []string{"classifier", "fw", "router"}, Weight: 0.1})
		}), noop, apply("remove-chain", func(d *intent.Document) {
			var kept []config.ChainSpec
			for _, c := range d.Chains {
				if c.PathID != 50 {
					kept = append(kept, c)
				}
			}
			d.Chains = kept
		})},
		{apply("reweight", func(d *intent.Document) { setWeight(d, 20, 0.25) }),
			apply("reweight-back", func(d *intent.Document) { setWeight(d, 20, 0.3) })},
		{apply("placement-hint", func(d *intent.Document) { setHint(d, "fw", "ingress 0") }),
			apply("placement-hint-back", func(d *intent.Document) { setHint(d, "fw", "egress 1") })},
		{apply("nf-rule-add", func(d *intent.Document) {
			fw := *d.Firewall
			fw.Rules = append(append([]config.ACLRule(nil), fw.Rules...), config.ACLRule{
				Dst: "192.0.2.1/32", Proto: "tcp", DstPort: 22, Priority: 5, Permit: false,
			})
			d.Firewall = &fw
		}), apply("nf-rule-remove", func(d *intent.Document) {
			fw := *d.Firewall
			fw.Rules = fw.Rules[:len(fw.Rules)-1]
			d.Firewall = &fw
		})},
		{noop},
	}
	// Twelve exit-port blocks against two loopback ones. Exit-port heals
	// re-point a chain and hot-swap its programs; loopback heals only
	// re-budget and take a fiftieth of the time. With this mix both heal
	// percentiles fall well inside the exit-port heals' distribution
	// (near its 42nd and 88th percentiles), where a few samples more or
	// less barely move them.
	exit := []op{heal(fault.PortDown, staticExitPort), heal(fault.PortUp, staticExitPort)}
	var heals [][]op
	for i := 0; i < 12; i++ {
		heals = append(heals, exit)
	}
	for _, i := range []int{0, len(doc.LoopbackPorts) / 2} {
		lp := asic.PortID(doc.LoopbackPorts[i])
		up := heal(fault.PortUp, lp)
		up.grace = true
		heals = append(heals, []op{heal(fault.PortDown, lp), up})
	}
	// Every cycle fails each non-entry switch and cuts each wire once.
	var faults [][]op
	for sw := 1; sw < fabricSwitches; sw++ {
		faults = append(faults, []op{
			{kind: opFabric, name: fmt.Sprintf("kill-switch-%d", sw), fab: func(f *cluster.Fabric) error { return f.KillSwitch(sw) }},
			{kind: opFabric, name: fmt.Sprintf("revive-switch-%d", sw), fab: func(f *cluster.Fabric) error { return f.ReviveSwitch(sw) }},
		})
	}
	for _, w := range wires {
		faults = append(faults, []op{
			{kind: opFabric, name: fmt.Sprintf("cut-link-%d:%d", w.FromSw, w.FromPort), fab: func(f *cluster.Fabric) error { return f.CutLink(w.FromSw, w.FromPort) }},
			{kind: opFabric, name: fmt.Sprintf("restore-link-%d:%d", w.FromSw, w.FromPort), fab: func(f *cluster.Fabric) error { return f.RestoreLink(w.FromSw, w.FromPort) }},
		})
	}
	// Interleave the three kinds, one block of each in turn.
	var script []op
	for i := 0; i < len(applies) || i < len(heals) || i < len(faults); i++ {
		for _, kind := range [][][]op{applies, heals, faults} {
			if i < len(kind) {
				script = append(script, kind[i]...)
			}
		}
	}
	return script
}

// setHint moves one NF's placement hint; the re-placed deployment is
// hot-swapped, and the edit after it moves the NF back.
func setHint(d *intent.Document, name, pipelet string) {
	hints := make(map[string]string, len(d.Placement))
	for k, v := range d.Placement {
		hints[k] = v
	}
	hints[name] = pipelet
	d.Placement = hints
}

func setWeight(d *intent.Document, path uint16, w float64) {
	chains := append([]config.ChainSpec(nil), d.Chains...)
	for i := range chains {
		if chains[i].PathID == path {
			chains[i].Weight = w
		}
	}
	d.Chains = chains
}

// fail records one failed control operation.
func (cp *controlPlane) fail(format string, args ...any) {
	cp.res.failed++
	if len(cp.res.failures) < 8 {
		cp.res.failures = append(cp.res.failures, fmt.Sprintf(format, args...))
	}
}

// sample records one operation's CPU time (ns) under its metric and
// its name.
func (cp *controlPlane) sample(s *[]float64, name string, cpuNs int64) {
	ms := float64(cpuNs) / 1e6
	*s = append(*s, ms)
	cp.res.byOp[name] = append(cp.res.byOp[name], ms)
}

// run replays whole script cycles until the deadline passes (at least
// one cycle), recording spans when tr is non-nil. Operations are timed
// in the CPU time of run's thread: the program under test runs every
// operation on its caller's goroutine.
func (cp *controlPlane) run(deadline time.Time, tr *tracer) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		first := cp.res.cycles == 0
		for i, o := range cp.script {
			req := int64(cp.res.cycles*len(cp.script) + i)
			cp.step(o, first, req, tr)
		}
		cp.res.cycles++
	}
}

// driverAttempts sums write attempts across every control-plane driver.
func (cp *controlPlane) driverAttempts() int {
	n := 0
	if d := cp.app.Deployment(); d != nil && d.Driver != nil {
		st := d.Driver.Stats()
		n += st.Writes + st.Retries
	}
	for _, d := range cp.fd.Drivers {
		st := d.Stats()
		n += st.Writes + st.Retries
	}
	return n
}

// step executes and checks one operation.
func (cp *controlPlane) step(o op, first bool, req int64, tr *tracer) {
	// Every operation starts on a collected and swept heap, so the
	// collections and sweeping it pays for are those its own allocation
	// causes, not whatever the operations before it left behind.
	runtime.GC()
	cp.res.attempted++
	depBefore := cp.app.Deployment()
	attemptsBefore := cp.driverAttempts()
	var opStart int64
	if tr != nil {
		opStart = tr.now()
	}
	var childNs int64
	switch o.kind {
	case opApply:
		childNs = cp.apply(o, first, req, tr)
	case opHeal:
		childNs = cp.heal(o, req, tr)
	case opFabric:
		childNs = cp.fabricRound(o, first, req, tr)
	}
	if tr != nil {
		tr.record("ctl.op."+[...]string{"apply", "heal", "fabric"}[o.kind], -1, req, opStart, tr.now(), childNs, true)
	}
	if first {
		cp.res.firstOps++
		after := cp.driverAttempts()
		if cp.app.Deployment() == depBefore {
			cp.res.driverAttempts += after - attemptsBefore
		} else {
			cp.res.driverAttempts += after - (attemptsBefore - driverWrites(depBefore))
		}
	}
}

// driverWrites returns a deployment driver's attempt count.
func driverWrites(d *core.Deployment) int {
	if d == nil || d.Driver == nil {
		return 0
	}
	st := d.Driver.Stats()
	return st.Writes + st.Retries
}

// apply converges one intent edit and checks it neither failed nor
// rolled back, and that an unchanged re-apply is a proved no-op.
func (cp *controlPlane) apply(o op, first bool, req int64, tr *tracer) int64 {
	next := cp.cur.Clone()
	o.edit(next)
	var childNs int64
	if tr != nil {
		childNs += tr.timed("intent.diff", req, func() { intent.Diff(cp.cur, next) })
	}
	start, cpu0 := time.Now(), threadCPU()
	rep, err := cp.app.Apply(next, intent.Options{})
	cpu, ns := threadCPU()-cpu0, time.Since(start)
	cp.sample(&cp.res.apply, o.name, cpu)
	if tr != nil {
		end := tr.now()
		tr.record("intent.apply", -1, req, end-int64(ns), end, 0, true)
		childNs += int64(ns)
	}
	switch {
	case err != nil:
		cp.fail("%s: %v", o.name, err)
		return childNs
	case rep.RolledBack:
		cp.fail("%s: rolled back", o.name)
	case o.noop && !rep.NoOp:
		cp.fail("%s: not a proved no-op (%d entries, %d reloads)", o.name, rep.DeltaEntries, rep.ProgramReloads)
	}
	cp.cur = next
	if d := cp.app.Deployment(); d == nil || len(d.Config.Chains) != len(next.Chains) {
		cp.fail("%s: deployment does not carry the applied chain set", o.name)
	} else {
		cp.publish(d)
	}
	for _, st := range rep.Build.Stages {
		cp.res.stageNs[st.Name] += int64(st.Duration)
	}
	cp.res.cacheHits += rep.Build.CacheHits
	cp.res.cacheAll += rep.Build.CacheHits + rep.Build.CacheMisses
	if first {
		cp.res.firstApplies++
		cp.res.deltaEntries += rep.DeltaEntries
		cp.res.programReloads += rep.ProgramReloads
	}
	return childNs
}

// heal feeds one port event to the core reconciler and checks it healed
// without error-severity degradation.
func (cp *controlPlane) heal(o op, req int64, tr *tracer) int64 {
	// The port fails (or recovers) on the switch first, as the fault
	// injector does; the timed part is the reconciler's reaction.
	if err := cp.app.Deployment().Switch.SetPortAdminState(o.ev.Port, o.ev.Kind == fault.PortUp); err != nil {
		cp.fail("%s: %v", o.name, err)
		return 0
	}
	if o.grace && cp.grace != nil {
		cp.grace.Lock()
	}
	start, cpu0 := time.Now(), threadCPU()
	rep, err := cp.rec.HandleEvent(o.ev)
	cpu, ns := threadCPU()-cpu0, time.Since(start)
	if o.grace && cp.grace != nil {
		cp.grace.Unlock()
	}
	cp.sample(&cp.res.heal, o.name, cpu)
	if tr != nil {
		end := tr.now()
		tr.record("core.heal", -1, req, end-int64(ns), end, 0, true)
	}
	switch {
	case err != nil:
		cp.fail("%s: %v", o.name, err)
	case rep.Degradation.HasErrors():
		cp.fail("%s: reconciler could not self-heal", o.name)
	case o.ev.Port == staticExitPort && o.ev.Kind == fault.PortDown && rep.Repointed[staticExitChain] == 0:
		cp.fail("%s: chain %d not re-pointed off its dead exit", o.name, staticExitChain)
	case o.ev.Port == staticExitPort && o.ev.Kind == fault.PortUp && rep.Repointed[staticExitChain] != staticExitPort:
		cp.fail("%s: chain %d not re-pointed back to its declared exit", o.name, staticExitChain)
	}
	return int64(ns)
}

// fabricRound applies one fabric fault, runs one reconcile round and
// probes every placeable chain end to end across the fabric.
func (cp *controlPlane) fabricRound(o op, first bool, req int64, tr *tracer) int64 {
	var childNs int64
	start, cpu0 := time.Now(), threadCPU()
	if err := o.fab(cp.fab); err != nil {
		cp.fail("%s: %v", o.name, err)
		return 0
	}
	rep, err := cp.frec.Reconcile()
	cpu, ns := threadCPU()-cpu0, time.Since(start)
	cp.sample(&cp.res.reconcile, o.name, cpu)
	if tr != nil {
		end := tr.now()
		tr.record("cluster.reconcile", -1, req, end-int64(ns), end, 0, true)
		childNs += int64(ns)
		childNs += tr.timed("fabricplace.place", req, func() {
			fabricplace.Place(cp.fab.PlacementGraph(), cp.fd.Chains, fabricplace.Options{
				StageDemand: cp.fd.StageDemand, Model: fabricplace.DefaultModel(cp.fab.Prof),
			})
		})
	}
	if err != nil {
		cp.fail("%s: reconcile: %v", o.name, err)
		return childNs
	}
	if first {
		cp.res.firstRounds++
		cp.res.switchesReprogrammed += len(rep.Changed)
	}
	for _, c := range cp.fd.Chains {
		if _, dark := cp.fd.Blackholed[c.PathID]; dark {
			continue
		}
		var ok bool
		inject := func() { ok = cp.probe(c) }
		if tr != nil {
			childNs += tr.timed("cluster.fabric_inject", req, inject)
		} else {
			inject()
		}
		cp.res.probes++
		if !ok {
			cp.fail("%s: chain %d probe not delivered correctly", o.name, c.PathID)
		}
	}
	return childNs
}

// probe injects one packet of chain c's class at the fabric entry and
// checks it leaves once, on the class's exit port, correctly rewritten.
func (cp *controlPlane) probe(c route.Chain) bool {
	var pkt *packet.Parsed
	var exp frameExp
	switch c.PathID {
	case scenario.PathFull:
		pkt, exp = scenario.ClientTCP(443), frameExp{cls: clsFull, dst: cp.probeBackend}
	case scenario.PathMedium:
		pkt, exp = scenario.TenantBound(), frameExp{cls: clsMedium, dst: scenario.TenantHost}
	case scenario.PathBasic:
		pkt = scenario.InternetBound()
		exp = frameExp{cls: clsBasic, dst: pkt.IPv4.Dst}
	default:
		return true // no traffic class steers onto other chains
	}
	ft, err := cp.fab.Inject(0, scenario.PortClient, pkt)
	if err != nil || len(ft.Out) != 1 || ft.Out[0].Port != cp.chk.ports[exp.cls] {
		return false
	}
	out, err := ft.Out[0].Pkt.Serialize(nil)
	return err == nil && cp.chk.frame(out, exp)
}
