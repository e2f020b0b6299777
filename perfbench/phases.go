package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Shares of --seconds. Datapath workloads spend dpShare on traffic and
// the rest on the control script against their quiescent deployment;
// reconfig runs both together for the whole window. The traced run
// splits its datapath time between an untraced and a traced window so
// the tracing overhead can be read off.
const (
	dpShare         = 0.5
	tracedDPShare   = 0.25 // the untraced and the traced side
	tracedCtlShare  = 0.30
	reconfigTraceDP = 0.40 // reconfig: the untraced and the traced side
	tracedRounds    = 2    // untraced/traced window pairs per traced run
)

// phases is what the untraced run measured.
type phases struct {
	dp     dpResult
	heapMB float64
}

// heapMB returns the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// dropGenerated releases the generated traffic (rings, flows, the
// simulation set) once the datapath window is over, so heap_mb measures
// the deployment, not the traffic generator.
func (e *env) dropGenerated() {
	for _, w := range e.workers {
		w.ring, w.fresh = nil, nil
	}
	e.flows, e.simRing, e.churnUsed = nil, nil, nil
}

// settle ends a datapath window: it releases the generated traffic and,
// on flowchurn, goes back to the first whole epoch's deployment, whose
// full session table is the same state every run. The live heap and the
// control script are measured on what is left.
func (e *env) settle() {
	e.dropGenerated()
	if e.fullEpoch != nil {
		e.app, e.fullEpoch = e.fullEpoch, nil
		e.dep.Store(e.app.Deployment())
	}
}

// measure runs the untraced measurement: the datapath window, then (for
// datapath workloads) the control script on the workload's quiescent
// deployment; reconfig runs both at once.
func (e *env) measure(o options) (*phases, error) {
	base := time.Now()
	ph := &phases{}
	if e.wl.control {
		dp, _, err := e.runDatapath(o.seconds, false, base, func(deadline time.Time) { e.ctl.run(deadline, nil) })
		if err != nil {
			return nil, err
		}
		e.settle()
		ph.dp, ph.heapMB = dp, heapMB()
		return ph, nil
	}
	dp, _, err := e.runDatapath(o.seconds*dpShare, false, base, nil)
	if err != nil {
		return nil, err
	}
	e.settle()
	ph.dp, ph.heapMB = dp, heapMB()
	cp, err := e.control()
	if err != nil {
		return nil, err
	}
	cp.run(time.Now().Add(time.Duration(o.seconds*(1-dpShare)*1e9)), nil)
	return ph, nil
}

// endToEnd assembles the end-to-end metrics of an untraced run.
func endToEnd(e *env, ph *phases, sim simStats, setupS float64) map[string]metric {
	dp, c := ph.dp, e.ctl.res
	return map[string]metric{
		"mpps":             {dp.mpps, "Mpps"},
		"burst_us_p99":     {dp.burstP99, "us"},
		"apply_ms_p50":     {median(c.apply), "ms"},
		"apply_ms_p90":     {pctl(c.apply, 0.9), "ms"},
		"heal_ms_p50":      {median(c.heal), "ms"},
		"heal_ms_p90":      {pctl(c.heal, 0.9), "ms"},
		"reconcile_ms_p50": {median(c.reconcile), "ms"},
		"reconcile_ms_p90": {pctl(c.reconcile, 0.9), "ms"},
		"setup_s":          {setupS, "s"},
		"heap_mb":          {ph.heapMB, "MB"},
		"sim_latency_ns":   {sim.latencyNs, "ns"},
		"recircs_per_pkt":  {sim.recircs, "count"},
	}
}

// tracedResult is what the traced run reports.
type tracedResult struct {
	metrics           map[string]metric
	attempted, failed int64
	failures          []string
}

// nsPerPacket is one worker's host time per packet in a window.
func nsPerPacket(dp dpResult, workers int) float64 {
	return ratio(float64(dp.windowNs)*float64(workers), float64(dp.packets))
}

// measureTraced runs the traced measurement: an untraced datapath
// window (the overhead baseline and the counts), a traced window with a
// span around every call into a layer, standalone layer timings, and
// the traced control script. It writes the spans file and prints the
// per-layer table.
func (e *env) measureTraced(o options, sim simStats) (*tracedResult, error) {
	base := time.Now()
	all := newTracer(base, 1)
	ctlTr := newTracer(base, 1)
	out := &tracedResult{}
	workers := len(e.workers)

	// Untraced and traced windows alternate, so drift on the host lands
	// on both sides of the tracing-overhead comparison.
	var plain, traced dpResult
	win := o.seconds * tracedDPShare / tracedRounds
	var plainSide, tracedSide func(time.Time)
	if e.wl.control {
		win = o.seconds * reconfigTraceDP / tracedRounds
		plainSide = func(dl time.Time) { e.ctl.run(dl, nil) }
		tracedSide = func(dl time.Time) { e.ctl.run(dl, ctlTr) }
	}
	for r := 0; r < tracedRounds; r++ {
		p, _, err := e.runDatapath(win, false, base, plainSide)
		if err != nil {
			return nil, err
		}
		t, tracers, err := e.runDatapath(win, true, base, tracedSide)
		if err != nil {
			return nil, err
		}
		plain.add(p)
		traced.add(t)
		for _, tr := range tracers {
			all.merge(tr)
		}
	}

	layerTr := newTracer(base, 1)
	lm, rows, inSwitch, err := e.measureLayers(layerTr)
	if err != nil {
		return nil, err
	}
	all.merge(layerTr)
	if !e.wl.control {
		e.settle()
		cp, err := e.control()
		if err != nil {
			return nil, err
		}
		cp.run(time.Now().Add(time.Duration(o.seconds*tracedCtlShare*1e9)), ctlTr)
	}
	all.merge(ctlTr)

	for _, dp := range []dpResult{plain, traced} {
		out.attempted += dp.packets
		out.failed += dp.failed
		out.failures = append(out.failures, dp.failures...)
	}
	c := e.ctl.res
	out.attempted += int64(c.attempted)
	out.failed += int64(c.failed)
	out.failures = append(out.failures, c.failures...)

	perPkt := func(name string) float64 { return ratio(float64(all.get(name).Self), float64(traced.packets)) }
	meanMs := func(name string) float64 {
		a := all.get(name)
		return ratio(float64(a.Total), float64(a.N)) / 1e6
	}
	m := map[string]float64{}
	for k, v := range lm {
		m[k] = v
	}
	m["packet.parse_ns"] = perPkt("packet.parse")
	m["packet.serialize_ns"] = perPkt("packet.serialize")
	m["asic.inject_ns"] = perPkt("asic.inject")
	m["asic.to_cpu_ratio"] = sim.toCPURatio
	m["ctl.punt_ns"] = ratio(float64(all.get("ctl.poll").Total), float64(traced.handled))
	m["ctl.reinject_ratio"] = ratio(float64(plain.reinject), float64(plain.handled))
	m["ctl.sessions_installed"] = float64(plain.sessions)
	applies := float64(len(c.apply))
	for _, st := range stageNames {
		m["pipeline."+st+"_ms"] = ratio(float64(c.stageNs[st]), applies) / 1e6
	}
	m["pipeline.cache_hit_ratio"] = ratio(float64(c.cacheHits), float64(c.cacheAll))
	m["intent.diff_ms"] = meanMs("intent.diff")
	m["intent.delta_entries"] = ratio(float64(c.deltaEntries), float64(c.firstApplies))
	m["intent.program_reloads"] = ratio(float64(c.programReloads), float64(c.firstApplies))
	m["fabricplace.place_ms"] = meanMs("fabricplace.place")
	m["cluster.switches_reprogrammed"] = ratio(float64(c.switchesReprogrammed), float64(c.firstRounds))
	m["cluster.fabric_inject_ns"] = meanMs("cluster.fabric_inject") * 1e6
	m["fault.driver_attempts"] = ratio(float64(c.driverAttempts), float64(c.firstOps))

	e2e := nsPerPacket(plain, workers)
	tracedNs := nsPerPacket(traced, workers)
	// Layer self times: the spans outside the switch, and inside it the
	// standalone compose self, NF execute and telemetry times. What is
	// left is the switch engine's own work plus anything no layer
	// accounts for.
	explained := inSwitch
	for _, name := range []string{"packet.parse", "ctl.poll", "packet.serialize", "bench.check"} {
		explained += perPkt(name)
	}
	m["trace.unexplained_ns"] = tracedNs - explained
	m["trace.overhead_pct"] = ratio(tracedNs-e2e, e2e) * 100

	spansPath := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", e.wl.name, o.seed))
	if err := all.writeSpans(spansPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans not written: %v\n", err)
	}

	rows = append(rows,
		layerRow{"e2e (untraced)", e2e, "ns/pkt", "one worker's host time per packet"},
		layerRow{"e2e (traced)", tracedNs, "ns/pkt", ""},
		layerRow{"packet.parse", m["packet.parse_ns"], "ns/pkt", "span self time"},
		layerRow{"asic.inject", m["asic.inject_ns"], "ns/pkt", "span self time; its split follows"},
		layerRow{"ctl.poll", perPkt("ctl.poll"), "ns/pkt", "span self time"},
		layerRow{"packet.serialize", m["packet.serialize_ns"], "ns/pkt", "span self time"},
		layerRow{"bench.check", perPkt("bench.check"), "ns/pkt", "span self time (output check)"},
		layerRow{"trace.unexplained", m["trace.unexplained_ns"], "ns/pkt", "traced e2e minus every layer self time (spans, compose self, NF execute, telemetry)"},
		layerRow{"trace.overhead", m["trace.overhead_pct"], "%", "traced over untraced"},
	)
	rows = append(rows, layerRow{"asic.self (remainder)", m["asic.inject_ns"] - inSwitch, "ns/pkt",
		"inject minus compose self, NF execute and telemetry"})
	printLayerTable(os.Stdout, fmt.Sprintf("per-layer table (%s, seed %d, spans: %s)", e.wl.name, o.seed, spansPath), rows)

	out.metrics = make(map[string]metric, len(m))
	for k, v := range m {
		out.metrics[k] = metric{v, unitOf(k)}
	}
	return out, nil
}

// unitOf derives a per-layer metric's unit from its name suffix.
func unitOf(name string) string {
	switch {
	case hasSuffix(name, "_ns"):
		return "ns"
	case hasSuffix(name, "_ms"):
		return "ms"
	case hasSuffix(name, "_pct"):
		return "%"
	case hasSuffix(name, "_ratio"):
		return "ratio"
	case hasSuffix(name, "bytes_per_pkt"):
		return "B/pkt"
	case hasSuffix(name, "allocs_per_pkt"):
		return "allocs/pkt"
	}
	return "count"
}

func hasSuffix(s, suf string) bool { return len(s) >= len(suf) && s[len(s)-len(suf):] == suf }
