// Command perfbench is the repository benchmark: it drives the §5
// edge-cloud service chain end to end through the real deployment,
// intent applier and reconcilers, checks every output against the
// scenario, and reports end-to-end metrics (untraced run) or per-layer
// metrics (traced run) as one JSON line.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload edgecloud --seed 1 --seconds 55 --trace 0
//
// See perfbench/README.md for the workloads, metrics and output files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	root     string
	out      string
	// liveLoopback drops the grace period around loopback-port
	// recoveries on reconfig (controlPlane.grace).
	liveLoopback bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", wlEdgecloud, "workload: edgecloud, bigtables, flowchurn or reconfig")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 55, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.IntVar(&o.workers, "workers", 0, "datapath workers (default: nproc, at most one per worker port)")
	flag.StringVar(&o.root, "root", ".", "repository root (holds configs/edgecloud.json)")
	flag.BoolVar(&o.liveLoopback, "live-loopback", false, "reconfig: return loopback ports to the rotation with bursts in flight (reproduces a known core defect)")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans and result records")
	flag.Parse()
	o.trace = traceFlag == 1

	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// resolveWorkers applies the default and refuses more workers than the
// host has CPUs: a scaling figure beyond nproc measures time slicing,
// not the program.
func resolveWorkers(requested, maxWorkers int) (int, error) {
	nproc := runtime.NumCPU()
	if requested > nproc {
		return 0, fmt.Errorf("%d workers requested but the host has %d CPUs", requested, nproc)
	}
	n := requested
	if n <= 0 {
		n = nproc
	}
	if n > len(workerPorts) {
		n = len(workerPorts)
	}
	if maxWorkers > 0 && n > maxWorkers {
		n = maxWorkers
	}
	return n, nil
}

// run executes one benchmark run and returns its result line.
func run(o options, stdout *os.File) (*result, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	probe, err := newWorkload(o.root, o.workload, 1, o.seed)
	if err != nil {
		return nil, err
	}
	workers, err := resolveWorkers(o.workers, probe.maxWorkers)
	if err != nil {
		return nil, err
	}
	host := newHostRecord(o.root, workers)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v workers=%d nproc=%d gomaxprocs=%d %s cpu=%q commit=%s\n",
		o.workload, o.seed, o.seconds, o.trace, workers, host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.Commit)

	e, setupS, err := setup(o, workers)
	if err != nil {
		return nil, err
	}
	sim := e.simPass(e.simRing)
	var m map[string]metric
	var attempted, failed int64
	var failures []string
	attempted += sim.packets + e.warmPackets
	failed += sim.failed + e.warmFailed
	failures = append(append(failures, sim.failures...), e.warmFailures...)

	if !o.trace {
		ph, err := e.measure(o)
		if err != nil {
			return nil, err
		}
		attempted += ph.dp.packets + int64(e.ctl.res.attempted)
		failed += ph.dp.failed + int64(e.ctl.res.failed)
		failures = append(append(failures, ph.dp.failures...), e.ctl.res.failures...)
		m = endToEnd(e, ph, sim, setupS)
		fmt.Fprintf(stdout, "Mpps per slice %.3f\nburst p99 per slice (us) %.0f\n", ph.dp.sliceMpps, ph.dp.sliceP99)
	} else {
		tm, err := e.measureTraced(o, sim)
		if err != nil {
			return nil, err
		}
		attempted += tm.attempted
		failed += tm.failed
		failures = append(failures, tm.failures...)
		m = tm.metrics
	}

	failRatio := ratio(float64(failed), float64(attempted))
	c := e.ctl.res
	fmt.Fprintf(stdout, "control: %d script cycles, %d applies, %d heals, %d fabric rounds, %d fabric probes; set-up %.3fs\n",
		c.cycles, len(c.apply), len(c.heal), len(c.reconcile), c.probes, setupS)
	ops := make([]string, 0, len(c.byOp))
	for name := range c.byOp {
		ops = append(ops, name)
	}
	sort.Strings(ops)
	for _, name := range ops {
		fmt.Fprintf(stdout, "  control op %-24s n=%-4d median %.4f ms\n", name, len(c.byOp[name]), median(c.byOp[name]))
	}
	fmt.Fprintf(stdout, "fail_ratio %.6g (%d failed of %d attempted operations)\n", failRatio, failed, attempted)
	for _, f := range failures {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
	if err := appendRecord(o, host, res, failRatio); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result record not written: %v\n", err)
	}
	return res, nil
}

// appendRecord adds the run to the results file the summary reads.
func appendRecord(o options, host hostRecord, res *result, failRatio float64) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	fh, err := os.OpenFile(filepath.Join(o.out, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	rec := struct {
		Workload  string            `json:"workload"`
		Seed      int64             `json:"seed"`
		Seconds   float64           `json:"seconds"`
		Trace     bool              `json:"trace"`
		Host      hostRecord        `json:"host"`
		FailRatio float64           `json:"fail_ratio"`
		Correct   bool              `json:"correct"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.workload, o.seed, o.seconds, o.trace, host, failRatio, res.Correct, res.Metrics}
	if err := json.NewEncoder(fh).Encode(rec); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// setup builds the workload's environment setupReps times and keeps the
// last; setup_s is the median of the set-ups' process CPU times, the
// collector's work included. Generated inputs (flows, frames) are made
// once, outside the timed set-up.
func setup(o options, workers int) (*env, float64, error) {
	wl, err := newWorkload(o.root, o.workload, workers, o.seed)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	e := &env{wl: wl, seed: o.seed, chk: newChecker(), churnUsed: make(map[uint32]bool)}
	e.flows = genFlows(rng, wl.sessions, wl.clientBlocks, e.churnUsed)
	per := len(e.flows) / workers
	for i := 0; i < workers; i++ {
		flows := e.flows
		if per > 0 {
			flows = e.flows[i*per : (i+1)*per]
		}
		r := wl.buildRing(rand.New(rand.NewSource(o.seed*31+int64(i)+1)), wl.ringSize, flows)
		w := newWorker(i, workerPorts[i], r, e.chk)
		// Sessions are (re)learned while traffic runs on flowchurn, and
		// on reconfig after a redeploy; with workers sharing one CPU
		// queue a flow's later packets may punt while another worker
		// still services its first.
		w.relearn = wl.control || wl.churn
		if !wl.churn {
			w.rot = rand.New(rand.NewSource(o.seed*7 + int64(i)))
		}
		w.faultLoss = wl.control
		e.workers = append(e.workers, w)
	}
	e.simRing = wl.buildRing(rand.New(rand.NewSource(o.seed*131+7)), simPackets, e.flows)

	var times []float64
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		start := processCPU()
		if err := e.setupOnce(); err != nil {
			return nil, 0, err
		}
		times = append(times, float64(processCPU()-start)/1e9)
	}
	if wl.control {
		// Reconfig's control plane drives the deployment its traffic
		// runs on; its fabric is built outside the timed set-up, as the
		// datapath workloads build theirs after the traffic window.
		cp, err := e.control()
		if err != nil {
			return nil, 0, err
		}
		cp.publish = e.publish
		if !o.liveLoopback {
			cp.grace = &e.inflight
		}
	}
	return e, median(times), nil
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// warmFrames bounds each worker's warm-up pass.
const warmFrames = 8192

// setupOnce deploys the workload, installs the established sessions
// and warms every worker's ring once.
func (e *env) setupOnce() error {
	app, err := deploy(e.wl.doc)
	if err != nil {
		return err
	}
	e.app = app
	d := app.Deployment()
	e.dep.Store(d)
	e.churnUsed = make(map[uint32]bool)
	if e.wl.churn {
		e.fresh = true
		return nil
	}
	for _, f := range e.flows {
		e.churnUsed[f.hash] = true
	}
	if err := installSessions(d, e.flows); err != nil {
		return err
	}
	for _, w := range e.workers {
		w.pos = 0
		for n := 0; n < len(w.ring.frames) && n < warmFrames; n += burstSize {
			w.burst(d, nil, 0)
		}
		e.warmPackets += w.packets
		e.warmFailed += w.failed
		e.warmFailures = append(e.warmFailures, w.failures...)
		w.packets, w.failed, w.failures = 0, 0, nil
	}
	return nil
}

// control returns the workload's control plane, building it on first
// use over the deployment the workload's traffic ran on: the script
// edits the workload's own intent, and its fabric carries the
// workload's tables.
func (e *env) control() (*controlPlane, error) {
	if e.ctl == nil {
		cp, err := newControlPlane(e.app, e.wl.doc, e.chk)
		if err != nil {
			return nil, err
		}
		e.ctl = cp
	}
	return e.ctl, nil
}
